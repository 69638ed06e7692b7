// In-memory span recorder for the traced run. Spans are taken by the
// benchmark around public calls into each layer (no tracing inside the
// simulator) and exported at exit as Chrome Trace Event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Id = std::uint32_t;  // 1-based; 0 means "no parent"
  static constexpr std::int64_t kNoLoad = -1;

  struct Span {
    const char* name = "";  // string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    Id parent = 0;
    std::int64_t load = kNoLoad;
  };

  SpanRecorder();

  /// Open a span; `name` must have static storage duration.
  Id begin(const char* name, Id parent = 0, std::int64_t load = kNoLoad);
  /// Close it and return its duration in seconds.
  double end(Id id);

  /// Run `fn` inside a span and return its duration in seconds.
  template <typename F>
  double time(const char* name, Id parent, std::int64_t load, F&& fn) {
    const Id id = begin(name, parent, load);
    fn();
    return end(id);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the time covered by child spans
  };
  /// Per-name totals. Spans are recorded from one thread and children
  /// never overlap each other, so self time is duration minus the sum of
  /// the direct children's durations.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Write every span as a Chrome "X" (complete) event with its id,
  /// parent and load id in args; `metadata_json` (a JSON object) is
  /// stored under "otherData". Returns false if the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& metadata_json) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
