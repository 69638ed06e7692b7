#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanRecorder::Id SpanRecorder::begin(const char* name, Id parent,
                                     std::int64_t load) {
  spans_.push_back(Span{name, now_ns(), 0, parent, load});
  return static_cast<Id>(spans_.size());
}

double SpanRecorder::end(Id id) {
  Span& s = spans_[id - 1];
  s.end_ns = now_ns();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  auto seconds = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  };
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_s[s.parent - 1] += seconds(s);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = seconds(spans_[i]);
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                  " \"traceEvents\": [\n",
               metadata_json.c_str());
  std::fprintf(f, "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"args\": {\"name\": \"parcel_perfbench\"}}");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // The layer prefix of "layer.call" names becomes the event category.
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 ",\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %u, \"load\": %lld}}",
                 name.c_str(), layer.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 s.parent, static_cast<long long>(s.load));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
