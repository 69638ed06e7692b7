// Strict command line of the benchmark binary: unknown flags, repeated
// flags and malformed values are usage errors (exit 2), never defaults.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t {
  kAlexa34Matrix,
  kLargeObjectFade,
  kFleetStream,
};

[[nodiscard]] std::string_view workload_name(Workload w);

/// Seed whose simulated digest is pinned in golden.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  Workload workload = Workload::kAlexa34Matrix;
  std::uint64_t seed = kDefaultSeed;
  /// Length of the timed phase in wall seconds.
  int seconds = 10;
  /// core::ParallelRunner workers for the timed phase; 1..nproc.
  int jobs = 1;
  /// false: untraced run, end-to-end metrics. true: traced run at
  /// jobs=1, per-layer metrics.
  bool trace = false;
  /// Chrome Trace Event JSON written at exit of a traced run ("" = none).
  std::string trace_out;
  /// Pinned digests (golden.json); "" skips the golden comparison.
  std::string golden;
  /// Source revision stamped into the host fingerprint.
  std::string commit = "unknown";
};

struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Parse `args` (argv without the program name). `max_jobs` is the
/// host's nproc; --jobs defaults to it and may not exceed it. Throws
/// UsageError on any unknown, repeated, valueless or malformed flag.
[[nodiscard]] Options parse_cli(const std::vector<std::string>& args,
                                int max_jobs);

[[nodiscard]] std::string usage();

}  // namespace perfbench
