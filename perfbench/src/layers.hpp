// Load passes and the outside-in layer probes of the traced run.
//
// Every probe calls a layer's public entry point on one load's own
// inputs or outputs, after the load: the simulator carries no tracing of
// its own. Probes whose work also happens inside ExperimentRunner::run
// (testbed build, energy analysis, controller feed, MHTML round trip,
// scheduler work) are the "unit cost x count" terms of the cost model;
// whatever of core.run they do not explain is the model residual.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "digest.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using Pages = std::vector<const parcel::web::WebPage*>;

/// Outcome of one pass over a task list.
struct PassResult {
  std::vector<LoadRecord> records;  // slot i = tasks[i]
  std::vector<double> run_s;        // ExperimentRunner::run wall time
  std::size_t failed = 0;           // broken checks or record mismatches
  std::string first_failure;
  double wall_s = 0.0;
  [[nodiscard]] std::string digest() const;
};

/// Run every task once on `jobs` core::ParallelRunner workers. With
/// `refs`, a load whose record differs from refs[i] counts as failed.
[[nodiscard]] PassResult run_pass(const Pages& pages,
                                  const std::vector<LoadTask>& tasks, int jobs,
                                  const std::vector<LoadRecord>* refs);

/// Counts a failed load (no-op for an empty `why`) and keeps the first
/// reason for the report.
void note_failure(PassResult& out, const LoadTask& t, const std::string& why);

/// Sums over the loads of a traced pass (times in seconds).
struct LayerTotals {
  std::size_t loads = 0;
  double run_s = 0.0;
  double testbed_s = 0.0;
  double sched_probe_s = 0.0;
  double lte_s = 0.0;
  double trace_s = 0.0;
  double ctrl_s = 0.0;
  double mhtml_s = 0.0;
  double mhtml_mib = 0.0;
  double downlink_mib = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t tcp_connections = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t dns_lookups = 0;
  std::uint64_t objects = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t ctrl_records = 0;
  std::uint64_t retunes = 0;
  std::map<parcel::core::Scheme, std::vector<double>> run_ms;
};

/// The traced pass, at jobs=1 on the calling thread: per task a
/// "core.load" span (child of `parent`) holding the core.run span (heap
/// allocations counted around it) and one span per probe. Checks and
/// `refs` apply as in run_pass.
[[nodiscard]] PassResult traced_pass(const Pages& pages,
                                     const std::vector<LoadTask>& tasks,
                                     const std::vector<LoadRecord>& refs,
                                     SpanRecorder& spans,
                                     SpanRecorder::Id parent,
                                     LayerTotals& totals);

/// Cold ParseCache html/css/js calls (null pin: scanned fresh) over
/// every parseable object of `pages`; returns microseconds per KiB,
/// the median of `reps` passes.
[[nodiscard]] double scan_us_per_kib(const Pages& pages, int reps,
                                     SpanRecorder& spans);

}  // namespace perfbench
