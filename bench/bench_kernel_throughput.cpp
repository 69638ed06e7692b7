// Kernel-throughput gate (DESIGN.md §11): pins the three numbers the
// kernel and SoA work is accountable for — scheduler events/sec,
// trace-records-replayed/sec, and bytes-allocated-per-load — into
// BENCH_kernel.json, and doubles as the comparator ci.sh uses to fail the
// build when any of them regresses more than 10% against the checked-in
// baseline:
//
//   bench_kernel_throughput [--quick]        # measure, write JSON
//   bench_kernel_throughput --compare CUR BASE   # gate, no measurement
//
// The replay measurement races the real SoA analyzers against an
// array-of-structs replica of the pre-SoA trace (same loops, same
// arithmetic, 32-byte record stride instead of per-field columns), so the
// reported speedup is against the actual former layout, not a strawman.
// Bytes per load are counted by the global operator-new hook linked into
// this binary (alloc_hook.cpp).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "bench/alloc_hook.hpp"
#include "bench/common.hpp"
#include "core/experiment.hpp"
#include "sim/scheduler.hpp"
#include "trace/packet_trace.hpp"
#include "trace/trace_analyzer.hpp"
#include "util/rng.hpp"
#include "web/generator.hpp"

namespace {

using namespace parcel;
// parcel-lint: allow(nondet-time) wall-clock is the measurement here: this bench reports real kernel throughput, not simulated time
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Scheduler events/sec -------------------------------------------------

double scheduler_events_per_sec(int chain_events, int reps) {
  auto start = Clock::now();
  std::uint64_t total = 0;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Scheduler sched;
    int remaining = chain_events;
    std::function<void()> tick = [&] {
      if (--remaining > 0) {
        sched.schedule_after(util::Duration::micros(10), tick);
      }
    };
    sched.schedule_after(util::Duration::zero(), tick);
    sched.run();
    total += sched.events_executed();
  }
  return static_cast<double>(total) / seconds_since(start);
}

// ---- Trace replay: SoA analyzers vs the pre-SoA AoS layout ---------------

trace::PacketTrace synthetic_trace(std::size_t records) {
  trace::PacketTrace trace;
  util::Rng rng(20140407);
  double t = 0;
  for (std::size_t i = 0; i < records; ++i) {
    t += rng.exponential(0.01);
    trace.record(trace::PacketRecord{
        util::TimePoint::at_seconds(t),
        rng.uniform(0.0, 1.0) < 0.25 ? trace::Direction::kUplink
                                     : trace::Direction::kDownlink,
        rng.uniform(0.0, 1.0) < 0.9 ? trace::PacketKind::kData
                                    : trace::PacketKind::kAck,
        1448, static_cast<std::uint32_t>(1 + i % 6),
        static_cast<std::uint32_t>(1 + i % 40)});
  }
  return trace;
}

/// One replay pass over the SoA trace through the real analyzers: the gap
/// census and byte accounting every figure pipeline runs post-load.
double soa_replay_pass(const trace::PacketTrace& trace) {
  double acc = 0;
  acc += static_cast<double>(trace::TraceAnalyzer::count_gaps_longer_than(
      trace, util::Duration::millis(200)));
  acc += static_cast<double>(trace::TraceAnalyzer::downlink_bytes_before(
      trace, trace.last_time()));
  return acc;
}

/// The same pass over the former array-of-structs layout: identical loop
/// structure and arithmetic, full 32-byte PacketRecord stride per read.
double aos_replay_pass(const std::vector<trace::PacketRecord>& records) {
  double acc = 0;
  std::size_t gaps = 0;
  bool have_prev = false;
  util::TimePoint prev = util::TimePoint::origin();
  for (const auto& r : records) {
    if (r.kind != trace::PacketKind::kData) continue;
    if (have_prev && (r.t - prev) > util::Duration::millis(200)) ++gaps;
    prev = r.t;
    have_prev = true;
  }
  acc += static_cast<double>(gaps);
  util::TimePoint cutoff = records.back().t;
  util::Bytes total = 0;
  for (const auto& r : records) {
    if (r.t > cutoff) break;
    if (r.dir == trace::Direction::kDownlink &&
        r.kind == trace::PacketKind::kData) {
      total += r.bytes;
    }
  }
  acc += static_cast<double>(total);
  return acc;
}

struct ReplayResult {
  double soa_records_per_sec = 0;
  double aos_records_per_sec = 0;
};

ReplayResult replay_throughput(std::size_t records, int reps) {
  trace::PacketTrace trace = synthetic_trace(records);
  std::vector<trace::PacketRecord> aos(trace.records().begin(),
                                       trace.records().end());
  // Each pass walks the record set twice (gap census + byte accounting).
  const double replayed =
      2.0 * static_cast<double>(records) * static_cast<double>(reps);

  double soa_acc = 0;
  auto soa_start = Clock::now();
  for (int rep = 0; rep < reps; ++rep) soa_acc += soa_replay_pass(trace);
  double soa_sec = seconds_since(soa_start);

  double aos_acc = 0;
  auto aos_start = Clock::now();
  for (int rep = 0; rep < reps; ++rep) aos_acc += aos_replay_pass(aos);
  double aos_sec = seconds_since(aos_start);

  if (soa_acc != aos_acc) {
    std::fprintf(stderr,
                 "FAIL: SoA and AoS replay disagree (%.17g vs %.17g) — the "
                 "column scans changed semantics\n",
                 soa_acc, aos_acc);
    std::exit(1);
  }
  return ReplayResult{replayed / soa_sec, replayed / aos_sec};
}

// ---- Bytes-allocated-per-load ---------------------------------------------

struct LoadStats {
  std::uint64_t bytes_allocated = 0;
  /// Simulated radio joules per scheduler event over the measured loads —
  /// a deterministic energy-accounting drift alarm, not a wall-clock
  /// number.
  double sim_joules_per_event = 0;
};

/// Global operator-new bytes per warm load, averaged over one DIR and one
/// PARCEL(IND) load of `page`. A first, uncounted pair warms the parse
/// cache and lazy singletons so the count covers the load itself.
LoadStats measure_load_allocation(const web::WebPage& page) {
  core::RunConfig cfg = bench::replay_run_config(42);
  const core::Scheme schemes[] = {core::Scheme::kDir,
                                  core::Scheme::kParcelInd};
  for (core::Scheme s : schemes) core::ExperimentRunner::run(s, page, cfg);

  LoadStats stats;
  double joules = 0;
  std::uint64_t events = 0;
  for (core::Scheme s : schemes) {
    const std::uint64_t before = bench::alloc_totals().bytes;
    core::RunResult r = core::ExperimentRunner::run(s, page, cfg);
    stats.bytes_allocated += bench::alloc_totals().bytes - before;
    joules += r.radio.total.j();
    events += r.events_executed;
  }
  stats.bytes_allocated /= std::size(schemes);
  if (events == 0) {
    std::fprintf(stderr, "FAIL: runs executed zero scheduler events\n");
    std::exit(1);
  }
  stats.sim_joules_per_event = joules / static_cast<double>(events);
  return stats;
}

// ---- Flat-key JSON read/compare ------------------------------------------

/// The number after top-level key `key`. Keys inside nested objects (the
/// "host" stamp) never match, whatever they are named.
double read_key(const std::string& text, const char* key) {
  const std::string needle = std::string("\"") + key + "\"";
  int depth = 0;
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == '"') {
      if (depth == 1 && text.compare(pos, needle.size(), needle) == 0) {
        const std::size_t colon = text.find_first_not_of(
            " \t\r\n", pos + needle.size());
        if (colon == std::string::npos || text[colon] != ':') {
          std::fprintf(stderr, "compare: key %s malformed\n", key);
          std::exit(2);
        }
        return std::strtod(text.c_str() + colon + 1, nullptr);
      }
      // Skip the string; the stamp's strings hold no escaped quotes.
      pos = text.find('"', pos + 1);
      if (pos == std::string::npos) break;
    }
  }
  std::fprintf(stderr, "compare: key %s missing\n", key);
  std::exit(2);
}

std::string slurp(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "compare: cannot read %s\n", path);
    std::exit(2);
  }
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Gate CURRENT against BASELINE: throughput keys may not drop below 90%
/// of baseline, allocation keys may not exceed 110%. Exit 1 on regression.
int compare_mode(const char* current_path, const char* baseline_path) {
  constexpr double kThroughputFloor = 0.90;
  constexpr double kBytesCeiling = 1.10;
  std::string current = slurp(current_path);
  std::string baseline = slurp(baseline_path);

  struct Gate {
    const char* key;
    bool higher_is_better;
  };
  constexpr Gate kGates[] = {
      {"scheduler_events_per_sec", true},
      {"trace_replay_records_per_sec", true},
      {"bytes_allocated_per_load", false},
      {"sim_joules_per_event", false},
  };

  bool ok = true;
  for (const Gate& g : kGates) {
    double cur = read_key(current, g.key);
    double base = read_key(baseline, g.key);
    double ratio = base != 0 ? cur / base : 1.0;
    bool pass = g.higher_is_better ? ratio >= kThroughputFloor
                                   : ratio <= kBytesCeiling;
    std::printf("%-32s current %.4g  baseline %.4g  ratio %.3f  %s\n", g.key,
                cur, base, ratio, pass ? "ok" : "REGRESSION");
    if (!pass) ok = false;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "kernel throughput gate FAILED: >10%% regression vs %s\n",
                 baseline_path);
    return 1;
  }
  std::printf("kernel throughput gate passed (tolerance 10%%)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--compare") == 0) {
    return compare_mode(argv[2], argv[3]);
  }
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] | %s --compare CURRENT BASELINE\n",
                   argv[0], argv[0]);
      return 2;
    }
  }
  bench::print_header("Kernel throughput",
                      "scheduler events/sec, trace replay, bytes per load");

  const int chain_events = quick ? 50'000 : 200'000;
  const int chain_reps = quick ? 2 : 5;
  const std::size_t replay_records = quick ? 200'000 : 2'000'000;
  const int replay_reps = quick ? 3 : 10;
  const int hw = core::default_jobs();
  std::printf("hardware threads: %d%s\n\n", hw,
              quick ? "  (--quick: reduced workload, JSON not "
                      "baseline-comparable)"
                    : "");

  web::PageSpec spec;
  spec.object_count = 60;
  spec.total_bytes = util::mib(1);
  spec.seed = 77;
  web::WebPage page = web::PageGenerator::generate(spec);

  LoadStats loads = measure_load_allocation(page);
  std::printf("bytes allocated per load (operator new): %llu\n",
              static_cast<unsigned long long>(loads.bytes_allocated));
  std::printf("simulated energy per event: %.3g J/event\n",
              loads.sim_joules_per_event);

  double events = scheduler_events_per_sec(chain_events, chain_reps);
  std::printf("scheduler kernel: %.2fM events/s (%d-event chains x%d)\n",
              events / 1e6, chain_events, chain_reps);

  ReplayResult replay = replay_throughput(replay_records, replay_reps);
  std::printf("trace replay (SoA columns):   %.2fM records/s\n",
              replay.soa_records_per_sec / 1e6);
  std::printf("trace replay (AoS baseline):  %.2fM records/s  (SoA %.2fx)\n",
              replay.aos_records_per_sec / 1e6,
              replay.soa_records_per_sec / replay.aos_records_per_sec);

  FILE* json = std::fopen("BENCH_kernel.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "error: cannot write BENCH_kernel.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"hardware_threads\": %d,\n", hw);
  std::fprintf(json, "  \"host\": %s,\n", bench::host_stamp().c_str());
  std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(json, "  \"scheduler_events_per_sec\": %.0f,\n", events);
  std::fprintf(json, "  \"trace_replay_records_per_sec\": %.0f,\n",
               replay.soa_records_per_sec);
  std::fprintf(json, "  \"trace_replay_aos_records_per_sec\": %.0f,\n",
               replay.aos_records_per_sec);
  std::fprintf(json, "  \"trace_replay_speedup_vs_aos\": %.3f,\n",
               replay.soa_records_per_sec / replay.aos_records_per_sec);
  std::fprintf(json, "  \"bytes_allocated_per_load\": %llu,\n",
               static_cast<unsigned long long>(loads.bytes_allocated));
  std::fprintf(json, "  \"sim_joules_per_event\": %.9g\n",
               loads.sim_joules_per_event);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_kernel.json\n");
  return 0;
}
