// parcel_perfbench: how fast the simulator turns seeded inputs into
// simulated page loads, measured in host time (see ../README.md).
//
//   parcel_perfbench --workload W [--seed N] [--seconds N] [--jobs N]
//                    [--trace 0|1] [--trace-out FILE] [--golden FILE]
//                    [--commit REV]
//
// --trace 0 prints the end-to-end metrics of an untraced timed run;
// --trace 1 prints the per-layer metrics of a traced run at jobs=1. The
// last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/parallel_runner.hpp"
#include "fingerprint.hpp"
#include "fleet/epoch_plan.hpp"
#include "layers.hpp"
#include "replay/replay_store.hpp"
#include "stats.hpp"
#include "web/parse_cache.hpp"

namespace {

using namespace perfbench;
using namespace parcel;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Set-up is repeated (at least kSetupReps times and for kSetupMinS) and
// its median reported, so one slow repetition on a busy host does not
// move setup_s.
constexpr int kSetupReps = 7;
constexpr double kSetupMinS = 1.0;

// Builds `in` with `make` until both minimums are met and returns each
// build's time. The previous build is freed before the clock starts, so
// every repetition starts from the same heap.
template <typename Inputs, typename Make>
std::vector<double> repeat_setup(Inputs& in, Make&& make) {
  std::vector<double> s;
  double total = 0.0;
  while (static_cast<int>(s.size()) < kSetupReps || total < kSetupMinS) {
    in = Inputs{};
    const auto t0 = Clock::now();
    in = make();
    s.push_back(seconds_since(t0));
    total += s.back();
  }
  return s;
}

// Sessions of each fleet call re-run one by one in the traced run.
constexpr int kFleetSamples = 64;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Correctness bookkeeping across every load the process ran.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;

  void fail(std::size_t n, const std::string& why) {
    failed += n;
    if (first_failure.empty() && !why.empty()) first_failure = why;
  }
  void add(const PassResult& p) {
    attempted += p.records.size();
    fail(p.failed, p.first_failure);
  }
};

// The pinned digest of `workload` at the default seed, "" if absent.
std::string golden_digest(const std::string& path, std::string_view workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string key = "\"" + std::string(workload) + "\"";
  const std::size_t k = text.find(key);
  if (k == std::string::npos) return "";
  const std::size_t open = text.find('"', text.find(':', k + key.size()));
  const std::size_t close = text.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

// Compares the run's digest with the pinned one at the default seed; a
// mismatch fails every load of the digested pass.
void check_golden(const Options& o, const std::string& digest,
                  std::size_t loads, Verdict& v) {
  std::string pinned;
  if (o.seed == kDefaultSeed && !o.golden.empty()) {
    pinned = golden_digest(o.golden, workload_name(o.workload));
  }
  std::printf("digest %s (golden: %s)\n", digest.c_str(),
              pinned.empty() ? "not checked at this seed" : pinned.c_str());
  if (!pinned.empty() && pinned != digest) {
    v.fail(loads, "digest " + digest + " differs from golden " + pinned);
  }
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(Verdict v, const std::vector<Metric>& metrics) {
  // A load can break several checks; count it once.
  v.failed = std::min(v.failed, v.attempted);
  if (!v.first_failure.empty()) {
    std::printf("FAILED: %zu of %zu loads; first: %s\n", v.failed, v.attempted,
                v.first_failure.c_str());
  }
  std::printf("loads_attempted %zu\nloads_failed %zu\n", v.attempted, v.failed);
  std::string json = std::string("{\"correct\": ") +
                     (v.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(v.attempted) +
                     ", \"failed\": " + std::to_string(v.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  std::printf("%s}}\n", json.c_str());
}

// ---- Untraced timed runs (end-to-end metrics) --------------------------

struct Timed {
  std::vector<double> load_ms;
  std::size_t loads = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

std::vector<Metric> end_to_end(const Timed& t, const std::vector<double>& setup_s,
                               const char* sample_kind) {
  const Percentile p50 = percentile(t.load_ms, 50);
  const Percentile p99 = percentile(t.load_ms, 99);
  std::printf("timed: %zu loads in %.3f s; %s: %zu samples, "
              "p99 has %zu beyond it\n",
              t.loads, t.wall_s, sample_kind, p99.samples, p99.beyond);
  std::printf("setup: %zu repetitions, median %.6f s, min %.6f s, max %.6f s\n",
              setup_s.size(), median(setup_s),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  const double loads = static_cast<double>(t.loads);
  return {{"loads_per_s", loads / t.wall_s, "loads/s"},
          {"load_ms_p50", p50.value, "ms"},
          {"load_ms_p99", p99.value, "ms"},
          {"cpu_ms_per_load", t.cpu_s * 1e3 / loads, "ms"},
          {"setup_s", median(setup_s), "s"},
          {"peak_rss_mib", peak_rss_mib(), "MiB"}};
}

std::vector<Metric> corpus_untraced(const Options& o, Verdict& v) {
  CorpusInputs in;
  const std::vector<double> setup_s =
      repeat_setup(in, [&] { return make_corpus_inputs(o.workload, o.seed); });
  const Pages& pages = in.corpus.replayed;
  const std::vector<LoadTask>& pass = in.pass;

  // Reference pass: warms the parse cache and pins each task's record.
  const PassResult ref = run_pass(pages, pass, o.jobs, nullptr);
  v.add(ref);
  check_golden(o, ref.digest(), pass.size(), v);
  web::ParseCache::instance().sweep_transient();

  // Closed batch: each worker starts its next load as soon as it is
  // free, cycling over the pass, until the deadline.
  struct Worker {
    std::vector<double> load_ms;
    PassResult fails;  // failed / first_failure only
  };
  std::vector<Worker> workers(static_cast<std::size_t>(o.jobs));
  std::atomic<std::size_t> next{0};
  const auto deadline = Clock::now() + std::chrono::seconds(o.seconds);
  Timed t;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  core::ParallelRunner(o.jobs).for_each_index(workers.size(), [&](std::size_t w) {
    Worker& me = workers[w];
    while (Clock::now() < deadline) {
      const std::size_t i = next.fetch_add(1);
      const std::size_t k = i % pass.size();
      // Once per pass, as the streaming fleet does once per epoch: drop
      // the parse-cache entries of content no load can reach again.
      if (k == 0 && i > 0) web::ParseCache::instance().sweep_transient();
      const LoadTask& task = pass[k];
      const auto a = Clock::now();
      const core::RunResult r =
          core::ExperimentRunner::run(task.scheme, *pages[task.page], task.config);
      me.load_ms.push_back(seconds_since(a) * 1e3);
      std::string why = check_load(task.scheme, *pages[task.page], r);
      if (why.empty() && record_of(r) != ref.records[k]) {
        why = "simulated record differs from the reference pass";
      }
      note_failure(me.fails, task, why);
    }
  });
  t.wall_s = seconds_since(t0);
  t.cpu_s = cpu_seconds() - cpu0;
  for (const Worker& w : workers) {
    t.load_ms.insert(t.load_ms.end(), w.load_ms.begin(), w.load_ms.end());
    v.fail(w.fails.failed, w.fails.first_failure);
  }
  t.loads = t.load_ms.size();
  v.attempted += t.loads;
  return end_to_end(t, setup_s, "load_ms over ExperimentRunner::run calls");
}

std::string fleet_digest(const fleet::FleetMetrics& m) {
  Digest d;
  fold(d, m);
  return d.hex();
}

std::vector<Metric> fleet_untraced(const Options& o, Verdict& v) {
  FleetInputs in;
  const std::vector<double> setup_s =
      repeat_setup(in, [&] { return make_fleet_inputs(o.seed, o.jobs); });
  const Pages& pages = in.corpus.replayed;

  std::vector<std::string> refs;
  Digest all;
  for (const fleet::FleetConfig& cfg : in.calls) {
    const fleet::FleetMetrics m = fleet::run_fleet(pages, cfg);
    v.attempted += static_cast<std::size_t>(cfg.clients);
    const std::string why = check_fleet(m, cfg.clients);
    if (!why.empty()) v.fail(static_cast<std::size_t>(cfg.clients), why);
    refs.push_back(fleet_digest(m));
    fold(all, m);
  }
  check_golden(o, all.hex(), v.attempted, v);

  // Closed loop over run_fleet calls: the next starts when one returns.
  // A call's sample is its wall time per admitted session.
  Timed t;
  const auto deadline = Clock::now() + std::chrono::seconds(o.seconds);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  for (std::size_t k = 0; Clock::now() < deadline; ++k) {
    const std::size_t c = k % in.calls.size();
    const auto a = Clock::now();
    const fleet::FleetMetrics m = fleet::run_fleet(pages, in.calls[c]);
    t.load_ms.push_back(seconds_since(a) * 1e3 / std::max(m.admitted, 1));
    const std::size_t k_sessions = static_cast<std::size_t>(in.calls[c].clients);
    t.loads += static_cast<std::size_t>(m.admitted);
    v.attempted += k_sessions;
    std::string why = check_fleet(m, in.calls[c].clients);
    if (why.empty() && fleet_digest(m) != refs[c]) {
      why = "fleet digest differs from the reference call";
    }
    if (!why.empty()) v.fail(k_sessions, why);
  }
  t.wall_s = seconds_since(t0);
  t.cpu_s = cpu_seconds() - cpu0;
  return end_to_end(t, setup_s, "load_ms = run_fleet wall / admitted, per call");
}

// ---- Traced runs (per-layer metrics) ------------------------------------

// Everything the per-layer table needs besides the traced-pass totals.
struct TracedExtras {
  double parallel_efficiency = 0.0;
  double untraced_run_mean_s = 0.0;
  double replay_record_s = 0.0;
  double scan_us_per_kib = 0.0;
  web::ParseCache::Stats cache;
  // Fleet only.
  double derive_ms = 0.0, plan_ms = 0.0, epochs = 0.0, epoch_speedup = 0.0;
  double macro_share = 0.0, store_hit_rate = 0.0;
};

// Adds the lookups made between `before` and `after` to `acc`.
void add_cache_delta(web::ParseCache::Stats& acc,
                     const web::ParseCache::Stats& before,
                     const web::ParseCache::Stats& after) {
  acc.html_hits += after.html_hits - before.html_hits;
  acc.css_hits += after.css_hits - before.css_hits;
  acc.js_hits += after.js_hits - before.js_hits;
  acc.html_misses += after.html_misses - before.html_misses;
  acc.css_misses += after.css_misses - before.css_misses;
  acc.js_misses += after.js_misses - before.js_misses;
}

// A reference pass at jobs=N (warms the caches, pins every record), then
// rounds of {jobs=N pass, jobs=1 pass, traced jobs=1 pass} until
// --seconds have passed, at least one round. Alternating keeps the
// untraced and traced jobs=1 samples under the same conditions, so their
// difference is the tracing overhead; every round is identical, so the
// per-load counts do not depend on how many rounds fit.
PassResult measured_passes(const Options& o, const Pages& pages,
                           const std::vector<LoadTask>& tasks,
                           SpanRecorder& spans, LayerTotals& tot,
                           TracedExtras& x, Verdict& v) {
  auto pass = [&](const char* name, int jobs, const std::vector<LoadRecord>* refs) {
    const SpanRecorder::Id id = spans.begin(name);
    PassResult p = run_pass(pages, tasks, jobs, refs);
    spans.end(id);
    v.add(p);
    // Between passes, as the streaming fleet does between epochs: drop
    // the parse-cache entries of content no load can reach again.
    web::ParseCache::instance().sweep_transient();
    return p;
  };
  const PassResult ref = pass("bench.pass_reference", o.jobs, nullptr);
  double wall_n = 0.0, wall_1 = 0.0, run_1 = 0.0;
  std::size_t runs_1 = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(o.seconds);
  do {
    wall_n += pass("bench.pass_jobsN", o.jobs, &ref.records).wall_s;
    const PassResult one = pass("bench.pass_jobs1", 1, &ref.records);
    wall_1 += one.wall_s;
    for (double s : one.run_s) run_1 += s;
    runs_1 += one.run_s.size();

    const web::ParseCache::Stats before = web::ParseCache::instance().stats();
    const SpanRecorder::Id phase = spans.begin("bench.pass_traced");
    const PassResult p = traced_pass(pages, tasks, ref.records, spans, phase, tot);
    spans.end(phase);
    add_cache_delta(x.cache, before, web::ParseCache::instance().stats());
    web::ParseCache::instance().sweep_transient();
    v.add(p);  // every record is compared with the jobs=N reference
  } while (Clock::now() < deadline);
  x.parallel_efficiency = wall_1 / (o.jobs * wall_n);
  x.untraced_run_mean_s = run_1 / static_cast<double>(runs_1);
  return ref;
}

double time_replay_record(const bench::Corpus& corpus, SpanRecorder& spans) {
  std::vector<web::WebPage> pages;
  for (const web::PageSpec& spec : corpus.specs) {
    pages.push_back(web::PageGenerator::generate(spec));
  }
  replay::ReplayStore store;
  return spans.time("replay.record", 0, SpanRecorder::kNoLoad, [&] {
    for (const web::WebPage& p : pages) store.record(p);
  });
}

std::vector<Metric> per_layer(const LayerTotals& t,
                              const TracedExtras& x, SpanRecorder& spans) {
  // a / b, or 0 when the workload has none of b.
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double n = static_cast<double>(t.loads);
  auto per_load = [&](double total) { return total / n; };
  const double events = static_cast<double>(t.events);
  const double inside_run_probes = t.testbed_s + t.lte_s + t.ctrl_s + t.mhtml_s;
  std::vector<Metric> m;
  for (core::Scheme s : all_schemes()) {
    auto it = t.run_ms.find(s);
    m.push_back({"core.run_ms_p50." + scheme_slug(s),
                 it == t.run_ms.end() ? 0.0 : median(it->second), "ms"});
  }
  const auto hits = static_cast<double>(x.cache.hits());
  const double lookups = hits + static_cast<double>(x.cache.misses());
  const double ctrl_records = static_cast<double>(t.ctrl_records);
  m.insert(m.end(), {
      {"core.testbed_build_us", per_load(t.testbed_s * 1e6), "us"},
      {"core.heap_allocs_per_load", per_load(static_cast<double>(t.allocs)), "count"},
      {"core.heap_bytes_per_load", per_load(static_cast<double>(t.alloc_bytes)), "bytes"},
      {"core.parallel_efficiency", x.parallel_efficiency, "ratio"},
      {"core.model_residual_share",
       1.0 - (inside_run_probes + t.sched_probe_s) / t.run_s, "ratio"},
      {"sim.events_per_load", per_load(events), "count"},
      {"sim.loop_ns_per_event", (t.run_s - inside_run_probes) * 1e9 / events, "ns"},
      {"sim.scheduler_ns_per_event", t.sched_probe_s * 1e9 / events, "ns"},
      {"net.tcp_connections_per_load",
       per_load(static_cast<double>(t.tcp_connections)), "count"},
      {"net.radio_http_requests_per_load",
       per_load(static_cast<double>(t.http_requests)), "count"},
      {"net.dns_lookups_per_load", per_load(static_cast<double>(t.dns_lookups)), "count"},
      {"net.downlink_mib_per_load", per_load(t.downlink_mib), "MiB"},
      {"browser.objects_per_load", per_load(static_cast<double>(t.objects)), "count"},
      {"web.parse_cache_hit_rate", ratio(hits, lookups), "ratio"},
      {"web.scan_us_per_kib", x.scan_us_per_kib, "us/KiB"},
      {"web.mhtml_mib_per_load", per_load(t.mhtml_mib), "MiB"},
      {"web.mhtml_roundtrip_us_per_mib", ratio(t.mhtml_s * 1e6, t.mhtml_mib), "us/MiB"},
      {"lte.analyze_us_per_load", per_load(t.lte_s * 1e6), "us"},
      {"trace.records_per_load", per_load(static_cast<double>(t.trace_records)), "count"},
      {"trace.analyze_us_per_load", per_load(t.trace_s * 1e6), "us"},
      {"ctrl.ns_per_record", ratio(t.ctrl_s * 1e9, ctrl_records), "ns"},
      {"ctrl.retunes_per_load", per_load(static_cast<double>(t.retunes)), "count"},
      {"replay.record_s", x.replay_record_s, "s"},
      {"fleet.derive_ms", x.derive_ms, "ms"},
      {"fleet.plan_ms", x.plan_ms, "ms"},
      {"fleet.epochs", x.epochs, "count"},
      {"fleet.epoch_speedup", x.epoch_speedup, "ratio"},
      {"fleet.macro_share", x.macro_share, "ratio"},
      {"fleet.store_hit_rate", x.store_hit_rate, "ratio"},
  });

  std::printf("traced: %zu loads at jobs=1; parse cache base: %.0f lookups; "
              "tracing overhead %+.2f%% of mean core.run (%.4f ms untraced)\n",
              t.loads, lookups,
              100.0 * (per_load(t.run_s) / x.untraced_run_mean_s - 1.0),
              x.untraced_run_mean_s * 1e3);
  std::printf("%-34s %18s  %s\n", "per-layer metric", "value", "unit");
  for (const Metric& metric : m) {
    std::printf("%-34s %18.6g  %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, tot] : spans.totals()) {
    std::printf("%-24s %8zu %12.3f %12.3f\n", name.c_str(), tot.count,
                tot.total_s * 1e3, tot.self_s * 1e3);
  }
  return m;
}

std::vector<Metric> corpus_traced(const Options& o, SpanRecorder& spans,
                                  Verdict& v) {
  TracedExtras x;
  std::vector<double> record_s;
  CorpusInputs in;
  for (int k = 0; k < kSetupReps; ++k) {
    in = make_corpus_inputs(o.workload, o.seed);
    record_s.push_back(time_replay_record(in.corpus, spans));
  }
  x.replay_record_s = median(record_s);
  const Pages& pages = in.corpus.replayed;
  LayerTotals tot;
  const PassResult ref = measured_passes(o, pages, in.pass, spans, tot, x, v);
  check_golden(o, ref.digest(), in.pass.size(), v);
  x.scan_us_per_kib = scan_us_per_kib(pages, 5, spans);
  return per_layer(tot, x, spans);
}

std::vector<Metric> fleet_traced(const Options& o, SpanRecorder& spans,
                                 Verdict& v) {
  TracedExtras x;
  std::vector<double> record_s, derive_ms, plan_ms;
  FleetInputs in;
  for (int k = 0; k < kSetupReps; ++k) {
    in = make_fleet_inputs(o.seed, o.jobs);
    record_s.push_back(time_replay_record(in.corpus, spans));
    const Pages& corpus = in.corpus.replayed;
    for (std::size_t c = 0; c < in.calls.size(); ++c) {
      const double derive_s = spans.time("fleet.derive", 0, SpanRecorder::kNoLoad, [&] {
        in.columns[c] = fleet::derive_client_columns(in.calls[c], corpus.size());
      });
      const double plan_s = spans.time("fleet.plan", 0, SpanRecorder::kNoLoad, [&] {
        (void)fleet::plan_epochs(corpus, in.columns[c], in.calls[c]);
      });
      derive_ms.push_back(derive_s * 1e3);
      plan_ms.push_back(plan_s * 1e3);
    }
  }
  x.replay_record_s = median(record_s);
  x.derive_ms = median(derive_ms);
  x.plan_ms = median(plan_ms);
  const Pages& pages = in.corpus.replayed;

  // Each call at jobs=N, then at jobs=1: the two must agree bitwise.
  double wall_n = 0.0, wall_1 = 0.0, epochs = 0.0;
  std::uint64_t hits = 0, lookups = 0;
  Digest digest_1;
  for (fleet::FleetConfig cfg : in.calls) {
    const auto clients = static_cast<std::size_t>(cfg.clients);
    fleet::FleetMetrics m_n, m_1;
    wall_n += spans.time("fleet.run_fleet_jobsN", 0, SpanRecorder::kNoLoad,
                         [&] { m_n = fleet::run_fleet(pages, cfg); });
    cfg.jobs = 1;
    wall_1 += spans.time("fleet.run_fleet_jobs1", 0, SpanRecorder::kNoLoad,
                         [&] { m_1 = fleet::run_fleet(pages, cfg); });
    fold(digest_1, m_1);
    v.attempted += 2 * clients;
    for (const fleet::FleetMetrics* m : {&m_n, &m_1}) {
      const std::string why = check_fleet(*m, cfg.clients);
      if (!why.empty()) v.fail(clients, why);
    }
    if (fleet_digest(m_n) != fleet_digest(m_1)) {
      v.fail(clients, "fleet digest differs between jobs=" +
                          std::to_string(o.jobs) + " and jobs=1");
    }
    epochs += m_1.epochs;
    hits += m_1.store.hits;
    lookups += m_1.store.hits + m_1.store.misses;
  }
  check_golden(o, digest_1.hex(), v.attempted, v);
  const double calls = static_cast<double>(in.calls.size());
  x.epochs = epochs / calls;
  x.epoch_speedup = wall_1 / wall_n;
  x.store_hit_rate = lookups > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(lookups)
                                 : 0.0;

  // Evenly spaced sessions of each call, re-run one by one with the
  // fleet's own per-client configuration.
  std::vector<LoadTask> samples;
  for (const fleet::FleetConfig& cfg : in.calls) {
    const std::vector<fleet::ClientSpec> specs =
        fleet::derive_clients(cfg, pages.size());
    for (int j = 0; j < kFleetSamples; ++j) {
      const fleet::ClientSpec& s =
          specs[static_cast<std::size_t>(j) * specs.size() / kFleetSamples];
      samples.push_back(LoadTask{s.scheme, s.page_index, s.config});
    }
  }
  LayerTotals tot;
  (void)measured_passes(o, pages, samples, spans, tot, x, v);
  x.parallel_efficiency = x.epoch_speedup / o.jobs;
  x.macro_share = 1.0 - kFleetClients * x.untraced_run_mean_s / (wall_1 / calls);
  x.scan_us_per_kib = scan_us_per_kib(pages, 25, spans);
  return per_layer(tot, x, spans);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_cli(std::vector<std::string>(argv + 1, argv + argc), host_nproc());
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), usage().c_str());
    return 2;
  }
  try {
    const Fingerprint fp = host_fingerprint(o.commit);
    std::printf("host %s\n", to_json(fp).c_str());
    std::printf("workload %s seed %llu jobs %d seconds %d trace %d\n",
                std::string(workload_name(o.workload)).c_str(),
                static_cast<unsigned long long>(o.seed), o.jobs, o.seconds,
                o.trace ? 1 : 0);
    std::fflush(stdout);
    Verdict v;
    std::vector<Metric> metrics;
    const bool fleet_workload = o.workload == Workload::kFleetStream;
    if (!o.trace) {
      metrics = fleet_workload ? fleet_untraced(o, v) : corpus_untraced(o, v);
    } else {
      SpanRecorder spans;
      metrics = fleet_workload ? fleet_traced(o, spans, v)
                               : corpus_traced(o, spans, v);
      if (!o.trace_out.empty()) {
        const std::string meta =
            "{\"host\": " + to_json(fp) + ", \"workload\": \"" +
            std::string(workload_name(o.workload)) + "\", \"seed\": " +
            std::to_string(o.seed) + ", \"jobs\": " + std::to_string(o.jobs) + "}";
        if (!spans.write_chrome_trace(o.trace_out, meta)) {
          throw std::runtime_error("cannot write trace file " + o.trace_out);
        }
        std::printf("trace: %zu spans written to %s\n", spans.spans().size(),
                    o.trace_out.c_str());
      }
    }
    print_result(v, metrics);
    return v.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
