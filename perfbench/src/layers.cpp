#include "layers.hpp"

#include <chrono>
#include <optional>
#include <set>

#include "alloc_count.hpp"
#include "core/parallel_runner.hpp"
#include "core/testbed.hpp"
#include "ctrl/bundle_controller.hpp"
#include "lte/energy.hpp"
#include "sim/scheduler.hpp"
#include "stats.hpp"
#include "trace/trace_analyzer.hpp"
#include "web/mhtml.hpp"
#include "web/parse_cache.hpp"

namespace perfbench {

using namespace parcel;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// The outside-in checks' verdict, then the comparison with refs[i].
std::string verdict(std::string why, const PassResult& out, std::size_t i,
                    const std::vector<LoadRecord>* refs) {
  if (why.empty() && refs != nullptr && out.records[i] != (*refs)[i]) {
    why = "simulated record differs from the reference run";
  }
  return why;
}

// Bundles as the proxy would cut them for `scheme`: objects in URL
// order, the onload set first, a flush whenever the pending payload
// reaches the threshold (every object under IND, never under ONLD), at
// the onload boundary, and at the end.
std::vector<std::vector<const web::WebObject*>> cut_bundles(
    core::Scheme scheme, const web::WebPage& page) {
  const core::BundleConfig cfg = core::bundle_for(scheme);
  std::vector<std::vector<const web::WebObject*>> bundles;
  std::vector<const web::WebObject*> pending;
  util::Bytes pending_bytes = 0;
  auto flush = [&] {
    if (!pending.empty()) bundles.push_back(std::move(pending));
    pending.clear();
    pending_bytes = 0;
  };
  for (bool post : {false, true}) {
    for (const web::WebObject* o : page.objects()) {
      if (o->post_onload != post) continue;
      pending.push_back(o);
      pending_bytes += o->size;
      if (cfg.policy == core::BundlePolicy::kInd ||
          (cfg.policy == core::BundlePolicy::kThreshold &&
           pending_bytes >= cfg.threshold)) {
        flush();
      }
    }
    flush();
  }
  return bundles;
}

// MhtmlWriter::serialize + MhtmlReader::parse over the scheme's bundles.
// Returns false if a bundle does not round-trip its part count.
bool mhtml_roundtrip(core::Scheme scheme, const web::WebPage& page,
                     double& mib) {
  for (const auto& bundle : cut_bundles(scheme, page)) {
    web::MhtmlWriter writer;
    for (const web::WebObject* o : bundle) writer.add(*o);
    const std::string wire = writer.serialize();
    mib += static_cast<double>(wire.size()) / kMiB;
    if (web::MhtmlReader::parse(wire).size() != bundle.size()) return false;
  }
  return true;
}

// Isolated sim::Scheduler probe: `events` schedule/step pairs at a steady
// queue depth of 32.
void scheduler_probe(std::uint64_t events) {
  struct Ctx {
    sim::Scheduler sched;
    std::uint64_t scheduled = 0;
    std::uint64_t total = 0;
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  };
  // One pointer of capture, so std::function keeps it inline.
  struct Tick {
    Ctx* c;
    void operator()() const {
      if (c->scheduled >= c->total) return;
      ++c->scheduled;
      c->lcg = c->lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      c->sched.schedule_after(
          util::Duration::micros(static_cast<double>((c->lcg >> 40) & 1023)),
          Tick{c});
    }
  };
  Ctx ctx;
  ctx.total = events;
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(32, events); ++i) {
    ++ctx.scheduled;
    ctx.sched.schedule_at(util::TimePoint::origin(), Tick{&ctx});
  }
  ctx.sched.run();
}

}  // namespace

void note_failure(PassResult& out, const LoadTask& t, const std::string& why) {
  if (why.empty()) return;
  ++out.failed;
  if (out.first_failure.empty()) {
    out.first_failure = core::to_string(t.scheme) + " page " +
                        std::to_string(t.page) + ": " + why;
  }
}

std::string PassResult::digest() const {
  Digest d;
  for (const LoadRecord& r : records) fold(d, r);
  return d.hex();
}

PassResult run_pass(const Pages& pages, const std::vector<LoadTask>& tasks,
                    int jobs, const std::vector<LoadRecord>* refs) {
  PassResult out;
  out.records.resize(tasks.size());
  out.run_s.resize(tasks.size());
  std::vector<std::string> why(tasks.size());
  const auto t0 = Clock::now();
  core::ParallelRunner(jobs).for_each_index(tasks.size(), [&](std::size_t i) {
    const LoadTask& t = tasks[i];
    const auto a = Clock::now();
    const core::RunResult r =
        core::ExperimentRunner::run(t.scheme, *pages[t.page], t.config);
    out.run_s[i] = seconds_since(a);
    out.records[i] = record_of(r);
    why[i] = check_load(t.scheme, *pages[t.page], r);
  });
  out.wall_s = seconds_since(t0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    note_failure(out, tasks[i], verdict(std::move(why[i]), out, i, refs));
  }
  return out;
}

PassResult traced_pass(const Pages& pages, const std::vector<LoadTask>& tasks,
                       const std::vector<LoadRecord>& refs,
                       SpanRecorder& spans, SpanRecorder::Id parent,
                       LayerTotals& tot) {
  PassResult out;
  out.records.resize(tasks.size());
  out.run_s.resize(tasks.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const LoadTask& t = tasks[i];
    const web::WebPage& page = *pages[t.page];
    const auto load = static_cast<std::int64_t>(i);
    const SpanRecorder::Id root = spans.begin("core.load", parent, load);

    // Allocation counts are taken inside the span, so the span
    // recorder's own growth never lands in them.
    std::optional<core::RunResult> res;
    AllocCounts before, after;
    const double run_s = spans.time("core.run", root, load, [&] {
      before = thread_alloc_counts();
      res.emplace(core::ExperimentRunner::run(t.scheme, page, t.config));
      after = thread_alloc_counts();
    });
    const core::RunResult& r = *res;
    out.run_s[i] = run_s;
    out.records[i] = record_of(r);
    note_failure(out, t, verdict(check_load(t.scheme, page, r), out, i, &refs));

    std::optional<core::Testbed> testbed;
    tot.testbed_s += spans.time("core.testbed_build", root, load, [&] {
      testbed.emplace(t.config.testbed);
      testbed->host_page(page);
    });
    testbed.reset();

    tot.sched_probe_s += spans.time("sim.scheduler_probe", root, load, [&] {
      scheduler_probe(r.events_executed);
    });

    lte::EnergyReport energy;
    tot.lte_s += spans.time("lte.analyze", root, load, [&] {
      energy = lte::EnergyAnalyzer(t.config.testbed.radio.rrc)
                   .analyze(r.trace, /*include_decay_tail=*/true);
    });
    if (energy.total.j() != r.radio.total.j()) {
      note_failure(out, t, "EnergyAnalyzer::analyze disagrees with the run");
    }

    // Every object id in the capture: the TLT universe.
    const std::set<std::uint32_t> id_set(r.trace.object_ids().begin(),
                                         r.trace.object_ids().end());
    std::vector<std::uint32_t> ids(id_set.begin(), id_set.end());
    std::erase(ids, 0U);
    tot.trace_s += spans.time("trace.latency_metrics", root, load, [&] {
      (void)trace::TraceAnalyzer::latency_metrics(r.trace, ids);
    });

    if (t.scheme == core::Scheme::kParcelAdaptive) {
      tot.ctrl_s += spans.time("ctrl.feed", root, load, [&] {
        ctrl::ControllerConfig cc = t.config.ctrl;
        cc.estimator.rrc = t.config.testbed.radio.rrc;
        ctrl::BundleController controller(
            cc, core::bundle_for(core::Scheme::kParcelAdaptive).threshold);
        for (const trace::PacketRecord& rec : r.trace.records()) {
          (void)controller.on_record(rec);
        }
      });
      tot.ctrl_records += r.trace.size();
    }

    if (core::is_parcel(t.scheme)) {
      bool ok = true;
      tot.mhtml_s += spans.time("web.mhtml_roundtrip", root, load, [&] {
        ok = mhtml_roundtrip(t.scheme, page, tot.mhtml_mib);
      });
      if (!ok) note_failure(out, t, "MHTML bundle did not round-trip");
    }
    spans.end(root);

    ++tot.loads;
    tot.run_s += run_s;
    tot.run_ms[t.scheme].push_back(run_s * 1e3);
    tot.events += r.events_executed;
    tot.allocs += after.calls - before.calls;
    tot.alloc_bytes += after.bytes - before.bytes;
    tot.tcp_connections += r.tcp_connections;
    tot.http_requests += r.radio_http_requests;
    tot.dns_lookups += r.dns_lookups;
    tot.objects += r.objects_loaded;
    tot.downlink_mib += static_cast<double>(r.downlink_bytes) / kMiB;
    tot.trace_records += r.trace.size();
    tot.retunes += r.ctrl_retunes;
  }
  out.wall_s = seconds_since(t0);
  return out;
}

double scan_us_per_kib(const Pages& pages, int reps, SpanRecorder& spans) {
  web::ParseCache& cache = web::ParseCache::instance();
  std::vector<double> pass_s;
  double kib = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    kib = 0.0;
    pass_s.push_back(spans.time("web.scan_cold", 0, SpanRecorder::kNoLoad, [&] {
      for (const web::WebPage* page : pages) {
        for (const web::WebObject* o : page->objects()) {
          if (!o->content) continue;
          const std::string_view text = *o->content;
          switch (o->type) {
            case web::ObjectType::kHtml: (void)cache.html(text, nullptr); break;
            case web::ObjectType::kCss: (void)cache.css(text, nullptr); break;
            case web::ObjectType::kJs:
            case web::ObjectType::kJsAsync: (void)cache.js(text, nullptr); break;
            default: continue;
          }
          kib += static_cast<double>(text.size()) / 1024.0;
        }
      }
    }));
  }
  return kib > 0.0 ? median(pass_s) * 1e6 / kib : 0.0;
}

}  // namespace perfbench
