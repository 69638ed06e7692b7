// Microbenchmarks (google-benchmark) for the substrate hot paths: the
// parsers the proxy runs per page, the MHTML codec on the push path, the
// event kernel, and the trace energy analyzer. Also hosts an allocation
// regression that runs before the benchmarks under the counting
// operator-new hook (alloc_hook.cpp): the scheduler kernel must not
// allocate per event.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "bench/alloc_hook.hpp"
#include "lte/energy.hpp"
#include "sim/scheduler.hpp"
#include "trace/packet_trace.hpp"
#include "util/rng.hpp"
#include "web/css.hpp"
#include "web/generator.hpp"
#include "web/html.hpp"
#include "web/js.hpp"
#include "web/mhtml.hpp"

namespace {

using namespace parcel;

const web::WebPage& bench_page() {
  static web::WebPage page = [] {
    web::PageSpec spec;
    spec.object_count = 120;
    spec.total_bytes = util::mib(1.5);
    spec.seed = 77;
    return web::PageGenerator::generate(spec);
  }();
  return page;
}

void BM_MiniHtmlScan(benchmark::State& state) {
  const std::string& html = bench_page().main().text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::MiniHtml::scan(html));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_MiniHtmlScan);

void BM_MiniJsRun(benchmark::State& state) {
  std::string js;
  for (const web::WebObject* obj : bench_page().objects()) {
    if (obj->type == web::ObjectType::kJs) {
      js = obj->text();
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::MiniJs::run(js));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(js.size()));
}
BENCHMARK(BM_MiniJsRun);

void BM_MiniCssScan(benchmark::State& state) {
  std::string css;
  for (const web::WebObject* obj : bench_page().objects()) {
    if (obj->type == web::ObjectType::kCss) {
      css = obj->text();
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::MiniCss::scan(css));
  }
}
BENCHMARK(BM_MiniCssScan);

void BM_PageGeneration(benchmark::State& state) {
  web::PageSpec spec;
  spec.object_count = static_cast<int>(state.range(0));
  spec.total_bytes = util::mib(1);
  spec.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::PageGenerator::generate(spec));
  }
}
BENCHMARK(BM_PageGeneration)->Arg(40)->Arg(120)->Arg(400);

void BM_MhtmlRoundTrip(benchmark::State& state) {
  web::MhtmlWriter writer;
  int added = 0;
  for (const web::WebObject* obj : bench_page().objects()) {
    writer.add(*obj);
    if (++added >= 40) break;
  }
  for (auto _ : state) {
    std::string wire = writer.serialize();
    benchmark::DoNotOptimize(web::MhtmlReader::parse(wire));
  }
}
BENCHMARK(BM_MhtmlRoundTrip);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int remaining = 10'000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) {
        sched.schedule_after(util::Duration::micros(10), tick);
      }
    };
    sched.schedule_at(util::TimePoint::origin(), tick);
    sched.run();
    benchmark::DoNotOptimize(sched.events_executed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_SchedulerThroughput);

void BM_SchedulerScheduleCancel(benchmark::State& state) {
  // The proxy's completion heuristic re-arms (cancel + reschedule) a
  // timer on every intercepted object; this measures that path.
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::EventHandle timer;
    for (int i = 0; i < 1'000; ++i) {
      timer.cancel();
      timer = sched.schedule_after(util::Duration::seconds(1.5), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.events_executed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1'000);
}
BENCHMARK(BM_SchedulerScheduleCancel);

// Regression guard for the kernel fast path: a million fire-and-forget
// events must not allocate per event (handles are lazy; entries live in
// the heap vector, whose geometric regrowth costs ~20 allocations for a
// million entries and is counted here). The budget covers that plus small
// constant noise only — any per-event std::function or shared_ptr
// allocation blows it by four orders.
void scheduler_allocation_regression() {
  constexpr std::size_t kEvents = 1'000'000;
  constexpr std::uint64_t kAllocBudget = 64;
  sim::Scheduler sched;
  const std::uint64_t before = bench::alloc_totals().allocations;
  for (std::size_t i = 0; i < kEvents; ++i) {
    sched.schedule_after(util::Duration::micros(1), [] {});
  }
  if (sched.pending_events() != kEvents) {
    std::fprintf(stderr, "scheduler regression: expected %zu pending, %zu\n",
                 kEvents, sched.pending_events());
    std::exit(1);
  }
  sched.run();
  const std::uint64_t allocs = bench::alloc_totals().allocations - before;
  if (sched.events_executed() != kEvents) {
    std::fprintf(stderr, "scheduler regression: executed %llu of %zu\n",
                 static_cast<unsigned long long>(sched.events_executed()),
                 kEvents);
    std::exit(1);
  }
  if (allocs > kAllocBudget) {
    std::fprintf(stderr,
                 "scheduler regression: %llu allocations for %zu no-op "
                 "events (budget %llu) — the kernel allocates per event "
                 "again\n",
                 static_cast<unsigned long long>(allocs), kEvents,
                 static_cast<unsigned long long>(kAllocBudget));
    std::exit(1);
  }
  std::printf("scheduler alloc regression OK: %llu allocations for %zu "
              "schedule+fire events\n",
              static_cast<unsigned long long>(allocs), kEvents);
}

void BM_EnergyAnalyzer(benchmark::State& state) {
  trace::PacketTrace trace;
  util::Rng rng(5);
  double t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.exponential(0.05);
    trace.record(trace::PacketRecord{util::TimePoint::at_seconds(t),
                                     trace::Direction::kDownlink,
                                     trace::PacketKind::kData, 1448, 1, 1});
  }
  lte::EnergyAnalyzer analyzer{lte::RrcConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(trace, true));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_EnergyAnalyzer);

}  // namespace

int main(int argc, char** argv) {
  scheduler_allocation_regression();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
