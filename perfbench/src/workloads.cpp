#include "workloads.hpp"

#include <cctype>

namespace perfbench {

using namespace parcel;

namespace {

// splitmix64 finalizer: decorrelates the seeds of neighbouring
// (round, page) slots.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t load_seed(std::uint64_t seed, int round, std::size_t page) {
  return mix(mix(seed) ^ (static_cast<std::uint64_t>(round) << 32) ^ page);
}

// The large-object run configuration mirrors bench_adaptive's sweep:
// heterogeneous origin delays (30-350 ms, the live regime that gives
// bundle size an interior optimum), the canonical fade pulse, and the
// latency-tuned controller told the page's real byte total.
core::RunConfig large_object_config(std::uint64_t seed,
                                    const lte::FadeSpec& fade,
                                    const web::WebPage& page) {
  core::RunConfig cfg = bench::replay_run_config(seed);
  cfg.testbed.heterogeneous_server_delays = true;
  cfg.testbed.topology_seed = seed * 31 + 7;
  cfg.testbed.server_delay_min = util::Duration::millis(30);
  cfg.testbed.server_delay_max = util::Duration::millis(350);
  cfg.testbed.fade_profile = fade;
  cfg.ctrl = ctrl::ControllerConfig::latency_tuned(cfg.testbed.radio.rrc);
  cfg.ctrl.page_bytes_hint = page.total_bytes();
  return cfg;
}

// bench_fleet_scaling's light streaming corpus: 4 pages of 8 objects,
// 96 KiB each, recorded through the replay store.
bench::Corpus light_corpus() {
  bench::Corpus corpus;
  for (int p = 0; p < 4; ++p) {
    web::PageSpec spec;
    spec.site = "stream0" + std::to_string(p) + ".example.com";
    spec.object_count = 8;
    spec.total_bytes = util::kib(96);
    spec.extra_domains = 2;
    spec.max_js_chain_depth = 2;
    spec.seed = 7000 + static_cast<std::uint64_t>(p);
    corpus.live_pages.push_back(
        std::make_unique<web::WebPage>(web::PageGenerator::generate(spec)));
    corpus.store.record(*corpus.live_pages.back());
    corpus.replayed.push_back(
        corpus.store.find(corpus.live_pages.back()->main_url().str()));
    corpus.specs.push_back(std::move(spec));
  }
  return corpus;
}

}  // namespace

const std::vector<core::Scheme>& all_schemes() {
  static const std::vector<core::Scheme> schemes = {
      core::Scheme::kDir,        core::Scheme::kHttpProxy,
      core::Scheme::kSpdyProxy,  core::Scheme::kParcelInd,
      core::Scheme::kParcelOnld, core::Scheme::kParcel512K,
      core::Scheme::kParcel1M,   core::Scheme::kParcel2M,
      core::Scheme::kCloudBrowser, core::Scheme::kParcelAdaptive};
  return schemes;
}

std::string scheme_slug(core::Scheme s) {
  if (s == core::Scheme::kParcelAdaptive) return "parcel-adapt";
  std::string out;
  for (char c : core::to_string(s)) {
    if (c == '(') {
      out += '-';
    } else if (c != ')') {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

CorpusInputs make_corpus_inputs(Workload w, std::uint64_t seed) {
  CorpusInputs in;
  int rounds = 0;
  std::optional<lte::FadeSpec> fade;
  if (w == Workload::kAlexa34Matrix) {
    in.corpus = bench::build_corpus(kAlexaPages, kCorpusSeed);
    in.schemes = all_schemes();
    rounds = kAlexaRounds;
  } else {
    in.corpus = bench::build_corpus(kLargeObjectPages, kCorpusSeed,
                                    web::PageMix::kLargeObject);
    in.schemes = {core::Scheme::kParcelAdaptive, core::Scheme::kParcel512K,
                  core::Scheme::kParcel2M, core::Scheme::kDir};
    rounds = kLargeObjectRounds;
    fade = bench::parse_fade("--fade", kFadePulse).profile;
  }
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < in.corpus.replayed.size(); ++p) {
      const std::uint64_t s = load_seed(seed, r, p);
      core::RunConfig cfg =
          fade ? large_object_config(s, *fade, *in.corpus.replayed[p])
               : bench::replay_run_config(s);
      for (core::Scheme scheme : in.schemes) {
        in.pass.push_back(LoadTask{scheme, p, cfg});
      }
    }
  }
  return in;
}

FleetInputs make_fleet_inputs(std::uint64_t seed, int jobs) {
  FleetInputs in;
  in.corpus = light_corpus();
  for (int c = 0; c < kFleetCalls; ++c) {
    // bench_fleet_scaling's streaming leg at K = kFleetClients.
    fleet::FleetConfig cfg;
    cfg.scheme = core::Scheme::kParcelInd;
    cfg.arrival_seed = load_seed(seed, c, 0);
    cfg.mean_interarrival = util::Duration::millis(200);
    cfg.compute.workers = 4;
    cfg.compute.max_queue = 0;
    cfg.base = bench::replay_run_config(load_seed(seed, c, 1));
    cfg.streaming = true;
    cfg.clients = kFleetClients;
    cfg.jobs = jobs;
    in.columns.push_back(
        fleet::derive_client_columns(cfg, in.corpus.replayed.size()));
    in.calls.push_back(cfg);
  }
  return in;
}

}  // namespace perfbench
