// Shared machinery for the figure/table reproduction benches: the 34-page
// replayed corpus (§7.2-7.3), run helpers, and table printing.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"
#include "lte/radio_link.hpp"
#include "replay/replay_store.hpp"
#include "sim/fault_plan.hpp"
#include "util/stats.hpp"
#include "web/generator.hpp"

namespace parcel::bench {

struct Corpus {
  std::vector<web::PageSpec> specs;
  std::vector<std::unique_ptr<web::WebPage>> live_pages;
  replay::ReplayStore store;
  std::vector<const web::WebPage*> replayed;  // normalized snapshots
};

/// Build the evaluation corpus: `pages` sites drawn from the paper's
/// distributions (or one of the ISSUE 10 PageMix families), recorded
/// through the replay store.
Corpus build_corpus(int pages, std::uint64_t seed = 2014,
                    web::PageMix mix = web::PageMix::kAlexa34);

/// Parsed --fade value: `off` leaves both fields unset (no fading),
/// `ar1` selects the seeded stochastic fade of live_run_config, and a
/// KIND[:key=val,...] spec yields the deterministic lte::FadeSpec
/// profile the adaptive benches sweep.
struct FadeOption {
  bool ar1 = false;
  std::optional<lte::FadeSpec> profile;
};

struct BenchOptions {
  int pages = 34;   // paper's page count
  int rounds = 3;   // kept small for bench runtime; raise via --rounds
  /// Worker threads for experiment fan-out; defaults to every hardware
  /// thread. --jobs 1 reproduces the historical strictly-serial benches
  /// (results are bitwise identical either way).
  int jobs = core::default_jobs();
  bool quick = false;
  /// Fleet knobs (bench_fleet_scaling): concurrent client sessions, proxy
  /// compute workers, and the arrival-process seed.
  int clients = 16;
  int workers = 2;
  std::uint64_t arrival_seed = 2014;
  /// Session count for the streaming-fleet leg (bench_fleet_scaling;
  /// ISSUE 7). Large by design — streaming mode never materializes
  /// per-session results, so this scales far past --clients.
  int stream_clients = 100000;
  /// Sharded-fleet knobs (bench_fleet_scaling; ISSUE 8): the largest
  /// shard count in the N-shards sweep, and the L2 backplane transfer
  /// cost in milliseconds per MiB moved (the kTransfer byte rate is
  /// derived as 1 MiB / (l2_cost_ms_per_mib / 1000)). 0 keeps the task's
  /// base cost only.
  int shards = 8;
  double l2_cost_ms_per_mib = 4.0;
  /// Fault plan applied to every run config built after parse_options
  /// (see replay_run_config / live_run_config). Off by default, so the
  /// BENCH_*.json baselines stay byte-comparable across builds.
  sim::FaultPlan faults;
  /// Adaptive-bundling knobs (bench_adaptive; ISSUE 10). --fade SPEC
  /// picks the radio bandwidth trajectory, --mix NAME picks the PageMix
  /// family handed to build_corpus.
  FadeOption fade;
  web::PageMix mix = web::PageMix::kAlexa34;
};

/// Parse --pages N / --rounds N / --jobs N / --clients N / --workers N /
/// --shards N / --l2-cost MS_PER_MIB / --stream-clients N /
/// --arrival-seed N / --quick / --faults SPEC / --fade SPEC / --mix NAME
/// from argv (see sim::FaultPlan::parse for the fault grammar; "off"
/// disables). The PARCEL_FAULT_SEED environment variable overrides the
/// plan's seed. --help prints usage() to stdout and exits 0. Malformed
/// values and unknown flags exit 2 with a clear error on stderr.
BenchOptions parse_options(int argc, char** argv);

/// The one-line usage text --help prints: every flag parse_options takes.
std::string usage(const char* prog);

/// Strict flag-value parsers behind parse_options, exposed so tests can
/// assert the reject-garbage contract without spawning a process. All
/// throw std::invalid_argument (naming `flag`) on garbage, trailing
/// junk, empty strings, out-of-range values, or overflow; parse_options
/// converts the throw into an exit(2) usage error.
int parse_positive_int(const char* flag, const char* text);
std::uint64_t parse_u64(const char* flag, const char* text);
/// Finite decimal >= 0 (e.g. --l2-cost); rejects negatives (including
/// "-0"), inf/nan spellings, hex floats, and trailing junk.
double parse_nonneg_double(const char* flag, const char* text);
/// `--fade` grammar: `off` | `ar1` | KIND[:key=val,...] with KIND one of
/// pulse|ramp|step; keys high/low/duty are plain fractions and
/// period/at/step/horizon are seconds, all parsed with
/// parse_nonneg_double's strictness. Unknown kinds or keys, empty or
/// valueless segments, and specs rejected by lte::FadeSpec::validate()
/// all throw.
FadeOption parse_fade(const char* flag, const char* text);
/// One of web::to_string(PageMix)'s names:
/// alexa34|ad-heavy|spa|large-object.
web::PageMix parse_page_mix(const char* flag, const char* text);

/// Default controlled-replay run configuration (§7.2: no fading in the
/// controlled comparisons; variability handled by seeds).
core::RunConfig replay_run_config(std::uint64_t seed);

/// §8.4 live configuration: heterogeneous server delays + signal fading.
core::RunConfig live_run_config(std::uint64_t seed);

/// Fig 3's wired baseline: replace the LTE access with a fast fixed link
/// (no promotions, negligible tail).
core::TestbedConfig wired_testbed_config();

/// Run `scheme` across the corpus with `rounds` per page (distinct
/// seeds), returning per-page median metrics.
struct PageMedians {
  std::vector<double> olt_sec;
  std::vector<double> tlt_sec;
  std::vector<double> radio_j;
  std::vector<double> cr_j;
  std::vector<double> requests;
  std::vector<double> page_bytes;
};

PageMedians run_corpus(core::Scheme scheme, const Corpus& corpus, int rounds,
                       const core::RunConfig& base, int jobs = 1);

/// Host fingerprint for the BENCH_*.json files, as a JSON object:
/// {"nproc": N, "compiler": "...", "build_type": "...", "commit": "..."}.
/// The commit is `git describe --always --dirty --abbrev=40` of the source
/// tree at run time ("unknown" outside a git checkout), so numbers
/// recorded on different hosts or builds are never compared unawares.
std::string host_stamp();

void print_header(const char* figure, const char* caption);
void print_cdf(const char* label, const std::vector<double>& samples);

}  // namespace parcel::bench
