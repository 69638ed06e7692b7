// The benchmark's three workloads, built from public entry points only:
// bench::build_corpus (plus PageGenerator/ReplayStore for the fleet's
// light corpus), per-load core::RunConfig values derived from --seed,
// and streaming fleet::FleetConfig values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "cli.hpp"
#include "fleet/fleet_runner.hpp"

namespace perfbench {

/// One ExperimentRunner::run call.
struct LoadTask {
  parcel::core::Scheme scheme = parcel::core::Scheme::kDir;
  std::size_t page = 0;  // index into the corpus
  parcel::core::RunConfig config;
};

/// Corpus workloads (alexa34-matrix, large-object-fade). `pass` is one
/// round-robin pass over pages x schemes x rounds; the timed phase
/// cycles over it, so every repeat of a task can be checked against the
/// record of its first run.
struct CorpusInputs {
  parcel::bench::Corpus corpus;
  std::vector<parcel::core::Scheme> schemes;
  std::vector<LoadTask> pass;
};

/// Streaming-fleet workload: `calls` run_fleet configurations (distinct
/// arrival seeds), cycled by the timed phase; `columns` holds each
/// call's derived client columns.
struct FleetInputs {
  parcel::bench::Corpus corpus;
  std::vector<parcel::fleet::FleetConfig> calls;
  std::vector<parcel::fleet::ClientColumns> columns;
};

/// Pages, rounds and schemes of each corpus workload (see README.md).
inline constexpr int kAlexaPages = 34;
inline constexpr int kAlexaRounds = 2;
inline constexpr int kLargeObjectPages = 16;
inline constexpr int kLargeObjectRounds = 2;
/// Sessions per run_fleet call, and calls per pass.
inline constexpr int kFleetClients = 2048;
inline constexpr int kFleetCalls = 2;

/// The paper's 34-page corpus and the large-object mix are drawn with
/// the corpus generator's default seed, so every --seed loads the same
/// pages; --seed drives the per-load seeds (browser RNG, topology) and
/// the fleet's arrival processes.
inline constexpr std::uint64_t kCorpusSeed = 2014;

/// The canonical fade pulse, in bench::parse_fade grammar.
inline constexpr const char* kFadePulse =
    "pulse:high=1.00,low=0.25,period=4.0,duty=0.50,at=5.0";

[[nodiscard]] CorpusInputs make_corpus_inputs(Workload w, std::uint64_t seed);
/// `jobs` is stored into every call's FleetConfig::jobs.
[[nodiscard]] FleetInputs make_fleet_inputs(std::uint64_t seed, int jobs);

/// Lower-case, dash-separated scheme slug used in metric names
/// ("PARCEL(512K)" -> "parcel-512k").
[[nodiscard]] std::string scheme_slug(parcel::core::Scheme s);

/// Every scheme of the paper's matrix, in enum order.
[[nodiscard]] const std::vector<parcel::core::Scheme>& all_schemes();

}  // namespace perfbench
