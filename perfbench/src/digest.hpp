// Simulated-output digest and the correctness checks applied to every
// load from outside the simulator.
#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.hpp"
#include "fleet/fleet_runner.hpp"
#include "web/page.hpp"

namespace perfbench {

/// FNV-1a over 64-bit words; doubles enter by bit pattern, so two
/// digests agree only when every folded value is bitwise identical.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The simulated outcome of one load that the digest covers.
struct LoadRecord {
  double olt_s = 0.0;
  double tlt_s = 0.0;
  double radio_j = 0.0;
  std::int64_t downlink_bytes = 0;
  std::uint64_t events = 0;
  bool operator==(const LoadRecord&) const = default;
};

[[nodiscard]] LoadRecord record_of(const parcel::core::RunResult& r);
void fold(Digest& d, const LoadRecord& r);

/// Streaming-fleet digest: exact counters, the double sums, and every
/// sketch's count/sum/min/max plus its quantile at each whole percent
/// (bin midpoints, so any changed bin count that moves a rank shows).
void fold(Digest& d, const parcel::fleet::FleetMetrics& m);

/// Objects the client of `scheme` must end up holding: every page
/// object, except under CB where the client receives one rendered
/// snapshot.
[[nodiscard]] std::size_t expected_objects(parcel::core::Scheme scheme,
                                           const parcel::web::WebPage& page);

/// "" when the load passes; otherwise the first broken check:
/// completion, OLT <= TLT, objects_loaded, and the energy timeline
/// tiling the trace with no gap or overlap.
[[nodiscard]] std::string check_load(parcel::core::Scheme scheme,
                                     const parcel::web::WebPage& page,
                                     const parcel::core::RunResult& r);

/// "" when a streaming fleet of `clients` sessions admitted and
/// completed every session and its OLT sketch never exceeds its TLT
/// sketch at any whole percentile.
[[nodiscard]] std::string check_fleet(const parcel::fleet::FleetMetrics& m,
                                      int clients);

}  // namespace perfbench
