#include "digest.hpp"

#include <bit>
#include <cstdio>

namespace perfbench {

using namespace parcel;

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

LoadRecord record_of(const core::RunResult& r) {
  return LoadRecord{r.olt.sec(), r.tlt.sec(), r.radio.total.j(),
                    r.downlink_bytes, r.events_executed};
}

void fold(Digest& d, const LoadRecord& r) {
  d.add(r.olt_s);
  d.add(r.tlt_s);
  d.add(r.radio_j);
  d.add(static_cast<std::uint64_t>(r.downlink_bytes));
  d.add(r.events);
}

namespace {

void fold_sketch(Digest& d, const core::StreamingStats& s) {
  d.add(s.count());
  d.add(s.sum());
  d.add(s.min());
  d.add(s.max());
  for (int pct = 0; pct <= 100; ++pct) d.add(s.quantile(pct));
}

}  // namespace

void fold(Digest& d, const fleet::FleetMetrics& m) {
  d.add(static_cast<std::uint64_t>(m.admitted));
  d.add(static_cast<std::uint64_t>(m.shed));
  d.add(m.sessions_ok);
  d.add(static_cast<std::uint64_t>(m.epochs));
  d.add(m.energy_j_total);
  d.add(m.proxy_busy_sec);
  d.add(m.fetch_parse_sec);
  d.add(m.store.hits);
  d.add(m.store.misses);
  d.add(m.store.evictions);
  d.add(static_cast<std::uint64_t>(m.store.bytes_saved));
  d.add(m.compute.completed);
  fold_sketch(d, m.olt_stats);
  fold_sketch(d, m.tlt_stats);
  fold_sketch(d, m.wait_stats);
  fold_sketch(d, m.energy_stats);
}

std::size_t expected_objects(core::Scheme scheme, const web::WebPage& page) {
  return scheme == core::Scheme::kCloudBrowser ? 1 : page.object_count();
}

std::string check_load(core::Scheme scheme, const web::WebPage& page,
                       const core::RunResult& r) {
  if (!r.ok) return "load did not complete inside the capture window";
  if (r.olt > r.tlt) return "OLT exceeds TLT";
  if (r.objects_loaded != expected_objects(scheme, page)) {
    return "objects_loaded " + std::to_string(r.objects_loaded) +
           " != expected " + std::to_string(expected_objects(scheme, page));
  }
  const auto& tl = r.radio.timeline;
  if (r.trace.empty() || tl.empty()) return "empty trace or energy timeline";
  if (tl.front().begin > r.trace.first_time() ||
      tl.back().end < r.trace.last_time()) {
    return "energy timeline does not cover the trace";
  }
  for (std::size_t i = 0; i < tl.size(); ++i) {
    if (tl[i].end < tl[i].begin) return "energy interval ends before it begins";
    if (i > 0 && tl[i].begin != tl[i - 1].end) {
      return tl[i].begin > tl[i - 1].end ? "gap in energy timeline"
                                         : "overlap in energy timeline";
    }
  }
  return "";
}

std::string check_fleet(const fleet::FleetMetrics& m, int clients) {
  if (m.admitted != clients || m.shed != 0) return "fleet shed sessions";
  if (m.sessions_ok != static_cast<std::uint64_t>(clients)) {
    return "fleet sessions did not all complete";
  }
  if (!m.clients.empty()) return "streaming fleet materialized clients";
  for (int pct = 1; pct <= 100; ++pct) {
    if (m.olt_stats.quantile(pct) > m.tlt_stats.quantile(pct)) {
      return "fleet OLT sketch exceeds TLT sketch";
    }
  }
  return "";
}

}  // namespace perfbench
