// ObjectLedger: per-run accounting of every object a browser requested.
// Supplies the onload/total object sets for trace analysis and the
// request counts for Table 1 / Fig 6c.
#pragma once

#include <cstdint>
#include <vector>

#include "net/url.hpp"
#include "util/units.hpp"
#include "web/object.hpp"

namespace parcel::browser {

struct LedgerEntry {
  std::uint32_t id = 0;
  net::Url url;
  web::ObjectType type = web::ObjectType::kImage;
  util::Bytes size = 0;
  /// Needed before the onload event can fire.
  bool blocking = true;
  bool completed = false;
  bool failed = false;
  util::TimePoint requested_at;
  util::TimePoint completed_at;
};

class ObjectLedger {
 public:
  std::uint32_t register_object(const net::Url& url, web::ObjectType type,
                                bool blocking, util::TimePoint now);
  void complete(std::uint32_t id, util::Bytes size, util::TimePoint now,
                bool failed = false);

  [[nodiscard]] const LedgerEntry& entry(std::uint32_t id) const;
  [[nodiscard]] const std::vector<LedgerEntry>& entries() const {
    return entries_;
  }

  [[nodiscard]] std::vector<std::uint32_t> onload_ids() const;
  [[nodiscard]] std::vector<std::uint32_t> all_ids() const;
  [[nodiscard]] std::size_t count() const { return entries_.size(); }
  [[nodiscard]] util::Bytes completed_bytes() const;

 private:
  std::vector<LedgerEntry> entries_;
};

}  // namespace parcel::browser
