// Sanctioned environment kill switches.
//
// util/ owns the PARCEL_* env toggles (see lint.rules: nondet-getenv is
// exempt here and only here). Every toggle is read once, at first use, so
// behaviour cannot change mid-run; callers cache the result in their own
// process-wide flag when they need a programmatic override on top (see
// ctrl::set_ctrl_enabled).
#pragma once

namespace parcel::util {

/// Read the kill switch `name` once: returns `default_on` unless the
/// variable is set, in which case anything but "0" enables. All PARCEL_*
/// switches follow the PARCEL_PARSE_CACHE convention: "0" disables, any
/// other value (or unset) leaves the default.
[[nodiscard]] bool env_flag(const char* name, bool default_on);

}  // namespace parcel::util
