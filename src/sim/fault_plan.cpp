#include "sim/fault_plan.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace parcel::sim {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("fault plan: " + what);
}

double parse_number(const std::string& key, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    bad(key + " expects a number, got '" + text + "'");
  }
  return v;
}

std::uint64_t parse_seed(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  // strtoull accepts a leading sign ("-1" wraps to 2^64-1) and leading
  // blanks; a seed is digits only.
  if (errno != 0 || end == text.c_str() || *end != '\0' ||
      std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    bad("seed expects a non-negative integer, got '" + text + "'");
  }
  return v;
}

/// Window syntax: "START+LENGTH", both seconds.
FaultWindow parse_window(const std::string& key, const std::string& text) {
  auto plus = text.find('+');
  if (plus == std::string::npos) {
    bad(key + " expects START+LENGTH seconds, got '" + text + "'");
  }
  double start = parse_number(key + " start", text.substr(0, plus));
  double length = parse_number(key + " length", text.substr(plus + 1));
  return FaultWindow{TimePoint::at_seconds(start), Duration::seconds(length)};
}

/// NaN passes every range comparison, so each number is checked for
/// finiteness before its range.
void require_finite(const char* what, double v) {
  if (!std::isfinite(v)) {
    bad(std::string(what) + " must be finite, got " + std::to_string(v));
  }
}

void validate_windows(const char* what, const std::vector<FaultWindow>& ws) {
  for (const FaultWindow& w : ws) {
    if (!std::isfinite(w.start.sec())) {
      bad(std::string(what) + " window start must be finite");
    }
    if (w.start < TimePoint::origin()) {
      bad(std::string(what) + " window start must be >= 0, got " +
          std::to_string(w.start.sec()) + "s");
    }
    if (w.length < Duration::zero()) {
      bad(std::string(what) + " window length must be >= 0, got " +
          std::to_string(w.length.sec()) + "s");
    }
    if (!w.length.is_finite() && w.length != Duration::infinity()) {
      bad(std::string(what) + " window length must be finite or +inf");
    }
  }
}

void append_windows(std::string& out, const char* key,
                    const std::vector<FaultWindow>& ws) {
  char buf[64];
  for (const FaultWindow& w : ws) {
    std::snprintf(buf, sizeof(buf), ",%s=%g+%g", key, w.start.sec(),
                  w.length.sec());
    out += buf;
  }
}

}  // namespace

bool FaultPlan::enabled() const {
  return loss_probability > 0.0 || !blackouts.empty() || !collapses.empty() ||
         server_error_probability > 0.0 || !server_stalls.empty() ||
         proxy_crash_at.has_value();
}

void FaultPlan::validate() const {
  require_finite("loss probability", loss_probability);
  require_finite("server error probability", server_error_probability);
  require_finite("collapse factor", collapse_factor);
  require_finite("server stall extra", server_stall_extra.sec());
  if (proxy_crash_at) require_finite("proxy crash time", proxy_crash_at->sec());
  if (proxy_restart_after) {
    require_finite("proxy restart delay", proxy_restart_after->sec());
  }
  if (loss_probability < 0.0 || loss_probability > 1.0) {
    bad("loss probability must be in [0, 1], got " +
        std::to_string(loss_probability));
  }
  if (server_error_probability < 0.0 || server_error_probability > 1.0) {
    bad("server error probability must be in [0, 1], got " +
        std::to_string(server_error_probability));
  }
  if (collapse_factor <= 0.0 || collapse_factor > 1.0) {
    bad("collapse factor must be in (0, 1], got " +
        std::to_string(collapse_factor));
  }
  validate_windows("blackout", blackouts);
  validate_windows("collapse", collapses);
  validate_windows("server stall", server_stalls);
  if (server_stall_extra < Duration::zero()) {
    bad("server stall extra must be >= 0, got " +
        std::to_string(server_stall_extra.sec()) + "s");
  }
  if (proxy_crash_at && *proxy_crash_at < TimePoint::origin()) {
    bad("proxy crash time must be >= 0, got " +
        std::to_string(proxy_crash_at->sec()) + "s");
  }
  if (proxy_restart_after) {
    if (!proxy_crash_at) bad("restart given without a crash time");
    if (*proxy_restart_after < Duration::zero()) {
      bad("proxy restart delay must be >= 0, got " +
          std::to_string(proxy_restart_after->sec()) + "s");
    }
  }
}

std::string FaultPlan::str() const {
  if (!enabled()) return "off";
  std::string out = "seed=" + std::to_string(seed);
  char buf[64];
  if (loss_probability > 0.0) {
    std::snprintf(buf, sizeof(buf), ",loss=%g", loss_probability);
    out += buf;
  }
  append_windows(out, "blackout", blackouts);
  append_windows(out, "collapse", collapses);
  if (!collapses.empty()) {
    std::snprintf(buf, sizeof(buf), ",cfactor=%g", collapse_factor);
    out += buf;
  }
  if (server_error_probability > 0.0) {
    std::snprintf(buf, sizeof(buf), ",serror=%g", server_error_probability);
    out += buf;
  }
  append_windows(out, "sstall", server_stalls);
  if (!server_stalls.empty()) {
    std::snprintf(buf, sizeof(buf), ",sextra=%g", server_stall_extra.sec());
    out += buf;
  }
  if (proxy_crash_at) {
    std::snprintf(buf, sizeof(buf), ",crash=%g", proxy_crash_at->sec());
    out += buf;
  }
  if (proxy_restart_after) {
    std::snprintf(buf, sizeof(buf), ",restart=%g", proxy_restart_after->sec());
    out += buf;
  }
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "off") return plan;

  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;

    auto eq = item.find('=');
    if (eq == std::string::npos) bad("expected key=value, got '" + item + "'");
    std::string key = item.substr(0, eq);
    std::string value = item.substr(eq + 1);

    if (key == "loss") {
      plan.loss_probability = parse_number(key, value);
    } else if (key == "blackout") {
      plan.blackouts.push_back(parse_window(key, value));
    } else if (key == "collapse") {
      plan.collapses.push_back(parse_window(key, value));
    } else if (key == "cfactor") {
      plan.collapse_factor = parse_number(key, value);
    } else if (key == "serror") {
      plan.server_error_probability = parse_number(key, value);
    } else if (key == "sstall") {
      plan.server_stalls.push_back(parse_window(key, value));
    } else if (key == "sextra") {
      plan.server_stall_extra = Duration::seconds(parse_number(key, value));
    } else if (key == "crash") {
      plan.proxy_crash_at = TimePoint::at_seconds(parse_number(key, value));
    } else if (key == "restart") {
      plan.proxy_restart_after = Duration::seconds(parse_number(key, value));
    } else if (key == "seed") {
      plan.seed = parse_seed(value);
    } else {
      bad("unknown key '" + key + "'");
    }
  }
  plan.validate();
  return plan;
}

}  // namespace parcel::sim
