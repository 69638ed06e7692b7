#include "cli.hpp"

#include <set>

#include "bench/common.hpp"

namespace perfbench {

using parcel::bench::parse_positive_int;
using parcel::bench::parse_u64;

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kAlexa34Matrix: return "alexa34-matrix";
    case Workload::kLargeObjectFade: return "large-object-fade";
    case Workload::kFleetStream: return "fleet-stream";
  }
  return "?";
}

std::string usage() {
  return "usage: parcel_perfbench --workload "
         "alexa34-matrix|large-object-fade|fleet-stream\n"
         "         [--seed N] [--seconds N] [--jobs N] [--trace 0|1]\n"
         "         [--trace-out FILE] [--golden FILE] [--commit REV]\n";
}

namespace {

// bench::parse_* throw std::invalid_argument; re-raise as a usage error.
template <typename F>
auto strict(F&& parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

bool revision_char(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z') || c == '.' || c == '_' || c == '-';
}

}  // namespace

Options parse_cli(const std::vector<std::string>& args, int max_jobs) {
  Options opts;
  opts.jobs = max_jobs;
  bool have_workload = false;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (!seen.insert(flag).second) {
      throw UsageError(flag + " given twice");
    }
    if (i + 1 >= args.size()) {
      throw UsageError(flag.rfind("--", 0) == 0
                           ? flag + " expects a value"
                           : "unexpected argument '" + flag + "'");
    }
    const std::string& value = args[++i];
    if (flag == "--workload") {
      bool found = false;
      for (Workload w : {Workload::kAlexa34Matrix, Workload::kLargeObjectFade,
                         Workload::kFleetStream}) {
        if (value == workload_name(w)) {
          opts.workload = w;
          found = true;
        }
      }
      if (!found) throw UsageError("--workload: unknown workload '" + value + "'");
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = strict([&] { return parse_u64("--seed", value.c_str()); });
    } else if (flag == "--seconds") {
      opts.seconds =
          strict([&] { return parse_positive_int("--seconds", value.c_str()); });
      if (opts.seconds > 600) throw UsageError("--seconds must be at most 600");
    } else if (flag == "--jobs") {
      opts.jobs =
          strict([&] { return parse_positive_int("--jobs", value.c_str()); });
      if (opts.jobs > max_jobs) {
        throw UsageError("--jobs " + value + " exceeds nproc (" +
                         std::to_string(max_jobs) + ")");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw UsageError("--trace expects 0 or 1, got '" + value + "'");
      }
      opts.trace = value == "1";
    } else if (flag == "--trace-out" || flag == "--golden") {
      if (value.empty()) throw UsageError(flag + " expects a file name");
      (flag == "--trace-out" ? opts.trace_out : opts.golden) = value;
    } else if (flag == "--commit") {
      if (value.empty() || value.size() > 64) {
        throw UsageError("--commit expects 1 to 64 characters");
      }
      for (char c : value) {
        if (!revision_char(c)) {
          throw UsageError("--commit: bad character in '" + value + "'");
        }
      }
      opts.commit = value;
    } else {
      throw UsageError("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  return opts;
}

}  // namespace perfbench
