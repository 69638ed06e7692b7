#include "fingerprint.hpp"

#include <thread>

namespace perfbench {

int host_nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

Fingerprint host_fingerprint(const std::string& commit) {
  Fingerprint f;
  f.nproc = host_nproc();
#if defined(__clang__)
  f.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  f.compiler = std::string("gcc ") + __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.commit = commit;
  return f;
}

std::string to_json(const Fingerprint& f) {
  // Compiler strings and revisions hold no quotes or backslashes
  // (revisions are validated by the CLI), so no escaping is needed.
  return "{\"nproc\": " + std::to_string(f.nproc) + ", \"compiler\": \"" +
         f.compiler + "\", \"build_type\": \"" + f.build_type +
         "\", \"commit\": \"" + f.commit + "\"}";
}

}  // namespace perfbench
