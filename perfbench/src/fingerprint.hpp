// Host fingerprint stamped on every output: numbers from hosts with
// different core counts, compilers or build types are not comparable.
#pragma once

#include <string>

namespace perfbench {

struct Fingerprint {
  int nproc = 1;
  std::string compiler;
  std::string build_type;
  std::string commit;
};

/// nproc is std::thread::hardware_concurrency() (1 if unknown).
[[nodiscard]] int host_nproc();
[[nodiscard]] Fingerprint host_fingerprint(const std::string& commit);
/// One JSON object: {"nproc":..,"compiler":..,"build_type":..,"commit":..}.
[[nodiscard]] std::string to_json(const Fingerprint& f);

}  // namespace perfbench
