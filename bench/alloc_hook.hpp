// Counting global operator new for the allocation gates.
//
// Linking alloc_hook.cpp into a bench binary replaces the global
// operator new/delete family with a pass-through to malloc/free that
// counts every allocation and its requested bytes. bench_micro's
// scheduler allocation regression and bench_kernel_throughput's
// bytes-allocated-per-load gate both read these totals; take a snapshot
// before and after the code under test and subtract.
#pragma once

#include <cstdint>

namespace parcel::bench {

struct AllocTotals {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

/// Totals for the calling thread since it started.
[[nodiscard]] AllocTotals alloc_totals();

}  // namespace parcel::bench
