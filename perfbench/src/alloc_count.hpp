// Heap allocation counting for the benchmark binaries: alloc_count.cpp
// replaces the global operator new/delete and counts, per thread, every
// allocation call and the bytes requested. Link alloc_count.cpp into an
// executable (not a static library, where the replacement may not be
// pulled in) to enable it.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Totals so far on the calling thread.
[[nodiscard]] AllocCounts thread_alloc_counts();

}  // namespace perfbench
