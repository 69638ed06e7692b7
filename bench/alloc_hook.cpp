#include "bench/alloc_hook.hpp"

#include <cstdlib>
#include <new>

namespace {
// Per-thread plain counters: an atomic read-modify-write on every
// allocation would tax the scheduler throughput the same binary measures.
thread_local parcel::bench::AllocTotals t_totals;

void* counted_malloc(std::size_t size) {
  ++t_totals.allocations;
  t_totals.bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace parcel::bench {

AllocTotals alloc_totals() { return t_totals; }

}  // namespace parcel::bench

// noinline on every replaced operator: once GCC inlines a body it sees the
// raw std::malloc/std::free inside, pairs it against the *other* side of a
// new/delete pair at some call site, and emits a bogus
// -Wmismatched-new-delete.  Opaque calls keep the pairing at the operator
// level, where it is correct by construction (all six route to malloc/free).
__attribute__((noinline)) void* operator new(std::size_t size) {
  return counted_malloc(size);
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return counted_malloc(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}
