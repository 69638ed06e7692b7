#pragma once
// Clang thread-safety annotation macros (DESIGN.md §14.3).
//
// Under clang the macros expand to the thread-safety attributes, so
//   clang++ -Wthread-safety -Werror
// statically checks the locking discipline: every read/write of a
// PARCEL_GUARDED_BY(mu) member must happen with `mu` held, functions
// declaring PARCEL_REQUIRES(mu) can only be called under the lock, and
// lock/unlock mismatches are compile errors.  Under every other compiler
// the macros vanish, so the annotations cost nothing and need no
// dependencies.
//
// parcel-lint's mutex-unannotated rule enforces the convention from the
// other side: a mutex member whose file never says PARCEL_GUARDED_BY(it)
// fails lint, so the discipline cannot silently erode on toolchains
// without clang.
//
// Use util::Mutex / util::MutexLock (src/util/mutex.hpp) rather than
// std::mutex for guarded state: libstdc++'s std::mutex carries no
// capability attribute, so clang cannot track it.

#if defined(__clang__) && (!defined(SWIG))
#define PARCEL_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PARCEL_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// On the mutex type: this class is a lockable capability.
#define PARCEL_CAPABILITY(x) PARCEL_THREAD_ANNOTATION(capability(x))

// On an RAII guard type: acquires in the ctor, releases in the dtor.
#define PARCEL_SCOPED_CAPABILITY PARCEL_THREAD_ANNOTATION(scoped_lockable)

// On data members: which mutex protects them.
#define PARCEL_GUARDED_BY(x) PARCEL_THREAD_ANNOTATION(guarded_by(x))
#define PARCEL_PT_GUARDED_BY(x) PARCEL_THREAD_ANNOTATION(pt_guarded_by(x))

// On mutex members: lock-ordering constraints.
#define PARCEL_ACQUIRED_BEFORE(...) \
  PARCEL_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define PARCEL_ACQUIRED_AFTER(...) \
  PARCEL_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// On functions: caller must hold / must not hold the capability.
#define PARCEL_REQUIRES(...) \
  PARCEL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PARCEL_REQUIRES_SHARED(...) \
  PARCEL_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define PARCEL_EXCLUDES(...) \
  PARCEL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// On lock/unlock functions of a capability type.
#define PARCEL_ACQUIRE(...) \
  PARCEL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PARCEL_ACQUIRE_SHARED(...) \
  PARCEL_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define PARCEL_RELEASE(...) \
  PARCEL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PARCEL_RELEASE_SHARED(...) \
  PARCEL_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define PARCEL_TRY_ACQUIRE(...) \
  PARCEL_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Assertions and returns.
#define PARCEL_ASSERT_CAPABILITY(x) \
  PARCEL_THREAD_ANNOTATION(assert_capability(x))
#define PARCEL_RETURN_CAPABILITY(x) PARCEL_THREAD_ANNOTATION(lock_returned(x))
