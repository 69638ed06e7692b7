// Discrete-event simulation kernel.
//
// A Scheduler owns a priority queue of timestamped callbacks. Components
// (TCP connections, the RRC machine, browsers) schedule continuations on
// it; Scheduler::run() drains the queue in time order. Events fired at the
// same instant run in scheduling order (FIFO tie-break), which keeps runs
// deterministic.
//
// Hot-path notes: the queue is a vector-backed binary heap so the top
// entry is *moved* out on fire (std::priority_queue only exposes a const
// top, forcing a copy of the std::function). Event handles are lazy —
// scheduling allocates nothing; a handle resolves its event through the
// scheduler by sequence number only when cancel()/pending() is actually
// called, so the common fire-and-forget path does zero shared_ptr
// allocations per event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/units.hpp"

namespace parcel::sim {

using util::Duration;
using util::TimePoint;

class Scheduler;

/// Handle to a scheduled event; allows cancellation. Copyable; all copies
/// refer to the same pending event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Safe to call after it has fired, after
  /// the scheduler is gone, or on a default-constructed handle (no-ops).
  void cancel();

  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(std::weak_ptr<Scheduler*> owner, std::uint64_t seq)
      : owner_(std::move(owner)), seq_(seq) {}
  // Weak reference to the owning scheduler's liveness token (one token per
  // scheduler, not per event); the seq identifies the event.
  std::weak_ptr<Scheduler*> owner_;
  std::uint64_t seq_ = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when`. Scheduling in the past
  /// is clamped to now() (fires immediately on the next run step).
  EventHandle schedule_at(TimePoint when, std::function<void()> fn);

  /// Schedule `fn` to run `delay` after now().
  EventHandle schedule_after(Duration delay, std::function<void()> fn);

  /// Run until the queue empties. Returns the time of the last event.
  TimePoint run();

  /// Run events with timestamp <= deadline; the clock ends at `deadline`
  /// even if the queue drained earlier (mirrors the paper's fixed 60 s
  /// packet-capture window).
  void run_until(TimePoint deadline);

  /// Execute exactly one event if any is pending. Returns false when idle.
  bool step();

  [[nodiscard]] bool idle() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  friend class EventHandle;

  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    bool cancelled;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void cancel_seq(std::uint64_t seq);
  [[nodiscard]] bool pending_seq(std::uint64_t seq) const;

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Min-heap on (when, seq) maintained with std::push_heap/std::pop_heap;
  // cancelled entries stay in place and are skipped when popped.
  std::vector<Entry> heap_;
  // Liveness token handed to EventHandles as a weak_ptr; expires with the
  // scheduler so stale handles degrade to no-ops instead of dangling.
  std::shared_ptr<Scheduler*> self_ = std::make_shared<Scheduler*>(this);
};

}  // namespace parcel::sim
