// Discrete-event simulation kernel.
//
// A Scheduler owns a priority queue of timestamped callbacks. Components
// (TCP connections, the RRC machine, browsers) schedule continuations on
// it; Scheduler::run() drains the queue in time order. Events fired at the
// same instant run in scheduling order (FIFO tie-break), which keeps runs
// deterministic.
//
// Hot-path notes: the binary heap holds trivially copyable 16-byte keys
// (time, event id), so a sift never moves a callable. Callables live in a
// slab of slots with a free list, and an event fires in place from its
// slot. The slab grows in chunks that never move (each twice the size of
// the last), so a callback that schedules enough events to grow the slab
// keeps running from a fixed address, and a million pending events cost
// a dozen chunk allocations. Event handles are lazy — scheduling
// allocates nothing; a handle resolves its event through the scheduler by
// event id only when cancel()/pending() is actually called, so the common
// fire-and-forget path does zero shared_ptr allocations per event.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
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
  EventHandle(std::weak_ptr<Scheduler*> owner, std::uint64_t event)
      : owner_(std::move(owner)), event_(event) {}
  // Weak reference to the owning scheduler's liveness token (one token per
  // scheduler, not per event); the event id (seq and slot) identifies the
  // event, and its seq tells it from a later event that reuses the slot.
  std::weak_ptr<Scheduler*> owner_;
  std::uint64_t event_ = 0;
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

  // An event id packs the event's sequence number above its slot index.
  // Ids order like seqs (the FIFO tie-break), and the low bits locate the
  // callable. 24 slot bits allow 16.7M pending events; the remaining 40
  // seq bits allow 1.1e12 events per scheduler.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1}
                                             << (64 - kSlotBits);
  static constexpr std::uint64_t kNoEvent =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  // Chunk k holds kFirstChunk << k slots; kMaxChunks chunks hold
  // 2^24 - 256 slots, just under the slot-index limit.
  static constexpr unsigned kFirstChunkBits = 8;
  static constexpr std::uint32_t kFirstChunk = 1U << kFirstChunkBits;
  static constexpr std::size_t kMaxChunks = kSlotBits - kFirstChunkBits;

  struct Key {
    TimePoint when;
    std::uint64_t event;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.event > b.event;
    }
  };

  /// An event's callable from schedule until its key leaves the heap.
  /// `event` names the live event and is reset to kNoEvent when the event
  /// fires or is cancelled, so a popped key whose id differs is a
  /// cancelled tombstone and a stale handle never matches.
  struct Slot {
    std::function<void()> fn;
    std::uint64_t event = kNoEvent;
    std::uint32_t next_free = kNoSlot;
  };

  /// Returns the slot to the free list when it leaves scope, also if the
  /// callback throws; dropping the callable destroys its captures.
  class SlotRelease;

  static std::uint32_t slot_index(std::uint64_t event) {
    return static_cast<std::uint32_t>(event & kSlotMask);
  }
  [[nodiscard]] Slot& slot(std::uint64_t event) const;
  std::uint32_t acquire_slot();
  std::uint32_t new_slot();
  void release_slot(Slot& s, std::uint32_t index);

  void cancel_event(std::uint64_t event);
  [[nodiscard]] bool pending_event(std::uint64_t event) const;

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Min-heap on (when, event id) maintained with std::push_heap and
  // std::pop_heap; cancelled keys stay in place and are skipped when
  // popped.
  std::vector<Key> heap_;
  std::array<std::unique_ptr<Slot[]>, kMaxChunks> chunks_;
  std::uint32_t chunk_count_ = 0;
  std::uint32_t slots_created_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  // Liveness token handed to EventHandles as a weak_ptr; expires with the
  // scheduler so stale handles degrade to no-ops instead of dangling.
  std::shared_ptr<Scheduler*> self_ = std::make_shared<Scheduler*>(this);
};

}  // namespace parcel::sim
