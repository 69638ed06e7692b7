#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace parcel::sim {

void EventHandle::cancel() {
  if (auto owner = owner_.lock()) (*owner)->cancel_event(event_);
}

bool EventHandle::pending() const {
  auto owner = owner_.lock();
  return owner && (*owner)->pending_event(event_);
}

class Scheduler::SlotRelease {
 public:
  SlotRelease(Scheduler& sched, Slot& slot, std::uint32_t index)
      : sched_(sched), slot_(slot), index_(index) {}
  SlotRelease(const SlotRelease&) = delete;
  SlotRelease& operator=(const SlotRelease&) = delete;
  ~SlotRelease() { sched_.release_slot(slot_, index_); }

 private:
  Scheduler& sched_;
  Slot& slot_;
  std::uint32_t index_;
};

Scheduler::Slot& Scheduler::slot(std::uint64_t event) const {
  const std::uint32_t index = slot_index(event);
  if (index < kFirstChunk) return chunks_[0][index];
  // Chunk k starts at kFirstChunk * (2^k - 1).
  const auto chunk = static_cast<std::uint32_t>(
      std::bit_width((index >> kFirstChunkBits) + 1) - 1);
  return chunks_[chunk][index + kFirstChunk - (kFirstChunk << chunk)];
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ == kNoSlot) return new_slot();
  const std::uint32_t index = free_head_;
  free_head_ = slot(index).next_free;
  return index;
}

std::uint32_t Scheduler::new_slot() {
  if (slots_created_ == kFirstChunk * ((1U << chunk_count_) - 1)) {
    if (chunk_count_ == kMaxChunks) {
      throw std::length_error("Scheduler: too many pending events");
    }
    chunks_[chunk_count_] =
        std::make_unique<Slot[]>(std::size_t{kFirstChunk} << chunk_count_);
    ++chunk_count_;
  }
  return slots_created_++;
}

void Scheduler::release_slot(Slot& s, std::uint32_t index) {
  s.fn = nullptr;
  s.next_free = free_head_;
  free_head_ = index;
}

EventHandle Scheduler::schedule_at(TimePoint when, std::function<void()> fn) {
  if (!fn) throw std::invalid_argument("schedule_at: empty callback");
  if (next_seq_ == kSeqLimit) {
    throw std::length_error("Scheduler: event sequence exhausted");
  }
  if (when < now_) when = now_;
  const std::uint64_t event = (next_seq_++ << kSlotBits) | acquire_slot();
  Slot& s = slot(event);
  s.fn.swap(fn);  // the slot's own function is empty
  s.event = event;
  heap_.push_back(Key{when, event});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{self_, event};
}

EventHandle Scheduler::schedule_after(Duration delay,
                                      std::function<void()> fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::cancel_event(std::uint64_t event) {
  // The callable stays in its slot until the tombstone key is popped.
  if (pending_event(event)) slot(event).event = kNoEvent;
}

bool Scheduler::pending_event(std::uint64_t event) const {
  return slot_index(event) < slots_created_ && slot(event).event == event;
}

bool Scheduler::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    Slot& s = slot(key.event);
    SlotRelease release(*this, s, slot_index(key.event));
    if (s.event != key.event) continue;  // cancelled tombstone
    s.event = kNoEvent;
    now_ = key.when;
    ++executed_;
    // In place: the slot's chunk never moves, even if the callback grows
    // the slab.
    s.fn();
    return true;
  }
  return false;
}

TimePoint Scheduler::run() {
  while (step()) {
  }
  return now_;
}

void Scheduler::run_until(TimePoint deadline) {
  while (!heap_.empty()) {
    // Pop cancelled tombstones first so the deadline check sees the next
    // *live* event. Checking the raw front is wrong: a cancelled head
    // with when <= deadline would pass the check, and step() — which
    // skips tombstones — would then execute a live event beyond the
    // deadline (and leave now_ past it).
    const Key head = heap_.front();
    Slot& s = slot(head.event);
    if (s.event != head.event) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      release_slot(s, slot_index(head.event));
      continue;
    }
    if (head.when > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace parcel::sim
