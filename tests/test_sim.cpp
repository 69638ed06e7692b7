#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace parcel::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(TimePoint::at_seconds(2), [&] { order.push_back(2); });
  sched.schedule_at(TimePoint::at_seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(TimePoint::at_seconds(3), [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now().sec(), 3.0);
}

TEST(Scheduler, SameTimeEventsRunFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(TimePoint::at_seconds(1), [&, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  double fired_at = -1;
  sched.schedule_at(TimePoint::at_seconds(1), [&] {
    sched.schedule_after(Duration::seconds(2),
                         [&] { fired_at = sched.now().sec(); });
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(Scheduler, PastEventsClampToNow) {
  Scheduler sched;
  double fired_at = -1;
  sched.schedule_at(TimePoint::at_seconds(5), [&] {
    sched.schedule_at(TimePoint::at_seconds(1),
                      [&] { fired_at = sched.now().sec(); });
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  EventHandle h =
      sched.schedule_at(TimePoint::at_seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler sched;
  EventHandle h = sched.schedule_at(TimePoint::at_seconds(1), [] {});
  sched.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sched.schedule_at(TimePoint::at_seconds(t),
                      [&fired, &sched] { fired.push_back(sched.now().sec()); });
  }
  sched.run_until(TimePoint::at_seconds(2.5));
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(sched.now().sec(), 2.5);
  EXPECT_EQ(sched.pending_events(), 2u);
}

TEST(Scheduler, RunUntilAdvancesClockWhenQueueEmpty) {
  Scheduler sched;
  sched.run_until(TimePoint::at_seconds(10));
  EXPECT_DOUBLE_EQ(sched.now().sec(), 10.0);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(TimePoint::at_seconds(1), [&] { ++count; });
  sched.schedule_at(TimePoint::at_seconds(2), [&] { ++count; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.events_executed(), 2u);
}

TEST(Scheduler, RejectsEmptyCallback) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(TimePoint::origin(), nullptr),
               std::invalid_argument);
}

TEST(Scheduler, RunUntilSkipsCancelledHeadWithoutOverrunningDeadline) {
  // Regression: a cancelled tombstone at the heap front with
  // when <= deadline used to pass run_until's check, and step() — which
  // skips tombstones — then executed the next *live* event beyond the
  // deadline, leaving now_ past it.
  Scheduler sched;
  bool late_fired = false;
  EventHandle head =
      sched.schedule_at(TimePoint::at_seconds(1), [] { FAIL(); });
  sched.schedule_at(TimePoint::at_seconds(5), [&] { late_fired = true; });
  head.cancel();
  sched.run_until(TimePoint::at_seconds(2));
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(sched.now().sec(), 2.0);
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_TRUE(late_fired);
}

TEST(Scheduler, RunUntilDrainsConsecutiveCancelledHeads) {
  Scheduler sched;
  std::vector<EventHandle> handles;
  for (double t : {0.5, 0.6, 0.7}) {
    handles.push_back(
        sched.schedule_at(TimePoint::at_seconds(t), [] { FAIL(); }));
  }
  bool fired = false;
  sched.schedule_at(TimePoint::at_seconds(1), [&] { fired = true; });
  for (EventHandle& h : handles) h.cancel();
  sched.run_until(TimePoint::at_seconds(3));
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sched.now().sec(), 3.0);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Scheduler, DuplicateCancelIsIdempotent) {
  Scheduler sched;
  bool fired = false;
  EventHandle h =
      sched.schedule_at(TimePoint::at_seconds(1), [&] { fired = true; });
  EventHandle copy = h;
  h.cancel();
  copy.cancel();  // second cancel of the same event: no-op
  h.cancel();
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(copy.pending());
}

TEST(Scheduler, HandleOutlivingSchedulerDegradesToNoop) {
  EventHandle h;
  {
    Scheduler sched;
    h = sched.schedule_at(TimePoint::at_seconds(1), [] {});
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not touch freed memory
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule_after(Duration::seconds(1), recurse);
  };
  sched.schedule_at(TimePoint::origin(), recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sched.now().sec(), 4.0);
}

TEST(Scheduler, CapturesDestroyedOnceFired) {
  Scheduler sched;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  sched.schedule_at(TimePoint::at_seconds(1), [token] {});
  token.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sched.step());
  EXPECT_TRUE(watch.expired());
}

TEST(Scheduler, CancelledCapturesDestroyedOncePopped) {
  Scheduler sched;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  EventHandle h = sched.schedule_at(TimePoint::at_seconds(1), [token] {});
  token.reset();
  bool later_fired = false;
  sched.schedule_at(TimePoint::at_seconds(2), [&] { later_fired = true; });
  h.cancel();
  // step() pops the tombstone on its way to the live event.
  EXPECT_TRUE(sched.step());
  EXPECT_TRUE(later_fired);
  EXPECT_TRUE(watch.expired());

  // run_until's tombstone skip releases captures too.
  auto token2 = std::make_shared<int>(2);
  std::weak_ptr<int> watch2 = token2;
  EventHandle h2 = sched.schedule_at(TimePoint::at_seconds(3), [token2] {});
  token2.reset();
  h2.cancel();
  sched.run_until(TimePoint::at_seconds(4));
  EXPECT_TRUE(watch2.expired());
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Scheduler, CallbackSchedulingManyEventsKeepsFifoAndItsCaptures) {
  // A callback that schedules 10,000 events grows the scheduler's storage
  // while it is still running; its own captures must stay intact and the
  // new events must fire in scheduling order after the ones queued before.
  constexpr int kBurst = 10'000;
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.schedule_at(TimePoint::at_seconds(1), [&order, i] {
      order.push_back(-3 + i);
    });
  }
  const std::string tag(64, 'x');  // heap-allocated capture
  bool captures_intact = false;
  sched.schedule_at(TimePoint::origin(), [&, tag] {
    for (int i = 0; i < kBurst; ++i) {
      sched.schedule_at(TimePoint::at_seconds(1),
                        [&order, i] { order.push_back(i); });
    }
    captures_intact = tag == std::string(64, 'x');
  });
  sched.run();
  EXPECT_TRUE(captures_intact);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kBurst + 3));
  for (int i = 0; i < kBurst + 3; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i - 3);
  }
}

TEST(Scheduler, HandlesStayExactAfterStorageReuse) {
  Scheduler sched;
  int fired_a = 0, fired_b = 0, fired_c = 0;
  EventHandle a =
      sched.schedule_at(TimePoint::at_seconds(1), [&] { ++fired_a; });
  sched.run();
  EXPECT_EQ(fired_a, 1);
  // b reuses the storage a fired from; a's handle must not see b.
  EventHandle b =
      sched.schedule_at(TimePoint::at_seconds(2), [&] { ++fired_b; });
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  a.cancel();
  EXPECT_TRUE(b.pending());
  b.cancel();
  sched.run();
  EXPECT_EQ(fired_b, 0);
  // c reuses b's storage after b's tombstone was popped.
  EventHandle c =
      sched.schedule_at(TimePoint::at_seconds(3), [&] { ++fired_c; });
  EXPECT_FALSE(b.pending());
  EXPECT_TRUE(c.pending());
  b.cancel();
  a.cancel();
  sched.run();
  EXPECT_EQ(fired_c, 1);
  EXPECT_FALSE(c.pending());
}

TEST(Scheduler, OwnHandleIsNotPendingInsideItsCallback) {
  Scheduler sched;
  EventHandle self;
  bool pending_inside = true;
  int fired = 0;
  self = sched.schedule_at(TimePoint::at_seconds(1), [&] {
    pending_inside = self.pending();
    self.cancel();  // no-op: the event is already firing
    ++fired;
    sched.schedule_after(Duration::seconds(1), [&] { ++fired; });
  });
  sched.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace parcel::sim
