//===- tests/sim/EventKernelParityTest.cpp - Firing-order differential ----===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Randomized differential test between the Simulator's calendar queue
// and a reference queue that states the firing-order contract directly:
// the same self-scheduling program — a mix of schedules, cancellations,
// and reschedules with delays spanning same-bucket, cross-bucket, and
// beyond-horizon (overflow ladder) ranges — must fire events in exactly
// the same (When, Seq) order on both. Any ordering divergence
// desynchronizes the two runs' Rng streams and shows up as a difference
// in the recorded (time, id) firing logs.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"
#include "support/Rng.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

using namespace greenweb;

namespace {

/// The firing-order contract, spelled out: every event gets the next
/// sequence number; events fire in ascending (When, Seq) order; a
/// negative delay fires at the current time; a cancelled event never
/// fires; cancelling an event that already fired does nothing.
class ReferenceQueue {
public:
  struct Handle {
    ReferenceQueue *Q;
    uint64_t Seq;
    void cancel() { Q->Entries[Seq].Cancelled = true; }
  };

  TimePoint now() const { return Now; }

  Handle schedule(Duration Delay, std::function<void()> Fn) {
    if (Delay.isNegative())
      Delay = Duration::zero();
    uint64_t Seq = Entries.size();
    Entries.push_back({std::move(Fn), false});
    Order.insert({(Now + Delay).nanos(), Seq});
    return {this, Seq};
  }

  uint64_t run() {
    uint64_t Fired = 0;
    while (!Order.empty()) {
      auto [When, Seq] = *Order.begin();
      Order.erase(Order.begin());
      if (Entries[Seq].Cancelled)
        continue;
      // Fired: a later cancel() through a stale handle is a no-op.
      Entries[Seq].Cancelled = true;
      Now = TimePoint() + Duration::nanoseconds(When);
      ++Fired;
      std::function<void()> Fn = std::move(Entries[Seq].Fn);
      Fn();
    }
    return Fired;
  }

private:
  struct Entry {
    std::function<void()> Fn;
    bool Cancelled;
  };
  TimePoint Now;
  std::vector<Entry> Entries; ///< Indexed by Seq.
  std::set<std::pair<int64_t, uint64_t>> Order; ///< (When ns, Seq).
};

struct FiringLog {
  /// (fire time in ns, program-assigned event id), in firing order.
  std::vector<std::pair<int64_t, uint64_t>> Fired;
  uint64_t Scheduled = 0;
  uint64_t Cancelled = 0;
};

/// Runs the randomized program on queue \p Queue (Simulator or
/// ReferenceQueue) and returns its firing log. The program is fully
/// deterministic given the seed *and* the firing order, which is the
/// property under test.
template <class Queue>
FiringLog runProgram(uint64_t Seed, uint64_t TargetEvents) {
  Queue Sim;
  using Handle = decltype(Sim.schedule(Duration::zero(), [] {}));
  Rng R(Seed);
  FiringLog Log;
  std::vector<std::pair<Handle, uint64_t>> Pending;

  // Delay classes: zero (same-timestamp batch), sub-bucket (< 65.5 us),
  // mid-range, and far beyond the wheel horizon (~134 ms) to force the
  // overflow ladder and horizon advances.
  auto PickDelay = [&R]() -> Duration {
    switch (R.uniformInt(0, 3)) {
    case 0:
      return Duration::zero();
    case 1:
      return Duration::nanoseconds(R.uniformInt(1, 60000));
    case 2:
      return Duration::microseconds(R.uniformInt(1, 5000));
    default:
      return Duration::milliseconds(R.uniformInt(100, 900));
    }
  };

  std::function<void(uint64_t)> OnFire = [&](uint64_t Id) {
    Log.Fired.push_back({(Sim.now() - TimePoint::origin()).nanos(), Id});
    // Keep the queue busy until the program has issued its quota.
    int Spawn = int(R.uniformInt(0, 2));
    for (int I = 0; I < Spawn && Log.Scheduled < TargetEvents; ++I) {
      uint64_t NewId = Log.Scheduled++;
      Handle H = Sim.schedule(PickDelay(), [&, NewId] { OnFire(NewId); });
      Pending.push_back({H, NewId});
    }
    // Occasionally cancel a random pending event; half the time
    // reschedule it (cancel + fresh schedule at a new delay).
    if (!Pending.empty() && R.chance(0.3)) {
      size_t Victim = size_t(R.uniformInt(0, int64_t(Pending.size()) - 1));
      Pending[Victim].first.cancel();
      ++Log.Cancelled;
      if (R.chance(0.5) && Log.Scheduled < TargetEvents) {
        uint64_t NewId = Log.Scheduled++;
        Handle H =
            Sim.schedule(PickDelay(), [&, NewId] { OnFire(NewId); });
        Pending[Victim] = {H, NewId};
      } else {
        Pending.erase(Pending.begin() + int64_t(Victim));
      }
    }
  };

  // Seed burst: enough initial parallelism to mix timestamp batches.
  for (int I = 0; I < 64; ++I) {
    uint64_t Id = Log.Scheduled++;
    Handle H = Sim.schedule(PickDelay(), [&, Id] { OnFire(Id); });
    Pending.push_back({H, Id});
  }
  Sim.run();
  if constexpr (std::is_same_v<Queue, Simulator>) {
    EXPECT_TRUE(Sim.idle());
  }
  return Log;
}

TEST(EventKernelParityTest, CalendarMatchesReferenceOrderOver100kEvents) {
  const uint64_t Target = 100000;
  FiringLog Ref = runProgram<ReferenceQueue>(0xFEED, Target);
  FiringLog Calendar = runProgram<Simulator>(0xFEED, Target);

  ASSERT_EQ(Ref.Scheduled, Target);
  ASSERT_EQ(Calendar.Scheduled, Target);
  EXPECT_EQ(Ref.Cancelled, Calendar.Cancelled);
  ASSERT_EQ(Ref.Fired.size(), Calendar.Fired.size());
  // Element-wise comparison so a failure reports the first divergence
  // instead of dumping both logs.
  for (size_t I = 0; I < Ref.Fired.size(); ++I) {
    ASSERT_EQ(Ref.Fired[I], Calendar.Fired[I])
        << "first (When, Seq) order divergence at firing #" << I;
  }
}

TEST(EventKernelParityTest, OrderHoldsAcrossSeeds) {
  for (uint64_t Seed : {1ull, 7ull, 1234567ull}) {
    FiringLog Ref = runProgram<ReferenceQueue>(Seed, 5000);
    FiringLog Calendar = runProgram<Simulator>(Seed, 5000);
    EXPECT_EQ(Ref.Fired, Calendar.Fired) << "seed " << Seed;
  }
}

TEST(EventKernelParityTest, TelemetryCountersMatchReference) {
  Telemetry Tel;
  Simulator Sim;
  Sim.setTelemetry(&Tel);
  ReferenceQueue Ref;
  std::vector<uint64_t> SimFired, RefFired;
  std::vector<EventHandle> Handles;
  std::vector<ReferenceQueue::Handle> RefHandles;
  Rng R(99);
  for (uint64_t I = 0; I < 2000; ++I) {
    Duration Delay = Duration::microseconds(R.uniformInt(0, 300000));
    Handles.push_back(Sim.schedule(Delay, [&, I] { SimFired.push_back(I); }));
    RefHandles.push_back(
        Ref.schedule(Delay, [&, I] { RefFired.push_back(I); }));
  }
  // Cancel a large prefix; the next schedule finds stubs dominating the
  // queue and compacts it.
  for (size_t I = 0; I < 1500; ++I) {
    Handles[I].cancel();
    RefHandles[I].cancel();
  }
  EXPECT_EQ(Sim.queueCompactions(), 0u);
  Sim.schedule(Duration::milliseconds(1), [&] { SimFired.push_back(2000); });
  Ref.schedule(Duration::milliseconds(1), [&] { RefFired.push_back(2000); });
  EXPECT_EQ(Sim.queueCompactions(), 1u);
  EXPECT_EQ(Sim.pendingEvents(), 501u);
  EXPECT_EQ(Sim.cancelledPending(), 0u);

  EXPECT_EQ(Sim.run(), Ref.run());
  EXPECT_EQ(SimFired, RefFired);
  EXPECT_EQ(SimFired.size(), 501u);
  EXPECT_EQ(Sim.totalCancelled(), 1500u);
  MetricsRegistry &M = Tel.metrics();
  EXPECT_EQ(M.counter("sim.events_scheduled").value(), 2001u);
  EXPECT_EQ(M.counter("sim.events_fired").value(), 501u);
  EXPECT_EQ(M.counter("sim.events_cancelled").value(), 1500u);
  EXPECT_EQ(M.counter("sim.queue_compactions").value(), 1u);
}

TEST(EventKernelParityTest, LiveEventCountAndIdleAreExact) {
  Simulator Sim;
  EXPECT_TRUE(Sim.idle());
  EventHandle A = Sim.schedule(Duration::milliseconds(1), [] {});
  EventHandle B = Sim.schedule(Duration::milliseconds(2), [] {});
  Sim.schedule(Duration::milliseconds(3), [] {});
  EXPECT_EQ(Sim.liveEvents(), 3u);
  EXPECT_FALSE(Sim.idle());
  A.cancel();
  EXPECT_EQ(Sim.liveEvents(), 2u);
  EXPECT_EQ(Sim.pendingEvents(), 3u); // stub still queued
  B.cancel();
  EXPECT_EQ(Sim.liveEvents(), 1u);
  EXPECT_FALSE(Sim.idle());
  EXPECT_EQ(Sim.run(), 1u);
  EXPECT_TRUE(Sim.idle());
  EXPECT_EQ(Sim.liveEvents(), 0u);
}

} // namespace
