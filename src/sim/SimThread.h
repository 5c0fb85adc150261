//===- sim/SimThread.h - Simulated serial task executor -------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulated threads. A SimThread executes SimTasks one at a time; each
/// task carries a frequency-independent time portion and a cycle count
/// that scales with the CPU's effective frequency (the two-term structure
/// mirrors the Xie et al. DVFS model the GreenWeb runtime fits, Equ. 1 of
/// the paper). Tasks are preemptible by frequency changes: when the
/// CpuModel retunes, in-flight tasks are re-planned from their remaining
/// work.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_SIM_SIMTHREAD_H
#define GREENWEB_SIM_SIMTHREAD_H

#include "sim/Simulator.h"
#include "support/Time.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace greenweb {

class SimThread;
class SpanTracer;

/// Abstract CPU timing model consulted by simulated threads.
///
/// The hardware library implements this with the ACMP chip model; tests
/// use fixed-speed stubs. The base class owns the thread registry so a
/// concrete model can re-plan all in-flight work when the operating point
/// changes.
class CpuModel {
public:
  virtual ~CpuModel();

  /// Effective execution rate for \p ThreadId in cycles per second
  /// (core frequency times the core's IPC). Must be positive.
  virtual double effectiveHz(unsigned ThreadId) const = 0;

  /// Activity notification: \p Busy flips when the thread starts or stops
  /// executing work. Drives the power model's busy-core count.
  virtual void onThreadActivity(unsigned ThreadId, bool Busy) = 0;

  /// Registers a thread for re-planning on speed changes.
  void attachThread(SimThread *Thread);
  void detachThread(SimThread *Thread);

protected:
  /// Re-plans every attached thread's in-flight task. Concrete models call
  /// this after changing frequency or migrating clusters.
  void replanAttachedThreads();

  /// Injects a stall into every attached thread (e.g. the 20 us core
  /// migration penalty during which no instructions retire).
  void stallAttachedThreads(Duration D);

private:
  std::vector<SimThread *> Threads;
};

/// Work amount of a task: a frequency-independent time portion plus a
/// cycle count that scales with effective frequency.
struct TaskCost {
  /// Latency that does not scale with CPU frequency (memory-bound time,
  /// GPU waits). T_independent in the paper's model.
  Duration FixedTime;
  /// CPU cycles that scale inversely with frequency. N_nonoverlap in the
  /// paper's model.
  double Cycles = 0.0;
};

/// A unit of simulated work executed by a SimThread.
struct SimTask {
  /// Debug label, e.g. "style" or "callback:onclick".
  std::string Label;
  /// Upfront cost; ignored when ComputeCost is set.
  TaskCost Cost;
  /// Optional deferred cost: invoked once when the task starts executing
  /// (in simulated time). Used for script callbacks, whose cycle count is
  /// known only after the interpreter runs; the closure's side effects
  /// (DOM mutation, dirty-bit writes) take effect at task start, and the
  /// simulated duration elapses before OnComplete fires.
  std::function<TaskCost()> ComputeCost;
  /// Logical effect of the task; runs when the simulated work completes.
  std::function<void()> OnComplete;
  /// Causal span this task descends from. 0 (the default) captures the
  /// ambient context at post() time; producers may pin it explicitly.
  int64_t ParentSpan = 0;
};

/// A serial task executor bound to a CpuModel.
///
/// Tasks queue FIFO. While a task runs the thread reports itself busy to
/// the CpuModel (power accounting) and tracks remaining work so that
/// frequency changes mid-task re-plan the completion instant instead of
/// mispricing the whole task at one frequency.
class SimThread {
public:
  /// \param Id stable identifier the CpuModel uses for core placement.
  SimThread(Simulator &Sim, CpuModel &Cpu, std::string Name, unsigned Id);
  ~SimThread();

  SimThread(const SimThread &) = delete;
  SimThread &operator=(const SimThread &) = delete;

  /// Enqueues a task; starts it immediately if the thread is idle.
  void post(SimTask Task);

  /// Enqueues a task after a delay (models timer tasks / delayed PostTask).
  void postDelayed(SimTask Task, Duration Delay);

  /// Re-prices the in-flight task after an effective-frequency change.
  /// Called by the CpuModel; harmless when idle.
  void replan();

  /// Adds a stall to the in-flight task (migration penalty). No effect
  /// when idle: an idle core migrates for free in this model.
  void stall(Duration D);

  /// True while a task is executing.
  bool isBusy() const { return Running; }

  /// Number of queued tasks, excluding the in-flight one.
  size_t queueDepth() const { return Queue.size(); }

  /// Total busy time accumulated up to the current instant. The
  /// Interactive governor derives window utilization from differences of
  /// this value.
  Duration totalBusyTime() const;

  const std::string &name() const { return Name; }
  unsigned id() const { return Id; }

  /// Total tasks completed (test/diagnostic aid).
  uint64_t tasksCompleted() const { return TasksCompleted; }

  /// Slots ever allocated in the delayed-post task pool (test aid: a
  /// steady-state workload should plateau here as slots recycle).
  size_t delayedPoolSlots() const { return DelayedPool.size(); }

private:
  /// The attached hub's span tracer, or nullptr when telemetry or span
  /// tracing is off.
  SpanTracer *tracer() const;

  void startNext();
  void beginSlice();
  /// Folds execution progress since the current slice began into the
  /// remaining-work counters.
  void accrueProgress();
  void finishCurrent();

  Simulator &Sim;
  CpuModel &Cpu;
  std::string Name;
  unsigned Id;

  std::deque<SimTask> Queue;
  bool Running = false;
  SimTask Current;
  /// Span covering the in-flight task's execution window.
  int64_t CurrentSpan = 0;
  Duration FixedRemaining;
  double CyclesRemaining = 0.0;
  TimePoint SliceStart;
  double SliceHz = 1.0;
  EventHandle Completion;

  TimePoint BusySince;
  Duration BusyAccum;
  uint64_t TasksCompleted = 0;

  /// Delayed-post tasks park here (by slot index) until their timer
  /// fires, instead of each being boxed in a fresh shared_ptr. A deque
  /// keeps parked tasks address-stable while the pool grows; freed
  /// slots recycle LIFO.
  std::deque<SimTask> DelayedPool;
  std::vector<uint32_t> DelayedFree;

  /// Lifetime token captured by delayed-post events so they become
  /// no-ops if the thread is destroyed first.
  std::shared_ptr<bool> Alive = std::make_shared<bool>(true);
};

} // namespace greenweb

#endif // GREENWEB_SIM_SIMTHREAD_H
