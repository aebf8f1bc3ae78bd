// Virtual-time cooperative scheduler.
//
// Each simulated process is a real OS thread, but exactly one runs at any
// instant: every blocking interaction goes through the scheduler, which
// advances a virtual clock to the next event when all tasks are blocked.
// This lets the *real* BlobSeer client and service code run unmodified on a
// simulated 175-node network (DESIGN.md S11), deterministically and without
// wall-clock sleeps.
//
// Rules for code running on sim tasks:
//  * never block on bare std::mutex/condvars across sim calls — plain
//    critical sections are fine (tasks are serialized), blocking is not;
//  * all sleeping/waiting must go through SimScheduler primitives (via
//    SimClock / SimCondition / SimNetwork).
#ifndef BLOBSEER_SIMNET_SIM_H_
#define BLOBSEER_SIMNET_SIM_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/logging.h"

namespace blobseer::simnet {

class SimCondition;

class SimScheduler {
 public:
  using TaskId = uint64_t;
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  SimScheduler() = default;
  ~SimScheduler();

  SimScheduler(const SimScheduler&) = delete;
  SimScheduler& operator=(const SimScheduler&) = delete;

  /// Runs `root` as task 0 on the calling thread; returns once every task
  /// has finished.
  void Run(std::function<void()> root);

  /// Virtual time in microseconds.
  double Now() const;

  /// Suspends the calling task for `us` virtual microseconds.
  void SleepFor(double us);

  /// Spawns a task; it inherits the caller's node id. Must be called from a
  /// running sim task (or before Run for the initial set — not supported;
  /// spawn from root). Tasks that finished since the previous Spawn are
  /// reaped first, so fire-and-forget tasks (one per simnet CallAsync) do
  /// not pile up as exited-but-unjoined OS threads.
  TaskId Spawn(std::function<void()> fn);

  /// Blocks the calling task until `id` finishes (returns at once when it
  /// already finished and was reaped).
  void Join(TaskId id);

  /// Node id associated with the running task (used by SimTransport to
  /// locate the caller in the network).
  uint32_t CurrentNode() const;
  void SetCurrentNode(uint32_t node);

  size_t tasks_alive() const;

 private:
  friend class SimCondition;

  struct Task {
    TaskId id = 0;
    enum class State { kReady, kRunning, kSleeping, kCondWait, kDone };
    State state = State::kReady;
    double wake_time = kNever;
    uint64_t wake_seq = 0;  ///< invalidates stale wake-heap entries
    bool notified = false;
    SimCondition* cond = nullptr;
    uint32_t node = 0;
    std::condition_variable cv;
    std::thread thread;  // empty for the root task
    std::vector<TaskId> join_waiters;
  };

  /// Lazy min-heap entry over (wake_time); entries whose (task, seq) no
  /// longer match are skipped at pop time. Keeps scheduling O(log n) in
  /// live tasks rather than O(all tasks ever spawned).
  struct HeapEntry {
    double time;
    uint64_t seq;
    TaskId task;
    bool operator>(const HeapEntry& o) const { return time > o.time; }
  };

  Task* CurrentLocked() const;
  /// Marks the current task non-running, picks and wakes the next runnable
  /// task, then blocks until this task is running again (no-op for exit).
  void SwitchOutLocked(std::unique_lock<std::mutex>& lock, Task* me,
                       bool rejoinable);
  Task* PickNextLocked();
  /// Joins the OS threads of finished tasks and drops their records.
  void ReapFinished();
  void MakeReadyLocked(Task* t);
  void PushWakeLocked(Task* t);

  mutable std::mutex mu_;
  double now_ = 0;
  std::map<TaskId, std::unique_ptr<Task>> tasks_;
  std::deque<TaskId> ready_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      wake_heap_;
  TaskId running_ = 0;
  TaskId next_id_ = 0;
  size_t alive_ = 0;
  std::vector<TaskId> finished_;  ///< done, not yet reaped
};

/// Condition variable in virtual time. Waiters are woken by NotifyAll (or
/// their deadline); spurious wakeups do not occur.
class SimCondition {
 public:
  explicit SimCondition(SimScheduler* sched) : sched_(sched) {}

  /// Waits until notified or until virtual `deadline_us` (kNever = no
  /// deadline). Returns true iff notified.
  bool WaitUntil(double deadline_us);

  /// Wakes every waiter at the current virtual time.
  void NotifyAll();

 private:
  friend class SimScheduler;
  SimScheduler* sched_;
  std::vector<SimScheduler::TaskId> waiters_;
};

/// FIFO counting semaphore in virtual time; models bounded service
/// concurrency at an endpoint (request queueing).
class SimSemaphore {
 public:
  SimSemaphore(SimScheduler* sched, size_t slots)
      : sched_(sched), free_(slots) {}

  void Acquire();
  void Release();

 private:
  SimScheduler* sched_;
  size_t free_;
  std::deque<std::unique_ptr<SimCondition>> queue_;
};

/// Clock interface adapter for client code running on sim tasks.
class SimClock : public Clock {
 public:
  explicit SimClock(SimScheduler* sched) : sched_(sched) {}
  uint64_t NowMicros() override {
    return static_cast<uint64_t>(sched_->Now());
  }
  void SleepForMicros(uint64_t micros) override {
    sched_->SleepFor(static_cast<double>(micros));
  }

 private:
  SimScheduler* sched_;
};

/// WaitEvent in virtual time: parks the calling sim task on a SimCondition
/// instead of a real condvar (which would stall the whole scheduler).
/// Signal and Await must both run on sim tasks.
class SimWaitEvent : public WaitEvent {
 public:
  explicit SimWaitEvent(SimScheduler* sched) : cond_(sched) {}
  void Signal() override {
    // Sim tasks are serialized by the scheduler, so the flag needs no lock.
    signaled_ = true;
    cond_.NotifyAll();
  }
  void Await() override {
    while (!signaled_) cond_.WaitUntil(SimScheduler::kNever);
  }

 private:
  SimCondition cond_;
  bool signaled_ = false;
};

/// Executor that fans work out over spawned sim tasks (the sim counterpart
/// of ThreadPoolExecutor).
class SimExecutor : public Executor {
 public:
  explicit SimExecutor(SimScheduler* sched) : sched_(sched) {}
  Status ParallelFor(size_t n, size_t max_parallel,
                     const std::function<Status(size_t)>& fn) override;
  /// Runs `fn` on a fresh sim task. Must be called from a running sim task
  /// (future continuations under simnet always are).
  void Schedule(std::function<void()> fn) override {
    sched_->Spawn(std::move(fn));
  }
  std::unique_ptr<WaitEvent> MakeWaitEvent() override {
    return std::make_unique<SimWaitEvent>(sched_);
  }

 private:
  SimScheduler* sched_;
};

}  // namespace blobseer::simnet

#endif  // BLOBSEER_SIMNET_SIM_H_
