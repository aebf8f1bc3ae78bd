// Parallel-execution strategy abstraction. Callers express batch fan-out
// as ParallelFor over closures, future continuations as Schedule'd tasks
// and blocking waits through MakeWaitEvent; the binding to real threads
// (ThreadPoolExecutor), the calling thread (SerialExecutor) or simulated
// threads (simnet::SimExecutor) is injected.
#ifndef BLOBSEER_COMMON_EXECUTOR_H_
#define BLOBSEER_COMMON_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace blobseer {

class ThreadPool;

/// One-shot binary event used to park a thread until an async completion
/// fires (the sync-over-async bridge in Future::Wait). Signal-before-Await
/// is allowed; Await returns immediately then.
class WaitEvent {
 public:
  virtual ~WaitEvent() = default;
  virtual void Signal() = 0;
  virtual void Await() = 0;
};

/// WaitEvent over a real mutex/condvar — correct on OS threads, forbidden on
/// simnet tasks (it would block the whole virtual-time scheduler; see
/// simnet/sim.h rules). SimExecutor overrides MakeWaitEvent accordingly.
class CondVarWaitEvent : public WaitEvent {
 public:
  void Signal() override {
    // Notify with the lock held: a waiter returning from Await (and
    // possibly destroying this event) can only proceed after the signaler
    // has released the mutex. Callers that signal from another thread
    // must still keep the event alive through shared ownership (see
    // Future::Wait).
    std::lock_guard<std::mutex> lock(mu_);
    signaled_ = true;
    cv_.notify_all();
  }
  void Await() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return signaled_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool signaled_ = false;
};

/// Runs batches of independent tasks (ParallelFor) and single detached
/// tasks (Schedule, used to dispatch future continuations off the
/// completing thread).
class Executor {
 public:
  virtual ~Executor() = default;

  /// Executes tasks [0, n) by invoking `fn(i)`; at most `max_parallel`
  /// run concurrently (0 means implementation default). Collects the first
  /// non-OK status (all tasks always run to completion).
  virtual Status ParallelFor(size_t n, size_t max_parallel,
                             const std::function<Status(size_t)>& fn) = 0;

  /// Runs `fn` exactly once, possibly on another thread. Ordering between
  /// scheduled tasks is unspecified. The default runs inline.
  virtual void Schedule(std::function<void()> fn) { fn(); }

  /// Event suitable for blocking the *calling* environment of this executor
  /// (real condvar by default; virtual-time condition under simnet).
  virtual std::unique_ptr<WaitEvent> MakeWaitEvent() {
    return std::make_unique<CondVarWaitEvent>();
  }
};

/// Runs everything inline on the calling thread. Deterministic; used in
/// unit tests and as a safe fallback.
class SerialExecutor : public Executor {
 public:
  Status ParallelFor(size_t n, size_t max_parallel,
                     const std::function<Status(size_t)>& fn) override;
};

/// Fans tasks out over a shared ThreadPool.
class ThreadPoolExecutor : public Executor {
 public:
  /// Creates an executor owning a pool of `threads` workers.
  explicit ThreadPoolExecutor(size_t threads);
  ~ThreadPoolExecutor() override;

  Status ParallelFor(size_t n, size_t max_parallel,
                     const std::function<Status(size_t)>& fn) override;
  void Schedule(std::function<void()> fn) override;

 private:
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace blobseer

#endif  // BLOBSEER_COMMON_EXECUTOR_H_
