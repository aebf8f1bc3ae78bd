#include "simnet/sim.h"

#include <algorithm>
#include <queue>

namespace blobseer::simnet {

namespace {
thread_local SimScheduler::TaskId tls_task_id = 0;
thread_local bool tls_has_task = false;
}  // namespace

SimScheduler::~SimScheduler() {
  for (auto& [id, task] : tasks_) {
    if (task->thread.joinable()) task->thread.join();
  }
}

SimScheduler::Task* SimScheduler::CurrentLocked() const {
  BS_CHECK(tls_has_task) << "not on a sim task";
  auto it = tasks_.find(tls_task_id);
  BS_CHECK(it != tasks_.end()) << "unknown sim task";
  return it->second.get();
}

double SimScheduler::Now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

uint32_t SimScheduler::CurrentNode() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CurrentLocked()->node;
}

void SimScheduler::SetCurrentNode(uint32_t node) {
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLocked()->node = node;
}

size_t SimScheduler::tasks_alive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alive_;
}

void SimScheduler::MakeReadyLocked(Task* t) {
  t->state = Task::State::kReady;
  t->wake_time = kNever;
  t->wake_seq++;  // invalidates any heap entry for this task
  t->cond = nullptr;
  ready_.push_back(t->id);
}

void SimScheduler::PushWakeLocked(Task* t) {
  t->wake_seq++;
  wake_heap_.push(HeapEntry{t->wake_time, t->wake_seq, t->id});
}

SimScheduler::Task* SimScheduler::PickNextLocked() {
  if (!ready_.empty()) {
    TaskId id = ready_.front();
    ready_.pop_front();
    return tasks_.at(id).get();
  }
  // Advance virtual time to the earliest valid sleeper / deadline waiter.
  while (!wake_heap_.empty()) {
    HeapEntry e = wake_heap_.top();
    auto it = tasks_.find(e.task);
    if (it == tasks_.end() || it->second->wake_seq != e.seq) {
      wake_heap_.pop();  // stale
      continue;
    }
    Task* best = it->second.get();
    BS_CHECK(best->state == Task::State::kSleeping ||
             best->state == Task::State::kCondWait)
        << "live heap entry for non-blocked task";
    wake_heap_.pop();
    now_ = std::max(now_, e.time);
    if (best->cond) {
      auto& ws = best->cond->waiters_;
      ws.erase(std::remove(ws.begin(), ws.end(), best->id), ws.end());
    }
    best->state = Task::State::kReady;
    best->wake_seq++;
    best->cond = nullptr;
    return best;
  }
  return nullptr;
}

void SimScheduler::SwitchOutLocked(std::unique_lock<std::mutex>& lock,
                                   Task* me, bool rejoinable) {
  Task* next = PickNextLocked();
  if (next) {
    running_ = next->id;
    next->state = Task::State::kRunning;
    next->cv.notify_one();
  } else {
    // No runnable task. Legal only when the simulation is quiescing —
    // every other live task would otherwise wait forever.
    size_t blocked_others = alive_;
    if (me->state != Task::State::kDone) blocked_others--;
    BS_CHECK(blocked_others == 0)
        << "virtual-time deadlock: " << blocked_others
        << " tasks blocked with no wake source";
    running_ = 0;
  }
  if (!rejoinable) return;  // exiting task: do not wait to be rescheduled
  me->cv.wait(lock, [me] { return me->state == Task::State::kRunning; });
}

void SimScheduler::SleepFor(double us) {
  std::unique_lock<std::mutex> lock(mu_);
  Task* me = CurrentLocked();
  if (us <= 0) {
    // Yield: go to the back of the ready queue.
    MakeReadyLocked(me);
  } else {
    me->state = Task::State::kSleeping;
    me->wake_time = now_ + us;
    PushWakeLocked(me);
  }
  SwitchOutLocked(lock, me, /*rejoinable=*/true);
}

void SimScheduler::ReapFinished() {
  std::vector<std::thread> exited;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (TaskId id : finished_) {
      auto it = tasks_.find(id);
      if (it == tasks_.end()) continue;  // Join reaped it already
      exited.push_back(std::move(it->second->thread));
      tasks_.erase(it);
    }
    finished_.clear();
  }
  // Outside the lock, as in Join: a finished task's thread released the
  // scheduler for good when it switched out, so only its teardown is left.
  for (std::thread& t : exited) {
    if (t.joinable()) t.join();
  }
}

SimScheduler::TaskId SimScheduler::Spawn(std::function<void()> fn) {
  ReapFinished();
  std::unique_lock<std::mutex> lock(mu_);
  Task* parent = CurrentLocked();
  TaskId id = ++next_id_;
  auto task = std::make_unique<Task>();
  Task* t = task.get();
  t->id = id;
  t->node = parent->node;
  alive_++;
  tasks_.emplace(id, std::move(task));
  ready_.push_back(id);

  t->thread = std::thread([this, t, fn = std::move(fn)] {
    tls_task_id = t->id;
    tls_has_task = true;
    {
      std::unique_lock<std::mutex> lk(mu_);
      t->cv.wait(lk, [t] { return t->state == Task::State::kRunning; });
    }
    fn();
    std::unique_lock<std::mutex> lk(mu_);
    t->state = Task::State::kDone;
    alive_--;
    finished_.push_back(t->id);
    for (TaskId w : t->join_waiters) {
      auto it = tasks_.find(w);
      if (it != tasks_.end() &&
          it->second->state == Task::State::kCondWait &&
          it->second->cond == nullptr) {
        it->second->notified = true;
        MakeReadyLocked(it->second.get());
      }
    }
    t->join_waiters.clear();
    SwitchOutLocked(lk, t, /*rejoinable=*/false);
  });
  return id;
}

void SimScheduler::Join(TaskId id) {
  std::unique_lock<std::mutex> lock(mu_);
  Task* me = CurrentLocked();
  for (;;) {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) return;  // already joined and reaped
    Task* target = it->second.get();
    if (target->state == Task::State::kDone) break;
    target->join_waiters.push_back(me->id);
    me->state = Task::State::kCondWait;
    me->wake_time = kNever;
    me->cond = nullptr;
    me->notified = false;
    SwitchOutLocked(lock, me, /*rejoinable=*/true);
  }
  // Reap: join the OS thread (outside the lock — the exiting thread only
  // touches scheduler state before leaving its lambda) and drop the record
  // so the scheduler's structures stay O(live tasks).
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  std::thread reaped = std::move(it->second->thread);
  lock.unlock();
  if (reaped.joinable()) reaped.join();
  lock.lock();
  tasks_.erase(id);
}

void SimScheduler::Run(std::function<void()> root) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    BS_CHECK(tasks_.empty()) << "SimScheduler::Run is single-shot";
    TaskId id = ++next_id_;
    auto task = std::make_unique<Task>();
    task->id = id;
    task->state = Task::State::kRunning;
    running_ = id;
    alive_++;
    tls_task_id = id;
    tls_has_task = true;
    tasks_.emplace(id, std::move(task));
  }
  root();
  // Drain: wait for every spawned task to finish.
  for (;;) {
    TaskId pending = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, task] : tasks_) {
        if (id != tls_task_id) {
          pending = id;
          break;
        }
      }
    }
    if (pending == 0) break;
    Join(pending);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Task* me = CurrentLocked();
  me->state = Task::State::kDone;
  alive_--;
  running_ = 0;
  tasks_.erase(me->id);
  tls_has_task = false;
}

bool SimCondition::WaitUntil(double deadline_us) {
  std::unique_lock<std::mutex> lock(sched_->mu_);
  SimScheduler::Task* me = sched_->CurrentLocked();
  me->state = SimScheduler::Task::State::kCondWait;
  me->wake_time = deadline_us;
  me->cond = this;
  me->notified = false;
  waiters_.push_back(me->id);
  if (deadline_us != SimScheduler::kNever) sched_->PushWakeLocked(me);
  sched_->SwitchOutLocked(lock, me, /*rejoinable=*/true);
  bool notified = me->notified;
  me->notified = false;
  return notified;
}

void SimCondition::NotifyAll() {
  std::lock_guard<std::mutex> lock(sched_->mu_);
  for (SimScheduler::TaskId id : waiters_) {
    auto it = sched_->tasks_.find(id);
    if (it == sched_->tasks_.end()) continue;
    SimScheduler::Task* t = it->second.get();
    if (t->state != SimScheduler::Task::State::kCondWait || t->cond != this)
      continue;
    t->notified = true;
    sched_->MakeReadyLocked(t);
  }
  waiters_.clear();
}

void SimSemaphore::Acquire() {
  if (free_ > 0) {
    free_--;
    return;
  }
  auto cond = std::make_unique<SimCondition>(sched_);
  SimCondition* c = cond.get();
  queue_.push_back(std::move(cond));
  // Woken exactly once by Release, which transfers the slot to us.
  c->WaitUntil(SimScheduler::kNever);
}

void SimSemaphore::Release() {
  if (!queue_.empty()) {
    std::unique_ptr<SimCondition> cond = std::move(queue_.front());
    queue_.pop_front();
    // Slot handed directly to the woken task; `free_` unchanged. NotifyAll
    // completes before the condition object dies.
    cond->NotifyAll();
    return;
  }
  free_++;
}

Status SimExecutor::ParallelFor(size_t n, size_t max_parallel,
                                const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  if (max_parallel == 0) max_parallel = 8;
  size_t workers = std::min(n, max_parallel);
  if (workers <= 1) {
    Status first;
    for (size_t i = 0; i < n; i++) {
      Status s = fn(i);
      if (!s.ok() && first.ok()) first = s;
    }
    return first;
  }
  // Shared index counter; tasks are serialized so plain variables are safe.
  auto next = std::make_shared<size_t>(0);
  auto first = std::make_shared<Status>();
  std::vector<SimScheduler::TaskId> ids;
  ids.reserve(workers);
  for (size_t w = 0; w < workers; w++) {
    ids.push_back(sched_->Spawn([n, next, first, &fn] {
      for (;;) {
        size_t i = (*next)++;
        if (i >= n) return;
        Status s = fn(i);
        if (!s.ok() && first->ok()) *first = s;
      }
    }));
  }
  for (auto id : ids) sched_->Join(id);
  return *first;
}

}  // namespace blobseer::simnet
