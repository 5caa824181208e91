#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/failpoint.h"

namespace staq::util {

/// Shared state behind a TaskHandle: a tiny monitor, so a cancelled task
/// reads as a clean "never ran" rather than a broken promise.
struct TaskHandle::Shared {
  std::mutex mu;
  std::condition_variable cv;
  TaskState state = TaskState::kQueued;
  std::exception_ptr error;
};

TaskState TaskHandle::state() const {
  if (shared_ == nullptr) return TaskState::kDone;
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->state;
}

bool TaskHandle::Cancel() {
  if (shared_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (shared_->state != TaskState::kQueued) return false;
  shared_->state = TaskState::kCancelled;
  shared_->cv.notify_all();
  return true;
}

void TaskHandle::Wait() {
  if (shared_ == nullptr) return;
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->cv.wait(lock, [this] {
    return shared_->state == TaskState::kDone ||
           shared_->state == TaskState::kCancelled;
  });
  if (shared_->error) {
    std::exception_ptr error = shared_->error;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool::ThreadPool(size_t num_threads, Priority priority) {
  size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, priority] { WorkerLoop(priority); });
  }
  // The pool returns only once every worker waits for work. A starting
  // worker holds mu_ on its way to its first wait, and TrySubmit (how
  // ParallelLoop helpers reach a pool) gives up on a held lock: right after
  // a lazy Idle() the first helped loop would otherwise often get no helper
  // at all.
  std::unique_lock<std::mutex> lock(mu_);
  waiting_cv_.wait(lock, [&] { return workers_waiting_ == n; });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::EnablePerturbation(const PerturbOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  perturb_ = options;
  perturb_rng_.seed(options.seed);
}

ThreadPool::Job ThreadPool::PopJob(uint32_t* delay_us) {
  // Caller holds mu_ and guarantees !queue_.empty().
  size_t index = 0;
  *delay_us = 0;
  if (perturb_.has_value()) {
    if (perturb_->reorder && queue_.size() > 1) {
      index = perturb_rng_() % queue_.size();
    }
    if (perturb_->max_delay_us > 0) {
      *delay_us =
          static_cast<uint32_t>(perturb_rng_() % (perturb_->max_delay_us + 1));
    }
  }
  Job job = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  return job;
}

void ThreadPool::WorkerLoop(Priority priority) {
  // A worker keeps normal priority until its first job, so the constructor
  // never waits on an idle-priority thread.
  bool counted = false;
  bool lowered = priority != Priority::kIdle;
  while (true) {
    Job job;
    uint32_t delay_us = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!counted) {
        // Counted in the critical section the wait below releases: once the
        // constructor (which waits holding mu_) sees every worker counted,
        // no starting worker still holds the lock.
        counted = true;
        ++workers_waiting_;
        waiting_cv_.notify_one();
      }
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and queue drained
      job = PopJob(&delay_us);
    }
    if (!lowered) {
      lowered = true;
#if defined(__linux__)
      // Lowering the own thread's policy needs no privileges. A refusal
      // (seccomp, exotic kernels) leaves the worker at normal priority.
      sched_param param{};
      param.sched_priority = 0;
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
#endif
    }
    if (delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    RunJob(job);
  }
}

void ThreadPool::RunJob(Job& job) {
  if (job.handle == nullptr) {
    try {
      job.task();
    } catch (...) {
      // A TrySubmit task's exception is dropped.
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(job.handle->mu);
    if (job.handle->state == TaskState::kCancelled) return;  // withdrawn
    job.handle->state = TaskState::kRunning;
  }
  std::exception_ptr error;
  try {
    job.task();
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(job.handle->mu);
    job.handle->error = error;
    job.handle->state = TaskState::kDone;
  }
  job.handle->cv.notify_all();
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) return false;
    queue_.push_back(Job{std::move(task), nullptr});
  }
  cv_.notify_one();
  return true;
}

TaskHandle ThreadPool::SubmitHandle(std::function<void()> task) {
  // Fault site: a throw here models submission failing before the task is
  // ever queued (caller still holds everything it handed in).
  STAQ_FAILPOINT("util.thread_pool.submit");
  TaskHandle handle;
  handle.shared_ = std::make_shared<TaskHandle::Shared>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Job{std::move(task), handle.shared_});
  }
  cv_.notify_one();
  return handle;
}

size_t ThreadPool::PendingTasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ThreadPool& ThreadPool::Idle() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()),
                         Priority::kIdle);
  return pool;
}

}  // namespace staq::util
