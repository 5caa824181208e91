// Persistent worker-thread pool.
//
// Labeling dominates the solution's run time (paper §IV-E); sharding it
// used to spawn-and-join fresh std::threads per call. This pool keeps a
// fixed set of workers alive for the process and feeds them from a single
// mutex-guarded queue — no work stealing, because the tasks it carries
// (zone shards, bench repetitions) are coarse enough that one queue never
// becomes the bottleneck. Loops over an index range go through
// util::ParallelLoop (util/parallel_loop.h), which ParallelFor wraps.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

namespace staq::util {

/// Lifecycle of a handle-tracked task (see ThreadPool::SubmitHandle).
enum class TaskState : uint8_t {
  kQueued,     // accepted, not yet picked up by a worker
  kRunning,    // a worker is executing it
  kDone,       // finished (possibly with a captured exception)
  kCancelled,  // withdrawn before any worker started it
};

/// Handle to one submitted task: observe its state, wait for completion, or
/// cancel it while it is still queued. Copyable; all copies share state. A
/// default-constructed handle is empty (valid() == false).
class TaskHandle {
 public:
  TaskHandle() = default;

  bool valid() const { return shared_ != nullptr; }
  TaskState state() const;

  /// Withdraws the task if no worker has started it yet. Returns true on
  /// success (the task will never run); false when it is already running,
  /// done, or cancelled.
  bool Cancel();

  /// Blocks until the task is done or cancelled, then rethrows anything the
  /// task threw. Returns immediately on an empty handle.
  void Wait();

 private:
  friend class ThreadPool;
  struct Shared;
  std::shared_ptr<Shared> shared_;
};

/// Fixed-size pool of persistent workers. Submit is safe from any thread;
/// a task's exception is captured into its future (the worker survives).
/// The destructor finishes already-queued tasks before joining.
class ThreadPool {
 public:
  /// Schedule shaking for concurrency tests: a seeded perturbation makes
  /// workers pop a pseudo-random queue entry instead of the oldest and
  /// sleep a pseudo-random jitter before running it, forcing reorderings
  /// and interleavings a quiet machine would never produce. Same seed =>
  /// same perturbation decisions (schedules stay machine-dependent, but a
  /// failing seed is usually replayable). Never enable outside tests: FIFO
  /// fairness and latency go out the window by design. A server's pool is
  /// shaken through AqServer::Options::perturb; tests/serve/stress_test.cc
  /// is the canonical use.
  struct PerturbOptions {
    uint64_t seed = 1;
    /// Upper bound on the pre-run jitter, in microseconds (0 = no jitter).
    uint32_t max_delay_us = 100;
    /// Pop a pseudo-random queued job instead of the front one.
    bool reorder = true;
  };

  /// Scheduling class of the pool's workers.
  enum class Priority : uint8_t {
    kNormal,
    /// Workers run only on otherwise idle cores: SCHED_IDLE on Linux, plain
    /// priority elsewhere. For opportunistic helpers that must never take
    /// CPU from normal-priority threads.
    kIdle,
  };

  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads,
                      Priority priority = Priority::kNormal);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enables schedule shaking (see PerturbOptions). Tasks already queued
  /// are perturbed too; call right after construction for full coverage.
  void EnablePerturbation(const PerturbOptions& options);

  /// Enqueues `task`. The returned future resolves when the task finishes
  /// and rethrows anything the task threw.
  std::future<void> Submit(std::function<void()> task);

  /// Enqueues `task` unless another thread holds the queue lock right now;
  /// never waits on the pool's workers (so an idle-priority worker that is
  /// preempted while popping a job cannot stall a normal-priority caller).
  /// False = not enqueued. Exceptions the task throws are dropped.
  bool TrySubmit(std::function<void()> task);

  /// Enqueues `task` and returns a cancellable handle to it. Used by
  /// serving-style callers that need admission control (PendingTasks) and
  /// the ability to withdraw work whose deadline has already passed while
  /// it is still queued.
  TaskHandle SubmitHandle(std::function<void()> task);

  /// Tasks accepted but not yet started. Cancelled-but-unpopped entries are
  /// included until a worker discards them, so this is an upper bound —
  /// exactly the conservative reading admission control wants.
  size_t PendingTasks() const;

  /// Runs body(i) for every i in [0, n) on the calling thread plus up to
  /// num_threads() helpers of this pool (util::ParallelLoop), each claiming
  /// one index at a time. Returns when every index is done and
  /// rethrows the first exception a body threw. The caller does work
  /// itself, so it is safe to call from inside the pool's own tasks — even
  /// from every worker at once.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Process-wide pool sized to the hardware concurrency, created on first
  /// use and joined at exit. Callers needing deterministic sizing (tests)
  /// construct their own pool instead.
  static ThreadPool& Shared();

  /// Process-wide Priority::kIdle pool sized to the hardware concurrency:
  /// the home of opportunistic loop helpers (serve zone labeling), which
  /// use cores nothing else wants and yield them to everything else.
  static ThreadPool& Idle();

 private:
  /// One queue entry: the work plus an optional handle state (null for
  /// plain Submit tasks).
  struct Job {
    std::packaged_task<void()> task;
    std::shared_ptr<TaskHandle::Shared> handle;
  };

  void WorkerLoop(Priority priority);
  void RunJob(Job& job);
  /// Pops the next job under mu_, honouring an active perturbation; writes
  /// the jitter to apply (microseconds) into *delay_us.
  Job PopJob(uint32_t* delay_us);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool stop_ = false;
  /// Workers that reached their job loop; the constructor waits on
  /// waiting_cv_ until all have. Guarded by mu_.
  size_t workers_waiting_ = 0;
  std::condition_variable waiting_cv_;
  /// Engaged only in shaken test builds; guarded by mu_ (the RNG is shared
  /// by every worker, which is what makes the decision stream seeded).
  std::optional<PerturbOptions> perturb_;
  std::mt19937_64 perturb_rng_;
  std::vector<std::thread> threads_;
};

}  // namespace staq::util
