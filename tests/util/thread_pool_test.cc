#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel_loop.h"

namespace staq::util {
namespace {

TEST(ThreadPoolTest, SpawnsAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  ThreadPool pool4(4);
  EXPECT_EQ(pool4.num_threads(), 4u);
}

TEST(ThreadPoolTest, SubmitRunsTaskAndFutureCompletes) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  auto future = pool.Submit([&] { value.store(42); });
  future.get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPoolTest, ReusableAcrossSubmitWaves) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(pool.Submit([&] { count.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(count.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPoolTest, TaskExceptionReachesFutureAndPoolSurvives) {
  ThreadPool pool(2);
  auto bad = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still accept work.
  std::atomic<int> value{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] { value.fetch_add(1); }).get();
  }
  EXPECT_EQ(value.load(), 8);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForResultIndependentOfWorkerCount) {
  constexpr size_t kN = 257;
  auto run = [&](size_t workers) {
    ThreadPool pool(workers);
    std::vector<double> out(kN);
    pool.ParallelFor(kN, [&](size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 1.0;
    });
    return out;
  };
  std::vector<double> serial = run(1);
  std::vector<double> parallel = run(5);
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPoolTest, ParallelForZeroAndOneElement) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsAfterAllChunksFinish) {
  ThreadPool pool(3);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         ran.fetch_add(1);
                         if (i == 7) throw std::logic_error("bad index");
                       }),
      std::logic_error);
  // Every index either ran or was skipped as part of the throwing chunk;
  // the pool is intact afterwards.
  std::atomic<int> value{0};
  pool.ParallelFor(16, [&](size_t) { value.fetch_add(1); });
  EXPECT_EQ(value.load(), 16);
}

TEST(ThreadPoolTest, ParallelForFromEveryWorkerAtOnceCompletes) {
  // Every worker of the pool runs a ParallelFor over the same pool at the
  // same time, so no helper of any loop can start until its caller is
  // done: each caller must finish its loop alone instead of waiting for
  // help that never comes.
  constexpr size_t kWorkers = 4;
  constexpr size_t kN = 500;
  ThreadPool pool(kWorkers);
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  std::vector<std::vector<int>> hits(kWorkers, std::vector<int>(kN, 0));
  std::vector<std::future<void>> futures;
  for (size_t w = 0; w < kWorkers; ++w) {
    futures.push_back(pool.Submit([&, w] {
      {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        cv.wait(lock, [&] { return arrived == kWorkers; });
      }
      pool.ParallelFor(kN, [&, w](size_t i) { ++hits[w][i]; });
    }));
  }
  for (auto& f : futures) f.get();
  for (size_t w = 0; w < kWorkers; ++w) {
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[w][i], 1) << "worker " << w << " index " << i;
    }
  }
}

/// Occupies every worker of `pool` until Release().
class PoolBlocker {
 public:
  explicit PoolBlocker(ThreadPool& pool) : pool_(pool) {
    for (size_t i = 0; i < pool_.num_threads(); ++i) {
      done_.push_back(pool_.Submit([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }));
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_ == pool_.num_threads(); });
  }
  ~PoolBlocker() { Release(); }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    for (auto& f : done_) f.get();
    done_.clear();
  }

 private:
  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parked_ = 0;
  bool released_ = false;
  std::vector<std::future<void>> done_;
};

TEST(ParallelLoopTest, LateHelpersNeverCallTheParticipant) {
  ThreadPool pool(2);
  std::atomic<int> helper_calls{0};
  std::vector<int> out(64, 0);
  {
    PoolBlocker blocker(pool);
    LoopOptions options;
    options.max_helpers = 2;
    ParallelLoop(pool, out.size(), options, [&](bool helper) -> LoopTask {
      if (helper) helper_calls.fetch_add(1);
      return [&](size_t i) -> LoopStore {
        out[i] = static_cast<int>(i);
        return {};
      };
    });
  }  // the blocker releases: both helpers start after the loop closed
  pool.Submit([] {}).get();
  pool.Submit([] {}).get();
  EXPECT_EQ(helper_calls.load(), 0);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ParallelLoopTest, CallerTakesOverAnIndexAStalledHelperHolds) {
  // Takeover mode: a helper claims one index and stalls on it; the caller
  // finishes everything else, recomputes the stalled index, and returns
  // while the helper is still stalled. Every store step runs on the
  // calling thread, exactly once per index; the helper's late step is
  // dropped.
  constexpr size_t kN = 32;
  ThreadPool pool(1);
  auto stall = std::make_shared<std::promise<void>>();
  std::shared_future<void> resume = stall->get_future().share();
  auto stalled_on = std::make_shared<std::atomic<int>>(-1);
  auto out = std::make_shared<std::vector<std::atomic<int>>>(kN);
  auto writes = std::make_shared<std::atomic<int>>(0);
  auto foreign_writes = std::make_shared<std::atomic<int>>(0);
  auto entered = std::make_shared<std::promise<void>>();
  std::shared_future<void> entered_future = entered->get_future().share();
  const std::thread::id caller = std::this_thread::get_id();

  LoopOptions options;
  options.max_helpers = 1;
  options.takeover = true;
  ParallelLoop(pool, kN, options, [=](bool helper) -> LoopTask {
    return [=](size_t i) -> LoopStore {
      if (helper && stalled_on->load() < 0) {
        stalled_on->store(static_cast<int>(i));
        entered->set_value();
        resume.wait();  // stalls holding `i`
      } else if (!helper && i == 0) {
        // Keep the caller busy until the helper has claimed.
        entered_future.wait();
      }
      return [=] {
        if (std::this_thread::get_id() != caller) foreign_writes->fetch_add(1);
        (*out)[i].store(static_cast<int>(i) + 1);
        writes->fetch_add(1);
      };
    };
  });
  ASSERT_GE(stalled_on->load(), 0);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ((*out)[i].load(), static_cast<int>(i) + 1) << "index " << i;
  }
  EXPECT_EQ(writes->load(), static_cast<int>(kN));
  stall->set_value();  // the straggler resumes, finds its index stored
  pool.Submit([] {}).get();
  EXPECT_EQ(writes->load(), static_cast<int>(kN));
  EXPECT_EQ(foreign_writes->load(), 0);
}

TEST(ParallelLoopTest, HelperExceptionReachesTheCaller) {
  ThreadPool pool(2);
  for (bool takeover : {false, true}) {
    LoopOptions options;
    options.max_helpers = 2;
    options.takeover = takeover;
    auto failed = std::make_shared<std::promise<void>>();
    std::shared_future<void> helper_failed = failed->get_future().share();
    auto once = std::make_shared<std::atomic<bool>>(false);
    auto caller_waited = std::make_shared<std::atomic<bool>>(false);
    EXPECT_THROW(
        ParallelLoop(pool, 64, options,
                     [=](bool helper) -> LoopTask {
                       return [=](size_t) -> LoopStore {
                         if (helper && !once->exchange(true)) {
                           failed->set_value();
                           throw std::logic_error("helper fault");
                         }
                         // The caller waits for the helper's fault (and, in
                         // takeover mode, for it to reach the loop), so the
                         // loop cannot finish before it.
                         if (!helper && !caller_waited->exchange(true)) {
                           helper_failed.wait();
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(20));
                         }
                         return {};
                       };
                     }),
        std::logic_error)
        << "takeover " << takeover;
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
    // Destructor must run all 32 queued tasks before joining.
  }
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, HandleReportsLifecycleAndWaits) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  TaskHandle handle = pool.SubmitHandle([&] { value.store(11); });
  ASSERT_TRUE(handle.valid());
  handle.Wait();
  EXPECT_EQ(handle.state(), TaskState::kDone);
  EXPECT_EQ(value.load(), 11);

  TaskHandle empty;
  EXPECT_FALSE(empty.valid());
  empty.Wait();  // no-op, must not block
}

TEST(ThreadPoolTest, HandleWaitRethrowsTaskException) {
  ThreadPool pool(1);
  TaskHandle handle =
      pool.SubmitHandle([] { throw std::runtime_error("handled boom"); });
  EXPECT_THROW(handle.Wait(), std::runtime_error);
  EXPECT_EQ(handle.state(), TaskState::kDone);
  // Pool survives, as with plain Submit.
  std::atomic<int> value{0};
  pool.Submit([&] { value.store(1); }).get();
  EXPECT_EQ(value.load(), 1);
}

TEST(ThreadPoolTest, CancelWithdrawsQueuedTaskBeforeItRuns) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  // Occupy the only worker so the second task is provably still queued.
  auto blocker = pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  std::atomic<bool> ran{false};
  TaskHandle handle = pool.SubmitHandle([&] { ran.store(true); });
  EXPECT_EQ(handle.state(), TaskState::kQueued);
  EXPECT_GE(pool.PendingTasks(), 1u);
  EXPECT_TRUE(handle.Cancel());
  EXPECT_EQ(handle.state(), TaskState::kCancelled);
  EXPECT_FALSE(handle.Cancel());  // idempotent: already withdrawn

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocker.get();
  handle.Wait();  // resolves immediately for a cancelled task
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPoolTest, CancelAfterStartFailsAndTaskResultSurvives) {
  // The cancel/start race resolves under the handle state machine: once a
  // worker has claimed the task (kQueued -> kRunning), Cancel() must lose
  // and the caller gets the completed result, never a half-run task.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false, release = false;
  std::atomic<int> value{0};
  TaskHandle handle = pool.SubmitHandle([&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      started = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    value.store(99);
  });
  {
    // Wait until the worker has provably entered the task body.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  EXPECT_EQ(handle.state(), TaskState::kRunning);
  EXPECT_FALSE(handle.Cancel());  // too late: the worker owns it now
  EXPECT_EQ(handle.state(), TaskState::kRunning);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  handle.Wait();
  EXPECT_EQ(handle.state(), TaskState::kDone);
  EXPECT_EQ(value.load(), 99);  // the task ran to completion despite Cancel
}

TEST(ThreadPoolTest, CancelFailsOnceTaskIsDone) {
  ThreadPool pool(2);
  TaskHandle handle = pool.SubmitHandle([] {});
  handle.Wait();
  EXPECT_FALSE(handle.Cancel());
  EXPECT_EQ(handle.state(), TaskState::kDone);
}

TEST(ThreadPoolTest, PendingTasksDrainsToZero) {
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([] {}));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(pool.PendingTasks(), 0u);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<int> value{0};
  a.Submit([&] { value.store(7); }).get();
  EXPECT_EQ(value.load(), 7);
}

// --- schedule shaking ------------------------------------------------------

TEST(PerturbedPoolTest, EveryTaskStillRunsExactlyOnce) {
  ThreadPool pool(4);
  pool.EnablePerturbation({.seed = 7, .max_delay_us = 50, .reorder = true});
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&runs, i] { runs[i].fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(PerturbedPoolTest, HandleSemanticsSurviveReordering) {
  // Reordering must not break the handle state machine: a cancelled task
  // never runs, everything else runs exactly once, whatever order the
  // perturbation popped the queue in.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ThreadPool pool(1);
    pool.EnablePerturbation({.seed = seed, .max_delay_us = 20,
                             .reorder = true});
    std::mutex mu;
    std::condition_variable cv;
    bool started = false, release = false;
    auto blocker = pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
    {
      // The only worker must hold the blocker before anything else is
      // queued, or the reordering pop could start a task we plan to cancel.
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return started; });
    }

    constexpr int kTasks = 16;
    std::vector<std::atomic<int>> runs(kTasks);
    for (auto& r : runs) r.store(0);
    std::vector<TaskHandle> handles;
    for (int i = 0; i < kTasks; ++i) {
      handles.push_back(pool.SubmitHandle([&runs, i] { runs[i].fetch_add(1); }));
    }
    std::vector<bool> cancelled(kTasks, false);
    for (int i = 0; i < kTasks; i += 3) {
      cancelled[i] = handles[i].Cancel();  // all still queued: must succeed
      EXPECT_TRUE(cancelled[i]);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    blocker.get();
    for (int i = 0; i < kTasks; ++i) {
      handles[i].Wait();
      EXPECT_EQ(runs[i].load(), cancelled[i] ? 0 : 1)
          << "task " << i << " seed " << seed;
      EXPECT_EQ(handles[i].state(),
                cancelled[i] ? TaskState::kCancelled : TaskState::kDone);
    }
  }
}

TEST(PerturbedPoolTest, ParallelForResultIsUnchanged) {
  constexpr size_t kN = 257;
  auto run = [&](std::optional<ThreadPool::PerturbOptions> perturb) {
    ThreadPool pool(4);
    if (perturb) pool.EnablePerturbation(*perturb);
    std::vector<double> out(kN);
    pool.ParallelFor(kN, [&](size_t i) {
      out[i] = static_cast<double>(i) * 2.5 - 1.0;
    });
    return out;
  };
  std::vector<double> quiet = run(std::nullopt);
  std::vector<double> shaken =
      run(ThreadPool::PerturbOptions{.seed = 11, .max_delay_us = 30,
                                     .reorder = true});
  EXPECT_EQ(quiet, shaken);
}

}  // namespace
}  // namespace staq::util
