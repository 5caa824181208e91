#include "util/parallel_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace staq::util {

namespace {

using Clock = std::chrono::steady_clock;

/// Grace for in-flight indices when the caller has no timing of its own.
constexpr Clock::duration kDefaultGrace = std::chrono::milliseconds(1);
/// How often the caller checks for handed-over steps during grace.
constexpr auto kGracePoll = std::chrono::microseconds(50);

/// Participant word: bit 0 = closed, the rest counts participants inside
/// (the caller included).
constexpr size_t kClosed = 1;
constexpr size_t kOneInside = 2;

/// Marks an index whose result the caller has stored.
LoopStore* CallerStored() {
  static LoopStore marker;
  return &marker;
}

/// Shared by the caller and its helper tasks. Helpers hold it by
/// shared_ptr, so one that starts late still finds out the loop is closed.
/// Helpers touch only atomics here (plus the factory, while they count as
/// inside).
class LoopState {
 public:
  LoopState(size_t n, std::shared_ptr<const LoopParticipant> factory)
      : n_(n), factory_(std::move(factory)), handed_(n) {}

  ~LoopState() {
    for (std::atomic<LoopStore*>& slot : handed_) {
      LoopStore* step = slot.load(std::memory_order_relaxed);
      if (step != CallerStored()) delete step;
    }
    delete error_.load(std::memory_order_relaxed);
  }

  /// Helper body: enters unless the loop has closed, then claims, computes
  /// and hands over indices until none is left.
  void RunHelper() {
    if (!Enter()) return;  // caller finished: its frame may be gone
    try {
      LoopTask task = (*factory_)(/*helper=*/true);
      size_t index = 0;
      while (task && Next(&index)) Hand(index, task(index));
    } catch (...) {
      Fail();
    }
    Leave();
  }

  /// Caller body: works the loop to completion, closes it, and rethrows
  /// the first participant failure.
  void RunCaller() {
    try {
      CallerLoop((*factory_)(/*helper=*/false));
    } catch (...) {
      Fail();
    }
    word_.fetch_or(kClosed, std::memory_order_acq_rel);
    Leave();
    if (!failed_.load(std::memory_order_acquire)) return;
    if (std::exception_ptr* error = error_.load(std::memory_order_acquire)) {
      std::rethrow_exception(*error);
    }
    throw std::bad_alloc();  // the failure's own record could not be made
  }

 private:
  bool Enter() {
    size_t word = word_.load(std::memory_order_relaxed);
    do {
      if (word & kClosed) return false;
    } while (!word_.compare_exchange_weak(word, word + kOneInside,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed));
    return true;
  }

  /// The last participant out of a closed loop drops the factory (and
  /// whatever it owns); helpers entering later never reach it.
  void Leave() {
    if (word_.fetch_sub(kOneInside, std::memory_order_acq_rel) ==
        kClosed + kOneInside) {
      factory_.reset();
    }
  }

  /// Claims the next index. False once the range is exhausted or a
  /// participant has failed.
  bool Next(size_t* index) {
    // Cheap early-out keeps next_ from running far past n (every
    // participant polls it one last time).
    if (next_.load(std::memory_order_relaxed) >= n_) return false;
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return false;
    *index = i;
    return true;
  }

  void Fail() noexcept {
    auto* error = new (std::nothrow) std::exception_ptr(std::current_exception());
    std::exception_ptr* expected = nullptr;
    if (error != nullptr &&
        !error_.compare_exchange_strong(expected, error,
                                        std::memory_order_acq_rel)) {
      delete error;
    }
    failed_.store(true, std::memory_order_release);
    next_.store(n_, std::memory_order_relaxed);
  }

  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// A helper offers index `index`'s store step; it is dropped when the
  /// caller already stored the index.
  void Hand(size_t index, LoopStore step) {
    auto* offered = new LoopStore(std::move(step));
    LoopStore* expected = nullptr;
    if (handed_[index].compare_exchange_strong(expected, offered,
                                               std::memory_order_acq_rel)) {
      handed_count_.fetch_add(1, std::memory_order_release);
    } else {
      delete offered;
    }
  }

  /// The caller claims and stores what it can, waits a grace for in-flight
  /// helper indices, recomputes every index still missing, and finally runs
  /// the steps helpers handed over.
  void CallerLoop(const LoopTask& task) {
    size_t own = 0;
    size_t index = 0;
    const Clock::time_point start = Clock::now();
    while (Next(&index)) {
      LoopStore step = task(index);
      if (step) step();
      handed_[index].store(CallerStored(), std::memory_order_relaxed);
      ++own;
    }
    const Clock::duration grace =
        own > 0 ? 2 * (Clock::now() - start) / static_cast<int64_t>(own)
                : kDefaultGrace;
    const Clock::time_point deadline = Clock::now() + grace;
    while (!failed() &&
           own + handed_count_.load(std::memory_order_acquire) < n_ &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(kGracePoll);
    }
    for (size_t i = 0; i < n_; ++i) {
      if (failed()) return;
      if (handed_[i].load(std::memory_order_acquire) != nullptr) continue;
      LoopStore step = task(i);
      LoopStore* expected = nullptr;
      if (handed_[i].compare_exchange_strong(expected, CallerStored(),
                                             std::memory_order_acq_rel)) {
        if (step) step();
      }  // else a helper handed it over meanwhile: stored below
    }
    for (std::atomic<LoopStore*>& slot : handed_) {
      LoopStore* step = slot.load(std::memory_order_acquire);
      if (step != CallerStored() && *step) (*step)();
    }
  }

  const size_t n_;
  /// Read by participants while they count as inside; reset by the last
  /// one out once the loop is closed.
  std::shared_ptr<const LoopParticipant> factory_;
  std::atomic<size_t> word_{kOneInside};  // the caller starts inside
  std::atomic<size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::atomic<std::exception_ptr*> error_{nullptr};  // the first failure

  /// Per index, the store step a helper handed over, or CallerStored();
  /// and how many helpers handed over.
  std::vector<std::atomic<LoopStore*>> handed_;
  std::atomic<size_t> handed_count_{0};
};

}  // namespace

void ParallelLoop(ThreadPool& pool, size_t n, size_t max_helpers,
                  LoopParticipant participant) {
  if (n == 0) return;
  auto state = std::make_shared<LoopState>(
      n, std::make_shared<const LoopParticipant>(std::move(participant)));
  const size_t helpers = std::min(max_helpers, n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    try {
      // Helpers may live on an idle-priority pool: never queue behind a
      // lock one of its workers may hold.
      if (!pool.TrySubmit([state] { state->RunHelper(); })) break;
    } catch (...) {
      break;  // the caller covers whatever the missing helpers would have
    }
  }
  state->RunCaller();
}

}  // namespace staq::util
