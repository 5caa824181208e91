// Caller-participating parallel loop — the library's one parallel loop.
//
// The thread that owns a loop always works on it: it claims indices like
// any helper and never blocks waiting for work it could do itself. Helper
// tasks submitted to a ThreadPool claim indices one at a time while they
// run, so a loop finishes even when no helper ever starts (every worker of
// the pool busy, or the pool's workers are themselves callers of loops) —
// which is what makes nested and all-workers-at-once use deadlock-free.
//
// Every participant — the caller and each helper that starts while the
// loop is open — asks the loop's participant factory once for its task
// function (a helper may decline by returning an empty one) and runs it on
// the indices it claims. A task computes one index and returns the step
// that stores its result (or an empty step). A helper that starts after
// the loop has closed returns without calling the factory, so it never
// touches the caller's frame. A participant that throws stops further
// claims; the caller rethrows the first exception.
//
// The caller never waits on a helper. Helpers may live on an
// idle-priority pool, which a loaded machine may preempt for a long time at
// any instruction, so they hand their store steps to the caller through
// lock-free slots and take no lock the caller (or any other thread) needs,
// and the caller runs every store step itself. Once the caller runs out of
// unclaimed indices it grants in-flight ones a short grace — twice its own
// mean index time — and then recomputes every index still missing; a
// helper's late step is discarded. The caller returns possibly while a
// straggler is still computing, so the factory and tasks must own — by
// value or shared_ptr — everything they touch. The factory lives until the
// last participant that called it is gone.
#pragma once

#include <cstddef>
#include <functional>

namespace staq::util {

class ThreadPool;

/// Stores one index's result; always run on the calling thread.
using LoopStore = std::function<void()>;

/// One participant's work: computes index `index` and returns the step
/// that stores it (empty when there is nothing to store).
using LoopTask = std::function<LoopStore(size_t index)>;

/// Called once per participant, on its own thread (`helper` is false on the
/// calling thread); returns the participant's task, or an empty one to sit
/// the loop out. Destroying the task ends the participant (release
/// per-participant resources there).
using LoopParticipant = std::function<LoopTask(bool helper)>;

/// Runs one loop over [0, n) on the calling thread plus up to
/// `max_helpers` helper tasks on `pool` (each may or may not start in time
/// to help; 0 = the caller runs the loop alone), and returns when every
/// index is stored. Rethrows the first participant exception. Helper
/// submission never fails the loop: the caller simply does more of it.
void ParallelLoop(ThreadPool& pool, size_t n, size_t max_helpers,
                  LoopParticipant participant);

}  // namespace staq::util
