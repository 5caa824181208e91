// staq::serve — concurrent access-query server.
//
// An AqServer owns a ScenarioStore (epoch-versioned scenarios, incremental
// relabeling) and a worker pool, and answers AqRequests concurrently:
//
//   * Admission: Submit() refuses new work with kResourceExhausted once the
//     queue holds max_pending tasks, so a burst degrades into fast
//     rejections instead of unbounded latency, and refuses a request with a
//     field out of range (the list on AqRequest, serve/request.h) with
//     kInvalidArgument.
//   * Snapshots: each request captures the current scenario at submission.
//     Mutations arriving while it waits or runs do not affect it — it
//     answers against the epoch it was admitted under (RCU discipline).
//   * Deadlines: a request whose budget expired before a worker picked it
//     up fails with kDeadlineExceeded without doing any work; a ticket can
//     also be withdrawn explicitly while still queued.
//   * Caching: results are memoised in a sharded LRU keyed by (epoch,
//     canonical request), and exact label states and SSR zone feature
//     matrices are memoised per scenario, so repeated analytical queries
//     against a stable scenario cost one cache probe and a cold SSR answer
//     skips the feature extraction its epoch already did.
//
// QueryUncached() recomputes from scratch, bypassing every cache — it is
// the golden reference that tests and the serve bench compare cached and
// incremental answers against.
//
// Zones are labeled one way — cold exact builds, every mutation's patch,
// batch captures and SSR samples alike: one caller-participating loop per
// job. The thread that owns the job labels zones itself while helper tasks
// on the process-wide idle-priority pool (util::ThreadPool::Idle) claim
// zones alongside it, each leasing one of this server's labeling contexts.
// Contexts are capped at the worker-pool size, so helpers only ever use
// spare contexts and spare cores (DESIGN.md §16).
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/access_query.h"
#include "serve/request.h"
#include "serve/result_cache.h"
#include "serve/scenario.h"
#include "util/clock.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "wal/record.h"

namespace staq::wal {
class MutationWal;
}  // namespace staq::wal

namespace staq::serve {

class AqServer;

/// Handle to one submitted request. Get() blocks for the answer; TryCancel
/// withdraws the request if no worker has started it. The issuing AqServer
/// must outlive the ticket.
class AqTicket {
 public:
  /// epoch() value of a ticket that never resolved a snapshot (empty or
  /// rejected at admission).
  static constexpr uint64_t kNoEpoch = ~0ull;

  AqTicket() = default;

  bool valid() const { return promise_ != nullptr; }

  /// The scenario epoch the request was admitted under — the pure snapshot
  /// its answer must be bit-identical to. kNoEpoch for empty/rejected
  /// tickets. Stress tests use this to check epoch consistency.
  uint64_t epoch() const { return epoch_; }

  /// Blocks until the request resolves and returns its result. Consumes
  /// the ticket's future; a second call — or a call on an empty ticket —
  /// returns kFailedPrecondition instead of touching an invalid future.
  util::Result<core::AccessQueryResult> Get();

  /// Withdraws the request while it is still queued. On success the ticket
  /// resolves to kCancelled and no worker ever sees the request.
  bool TryCancel();

 private:
  friend class AqServer;
  using Promise = std::promise<util::Result<core::AccessQueryResult>>;

  AqServer* server_ = nullptr;
  std::shared_ptr<Promise> promise_;
  std::future<util::Result<core::AccessQueryResult>> future_;
  util::TaskHandle handle_;
  uint64_t epoch_ = kNoEpoch;
};

class AqServer : private ZoneLoop {
 public:
  struct Options {
    /// Worker threads; 0 = hardware concurrency.
    size_t num_threads = 0;
    /// Admission bound: Submit() rejects once this many tasks are pending.
    size_t max_pending = 256;
    /// Latency-based admission bound (the load-shedding path): when > 0,
    /// Submit() estimates the queueing delay a new request would see —
    /// pending tasks × EWMA(service time) / workers — and sheds it with
    /// kUnavailable once the estimate exceeds this budget. Shedding keeps
    /// the tail latency of *admitted* requests bounded under overload
    /// instead of letting the queue absorb the backlog; shed requests are
    /// counted in ServerStats::shed, separately from queue-full
    /// rejections. 0 disables shedding (max_pending still applies).
    double max_queue_delay_s = 0.0;
    ResultCache::Options cache;
    /// Time source for deadlines and latency accounting; null = the real
    /// clock. Tests pass a VirtualClock and advance time explicitly instead
    /// of sleeping.
    const util::Clock* clock = nullptr;
    /// Schedule shaking for the worker pool (stress tests only): seeded
    /// task reordering + jitter, see ThreadPool::PerturbOptions.
    std::optional<util::ThreadPool::PerturbOptions> perturb;
    /// When non-empty, warm-start from this snapshot file
    /// (store/snapshot.h): the loaded serving state — city, offline
    /// structures, materialised label states — is published as epoch 0 and
    /// the offline cold build is skipped. A snapshot that fails to open,
    /// verify, or decode degrades to the cold build over the passed city
    /// with a logged warning; a bad file never stops the server coming up.
    std::string warm_start_path;
  };

  /// Takes ownership of the city and runs the offline phase for `interval`.
  AqServer(synth::City city, const gtfs::TimeInterval& interval,
           Options options);
  AqServer(synth::City city, const gtfs::TimeInterval& interval);
  ~AqServer() override;

  AqServer(const AqServer&) = delete;
  AqServer& operator=(const AqServer&) = delete;

  // --- scenario API ------------------------------------------------------
  uint64_t epoch() const { return store_.epoch(); }
  /// Absolute scenario sequence — the server's position in the mutation
  /// history the WAL records: the warm-start snapshot's source sequence
  /// plus the local epoch. This is the number replication compares across
  /// primary and replicas (local epochs restart at 0 on every warm start
  /// and are incomparable between processes).
  uint64_t sequence() const { return store_.base_sequence() + store_.epoch(); }
  /// Sequence offset of epoch 0 (immutable after construction).
  uint64_t base_sequence() const { return store_.base_sequence(); }
  std::shared_ptr<const Scenario> Snapshot() const { return store_.Acquire(); }
  const synth::City& base_city() const { return store_.base_city(); }
  /// The store's effective router configuration — including the shared
  /// connection array every worker router scans. Benches report the
  /// array's one-time build cost from here.
  const router::RouterOptions& router_options() const {
    return store_.router_options();
  }
  /// True when the serving state came from Options::warm_start_path rather
  /// than a cold build.
  bool warm_started() const { return warm_started_; }

  /// Persists the current serving state — or any retained scenario — to
  /// `path` in the store/snapshot.h format. Safe under concurrent queries
  /// and mutations (scenarios are immutable snapshots).
  util::Status ExportSnapshot(const std::string& path) const {
    return store_.ExportSnapshot(path);
  }
  util::Status ExportSnapshot(const Scenario& scenario,
                              const std::string& path) const {
    return store_.ExportSnapshot(scenario, path);
  }

  // Mutations are transactional: a failure (NotFound, InvalidArgument, or
  // an exception out of the patch/relabel machinery, e.g. an injected
  // fault) leaves the store at the previous epoch with every label state
  // intact, and is reported as a clean Status instead of escaping as an
  // exception. In-flight queries keep answering against the epoch (and
  // network) they were admitted under; worker contexts are keyed by the
  // scenario's network id, so routing always matches the snapshot served.

  /// Applies one mutation as the primary: ScenarioStore::Apply decides what
  /// the record's kind does. The incoming sequence is ignored (and so is
  /// poi_id for kAddPoi); the server assigns both and appends the completed
  /// record to the attached WAL.
  util::Result<ScenarioStore::MutationReport> Mutate(
      const wal::MutationRecord& record) {
    return ApplyRecord(record, /*replay=*/false);
  }

  // Typed spellings of Mutate, one per record kind.
  util::Result<ScenarioStore::MutationReport> AddPoi(
      synth::PoiCategory category, const geo::Point& position) {
    return Mutate(wal::MutationRecord::AddPoi(0, category, position, 0));
  }
  util::Result<ScenarioStore::MutationReport> RemovePoi(uint32_t poi_id) {
    return Mutate(wal::MutationRecord::RemovePoi(0, poi_id));
  }
  util::Result<ScenarioStore::MutationReport> SetInterval(
      const gtfs::TimeInterval& interval) {
    return Mutate(wal::MutationRecord::SetInterval(0, interval));
  }
  util::Result<ScenarioStore::MutationReport> SuspendRoute(uint32_t route) {
    return Mutate(wal::MutationRecord::SuspendRoute(0, route));
  }
  util::Result<ScenarioStore::MutationReport> CloseStop(uint32_t stop) {
    return Mutate(wal::MutationRecord::CloseStop(0, stop));
  }
  util::Result<ScenarioStore::MutationReport> ScaleHeadway(uint32_t route,
                                                           uint32_t factor) {
    return Mutate(wal::MutationRecord::ScaleHeadway(0, route, factor));
  }
  util::Result<ScenarioStore::MutationReport> SetFare(uint32_t route,
                                                      double fare) {
    return Mutate(wal::MutationRecord::SetFare(0, route, fare));
  }
  util::Result<ScenarioStore::MutationReport> ScaleWalkSpeed(double factor) {
    return Mutate(wal::MutationRecord::ScaleWalkSpeed(0, factor));
  }

  // --- replication API ---------------------------------------------------
  /// Makes this server a logging primary: every accepted mutation appends
  /// its record to `wal` (not owned; must outlive the server) before the
  /// mutation is acknowledged. The WAL must be exactly caught up —
  /// wal->last_sequence() == sequence() — or kFailedPrecondition; replay
  /// the log into the server first (ApplyMutation), then attach.
  ///
  /// A failed append surfaces as the mutation's status: the new epoch is
  /// serving locally but is NOT durable or replicated, and the WAL has
  /// turned read-only, so further mutations fail until it is reopened and
  /// reattached. Queries are never affected.
  util::Status AttachWal(wal::MutationWal* wal);

  /// Replays one logged mutation (the replica path; also WAL recovery on a
  /// restarting primary *before* AttachWal). Validates that the record
  /// extends this server's history — record.sequence == sequence() + 1,
  /// and for AddPoi that the locally assigned POI id matches the record —
  /// and returns kAborted on any mismatch: the replica has diverged and
  /// must stop applying rather than serve silently different answers.
  /// Records applied here are not re-logged to an attached WAL.
  util::Result<ScenarioStore::MutationReport> ApplyMutation(
      const wal::MutationRecord& record) {
    return ApplyRecord(record, /*replay=*/true);
  }

  // --- query API ---------------------------------------------------------
  /// Asynchronous submission. Never blocks on query work; returns a
  /// rejected ticket (kResourceExhausted) when the queue is full, and a
  /// refused one (kInvalidArgument) for a request with a field out of
  /// range (the list on AqRequest, serve/request.h).
  AqTicket Submit(const AqRequest& request);

  /// Synchronous convenience: Submit + Get.
  util::Result<core::AccessQueryResult> Query(const AqRequest& request);

  /// Vector submission: expands the batch (see ExpandBatch for the order)
  /// and returns one ticket per derived request. Exact members of one
  /// (category, seed) group run as ONE worker task sharing a single
  /// labeling pass — each member's answer is derived columnarly,
  /// bit-identical to the single-request path — and every answer is
  /// inserted into the result cache under its derived single-query key, so
  /// later single submissions are cache hits. Non-exact (SSR) members
  /// share no pass and run as ordinary individual tasks. Admission
  /// (out-of-range fields, queue-full rejection, delay-budget shedding) is
  /// decided once for the whole batch. Exact members' tickets cannot be
  /// cancelled (TryCancel returns false): members of a group do not have
  /// individual queue slots.
  std::vector<AqTicket> SubmitBatch(const AqBatchRequest& batch);

  /// Synchronous convenience: SubmitBatch + Get on every ticket, in batch
  /// order.
  std::vector<util::Result<core::AccessQueryResult>> QueryBatch(
      const AqBatchRequest& batch);

  /// Golden reference: recomputes the answer from scratch on the caller's
  /// thread, bypassing the result cache and the label-state and feature
  /// memos. It refuses out-of-range fields (serve/request.h) as admission
  /// does.
  util::Result<core::AccessQueryResult> QueryUncached(const AqRequest& request);

  /// Sequential reference against an explicit snapshot: like QueryUncached
  /// but answers for `scenario` (any retained epoch) rather than the
  /// current one. Stress tests retain per-epoch snapshots and check every
  /// concurrent answer bit-identically against this.
  util::Result<core::AccessQueryResult> QueryUncachedOn(
      const Scenario& scenario, const AqRequest& request);

  ServerStats stats() const;
  size_t num_threads() const { return pool_.num_threads(); }

 private:
  friend class AqTicket;

  /// Labeling context: Router scratch is not shareable across threads, so
  /// each thread labeling for this server — a worker running a request, a
  /// mutating thread, a zone-loop helper — leases one of these. The context
  /// shares ownership of the city its router scans — a network mutation
  /// can retire that city from the store while a leased context still
  /// routes over it — and carries the id of the network it was built for,
  /// so a pooled context never serves a scenario of a different network.
  /// It counts itself in the server's live-context total for its whole
  /// life, wherever it dies.
  struct WorkerContext {
    WorkerContext(std::shared_ptr<const synth::City> city_in,
                  const router::RouterOptions& options, uint64_t network,
                  std::atomic<size_t>* live_count)
        : city(std::move(city_in)),
          router(&city->feed, options),
          engine(city.get(), &router),
          network_id(network),
          live(live_count) {}
    ~WorkerContext() { live->fetch_sub(1, std::memory_order_relaxed); }
    std::shared_ptr<const synth::City> city;
    router::Router router;
    core::LabelingEngine engine;
    uint64_t network_id = 0;
    std::atomic<size_t>* live;
  };

  /// What a context is built for: a scenario's network, held by value so
  /// helpers that outlive a zone loop never reach back into the scenario.
  struct Network {
    std::shared_ptr<const synth::City> city;
    router::RouterOptions options;
    uint64_t id = 0;
  };
  static Network NetworkOf(const Scenario& scenario);

  /// Pooled contexts, handed between threads without a lock: a thread
  /// takes one with an atomic exchange and returns one with a
  /// compare-and-swap, so no thread — an idle-priority helper preempted
  /// mid-lease included — ever holds up another (DESIGN.md §16).
  class ContextPool {
   public:
    explicit ContextPool(size_t slots) : slots_(slots) {}
    ContextPool(const ContextPool&) = delete;
    ContextPool& operator=(const ContextPool&) = delete;
    ~ContextPool();
    /// Takes a pooled context built for network `id` (contexts of other
    /// networks stay pooled, for readers of older epochs); null when none.
    std::unique_ptr<WorkerContext> Take(uint64_t id);
    /// Takes a pooled context built for any other network than `id`, to
    /// evict it; null when none.
    std::unique_ptr<WorkerContext> TakeStale(uint64_t id);
    /// Pools `context`; hands it back when every slot is taken.
    std::unique_ptr<WorkerContext> Put(std::unique_ptr<WorkerContext> context);

   private:
    template <typename Match>
    std::unique_ptr<WorkerContext> TakeIf(Match match);
    std::vector<std::atomic<WorkerContext*>> slots_;
  };

  /// Leases a context for `network`: a pooled one built for it, else a new
  /// one. Owners (the thread a request or mutation runs on) always get one,
  /// even past the cap; at the cap a pooled context of another network is
  /// evicted to make room.
  std::unique_ptr<WorkerContext> AcquireContext(const Network& network);
  /// Helper lease: like AcquireContext, but null when building a context
  /// would take the server past its cap. Takes no lock.
  std::unique_ptr<WorkerContext> TryAcquireHelperContext(
      const Network& network);
  /// Returns a context to the pool. Past the cap the surplus dies — a
  /// pooled context of another network first. Takes no lock.
  void ReleaseContext(std::unique_ptr<WorkerContext> context);
  /// Builds a context; the caller already counted it in live_contexts_.
  /// Pooled contexts never refresh their access-stop caches: those depend
  /// only on the network's stops and walk parameters, and every mutation
  /// that changes either installs a new network id.
  std::unique_ptr<WorkerContext> NewContext(const Network& network);

  /// ZoneLoop: one util::ParallelLoop (util/parallel_loop.h).
  /// The calling thread labels with a leased context while
  /// up to hardware-concurrency − 1 helpers on the idle pool claim zones
  /// one at a time, each with a helper lease, and hand their store steps
  /// back to the calling thread; a helper that finds the cap reached
  /// returns at once, and a zone a stalled helper holds is relabeled by
  /// the caller rather than waited for. A server of one worker has no
  /// spare context for a helper: the caller runs every item itself and
  /// the idle pool is never started.
  void Run(const Scenario& scenario, size_t n,
           const ZoneLoopBody& body) override;
  /// The uncached path's zone loop (the oracle the helped loop is checked
  /// against): each Run labels serially on one context leased for that
  /// labeling alone (DESIGN.md §16.4); a throw drops the context.
  class LeasedSerialLoop;

  /// Counts the zone-loop helpers that may still touch this server — a
  /// straggler can outlive the loop it helped — and makes ~AqServer wait
  /// them out. Helpers still queued, or starting after their loop closed,
  /// hold no pin and never touch the server. Releasing a pin takes no lock
  /// (helpers release theirs at idle priority).
  class HelperPins {
   public:
    HelperPins() = default;
    HelperPins(const HelperPins&) = delete;
    HelperPins& operator=(const HelperPins&) = delete;
    ~HelperPins();
    /// A pin; the server stays alive until every pin is released.
    std::shared_ptr<void> Pin();

   private:
    std::atomic<size_t> pins_{0};
  };

  /// The one mutation body behind Mutate and ApplyMutation. Under wal_mu_
  /// it applies `record` to the store, turns an escaped exception into a
  /// Status and counts the mutation. A replay first checks that the record
  /// extends this server's history and never logs; a primary assigns the
  /// sequence (and the POI id of kAddPoi) and logs the completed record.
  util::Result<ScenarioStore::MutationReport> ApplyRecord(
      const wal::MutationRecord& record, bool replay);

  using PromisePtr = std::shared_ptr<AqTicket::Promise>;

  /// The one admission routine behind Submit and SubmitBatch: readies
  /// `tickets[0..n)` for `requests[0..n)`, refuses all of them with one
  /// status (an out-of-range field, queue full, shed) or snapshots the epoch
  /// and enqueues them. Exact members of a `batch` run one task per
  /// (category, seed) group (AnswerGroup); every other request runs
  /// Execute as a task of its own, with a cancel handle.
  void Admit(const AqRequest* requests, AqTicket* tickets, size_t n,
             bool batch);
  /// Fulfils `tickets[0..n)` with `status` and counts them in `counter`.
  void Refuse(AqTicket* tickets, size_t n, const util::Status& status,
              std::atomic<uint64_t>* counter);

  /// The members of one running task: the promise of member i is
  /// fulfilled exactly once, through Resolve.
  struct Task {
    PromisePtr* promises;
    size_t unresolved;
    util::Stopwatch watch;  // the task's service time
  };
  /// The one task wrapper: fails `promises[0..n)` with kDeadlineExceeded
  /// when the deadline expired in the queue, else runs `body(task)`, which
  /// resolves every member; whatever a throw leaves unresolved fails with
  /// the exception's status.
  template <typename Body>
  void RunTask(util::Clock::TimePoint submitted_at, double deadline_s,
               PromisePtr* promises, size_t n, Body&& body);
  /// Counts `result` as completed or failed and fulfils member i with it.
  /// The last member notes the task's service time first.
  void Resolve(Task& task, size_t i,
               util::Result<core::AccessQueryResult> result);

  /// The cached answer under `key` with elapsed_s read off `watch`; empty
  /// on a miss.
  std::optional<core::AccessQueryResult> CachedAnswer(
      const std::string& key, const util::Stopwatch& watch);
  /// Fills `result`'s summary measures and elapsed_s and, when `key` is
  /// not empty, caches it; a failed insert costs a future hit, never the
  /// answer.
  void FinishAnswer(const Scenario& scenario, const std::string& key,
                    const util::Stopwatch& watch,
                    core::AccessQueryResult* result);

  /// Answers `request` against `scenario`. A labeling context is leased
  /// only when the answer needs one (never for cache hits).
  util::Result<core::AccessQueryResult> Execute(const AqRequest& request,
                                                const Scenario& scenario,
                                                bool use_caches);
  /// Answers one exact (category, seed) batch group: cache hits first,
  /// then one capture pass shared by the misses, each member derived
  /// columnarly and cached. Member i of `task` answers `requests[i]`.
  void AnswerGroup(const std::vector<AqRequest>& requests,
                   const Scenario& scenario, Task& task);
  /// True when the delay-budget estimate says a new submission should be
  /// shed (see Options::max_queue_delay_s).
  bool ShouldShed() const;
  /// Folds one completed task's service time into the shedding estimator.
  void NoteServiceTime(double seconds);

  Options options_;
  /// Resolved time source (options_.clock or the real clock). Never null.
  const util::Clock* clock_;
  /// Set while store_ initialises (declared first so it exists by then).
  bool warm_started_ = false;
  ScenarioStore store_;
  ResultCache cache_;

  /// Serialises the mutation+log critical section so WAL order always
  /// equals epoch order (the store's own mutation_mu_ only covers the
  /// store half). Never held while queries run.
  std::mutex wal_mu_;
  wal::MutationWal* wal_ = nullptr;  // attached log; not owned

  /// Most contexts the server keeps alive: its worker count. A plain copy
  /// of pool_.num_threads(), readable by straggling helpers after pool_ is
  /// gone.
  const size_t context_cap_;
  /// Contexts alive anywhere (pooled or leased). Declared before the pool
  /// so it outlives every context destroyed with contexts_.
  std::atomic<size_t> live_contexts_{0};
  ContextPool contexts_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> exact_state_builds_{0};
  std::atomic<uint64_t> ssr_feature_builds_{0};
  std::atomic<uint64_t> mutations_{0};
  std::atomic<uint64_t> states_patched_{0};
  std::atomic<uint64_t> zones_relabeled_{0};
  std::atomic<uint64_t> patch_spqs_{0};

  /// EWMA of per-task service seconds feeding the shedding estimate. A
  /// rough load signal, not an accounting value: concurrent updates may
  /// lose a sample (load and store are separate relaxed atomic ops), which
  /// only perturbs the estimate by one decayed term.
  std::atomic<double> service_ewma_s_{0.0};

  /// Destroyed right after pool_ (whose queued tasks may still start zone
  /// loops) and before everything a straggling helper touches: its
  /// destructor waits for the last helper pin.
  HelperPins helper_pins_;

  /// Declared last so ~AqServer destroys it first: ~ThreadPool finishes
  /// already-queued tasks before joining, and those tasks touch
  /// every member above (contexts, mutex, caches, counters).
  util::ThreadPool pool_;
};

}  // namespace staq::serve
