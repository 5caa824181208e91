#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>
#include <utility>

#include "core/columnar.h"
#include "core/pipeline.h"
#include "store/snapshot.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/parallel_loop.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "wal/wal.h"

namespace staq::serve {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 2;
}

/// Degrades an escaped exception into the clean Status the serve API
/// promises (failpoint throws, bad_alloc, anything the core engines
/// raise). The server must never hang a waiter or kill a worker over one.
util::Status StatusFromException(const std::string& where) {
  try {
    throw;
  } catch (const std::exception& e) {
    return util::Status::Internal(where + " failed: " + e.what());
  } catch (...) {
    return util::Status::Internal(where + " failed: unknown exception");
  }
}

/// Result-cache key of `request` within `scenario`'s epoch.
std::string CacheKey(const Scenario& scenario, const AqRequest& request) {
  return "e=" + std::to_string(scenario.epoch()) + '|' +
         CanonicalRequestKey(request);
}

/// OK, or why `request` is refused before any work is done (serve/request.h
/// lists the ranges): every field arrives unchecked over the wire. Exact
/// requests never read beta, nor journey-time requests the GAC weights.
util::Status CheckRequest(const AqRequest& request) {
  const core::AccessQueryOptions& options = request.options;
  if (!options.exact &&
      !(std::isfinite(options.beta) && options.beta > 0.0 &&
        options.beta <= 1.0)) {
    return util::Status::InvalidArgument("beta must be finite, in (0, 1]");
  }
  return CheckLabelKey(LabelKeyFor(request));
}

/// Builds the server's ScenarioStore, preferring a snapshot warm start;
/// its patches label through `loop` (the server). Both branches return a
/// prvalue, so guaranteed copy elision constructs the non-movable store
/// directly in AqServer::store_ — no move happens.
ScenarioStore MakeStore(synth::City&& city, const gtfs::TimeInterval& interval,
                        ZoneLoop& loop, const AqServer::Options& options,
                        bool* warm_started) {
  if (!options.warm_start_path.empty()) {
    auto restored = store::LoadSnapshot(options.warm_start_path);
    if (restored.ok()) {
      *warm_started = true;
      return ScenarioStore(std::move(restored).value(), loop);
    }
    util::LogWarning("warm start from '" + options.warm_start_path +
                     "' failed (" + restored.status().ToString() +
                     "); falling back to cold build");
  }
  return ScenarioStore(std::move(city), interval, loop);
}

}  // namespace

util::Result<core::AccessQueryResult> AqTicket::Get() {
  if (!valid() || !future_.valid()) {
    return util::Status::FailedPrecondition(
        "ticket holds no pending result (empty or already consumed)");
  }
  return future_.get();
}

bool AqTicket::TryCancel() {
  if (!valid() || !handle_.valid()) return false;
  // Fault site: cancellation failing *before* the handle state flips. A
  // throw degrades into "lost the race" — the worker still owns the
  // request and will fulfil the promise, so nobody hangs.
  try {
    STAQ_FAILPOINT("serve.ticket.cancel");
  } catch (...) {
    return false;
  }
  if (!handle_.Cancel()) return false;
  // Cancel succeeded: the worker will never touch this request, so the
  // ticket owns the promise exclusively.
  promise_->set_value(util::Status::Cancelled("request withdrawn by client"));
  server_->cancelled_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

AqServer::AqServer(synth::City city, const gtfs::TimeInterval& interval,
                   Options options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : util::Clock::Real()),
      store_(MakeStore(std::move(city), interval, *this, options,
                       &warm_started_)),
      cache_(options.cache),
      context_cap_(ResolveThreads(options.num_threads)),
      contexts_(context_cap_),
      pool_(context_cap_) {
  if (options_.perturb.has_value()) {
    pool_.EnablePerturbation(*options_.perturb);
  }
}

AqServer::AqServer(synth::City city, const gtfs::TimeInterval& interval)
    : AqServer(std::move(city), interval, Options()) {}

AqServer::~AqServer() = default;

util::Status AqServer::AttachWal(wal::MutationWal* wal) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal != nullptr && wal->last_sequence() != sequence()) {
    return util::Status::FailedPrecondition(util::Format(
        "WAL is at sequence %llu but the server is at %llu; replay the log "
        "before attaching",
        static_cast<unsigned long long>(wal->last_sequence()),
        static_cast<unsigned long long>(sequence())));
  }
  wal_ = wal;
  return util::Status::OK();
}

util::Result<ScenarioStore::MutationReport> AqServer::ApplyRecord(
    const wal::MutationRecord& record, bool replay) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (replay && record.sequence != sequence() + 1) {
    return util::Status::Aborted(util::Format(
        "cannot replay record #%llu at sequence %llu: history must stay "
        "gap-free",
        static_cast<unsigned long long>(record.sequence),
        static_cast<unsigned long long>(sequence())));
  }
  // The id drives the POI's RNG streams: a different id means this
  // replica's answers would diverge from the primary's. Checked against the
  // store's cursor BEFORE applying, so the abort leaves the last consistent
  // epoch serving instead of installing a fork.
  if (replay && record.assigns_poi_id() &&
      store_.next_poi_id() != record.poi_id) {
    return util::Status::Aborted(util::Format(
        "replayed %s #%llu would assign POI id %u where the log records %u "
        "— replica diverged; nothing was applied",
        wal::MutationTypeName(record.type),
        static_cast<unsigned long long>(record.sequence),
        store_.next_poi_id(), record.poi_id));
  }
  util::Result<ScenarioStore::MutationReport> report =
      util::Status::Internal("unreachable");
  try {
    report = store_.Apply(record);
  } catch (...) {
    // The store installs the next epoch only as its last step, so an
    // aborted patch/relabel leaves the previous scenario fully intact.
    return StatusFromException(std::string(wal::MutationTypeName(record.type)) +
                               " mutation");
  }
  if (!report.ok()) return report;
  const ScenarioStore::MutationReport& applied = report.value();
  mutations_.fetch_add(1, std::memory_order_relaxed);
  states_patched_.fetch_add(applied.states_patched, std::memory_order_relaxed);
  zones_relabeled_.fetch_add(applied.zones_relabeled,
                             std::memory_order_relaxed);
  patch_spqs_.fetch_add(applied.spqs, std::memory_order_relaxed);
  if (replay || wal_ == nullptr) return report;

  wal::MutationRecord logged = record;
  logged.sequence = sequence();
  if (logged.assigns_poi_id()) logged.poi_id = applied.poi_id;
  STAQ_RETURN_NOT_OK(wal_->Append(logged));
  return report;
}

AqServer::HelperPins::~HelperPins() {
  // Polled: a helper's release is its last touch of the server, so there
  // is nothing for it to notify afterwards.
  while (pins_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::shared_ptr<void> AqServer::HelperPins::Pin() {
  pins_.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<void>(nullptr, [this](void*) {
    pins_.fetch_sub(1, std::memory_order_release);
  });
}

AqServer::Network AqServer::NetworkOf(const Scenario& scenario) {
  return Network{scenario.city_ptr(), scenario.router_options(),
                 scenario.network_id()};
}

AqServer::ContextPool::~ContextPool() {
  for (std::atomic<WorkerContext*>& slot : slots_) {
    delete slot.load(std::memory_order_acquire);
  }
}

template <typename Match>
std::unique_ptr<AqServer::WorkerContext> AqServer::ContextPool::TakeIf(
    Match match) {
  for (std::atomic<WorkerContext*>& slot : slots_) {
    // Exchanging first makes the context ours to inspect; one that does
    // not match goes back (or, when a put filled the slot meanwhile, to
    // any free slot; it dies when none is left).
    std::unique_ptr<WorkerContext> context(
        slot.exchange(nullptr, std::memory_order_acq_rel));
    if (context == nullptr) continue;
    if (match(*context)) return context;
    WorkerContext* expected = nullptr;
    if (slot.compare_exchange_strong(expected, context.get(),
                                     std::memory_order_acq_rel)) {
      context.release();
    } else {
      Put(std::move(context));
    }
  }
  return nullptr;
}

std::unique_ptr<AqServer::WorkerContext> AqServer::ContextPool::Take(
    uint64_t id) {
  return TakeIf([id](const WorkerContext& c) { return c.network_id == id; });
}

std::unique_ptr<AqServer::WorkerContext> AqServer::ContextPool::TakeStale(
    uint64_t id) {
  return TakeIf([id](const WorkerContext& c) { return c.network_id != id; });
}

std::unique_ptr<AqServer::WorkerContext> AqServer::ContextPool::Put(
    std::unique_ptr<WorkerContext> context) {
  for (std::atomic<WorkerContext*>& slot : slots_) {
    WorkerContext* expected = nullptr;
    if (slot.compare_exchange_strong(expected, context.get(),
                                     std::memory_order_acq_rel)) {
      context.release();
      return nullptr;
    }
  }
  return context;
}

std::unique_ptr<AqServer::WorkerContext> AqServer::NewContext(
    const Network& network) {
  // A failed build gives the counted slot back.
  try {
    return std::make_unique<WorkerContext>(network.city, network.options,
                                           network.id, &live_contexts_);
  } catch (...) {
    live_contexts_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
}

std::unique_ptr<AqServer::WorkerContext> AqServer::AcquireContext(
    const Network& network) {
  if (auto context = contexts_.Take(network.id)) return context;
  if (live_contexts_.load(std::memory_order_relaxed) >= context_cap_) {
    contexts_.TakeStale(network.id).reset();  // make room, if one is stale
  }
  live_contexts_.fetch_add(1, std::memory_order_relaxed);
  return NewContext(network);
}

std::unique_ptr<AqServer::WorkerContext> AqServer::TryAcquireHelperContext(
    const Network& network) {
  auto context = contexts_.Take(network.id);
  // Fault site (tests): a helper parked while taking its context.
  STAQ_FAILPOINT("serve.zone_loop.helper_lease");
  if (context != nullptr) return context;
  // Counts the new context under the cap, evicting a pooled context of
  // another network when the cap is reached.
  size_t live = live_contexts_.load(std::memory_order_relaxed);
  while (true) {
    if (live >= context_cap_) {
      if (contexts_.TakeStale(network.id) == nullptr) return nullptr;
      live = live_contexts_.load(std::memory_order_relaxed);
    } else if (live_contexts_.compare_exchange_weak(
                   live, live + 1, std::memory_order_relaxed)) {
      return NewContext(network);
    }
  }
}

void AqServer::ReleaseContext(std::unique_ptr<WorkerContext> context) {
  // Owners may lease past the cap; the surplus dies on return instead of
  // pooling — a pooled context of another network in its place when there
  // is one — so an idle server holds at most context_cap_ contexts.
  if (live_contexts_.load(std::memory_order_relaxed) > context_cap_ &&
      contexts_.TakeStale(context->network_id) == nullptr) {
    return;
  }
  contexts_.Put(std::move(context));  // a context handed back dies here
}

void AqServer::Run(const Scenario& scenario, size_t n,
                   const ZoneLoopBody& body) {
  if (n == 0) return;
  const Network network = NetworkOf(scenario);
  // Dropped instead of returned to the pool when a body throws on it.
  std::unique_ptr<WorkerContext> own = AcquireContext(network);
  core::LabelingEngine* caller = &own->engine;
  if (context_cap_ <= 1) {
    // No spare context, so no helper could ever join: the caller runs
    // every item, and a one-worker server never starts the idle pool.
    for (size_t index = 0; index < n; ++index) {
      STAQ_FAILPOINT("serve.zone_loop.caller");
      body(*caller, index)();
    }
    ReleaseContext(std::move(own));
    return;
  }
  /// A helper's context, returned to the pool when the helper ends —
  /// unless a body threw on it (possibly half-built engine state).
  struct HelperLease {
    ~HelperLease() {
      if (context == nullptr) return;
      // Fault site (tests): a helper parked on its way out of the loop.
      try {
        STAQ_FAILPOINT("serve.zone_loop.helper_release");
      } catch (...) {
      }
      if (!failed) server->ReleaseContext(std::move(context));
    }
    AqServer* server = nullptr;
    std::unique_ptr<WorkerContext> context;
    bool failed = false;
  };

  // Helpers come from the hardware: one per core besides the caller's,
  // and never more than the spare contexts the cap leaves.
  util::ThreadPool& idle = util::ThreadPool::Idle();
  const size_t max_helpers =
      std::min(std::max<size_t>(1, idle.num_threads() - 1), context_cap_ - 1);
  // Everything the participants capture is owned: a straggling helper may
  // still be running after this returns (util/parallel_loop.h).
  util::ParallelLoop(
      idle, n, max_helpers,
      [this, caller, body, network,
       pin = helper_pins_.Pin()](bool helper) -> util::LoopTask {
        if (!helper) {
          // Used on this thread only, before ParallelLoop returns.
          return [caller, &body](size_t index) -> util::LoopStore {
            // Fault site (tests): parks or fails the owning thread.
            STAQ_FAILPOINT("serve.zone_loop.caller");
            return body(*caller, index);
          };
        }
        auto lease = std::make_shared<HelperLease>();
        lease->server = this;
        lease->context = TryAcquireHelperContext(network);
        if (lease->context == nullptr) return {};  // no spare context
        return [lease, body](size_t index) -> util::LoopStore {
          try {
            // Fault site: a helper failing (or stalling) holding a zone.
            STAQ_FAILPOINT("serve.zone_loop.helper");
            return body(lease->context->engine, index);
          } catch (...) {
            lease->failed = true;
            throw;
          }
        };
      });
  ReleaseContext(std::move(own));
}

AqTicket AqServer::Submit(const AqRequest& request) {
  AqTicket ticket;
  Admit(&request, &ticket, 1, /*batch=*/false);
  return ticket;
}

util::Result<core::AccessQueryResult> AqServer::Query(
    const AqRequest& request) {
  return Submit(request).Get();
}

std::vector<AqTicket> AqServer::SubmitBatch(const AqBatchRequest& batch) {
  std::vector<AqRequest> derived = ExpandBatch(batch);
  std::vector<AqTicket> tickets(derived.size());
  Admit(derived.data(), tickets.data(), derived.size(), /*batch=*/true);
  return tickets;
}

std::vector<util::Result<core::AccessQueryResult>> AqServer::QueryBatch(
    const AqBatchRequest& batch) {
  std::vector<AqTicket> tickets = SubmitBatch(batch);
  std::vector<util::Result<core::AccessQueryResult>> out;
  out.reserve(tickets.size());
  for (AqTicket& ticket : tickets) out.push_back(ticket.Get());
  return out;
}

void AqServer::Admit(const AqRequest* requests, AqTicket* tickets, size_t n,
                     bool batch) {
  if (n == 0) return;
  submitted_.fetch_add(n, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    tickets[i].server_ = this;
    tickets[i].promise_ = std::make_shared<AqTicket::Promise>();
    tickets[i].future_ = tickets[i].promise_->get_future();
  }

  // Admission is all-or-nothing: a batch is one burst of work, so either
  // every member is accepted or every ticket carries one status to retry
  // against.
  for (size_t i = 0; i < n; ++i) {
    util::Status checked = CheckRequest(requests[i]);
    if (!checked.ok()) return Refuse(tickets, n, checked, &failed_);
  }
  if (pool_.PendingTasks() >= options_.max_pending) {
    return Refuse(tickets, n,
                  util::Status::ResourceExhausted(
                      "serve queue full (" +
                      std::to_string(options_.max_pending) + " pending)"),
                  &rejected_);
  }
  if (ShouldShed()) {
    return Refuse(tickets, n,
                  util::Status::Unavailable(
                      "request shed: estimated queue delay exceeds the "
                      "admission budget"),
                  &shed_);
  }

  // The snapshot is captured at admission: every request answers against
  // the epoch it was accepted under, whatever mutations land meanwhile.
  auto snapshot = store_.Acquire();
  const util::Clock::TimePoint submitted_at = clock_->Now();
  for (size_t i = 0; i < n; ++i) tickets[i].epoch_ = snapshot->epoch();

  // Exact batch members of one (category, seed) — a contiguous run, as
  // ExpandBatch orders category-major then seed — share one labeling pass
  // in one task; their tickets have no queue slot of their own to cancel.
  // Every other request is a task of its own with a cancel handle.
  for (size_t begin = 0, end; begin < n; begin = end) {
    end = begin + 1;
    const bool grouped = batch && requests[begin].options.exact;
    while (grouped && end < n &&
           requests[end].category == requests[begin].category &&
           requests[end].options.seed == requests[begin].options.seed) {
      ++end;
    }
    try {
      if (grouped) {
        std::vector<PromisePtr> promises;
        promises.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          promises.push_back(tickets[i].promise_);
        }
        pool_.SubmitHandle(
            [this, group = std::vector<AqRequest>(requests + begin,
                                                  requests + end),
             submitted_at, snapshot,
             promises = std::move(promises)]() mutable {
              RunTask(submitted_at, group.front().deadline_s, promises.data(),
                      promises.size(), [&](Task& task) {
                        AnswerGroup(group, *snapshot, task);
                      });
            });
      } else {
        tickets[begin].handle_ = pool_.SubmitHandle(
            [this, request = requests[begin], submitted_at, snapshot,
             promise = tickets[begin].promise_]() mutable {
              RunTask(submitted_at, request.deadline_s, &promise, 1,
                      [&](Task& task) {
                        Resolve(task, 0,
                                Execute(request, *snapshot,
                                        /*use_caches=*/true));
                      });
            });
      }
    } catch (...) {
      // Enqueue failed (injected fault): nothing reached the pool, so the
      // tickets own their promises — resolve them instead of hanging Get().
      Refuse(tickets + begin, end - begin, StatusFromException("submission"),
             &failed_);
    }
  }
}

void AqServer::Refuse(AqTicket* tickets, size_t n, const util::Status& status,
                      std::atomic<uint64_t>* counter) {
  counter->fetch_add(n, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) tickets[i].promise_->set_value(status);
}

bool AqServer::ShouldShed() const {
  if (options_.max_queue_delay_s <= 0.0) return false;
  const double ewma = service_ewma_s_.load(std::memory_order_relaxed);
  if (ewma <= 0.0) return false;  // no completed task yet: nothing to estimate
  const double workers = static_cast<double>(pool_.num_threads());
  const double estimated_delay_s =
      static_cast<double>(pool_.PendingTasks()) * ewma / workers;
  return estimated_delay_s > options_.max_queue_delay_s;
}

void AqServer::NoteServiceTime(double seconds) {
  constexpr double kAlpha = 0.2;  // the last ~5 tasks dominate the estimate
  const double prev = service_ewma_s_.load(std::memory_order_relaxed);
  const double next =
      prev <= 0.0 ? seconds : (1.0 - kAlpha) * prev + kAlpha * seconds;
  service_ewma_s_.store(next, std::memory_order_relaxed);
}

template <typename Body>
void AqServer::RunTask(util::Clock::TimePoint submitted_at, double deadline_s,
                       PromisePtr* promises, size_t n, Body&& body) {
  // An expired task does no work and feeds no service time: its near-zero
  // "service" would drag the shedding estimate toward zero exactly when the
  // server is most overloaded. Batch members share their template's
  // deadline.
  if (deadline_s > 0.0 && clock_->SecondsSince(submitted_at) > deadline_s) {
    deadline_exceeded_.fetch_add(n, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      promises[i]->set_value(util::Status::DeadlineExceeded(
          "deadline expired before execution started"));
    }
    return;
  }
  Task task{promises, n, util::Stopwatch(clock_)};
  try {
    body(task);
  } catch (...) {
    // Degrade into a clean status: every promise must be fulfilled or
    // Get() would hang forever.
    const util::Status status = StatusFromException("query execution");
    for (size_t i = 0; i < n; ++i) {
      if (promises[i] != nullptr) Resolve(task, i, status);
    }
  }
}

void AqServer::Resolve(Task& task, size_t i,
                       util::Result<core::AccessQueryResult> result) {
  (result.ok() ? completed_ : failed_)
      .fetch_add(1, std::memory_order_relaxed);
  // Noted before the last answer is handed out, so a caller that has its
  // answer submits against an estimate that includes this task.
  if (--task.unresolved == 0) NoteServiceTime(task.watch.ElapsedSeconds());
  task.promises[i]->set_value(std::move(result));
  task.promises[i].reset();
}

std::optional<core::AccessQueryResult> AqServer::CachedAnswer(
    const std::string& key, const util::Stopwatch& watch) {
  std::optional<core::AccessQueryResult> answer;
  if (auto cached = cache_.Get(key)) {
    answer = *cached;
    answer->elapsed_s = watch.ElapsedSeconds();
  }
  return answer;
}

void AqServer::FinishAnswer(const Scenario& scenario, const std::string& key,
                            const util::Stopwatch& watch,
                            core::AccessQueryResult* result) {
  core::FinalizeAccessQueryResult(scenario.base_city().zones, result);
  result->elapsed_s = watch.ElapsedSeconds();
  if (key.empty()) return;
  try {
    cache_.Put(key, std::make_shared<const core::AccessQueryResult>(*result));
  } catch (...) {
    // A failed insert (injected fault) costs a future cache hit, never the
    // already-computed answer.
  }
}

util::Result<core::AccessQueryResult> AqServer::QueryUncached(
    const AqRequest& request) {
  auto snapshot = store_.Acquire();
  return QueryUncachedOn(*snapshot, request);
}

util::Result<core::AccessQueryResult> AqServer::QueryUncachedOn(
    const Scenario& scenario, const AqRequest& request) {
  util::Status checked = CheckRequest(request);
  if (!checked.ok()) return checked;
  try {
    return Execute(request, scenario, /*use_caches=*/false);
  } catch (...) {
    return StatusFromException("uncached query");
  }
}

void AqServer::AnswerGroup(const std::vector<AqRequest>& requests,
                           const Scenario& scenario, Task& task) {
  util::Stopwatch watch(clock_);
  std::vector<std::string> keys(requests.size());
  std::vector<size_t> missing;
  for (size_t i = 0; i < requests.size(); ++i) {
    keys[i] = CacheKey(scenario, requests[i]);
    if (auto cached = CachedAnswer(keys[i], watch)) {
      Resolve(task, i, std::move(*cached));
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) return;

  const AqRequest& head = requests.front();
  const std::vector<synth::Poi> pois = scenario.PoisOf(head.category);
  if (pois.empty()) {
    for (size_t i : missing) {
      Resolve(task, i, util::Status::NotFound(
                           "no POIs of requested category in scenario"));
    }
    return;
  }
  // One capture pass for the whole group: a journey-time labeling of the
  // group's edit-stable TODAM, built and labeled exactly like a label
  // state, that captures every trip's cost basis. Journeys do
  // not depend on the cost definition, so the pass stands in for each
  // member's own — including its SPQ count — and every member's labels
  // derive columnarly, bit-identical to the single-request path.
  LabelKey key = LabelKeyFor(head);
  key.cost = core::CostKind::kJourneyTime;
  auto state = ExactLabelState::Unlabeled(scenario.StableTodam(key, pois));
  auto columns = std::make_shared<core::TripCostColumns>();
  scenario.LabelZoneBlocks(*this, key, state,
                           AllZones(scenario.base_city().zones.size()),
                           columns);
  exact_state_builds_.fetch_add(1, std::memory_order_relaxed);

  std::vector<double> member_costs;
  for (size_t i : missing) {
    core::AccessQueryResult result;
    result.gravity_trips = state->todam.num_trips();
    result.spqs = state->todam.num_trips();  // one SPQ per trip
    core::MemberCostColumn(
        *columns,
        core::CostMember{requests[i].options.cost, requests[i].options.gac},
        &member_costs);
    core::SetZoneMeasures(core::AggregateZoneLabels(*columns, member_costs),
                          &result);
    FinishAnswer(scenario, keys[i], watch, &result);
    Resolve(task, i, std::move(result));
  }
}

class AqServer::LeasedSerialLoop : public ZoneLoop {
 public:
  explicit LeasedSerialLoop(AqServer& server) : server_(server) {}

  void Run(const Scenario& scenario, size_t n,
           const ZoneLoopBody& body) override {
    auto context = server_.AcquireContext(NetworkOf(scenario));
    SerialZoneLoop(context->engine).Run(scenario, n, body);
    server_.ReleaseContext(std::move(context));
  }

 private:
  AqServer& server_;
};

util::Result<core::AccessQueryResult> AqServer::Execute(
    const AqRequest& request, const Scenario& scenario, bool use_caches) {
  util::Stopwatch watch(clock_);

  std::string cache_key;
  if (use_caches) {
    cache_key = CacheKey(scenario, request);
    if (auto cached = CachedAnswer(cache_key, watch)) {
      return std::move(*cached);
    }
  }

  std::vector<synth::Poi> pois = scenario.PoisOf(request.category);
  if (pois.empty()) {
    return util::Status::NotFound("no POIs of requested category in scenario");
  }

  // Zones label through the serving loop, or uncached on one leased context.
  LeasedSerialLoop leased(*this);
  ZoneLoop& loop = use_caches ? static_cast<ZoneLoop&>(*this) : leased;

  const LabelKey key = LabelKeyFor(request);
  core::AccessQueryResult result;
  if (request.options.exact) {
    bool built = !use_caches;
    std::shared_ptr<const ExactLabelState> state =
        use_caches ? scenario.GetOrBuildLabelState(key, loop, &built)
                   : scenario.BuildLabelState(key, loop);
    if (built) exact_state_builds_.fetch_add(1, std::memory_order_relaxed);
    // One SPQ per trip, however the state was built, patched or restored.
    result.gravity_trips = state->todam.num_trips();
    result.spqs = state->todam.num_trips();
    core::SetZoneMeasures(state->labels, &result);
  } else {
    // SSR path: the TODAM uses the same edit-stable construction as the
    // exact path, so SSR answers are deterministic functions of the
    // scenario (cacheable per epoch) and comparable across epochs.
    core::Todam todam = scenario.StableTodam(key, pois);
    result.gravity_trips = todam.num_trips();

    core::PipelineConfig config;
    config.beta = request.options.beta;
    config.model = request.options.model;
    config.cost = request.options.cost;
    config.gac = request.options.gac;
    config.seed = request.options.seed;
    // The feature matrix depends only on the epoch, the category and the
    // decay scale, so it comes from the scenario's memo; the uncached
    // reference extracts it afresh from the TODAM's α rows.
    std::shared_ptr<const ml::Matrix> features;
    if (use_caches) {
      bool built = false;
      features = scenario.GetOrBuildZoneFeatures(
          ZoneFeatureKey{request.category,
                         request.options.gravity.decay_scale_m},
          todam.alpha(), &built);
      if (built) ssr_feature_builds_.fetch_add(1, std::memory_order_relaxed);
    }
    // The two targets' fits may split over one idle-priority helper, as a
    // cold build's zones do; a one-worker server never starts the idle
    // pool, and the uncached oracle fits both on this thread.
    util::ThreadPool* fit_helpers =
        use_caches && context_cap_ > 1 ? &util::ThreadPool::Idle() : nullptr;
    auto run = scenario.AnswerSsr(loop, request.category, todam, config,
                                  features.get(), fit_helpers);
    if (!run.ok()) return run.status();
    result.spqs = run.value().spqs;
    result.mac = std::move(run.value().mac);
    result.acsd = std::move(run.value().acsd);
  }

  FinishAnswer(scenario, cache_key, watch, &result);
  return result;
}

ServerStats AqServer::stats() const {
  ServerStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_evictions = cache_.evictions();
  stats.exact_state_builds =
      exact_state_builds_.load(std::memory_order_relaxed);
  stats.ssr_feature_builds =
      ssr_feature_builds_.load(std::memory_order_relaxed);
  stats.mutations = mutations_.load(std::memory_order_relaxed);
  stats.states_patched = states_patched_.load(std::memory_order_relaxed);
  stats.zones_relabeled = zones_relabeled_.load(std::memory_order_relaxed);
  stats.patch_spqs = patch_spqs_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace staq::serve
