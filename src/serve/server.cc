#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <numeric>
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

/// Builds the server's ScenarioStore, preferring a snapshot warm start.
/// Both branches return a prvalue, so guaranteed copy elision constructs
/// the non-movable store directly in AqServer::store_ — no move happens.
ScenarioStore MakeStore(synth::City&& city, const gtfs::TimeInterval& interval,
                        const AqServer::Options& options, bool* warm_started) {
  if (!options.warm_start_path.empty()) {
    auto restored = store::LoadSnapshot(options.warm_start_path);
    if (restored.ok()) {
      *warm_started = true;
      return ScenarioStore(std::move(restored).value(), options.scenario);
    }
    util::LogWarning("warm start from '" + options.warm_start_path +
                     "' failed (" + restored.status().ToString() +
                     "); falling back to cold build");
  }
  return ScenarioStore(std::move(city), interval, options.scenario);
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
      store_(MakeStore(std::move(city), interval, options, &warm_started_)),
      cache_([&options, this] {
        // The result cache ages on the server's clock unless the caller
        // wired a dedicated one.
        ResultCache::Options cache_options = options.cache;
        if (cache_options.clock == nullptr) cache_options.clock = clock_;
        return cache_options;
      }()),
      context_cap_(ResolveThreads(options.num_threads)),
      contexts_(context_cap_),
      pool_(context_cap_) {
  if (options_.perturb.has_value()) {
    pool_.EnablePerturbation(*options_.perturb);
  }
  // Patches label through this server's contexts and helpers.
  store_.SetZoneLoop(this);
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

void AqServer::Run(const Scenario& scenario, core::LabelingEngine* caller,
                   size_t n, const ZoneLoopBody& body) {
  if (n == 0) return;
  const Network network = NetworkOf(scenario);
  std::unique_ptr<WorkerContext> own;
  if (caller == nullptr) {
    own = AcquireContext(network);
    caller = &own->engine;
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
  util::LoopOptions loop;
  loop.max_helpers =
      std::min(std::max<size_t>(1, idle.num_threads() - 1), context_cap_ - 1);
  loop.takeover = true;
  // Everything the participants capture is owned: a straggling helper may
  // still be running after this returns (util/parallel_loop.h).
  util::ParallelLoop(
      idle, n, loop,
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
  if (own != nullptr) ReleaseContext(std::move(own));
}

AqTicket AqServer::Submit(const AqRequest& request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);

  AqTicket ticket;
  ticket.server_ = this;
  ticket.promise_ = std::make_shared<AqTicket::Promise>();
  ticket.future_ = ticket.promise_->get_future();

  if (pool_.PendingTasks() >= options_.max_pending) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ticket.promise_->set_value(util::Status::ResourceExhausted(
        "serve queue full (" + std::to_string(options_.max_pending) +
        " pending)"));
    return ticket;
  }

  if (ShouldShed()) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    ticket.promise_->set_value(util::Status::Unavailable(
        "request shed: estimated queue delay exceeds the admission budget"));
    return ticket;
  }

  // The snapshot is captured at admission: the request answers against the
  // epoch it was accepted under, whatever mutations land meanwhile.
  auto snapshot = store_.Acquire();
  ticket.epoch_ = snapshot->epoch();
  auto submitted_at = clock_->Now();
  auto promise = ticket.promise_;
  try {
    ticket.handle_ = pool_.SubmitHandle(
        [this, request, submitted_at, snapshot = std::move(snapshot),
         promise]() { RunRequest(request, submitted_at, snapshot, promise); });
  } catch (...) {
    // Enqueue failed (injected fault): nothing reached the pool, so the
    // ticket owns the promise — resolve it instead of hanging Get().
    failed_.fetch_add(1, std::memory_order_relaxed);
    promise->set_value(StatusFromException("submission"));
  }
  return ticket;
}

util::Result<core::AccessQueryResult> AqServer::Query(
    const AqRequest& request) {
  return Submit(request).Get();
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

std::vector<AqTicket> AqServer::SubmitBatch(const AqBatchRequest& batch) {
  std::vector<AqRequest> derived = ExpandBatch(batch);
  std::vector<AqTicket> tickets(derived.size());
  if (derived.empty()) return tickets;
  submitted_.fetch_add(derived.size(), std::memory_order_relaxed);
  for (AqTicket& ticket : tickets) {
    ticket.server_ = this;
    ticket.promise_ = std::make_shared<AqTicket::Promise>();
    ticket.future_ = ticket.promise_->get_future();
  }

  // Admission is all-or-nothing: a batch is one burst of work, so either
  // the whole sweep is accepted or the caller gets a uniform backpressure
  // signal to retry against.
  if (pool_.PendingTasks() >= options_.max_pending) {
    rejected_.fetch_add(derived.size(), std::memory_order_relaxed);
    for (AqTicket& ticket : tickets) {
      ticket.promise_->set_value(util::Status::ResourceExhausted(
          "serve queue full (" + std::to_string(options_.max_pending) +
          " pending)"));
    }
    return tickets;
  }
  if (ShouldShed()) {
    shed_.fetch_add(derived.size(), std::memory_order_relaxed);
    for (AqTicket& ticket : tickets) {
      ticket.promise_->set_value(util::Status::Unavailable(
          "batch shed: estimated queue delay exceeds the admission budget"));
    }
    return tickets;
  }

  auto snapshot = store_.Acquire();
  auto submitted_at = clock_->Now();
  for (AqTicket& ticket : tickets) ticket.epoch_ = snapshot->epoch();

  if (!batch.request.options.exact) {
    // SSR members train per-member models and share no labeling pass:
    // each derived request runs as an ordinary individual task (and keeps
    // an individual cancellation handle).
    for (size_t i = 0; i < derived.size(); ++i) {
      auto promise = tickets[i].promise_;
      try {
        tickets[i].handle_ = pool_.SubmitHandle(
            [this, request = derived[i], submitted_at, snapshot, promise]() {
              RunRequest(request, submitted_at, snapshot, promise);
            });
      } catch (...) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        promise->set_value(StatusFromException("submission"));
      }
    }
    return tickets;
  }

  // Exact members: ExpandBatch orders category-major then seed, so each
  // (category, seed) group — the unit that shares one labeling pass — is a
  // contiguous run. One worker task per group.
  size_t begin = 0;
  while (begin < derived.size()) {
    size_t end = begin + 1;
    while (end < derived.size() &&
           derived[end].category == derived[begin].category &&
           derived[end].options.seed == derived[begin].options.seed) {
      ++end;
    }
    std::vector<AqRequest> group(derived.begin() + begin,
                                 derived.begin() + end);
    std::vector<std::shared_ptr<AqTicket::Promise>> group_promises;
    group_promises.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      group_promises.push_back(tickets[i].promise_);
    }
    try {
      pool_.SubmitHandle([this, group = std::move(group), submitted_at,
                          snapshot, promises = std::move(group_promises)]() {
        RunBatchGroup(group, submitted_at, snapshot, promises);
      });
    } catch (...) {
      util::Status status = StatusFromException("submission");
      for (size_t i = begin; i < end; ++i) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        tickets[i].promise_->set_value(status);
      }
    }
    begin = end;
  }
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

util::Result<core::AccessQueryResult> AqServer::QueryUncached(
    const AqRequest& request) {
  auto snapshot = store_.Acquire();
  return QueryUncachedOn(*snapshot, request);
}

util::Result<core::AccessQueryResult> AqServer::QueryUncachedOn(
    const Scenario& scenario, const AqRequest& request) {
  try {
    return Execute(request, scenario, /*use_caches=*/false);
  } catch (...) {
    return StatusFromException("uncached query");
  }
}

void AqServer::RunRequest(const AqRequest& request,
                          util::Clock::TimePoint submitted_at,
                          std::shared_ptr<const Scenario> snapshot,
                          const std::shared_ptr<AqTicket::Promise>& promise) {
  util::Stopwatch service_watch(clock_);
  util::Result<core::AccessQueryResult> result =
      util::Status::Internal("unreachable");
  try {
    if (request.deadline_s > 0.0 &&
        clock_->SecondsSince(submitted_at) > request.deadline_s) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      promise->set_value(util::Status::DeadlineExceeded(
          "deadline expired before execution started"));
      return;
    }

    result = Execute(request, *snapshot, /*use_caches=*/true);
  } catch (...) {
    // Degrade into a clean status; the promise below must always be
    // fulfilled or Get() would hang forever.
    result = StatusFromException("query execution");
  }

  if (result.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  // Deadline-expired tasks returned above: their near-zero "service" time
  // would drag the shedding estimate toward zero exactly when the server
  // is most overloaded.
  NoteServiceTime(service_watch.ElapsedSeconds());
  promise->set_value(std::move(result));
}

void AqServer::RunBatchGroup(
    const std::vector<AqRequest>& requests,
    util::Clock::TimePoint submitted_at,
    std::shared_ptr<const Scenario> snapshot,
    const std::vector<std::shared_ptr<AqTicket::Promise>>& promises) {
  util::Stopwatch service_watch(clock_);
  std::vector<bool> fulfilled(requests.size(), false);
  // Resolves every still-pending member with one status; also the
  // degradation path for exceptions, so no waiter ever hangs.
  auto fail_remaining = [&](const util::Status& status,
                            std::atomic<uint64_t>* counter) {
    for (size_t i = 0; i < requests.size(); ++i) {
      if (fulfilled[i]) continue;
      counter->fetch_add(1, std::memory_order_relaxed);
      fulfilled[i] = true;
      promises[i]->set_value(status);
    }
  };

  try {
    // ExpandBatch copies the template's deadline into every member.
    const AqRequest& head = requests.front();
    if (head.deadline_s > 0.0 &&
        clock_->SecondsSince(submitted_at) > head.deadline_s) {
      fail_remaining(util::Status::DeadlineExceeded(
                         "deadline expired before execution started"),
                     &deadline_exceeded_);
      return;
    }

    util::Stopwatch watch(clock_);
    const std::string epoch_prefix =
        "e=" + std::to_string(snapshot->epoch()) + '|';
    std::vector<std::string> keys(requests.size());
    std::vector<size_t> missing;
    for (size_t i = 0; i < requests.size(); ++i) {
      keys[i] = epoch_prefix + CanonicalRequestKey(requests[i]);
      if (auto cached = cache_.Get(keys[i])) {
        core::AccessQueryResult result = *cached;
        result.elapsed_s = watch.ElapsedSeconds();
        completed_.fetch_add(1, std::memory_order_relaxed);
        fulfilled[i] = true;
        promises[i]->set_value(std::move(result));
      } else {
        missing.push_back(i);
      }
    }

    if (!missing.empty()) {
      try {
        const synth::City& city = snapshot->base_city();
        // Shared, not local: the zone loop's body must own what it
        // touches (ZoneLoop contract).
        auto pois = std::make_shared<const std::vector<synth::Poi>>(
            snapshot->PoisOf(head.category));
        if (pois->empty()) {
          fail_remaining(util::Status::NotFound(
                             "no POIs of requested category in scenario"),
                         &failed_);
        } else {
          // One shared labeling pass for the whole group, mirroring
          // Scenario::BuildLabelState step for step (edit-stable TODAM
          // from frozen base-city norms), so every derived answer is
          // bit-identical to the single-request path. Journeys do not
          // depend on the cost definition, so the JT capture sweep stands
          // in for each member's own sweep — including its SPQ count.
          std::vector<double> zone_norm = core::StableGravityNormsColumnar(
              city.zones, city.PoisOf(head.category),
              head.options.gravity.decay_scale_m);
          core::TodamBuilder builder(city.zones, *pois, snapshot->interval(),
                                     head.options.gravity);
          auto todam = std::make_shared<const core::Todam>(
              builder.BuildGravityStable(head.options.seed, zone_norm));
          // Every zone's range is opened up front; each block of zones is
          // captured into columns of its own and stored into its zones'
          // ranges (consecutive zones, so one contiguous copy), so blocks
          // can be captured on any participant.
          auto shared_columns = std::make_shared<core::TripCostColumns>();
          const size_t num_zones = city.zones.size();
          for (uint32_t z = 0; z < num_zones; ++z) {
            shared_columns->AppendZone(todam->TripsFor(z).size());
          }
          const gtfs::Day day = snapshot->interval().day;
          Run(*snapshot, /*caller=*/nullptr, core::NumZoneBlocks(num_zones),
              [todam, pois, shared_columns, day, num_zones](
                  core::LabelingEngine& engine,
                  size_t i) -> std::function<void()> {
                const size_t first = i * core::kZoneBlock;
                const size_t n = std::min(core::kZoneBlock, num_zones - first);
                std::vector<uint32_t> zones(n);
                std::iota(zones.begin(), zones.end(),
                          static_cast<uint32_t>(first));
                std::vector<core::ZoneLabel> labels(n);
                auto block = std::make_shared<core::TripCostColumns>();
                engine.LabelBlock(*todam, zones.data(), n, *pois,
                                  core::CostKind::kJourneyTime, day,
                                  labels.data(), block.get());
                return [shared_columns, block, first] {
                  shared_columns->StoreZone(
                      shared_columns->zone_offsets[first], *block);
                };
              });
          const core::TripCostColumns& columns = *shared_columns;
          // One SPQ per captured trip.
          const uint64_t pass_spqs = columns.num_trips();
          exact_state_builds_.fetch_add(1, std::memory_order_relaxed);

          std::vector<double> member_costs;
          for (size_t i : missing) {
            const core::CostMember member{requests[i].options.cost,
                                          requests[i].options.gac};
            core::AccessQueryResult result;
            result.gravity_trips = todam->num_trips();
            result.spqs = pass_spqs;
            core::MemberCostColumn(columns, member, &member_costs);
            std::vector<core::ZoneLabel> labels =
                core::AggregateZoneLabels(columns, member_costs);
            result.mac.resize(labels.size());
            result.acsd.resize(labels.size());
            for (size_t z = 0; z < labels.size(); ++z) {
              result.mac[z] = labels[z].mac;
              result.acsd[z] = labels[z].acsd;
            }
            core::FinalizeAccessQueryResultColumnar(city.zones, &result);
            result.elapsed_s = watch.ElapsedSeconds();
            try {
              cache_.Put(keys[i], std::make_shared<const
                                      core::AccessQueryResult>(result));
            } catch (...) {
              // A failed insert costs a future hit, never the answer.
            }
            completed_.fetch_add(1, std::memory_order_relaxed);
            fulfilled[i] = true;
            promises[i]->set_value(std::move(result));
          }
        }
      } catch (...) {
        fail_remaining(StatusFromException("batch execution"), &failed_);
      }
    }
  } catch (...) {
    fail_remaining(StatusFromException("batch execution"), &failed_);
  }
  NoteServiceTime(service_watch.ElapsedSeconds());
}

util::Result<core::AccessQueryResult> AqServer::Execute(
    const AqRequest& request, const Scenario& scenario, bool use_caches) {
  util::Stopwatch watch(clock_);

  std::string cache_key;
  if (use_caches) {
    cache_key = "e=" + std::to_string(scenario.epoch()) + '|' +
                CanonicalRequestKey(request);
    if (auto cached = cache_.Get(cache_key)) {
      core::AccessQueryResult result = *cached;
      result.elapsed_s = watch.ElapsedSeconds();
      return result;
    }
  }

  std::vector<synth::Poi> pois = scenario.PoisOf(request.category);
  if (pois.empty()) {
    return util::Status::NotFound("no POIs of requested category in scenario");
  }

  const synth::City& city = scenario.base_city();
  core::AccessQueryResult result;
  if (request.options.exact) {
    LabelKey key = LabelKeyFor(request);
    std::shared_ptr<const ExactLabelState> state;
    if (use_caches) {
      // The zone loop leases the owning thread's context only on a build.
      bool built = false;
      state = scenario.GetOrBuildLabelState(key, /*engine=*/nullptr, &built,
                                            this);
      if (built) exact_state_builds_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // A throw drops the context with its possibly half-built state.
      auto context = AcquireContext(NetworkOf(scenario));
      state = scenario.BuildLabelState(key, &context->engine);
      ReleaseContext(std::move(context));
      exact_state_builds_.fetch_add(1, std::memory_order_relaxed);
    }
    result.gravity_trips = state->todam.num_trips();
    result.spqs = state->build_spqs;
    result.mac.resize(state->labels.size());
    result.acsd.resize(state->labels.size());
    for (size_t z = 0; z < state->labels.size(); ++z) {
      result.mac[z] = state->labels[z].mac;
      result.acsd[z] = state->labels[z].acsd;
    }
  } else {
    // SSR path: the TODAM uses the same edit-stable construction as the
    // exact path, so SSR answers are deterministic functions of the
    // scenario (cacheable per epoch) and comparable across epochs.
    std::vector<double> zone_norm = core::StableGravityNormsColumnar(
        city.zones, city.PoisOf(request.category),
        request.options.gravity.decay_scale_m);
    core::TodamBuilder builder(city.zones, pois, scenario.interval(),
                               request.options.gravity);
    core::Todam todam =
        builder.BuildGravityStable(request.options.seed, zone_norm);
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
    // Only labeling routes: the context goes back before the fits, so a
    // concurrent build's helpers can lease it meanwhile (DESIGN.md §16.4).
    // A throw drops the context with its possibly half-built state.
    auto context = AcquireContext(NetworkOf(scenario));
    auto sample = core::LabelSsrSample(
        city, *scenario.offline().features, &context->router, pois, todam,
        scenario.interval().day, config, features.get());
    ReleaseContext(std::move(context));
    if (!sample.ok()) return sample.status();
    // Fault site (tests): an SSR answer parked between labeling and fit.
    STAQ_FAILPOINT("serve.ssr.fit");
    auto run = core::FitSsr(std::move(sample).value(), config);
    if (!run.ok()) return run.status();
    result.mac = std::move(run.value().mac);
    result.acsd = std::move(run.value().acsd);
    result.spqs = run.value().spqs;
  }

  core::FinalizeAccessQueryResultColumnar(city.zones, &result);
  result.elapsed_s = watch.ElapsedSeconds();

  if (use_caches) {
    try {
      cache_.Put(cache_key,
                 std::make_shared<const core::AccessQueryResult>(result));
    } catch (...) {
      // A failed insert (injected fault) costs a future cache hit, never
      // the already-computed answer.
    }
  }
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
  stats.cache_expired = cache_.expired();
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
