// dashboard_mixed — independent dashboard users over one AqServer.
//
// Open loop with seeded Poisson arrivals: cached dashboard reads at
// 500/s, drawn uniformly from a warmed 128-key working set (4 categories
// x 16 cost members x 2 TODAM seeds; it fits the 512-entry result cache),
// and cold exact what-ifs with fresh seeds at 7.07/s. Both share the
// server's FIFO worker pool, so this workload exercises admission, the
// pool queue and the cache, and exposes head-of-line blocking: a cache hit
// queued behind cold label-state builds waits for them. (A pure cache-hit
// open loop is left out: at >= 5000/s it measures the scheduler.)
//
// After the main phase, capacity_exact_per_s climbs or descends a fixed
// geometric ladder of cold-exact rates (hits held at 500/s) from the main
// rate and reports the highest rung meeting all three limits: hit p99 <=
// 250 ms, nothing shed or rejected, and a backlog that drains within a
// second of the schedule's end.
//
// Before set-up, the generator checks itself against a stub target with
// known service times; a generator that misreports them fails the run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "common.h"
#include "openloop.h"
#include "serve/server.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace staqbench {
namespace {

/// At 1000 hits/s the 256-deep admission queue filled during any ~260 ms
/// in which four cold builds held all workers, so chance bursts of cold
/// arrivals rejected requests even at 7/s; 500/s leaves twice the room.
constexpr double kHitRate = 500.0;
constexpr double kSelfTestHitRate = 1000.0;
constexpr size_t kSeedsPerCategory = 2;
constexpr double kHitP99LimitMs = 250.0;
constexpr double kDrainLimitMs = 1000.0;
/// Cold-exact rates form the fixed ladder 10 x 2^(k/4) per second. The
/// main phase runs at rung k = -2 (7.07/s): at 10/s the hits queued behind
/// cold builds overflowed the server's 256-deep admission queue on a
/// 4-core machine, and a workload on which operations fail measures
/// rejections, not latency.
const double kLadderRatio = std::pow(2.0, 0.25);
const double kColdRate = 10.0 / (kLadderRatio * kLadderRatio);
constexpr int kMaxLadderSteps = 3;
/// Shares of --seconds spent on the main phase and on each ladder step;
/// 25 s gives the main phase the 100 cold exacts a p90 needs.
constexpr double kMainShare = 0.6;
constexpr double kStepShare = 0.2;
constexpr size_t kColdRechecks = 2;
constexpr size_t kHotRechecks = 2;

/// Per-layer metrics of a traced run.
const std::vector<MetricSpec> kLayerMetrics = {
    {"synth.build_city_ms", "ms"},   {"router.connections_build_ms", "ms"},
    {"serve.offline_build_ms", "ms"}, {"serve.queue_wait_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"}, {"serve.hit_service_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"}, {"serve.state_builds", "count"},
    {"serve.shed", "count"},          {"serve.rejected", "count"},
    {"gen.max_lag_ms", "ms"},         {"gen.late_share", "ratio"},
    {"trace.hit_overhead_ms", "ms"},
};

// --- generator self-test ------------------------------------------------------

/// Answers exactly `service_ms[i]` after request i is sent.
class StubTarget {
 public:
  using Ticket = SteadyClock::time_point;  // when the answer is ready
  struct Answer {};

  explicit StubTarget(std::vector<double> service_ms)
      : service_ms_(std::move(service_ms)) {}
  Ticket Submit(size_t i) {
    return SteadyClock::now() + FromMillis(service_ms_[i]);
  }
  Answer Wait(size_t, Ticket& ready) {
    std::this_thread::sleep_until(ready);
    return {};
  }
  bool Check(size_t, const Answer&) { return true; }

 private:
  std::vector<double> service_ms_;
};

/// Drives the generator against the stub for one second — hits at 1000/s
/// taking 0.2 ms, and pairs of cold requests (80 ms, then 30 ms sent 20 ms
/// later, so the second finishes first) every 200 ms — and checks every
/// reported latency against lag + known service time. Harvesting in
/// submission order would be off by tens of ms for many hits; the
/// tolerances leave room for scheduler wake-up jitter on a busy machine.
bool GeneratorSelfTest(uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> schedule = PoissonSchedule(&rng, kSelfTestHitRate, 0.0, 1.0);
  for (double t = 0.05; t < 1.0; t += 0.2) {
    schedule.push_back(Arrival{t, ArrivalClass::kCold});
    schedule.push_back(Arrival{t + 0.02, ArrivalClass::kCold});
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at_s < b.at_s;
                   });
  std::vector<double> service(schedule.size(), 0.2);
  bool long_next = true;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].cls != ArrivalClass::kCold) continue;
    service[i] = long_next ? 80.0 : 30.0;
    long_next = !long_next;
  }
  StubTarget stub(service);
  const OpenLoopResult result = RunOpenLoop(stub, schedule);
  std::vector<double> hit_error, cold_error;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const double error =
        std::abs(result.latency_ms[i] - result.lag_ms[i] - service[i]);
    (schedule[i].cls == ArrivalClass::kHit ? hit_error : cold_error)
        .push_back(error);
  }
  const double hit_p99 = Quantile(hit_error, 0.99);
  const double cold_max = Quantile(cold_error, 1.0);
  const bool pass = hit_p99 <= 10.0 && cold_max <= 10.0;
  std::fprintf(stderr,
               "generator self-test: stamp error hit p99 %.3f ms, cold max "
               "%.3f ms over %zu requests: %s\n",
               hit_p99, cold_max, schedule.size(), pass ? "PASS" : "FAIL");
  return pass;
}

// --- the server target ----------------------------------------------------------

/// One open-loop phase: the schedule plus, per arrival, its request and
/// (for a hit) the working-set key it reads.
struct Phase {
  double cold_rate = 0.0;
  std::vector<Arrival> schedule;
  std::vector<serve::AqRequest> requests;
  std::vector<int> key;  // working-set index, -1 for a cold request
};

Phase MakePhase(Rng* rng, const std::vector<serve::AqRequest>& hot,
                double cold_rate, double seconds,
                const core::GravityConfig& gravity, uint64_t* next_seed) {
  Phase phase;
  phase.cold_rate = cold_rate;
  phase.schedule = PoissonSchedule(rng, kHitRate, cold_rate, seconds);
  const std::vector<synth::PoiCategory> categories = Categories();
  size_t next_category = rng->Below(categories.size());
  for (const Arrival& arrival : phase.schedule) {
    if (arrival.cls == ArrivalClass::kHit) {
      const size_t k = rng->Below(hot.size());
      phase.requests.push_back(hot[k]);
      phase.key.push_back(static_cast<int>(k));
    } else {
      serve::AqRequest request;
      request.category = categories[next_category++ % categories.size()];
      request.options.exact = true;
      request.options.gravity = gravity;
      request.options.seed = (*next_seed)++;
      phase.requests.push_back(request);
      phase.key.push_back(-1);
    }
  }
  return phase;
}

class ServerTarget {
 public:
  using Ticket = serve::AqTicket;
  using Answer = util::Result<core::AccessQueryResult>;

  ServerTarget(serve::AqServer* server, const Phase* phase,
               const std::vector<core::AccessQueryResult>* reference)
      : server_(server),
        phase_(phase),
        reference_(reference),
        service_ms_(phase->schedule.size(), 0.0),
        code_(phase->schedule.size(), util::StatusCode::kOk),
        answers_(phase->schedule.size()) {}

  Ticket Submit(size_t i) { return server_->Submit(phase_->requests[i]); }
  Answer Wait(size_t, Ticket& ticket) { return ticket.Get(); }

  bool Check(size_t i, const Answer& answer) {
    if (!answer.ok()) {
      code_[i] = answer.status().code();
      return false;
    }
    service_ms_[i] = answer.value().elapsed_s * 1e3;
    const int key = phase_->key[i];
    if (key >= 0) {
      if (!SameAnswer(answer.value(), (*reference_)[key])) {
        wrong_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    } else if (keep_cold_) {
      answers_[i] = answer.value();
    }
    return true;
  }

  /// Keep cold answers so a sample can be re-checked after the phase.
  void KeepColdAnswers() { keep_cold_ = true; }
  const std::vector<double>& service_ms() const { return service_ms_; }
  const std::vector<core::AccessQueryResult>& answers() const {
    return answers_;
  }
  size_t wrong() const { return wrong_.load(); }
  size_t CountCode(util::StatusCode code) const {
    return static_cast<size_t>(std::count(code_.begin(), code_.end(), code));
  }

 private:
  serve::AqServer* server_;
  const Phase* phase_;
  const std::vector<core::AccessQueryResult>* reference_;
  bool keep_cold_ = false;
  std::vector<double> service_ms_;
  std::vector<util::StatusCode> code_;
  std::vector<core::AccessQueryResult> answers_;
  std::atomic<size_t> wrong_{0};
};

struct PhaseRun {
  OpenLoopResult result;
  std::vector<double> hit_ms, cold_ms;
  size_t failed = 0;
  size_t shed = 0, rejected = 0;
  bool meets_limits = false;
};

PhaseRun RunPhase(const Phase& phase, ServerTarget* target,
                  Report* report) {
  PhaseRun run;
  run.result = RunOpenLoop(*target, phase.schedule);
  run.hit_ms = run.result.Latencies(phase.schedule, ArrivalClass::kHit);
  run.cold_ms = run.result.Latencies(phase.schedule, ArrivalClass::kCold);
  for (uint8_t ok : run.result.ok) run.failed += ok ? 0 : 1;
  run.shed = target->CountCode(util::StatusCode::kUnavailable);
  run.rejected = target->CountCode(util::StatusCode::kResourceExhausted);
  if (target->wrong() > 0) {
    report->Wrong(std::to_string(target->wrong()) +
                  " cached reads differ from the first answer for their key");
  }
  run.meets_limits = run.failed == 0 &&
                     Quantile(run.hit_ms, 0.99) <= kHitP99LimitMs &&
                     run.result.drain_ms <= kDrainLimitMs;
  std::fprintf(stderr,
               "  cold %.2f/s: %zu sent, hit p50 %.3f p99 %.1f ms, cold p50 "
               "%.1f ms, failed %zu (shed %zu, rejected %zu), drain %.0f ms, "
               "max lag %.2f ms -> %s\n",
               phase.cold_rate, phase.schedule.size(),
               Quantile(run.hit_ms, 0.5), Quantile(run.hit_ms, 0.99),
               Quantile(run.cold_ms, 0.5), run.failed, run.shed, run.rejected,
               run.result.drain_ms, run.result.MaxLagMs(),
               run.meets_limits ? "meets limits" : "over limits");
  return run;
}

struct Setup {
  std::unique_ptr<serve::AqServer> server;
  std::vector<serve::AqRequest> hot;
  std::vector<core::AccessQueryResult> reference;
  double seconds = 0.0;
  double build_city_ms = 0.0;
};

/// City build, offline phase, and the warmed working set: one batch per
/// category answers every (seed, member) key in one labeling pass per seed
/// and fills the result cache; those first answers are the references
/// every later hit must equal.
Setup SetUp(const core::GravityConfig& gravity,
            const std::vector<uint64_t>& hot_seeds,
            const gtfs::TimeInterval& interval) {
  Setup setup;
  util::Stopwatch watch;
  synth::City city = BuildBenchCity();
  setup.build_city_ms = watch.ElapsedMillis();
  setup.server = std::make_unique<serve::AqServer>(
      std::move(city), interval, serve::AqServer::Options());
  std::vector<serve::AqTicket> tickets;
  for (synth::PoiCategory category : Categories()) {
    serve::AqBatchRequest batch;
    batch.request.category = category;
    batch.request.options.exact = true;
    batch.request.options.gravity = gravity;
    batch.seeds = hot_seeds;
    batch.cost_members = SweepMembers();
    const std::vector<serve::AqRequest> keys = serve::ExpandBatch(batch);
    setup.hot.insert(setup.hot.end(), keys.begin(), keys.end());
    for (serve::AqTicket& ticket : setup.server->SubmitBatch(batch)) {
      tickets.push_back(std::move(ticket));
    }
  }
  for (serve::AqTicket& ticket : tickets) {
    auto result = ticket.Get();
    if (!result.ok()) {
      std::fprintf(stderr, "working-set warm-up failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    setup.reference.push_back(std::move(result).value());
  }
  // One read of every key through the single-request path, so the first
  // timed hits find a warm cache and warm worker threads.
  for (const serve::AqRequest& request : setup.hot) {
    if (!setup.server->Query(request).ok()) {
      std::fprintf(stderr, "working-set read failed\n");
      std::exit(1);
    }
  }
  setup.seconds = watch.ElapsedSeconds();
  return setup;
}

/// Re-checks a seeded sample of working-set references and cold answers
/// against from-scratch recomputation, outside the timed window.
void Recheck(serve::AqServer* server, const Setup& setup, const Phase& phase,
             const ServerTarget& target, Rng* rng, Report* report) {
  for (size_t k = 0; k < kHotRechecks; ++k) {
    const size_t key = rng->Below(setup.hot.size());
    auto golden = server->QueryUncached(setup.hot[key]);
    if (!golden.ok() || !SameAnswer(golden.value(), setup.reference[key])) {
      report->Wrong("working-set key " + std::to_string(key) +
                    " differs from its from-scratch recomputation");
    }
  }
  std::vector<size_t> colds;
  for (size_t i = 0; i < phase.schedule.size(); ++i) {
    if (phase.key[i] < 0 && !target.answers()[i].mac.empty()) {
      colds.push_back(i);
    }
  }
  rng->Shuffle(&colds);
  for (size_t k = 0; k < std::min(kColdRechecks, colds.size()); ++k) {
    const size_t i = colds[k];
    auto golden = server->QueryUncached(phase.requests[i]);
    if (!golden.ok() || !SameAnswer(golden.value(), target.answers()[i])) {
      report->Wrong("cold exact " + std::to_string(i) +
                    " differs from its from-scratch recomputation");
    }
  }
}

}  // namespace

void RunDashboardMixed(const Args& args, Report* report) {
  if (!GeneratorSelfTest(args.seed)) {
    report->Wrong("open-loop generator misreported known service times");
    return;
  }
  const core::GravityConfig gravity = BenchGravity();
  Rng rng(args.seed);
  const uint64_t seed_base = rng.Next() >> 8;
  std::vector<uint64_t> hot_seeds;
  for (size_t s = 0; s < kSeedsPerCategory; ++s) {
    hot_seeds.push_back(seed_base + s);
  }
  uint64_t next_seed = seed_base + kSeedsPerCategory;

  std::vector<double> setup_s;
  Setup setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup = Setup();  // tear the previous set-up down first
    setup = SetUp(gravity, hot_seeds, args.interval);
    setup_s.push_back(setup.seconds);
  }
  serve::AqServer& server = *setup.server;

  // Every schedule is drawn before the first timed send.
  const double main_s = kMainShare * args.seconds;
  const double step_s = kStepShare * args.seconds;
  const Phase main_phase =
      MakePhase(&rng, setup.hot, kColdRate, main_s, gravity, &next_seed);
  std::vector<Phase> up, down;
  double rate = kColdRate;
  for (int k = 0; k < kMaxLadderSteps; ++k) {
    rate *= kLadderRatio;
    up.push_back(MakePhase(&rng, setup.hot, rate, step_s, gravity,
                           &next_seed));
  }
  rate = kColdRate;
  for (int k = 0; k < kMaxLadderSteps; ++k) {
    rate /= kLadderRatio;
    down.push_back(MakePhase(&rng, setup.hot, rate, step_s, gravity,
                             &next_seed));
  }
  const Phase traced_phase =
      MakePhase(&rng, setup.hot, kColdRate, main_s, gravity, &next_seed);
  std::fprintf(stderr,
               "dashboard_mixed: %zu working-set keys, %zu workers, main "
               "phase %.1f s\n",
               setup.hot.size(), server.num_threads(), main_s);

  ServerTarget main_target(&server, &main_phase, &setup.reference);
  main_target.KeepColdAnswers();
  const PhaseRun main_run =
      RunPhase(main_phase, &main_target, report);
  report->attempted += main_phase.schedule.size();
  report->failed += main_run.failed;

  if (!args.trace) {
    // Capacity: climb from the main rate while every limit holds, or
    // descend until one rung meets them all.
    double capacity = 0.0;
    const std::vector<Phase>& ladder = main_run.meets_limits ? up : down;
    if (main_run.meets_limits) capacity = kColdRate;
    for (const Phase& step : ladder) {
      ServerTarget target(&server, &step, &setup.reference);
      const PhaseRun run = RunPhase(step, &target, report);
      if (run.meets_limits) capacity = std::max(capacity, step.cold_rate);
      if (run.meets_limits != main_run.meets_limits) break;
    }
    if (capacity == 0.0) {
      // Not even the lowest rung tried met the limits: report half of it.
      capacity = down.back().cold_rate / 2.0;
    }
    report->Add("setup_s", Quantile(setup_s, 0.5), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("exact_p50_ms", Quantile(main_run.cold_ms, 0.5), "ms");
    report->Add("exact_p90_ms", Quantile(main_run.cold_ms, 0.9), "ms");
    report->Add("hit_p50_ms", Quantile(main_run.hit_ms, 0.5), "ms");
    report->Add("hit_p99_ms", Quantile(main_run.hit_ms, 0.99), "ms");
    report->Add("capacity_exact_per_s", capacity, "1/s");
    std::fprintf(stderr, "samples: hit %zu, exact %zu\n",
                 main_run.hit_ms.size(), main_run.cold_ms.size());
    Recheck(&server, setup, main_phase, main_target, &rng, report);
    return;
  }

  // Traced run: the same phase shape again, with a span per request from
  // its scheduled send to its answer, and a child span covering the
  // server-reported execution, so the parent's self time is the queue wait.
  const serve::ServerStats before = server.stats();
  ServerTarget traced_target(&server, &traced_phase, &setup.reference);
  const PhaseRun traced = RunPhase(traced_phase, &traced_target, report);
  const serve::ServerStats after = server.stats();
  report->attempted += traced_phase.schedule.size();
  report->failed += traced.failed;
  Recheck(&server, setup, main_phase, main_target, &rng, report);

  Tracer tracer(true);
  Tracer::Buffer* buffer = tracer.NewBuffer();
  std::vector<double> hit_service;
  for (size_t i = 0; i < traced_phase.schedule.size(); ++i) {
    if (!traced.result.ok[i]) continue;
    const auto due = traced.result.start +
                     std::chrono::duration_cast<SteadyClock::duration>(
                         std::chrono::duration<double>(
                             traced_phase.schedule[i].at_s));
    const auto done = due + FromMillis(traced.result.latency_ms[i]);
    const double service = traced_target.service_ms()[i];
    const uint64_t root = buffer->Record(
        traced_phase.key[i] >= 0 ? "serve.hit" : "serve.cold", i + 1, 0, due,
        done);
    buffer->Record("serve.execute", i + 1, root, done - FromMillis(service),
                   done);
    if (traced_phase.key[i] >= 0) hit_service.push_back(service);
  }
  const auto self = tracer.SelfTimesMs();
  std::vector<double> queue_wait;
  for (const char* name : {"serve.hit", "serve.cold"}) {
    auto it = self.find(name);
    if (it != self.end()) {
      queue_wait.insert(queue_wait.end(), it->second.begin(),
                        it->second.end());
    }
  }
  std::map<std::string, double> layers;
  layers["synth.build_city_ms"] = setup.build_city_ms;
  if (server.router_options().connections != nullptr) {
    layers["router.connections_build_ms"] =
        server.router_options().connections->build_seconds() * 1e3;
  }
  layers["serve.offline_build_ms"] =
      server.Snapshot()->offline().build_seconds * 1e3;
  layers["serve.queue_wait_ms"] = Quantile(queue_wait, 0.5);
  layers["serve.queue_wait_p99_ms"] = Quantile(queue_wait, 0.99);
  layers["serve.hit_service_ms"] = Quantile(hit_service, 0.5);
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t misses = after.cache_misses - before.cache_misses;
  layers["serve.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  layers["serve.state_builds"] =
      static_cast<double>(after.exact_state_builds - before.exact_state_builds);
  layers["serve.shed"] = static_cast<double>(after.shed - before.shed);
  layers["serve.rejected"] =
      static_cast<double>(after.rejected - before.rejected);
  layers["gen.max_lag_ms"] = traced.result.MaxLagMs();
  layers["gen.late_share"] = traced.result.LateShare();
  layers["trace.hit_overhead_ms"] =
      Quantile(traced.hit_ms, 0.5) - Quantile(main_run.hit_ms, 0.5);
  AddMetrics(kLayerMetrics, layers, report);
  if (!args.trace_file.empty() && !tracer.WriteJsonLines(args.trace_file)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_file.c_str());
  }
}

}  // namespace staqbench
