// whatif_cold — two analysts running cold what-if access queries.
//
// Closed loop: two client threads share one AqServer (default options) and
// each waits for its answer before sending the next request. Every request
// carries a fresh TODAM seed, so it misses the result cache and the
// label-state memo: routing, labeling, SSR feature extraction and training
// and the columnar sweep do nearly all the work; admission and the cache
// almost none. One block of the mix, drawn from the workload seed before
// the timed window, holds
//   * 50 exact AQs, balanced over the 4 POI categories;
//   * 60 SSR AQs over {OLS, COREG, MLP} x beta {0.05, 0.10} x category;
//   * 16 sixteen-member cost sweeps (JT + 15 GAC variants), four per
//     category, through AqServer::QueryBatch.
// SSR latency has three modes: OLS/COREG off `school` (~50-110 ms), MLP
// off `school` (two ~115 ms fits), and anything on `school` (feature
// extraction over its 87 POIs alone costs ~270 ms). The SSR shares are
// fixed at 60/20/20 so p50 sits inside the fast mode and p90 inside the
// `school` mode, 10 points from either boundary.
//
// The traced run spends half its budget on an untraced mix and half on a
// second mix of the same shape whose every answer is followed by a replay
// of the request's decomposition on the client thread, through the public
// calls the server makes, with one span per layer.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "common.h"
#include "core/features.h"
#include "core/labeling.h"
#include "core/sampling.h"
#include "core/todam.h"
#include "ml/model_factory.h"
#include "router/router.h"
#include "serve/server.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace staqbench {
namespace {

constexpr int kClients = 2;
/// One block takes about this long with two clients on 4 cores; a phase
/// of s seconds runs round(s / this) blocks, at least one.
constexpr double kSecondsPerBlock = 12.5;
constexpr int kExactPerBlock = 50;
/// Per block; 16 sweeps a block keep the sweep p50 from resting on a
/// handful of samples.
constexpr int kSweepsPerCategory = 4;
/// Per-block repeats of each SSR combination, by latency mode.
constexpr int kFastSsrRepeats = 3;    // OLS, COREG off school: 36
constexpr int kMlpSsrRepeats = 2;     // MLP off school: 12
constexpr int kSchoolSsrRepeats = 2;  // every model on school: 12
/// Sampled answers re-checked against QueryUncached per kind.
constexpr size_t kRechecksPerKind = 2;
/// The replayed todam + labeling + measures must land within this share of
/// the server-reported elapsed_s (median over exact requests).
constexpr double kClosureTolerance = 0.2;

enum class OpKind : uint8_t { kExact, kSsr, kSweep };

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kExact:
      return "exact";
    case OpKind::kSsr:
      return "ssr";
    case OpKind::kSweep:
      return "sweep";
  }
  return "unknown";
}

/// Root span of one request as the client saw it; its child is the
/// server-reported execution, so its self time is the queue wait.
const char* RequestSpan(OpKind kind) {
  switch (kind) {
    case OpKind::kExact:
      return "whatif.exact";
    case OpKind::kSsr:
      return "whatif.ssr";
    case OpKind::kSweep:
      return "whatif.sweep";
  }
  return "whatif.unknown";
}

const ml::ModelKind kSsrModels[] = {ml::ModelKind::kOls,
                                    ml::ModelKind::kCoreg,
                                    ml::ModelKind::kMlp};
const double kSsrBudgets[] = {0.05, 0.10};

const char* FitSpan(ml::ModelKind model) {
  switch (model) {
    case ml::ModelKind::kOls:
      return "ml.fit.ols";
    case ml::ModelKind::kCoreg:
      return "ml.fit.coreg";
    default:
      return "ml.fit.mlp";
  }
}

const char* PredictSpan(ml::ModelKind model) {
  switch (model) {
    case ml::ModelKind::kOls:
      return "ml.predict.ols";
    case ml::ModelKind::kCoreg:
      return "ml.predict.coreg";
    default:
      return "ml.predict.mlp";
  }
}

struct ColdOp {
  OpKind kind = OpKind::kExact;
  synth::PoiCategory category = synth::PoiCategory::kSchool;
  uint64_t seed = 1;
  ml::ModelKind model = ml::ModelKind::kOls;
  double beta = 0.05;
};

std::vector<ColdOp> MakeMix(Rng* rng, int blocks) {
  const std::vector<synth::PoiCategory> categories = Categories();
  std::vector<ColdOp> ops;
  for (int block = 0; block < blocks; ++block) {
    for (int i = 0; i < kExactPerBlock; ++i) {
      ops.push_back(ColdOp{OpKind::kExact,
                           categories[(block * kExactPerBlock + i) %
                                      categories.size()]});
    }
    for (synth::PoiCategory category : categories) {
      for (ml::ModelKind model : kSsrModels) {
        const int repeats = category == synth::PoiCategory::kSchool
                                ? kSchoolSsrRepeats
                            : model == ml::ModelKind::kMlp ? kMlpSsrRepeats
                                                           : kFastSsrRepeats;
        for (double beta : kSsrBudgets) {
          for (int r = 0; r < repeats; ++r) {
            ops.push_back(ColdOp{OpKind::kSsr, category, 1, model, beta});
          }
        }
      }
      for (int i = 0; i < kSweepsPerCategory; ++i) {
        ops.push_back(ColdOp{OpKind::kSweep, category});
      }
    }
  }
  rng->Shuffle(&ops);
  // Fresh TODAM seeds, distinct within the run: nothing is ever cached.
  const uint64_t base = rng->Next() >> 8;
  for (size_t i = 0; i < ops.size(); ++i) ops[i].seed = base + i;
  return ops;
}

serve::AqRequest RequestFor(const ColdOp& op,
                            const core::GravityConfig& gravity) {
  serve::AqRequest request;
  request.category = op.category;
  request.options.exact = op.kind != OpKind::kSsr;
  request.options.beta = op.beta;
  request.options.model = op.model;
  request.options.gravity = gravity;
  request.options.seed = op.seed;
  return request;
}

serve::AqBatchRequest BatchFor(const ColdOp& op,
                               const core::GravityConfig& gravity) {
  serve::AqBatchRequest batch;
  batch.request = RequestFor(op, gravity);
  batch.cost_members = SweepMembers();
  return batch;
}

struct Outcome {
  double latency_ms = 0.0;
  double service_ms = 0.0;  // server elapsed_s; a sweep's slowest member
  bool ok = false;
  std::vector<core::AccessQueryResult> answers;  // sampled ops only
};

/// Replays one cold request's decomposition through the public calls the
/// server makes (Scenario::BuildLabelState, RunSsr, RunBatchGroup) on the
/// calling thread, with one span per layer, and returns the answers it
/// derives so they can be checked against the server's.
class Replayer {
 public:
  Replayer(std::shared_ptr<const serve::Scenario> scenario,
           const core::GravityConfig& gravity, Tracer::Buffer* buffer)
      : scenario_(std::move(scenario)),
        city_(scenario_->base_city()),
        gravity_(gravity),
        router_(&city_.feed, scenario_->router_options()),
        engine_(&city_, &router_),
        buffer_(buffer) {}

  std::vector<core::AccessQueryResult> Replay(const ColdOp& op,
                                              uint64_t request) {
    const std::vector<synth::Poi> pois = scenario_->PoisOf(op.category);
    ScopedSpan root(buffer_, "whatif.replay", request);
    core::Todam todam;
    {
      ScopedSpan span(buffer_, "core.todam", request, root.id());
      const std::vector<synth::Poi> reference = city_.PoisOf(op.category);
      const std::vector<double> norms =
          op.kind == OpKind::kSweep
              ? core::StableGravityNormsColumnar(city_.zones, reference,
                                                 gravity_.decay_scale_m)
              : core::StableGravityNorms(city_.zones, reference,
                                         gravity_.decay_scale_m);
      core::TodamBuilder builder(city_.zones, pois, scenario_->interval(),
                                 gravity_);
      todam = builder.BuildGravityStable(op.seed, norms);
    }
    switch (op.kind) {
      case OpKind::kExact:
        return {ReplayExact(todam, pois, request, root.id())};
      case OpKind::kSsr:
        return {ReplaySsr(op, todam, pois, request, root.id())};
      case OpKind::kSweep:
        return ReplaySweep(todam, pois, request, root.id());
    }
    return {};
  }

  std::vector<double> spqs_per_state;
  std::vector<double> expansions_per_state;

 private:
  core::AccessQueryResult ReplayExact(const core::Todam& todam,
                                      const std::vector<synth::Poi>& pois,
                                      uint64_t request, uint64_t parent) {
    std::vector<uint32_t> all(city_.zones.size());
    std::iota(all.begin(), all.end(), 0u);
    std::vector<core::ZoneLabel> labels;
    {
      ScopedSpan span(buffer_, "core.labeling", request, parent);
      const uint64_t spqs = engine_.spq_count();
      const uint64_t expansions = engine_.expansion_count();
      engine_.set_gac_weights({});
      labels = engine_.LabelZones(todam, all, pois,
                                  core::CostKind::kJourneyTime,
                                  scenario_->interval().day);
      spqs_per_state.push_back(
          static_cast<double>(engine_.spq_count() - spqs));
      expansions_per_state.push_back(
          static_cast<double>(engine_.expansion_count() - expansions));
    }
    core::AccessQueryResult result;
    result.gravity_trips = todam.num_trips();
    {
      ScopedSpan span(buffer_, "core.measures", request, parent);
      result.mac.resize(labels.size());
      result.acsd.resize(labels.size());
      for (size_t z = 0; z < labels.size(); ++z) {
        result.mac[z] = labels[z].mac;
        result.acsd[z] = labels[z].acsd;
      }
      core::FinalizeAccessQueryResult(city_.zones, &result);
    }
    return result;
  }

  core::AccessQueryResult ReplaySsr(const ColdOp& op,
                                    const core::Todam& todam,
                                    const std::vector<synth::Poi>& pois,
                                    uint64_t request, uint64_t parent) {
    ml::Dataset data;
    {
      ScopedSpan span(buffer_, "core.features", request, parent);
      data.x =
          scenario_->offline().features->ExtractZoneMatrix(pois,
                                                           todam.alpha());
    }
    std::vector<core::ZoneLabel> labels;
    {
      ScopedSpan span(buffer_, "core.sample_label", request, parent);
      auto sampled =
          core::SampleLabeledZones(city_.zones.size(), op.beta, op.seed);
      if (!sampled.ok()) return {};
      data.labeled = std::move(sampled).value();
      // RunSsr labels L with a fresh engine over the worker's router.
      core::LabelingEngine labeler(&city_, &router_);
      labels = labeler.LabelZones(todam, data.labeled, pois,
                                  core::CostKind::kJourneyTime,
                                  scenario_->interval().day);
    }
    for (const synth::Zone& zone : city_.zones) {
      data.positions.push_back(zone.centroid);
    }
    data.y.assign(city_.zones.size(), 0.0);
    core::AccessQueryResult result;
    result.gravity_trips = todam.num_trips();
    // One model per target, as RunSsr: MAC under `seed`, ACSD under seed+1.
    for (int target = 0; target < 2; ++target) {
      for (size_t i = 0; i < data.labeled.size(); ++i) {
        data.y[data.labeled[i]] =
            target == 0 ? labels[i].mac : labels[i].acsd;
      }
      auto model = ml::CreateModel(op.model, op.seed + target, 1);
      {
        ScopedSpan span(buffer_, FitSpan(op.model), request, parent);
        if (!model->Fit(data).ok()) return {};
      }
      std::vector<double> predicted;
      {
        ScopedSpan span(buffer_, PredictSpan(op.model), request, parent);
        predicted = model->Predict();
      }
      for (double& v : predicted) v = std::max(v, 0.0);
      for (size_t i = 0; i < data.labeled.size(); ++i) {
        predicted[data.labeled[i]] =
            target == 0 ? labels[i].mac : labels[i].acsd;
      }
      (target == 0 ? result.mac : result.acsd) = std::move(predicted);
    }
    {
      ScopedSpan span(buffer_, "core.measures", request, parent);
      core::FinalizeAccessQueryResult(city_.zones, &result);
    }
    return result;
  }

  std::vector<core::AccessQueryResult> ReplaySweep(
      const core::Todam& todam, const std::vector<synth::Poi>& pois,
      uint64_t request, uint64_t parent) {
    core::TripCostColumns columns;
    {
      ScopedSpan span(buffer_, "core.capture", request, parent);
      for (uint32_t z = 0; z < city_.zones.size(); ++z) {
        engine_.CaptureZoneCosts(todam, z, pois, scenario_->interval().day,
                                 &columns);
      }
    }
    std::vector<core::AccessQueryResult> results;
    ScopedSpan span(buffer_, "core.columnar", request, parent);
    std::vector<double> costs;
    for (const core::CostMember& member : SweepMembers()) {
      core::AccessQueryResult result;
      result.gravity_trips = todam.num_trips();
      core::MemberCostColumn(columns, member, &costs);
      const std::vector<core::ZoneLabel> labels =
          core::AggregateZoneLabels(columns, costs);
      result.mac.resize(labels.size());
      result.acsd.resize(labels.size());
      for (size_t z = 0; z < labels.size(); ++z) {
        result.mac[z] = labels[z].mac;
        result.acsd[z] = labels[z].acsd;
      }
      core::FinalizeAccessQueryResultColumnar(city_.zones, &result);
      results.push_back(std::move(result));
    }
    return results;
  }

  std::shared_ptr<const serve::Scenario> scenario_;
  const synth::City& city_;
  core::GravityConfig gravity_;
  router::Router router_;
  core::LabelingEngine engine_;
  Tracer::Buffer* buffer_;
};

struct PassResult {
  std::vector<Outcome> outcomes;
  std::vector<double> spqs_per_state;
  std::vector<double> expansions_per_state;
  std::vector<std::string> mismatches;
};

/// Runs the mix closed-loop on kClients threads. With a tracer, each
/// answer is followed (outside its timing) by a traced replay.
PassResult RunPass(serve::AqServer* server, const std::vector<ColdOp>& ops,
                   const std::vector<bool>& keep,
                   const core::GravityConfig& gravity, Tracer* tracer) {
  PassResult pass;
  pass.outcomes.resize(ops.size());
  std::atomic<size_t> next{0};
  std::vector<PassResult> partial(kClients);
  auto client = [&](int c) {
    Tracer::Buffer* buffer = tracer->NewBuffer();
    std::unique_ptr<Replayer> replayer;
    if (buffer != nullptr) {
      replayer = std::make_unique<Replayer>(server->Snapshot(), gravity,
                                            buffer);
    }
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= ops.size()) break;
      const ColdOp& op = ops[i];
      Outcome& out = pass.outcomes[i];
      std::vector<util::Result<core::AccessQueryResult>> results;
      const auto t0 = SteadyClock::now();
      if (op.kind == OpKind::kSweep) {
        results = server->QueryBatch(BatchFor(op, gravity));
      } else {
        results.push_back(server->Query(RequestFor(op, gravity)));
      }
      const auto t1 = SteadyClock::now();
      out.latency_ms = MillisBetween(t0, t1);
      out.ok = !results.empty();
      for (const auto& result : results) {
        if (!result.ok()) {
          out.ok = false;
          std::fprintf(stderr, "%s request failed: %s\n", KindName(op.kind),
                       result.status().ToString().c_str());
          continue;
        }
        out.service_ms =
            std::max(out.service_ms, result.value().elapsed_s * 1e3);
      }
      if (!out.ok) continue;
      if (!keep[i] && buffer == nullptr) continue;
      for (auto& result : results) {
        out.answers.push_back(std::move(result).value());
      }
      if (buffer == nullptr) continue;

      const uint64_t request = i + 1;
      const uint64_t root =
          buffer->Record(RequestSpan(op.kind), request, 0, t0, t1);
      buffer->Record("serve.execute", request, root,
                     t1 - FromMillis(out.service_ms), t1);
      const std::vector<core::AccessQueryResult> replayed =
          replayer->Replay(op, request);
      bool same = replayed.size() == out.answers.size();
      for (size_t k = 0; same && k < replayed.size(); ++k) {
        same = SameAnswer(replayed[k], out.answers[k]);
      }
      if (!same) {
        partial[c].mismatches.push_back(std::string(KindName(op.kind)) +
                                        " op " + std::to_string(i) +
                                        ": replay differs from the server");
      }
      if (!keep[i]) out.answers.clear();
    }
    if (replayer != nullptr) {
      partial[c].spqs_per_state = std::move(replayer->spqs_per_state);
      partial[c].expansions_per_state =
          std::move(replayer->expansions_per_state);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& thread : clients) thread.join();
  for (PassResult& p : partial) {
    pass.spqs_per_state.insert(pass.spqs_per_state.end(),
                               p.spqs_per_state.begin(),
                               p.spqs_per_state.end());
    pass.expansions_per_state.insert(pass.expansions_per_state.end(),
                                     p.expansions_per_state.begin(),
                                     p.expansions_per_state.end());
    pass.mismatches.insert(pass.mismatches.end(), p.mismatches.begin(),
                           p.mismatches.end());
  }
  return pass;
}

std::vector<double> LatenciesOf(const std::vector<ColdOp>& ops,
                                const PassResult& pass, OpKind kind) {
  std::vector<double> out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == kind && pass.outcomes[i].ok) {
      out.push_back(pass.outcomes[i].latency_ms);
    }
  }
  return out;
}

/// Seeded sample of ops per kind whose answers are re-checked.
std::vector<bool> PickRechecks(Rng* rng, const std::vector<ColdOp>& ops) {
  std::vector<bool> keep(ops.size(), false);
  for (OpKind kind : {OpKind::kExact, OpKind::kSsr, OpKind::kSweep}) {
    std::vector<size_t> of_kind;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == kind) of_kind.push_back(i);
    }
    rng->Shuffle(&of_kind);
    for (size_t k = 0; k < std::min(kRechecksPerKind, of_kind.size()); ++k) {
      keep[of_kind[k]] = true;
    }
  }
  return keep;
}

/// Re-checks the kept answers against from-scratch recomputation, outside
/// the timed window. A sweep re-checks its JT member and one GAC member.
void Recheck(serve::AqServer* server, const std::vector<ColdOp>& ops,
             const std::vector<bool>& keep, const PassResult& pass,
             const core::GravityConfig& gravity, Rng* rng, Report* report) {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!keep[i] || !pass.outcomes[i].ok) continue;
    const ColdOp& op = ops[i];
    std::vector<size_t> members = {0};
    std::vector<serve::AqRequest> requests = {RequestFor(op, gravity)};
    if (op.kind == OpKind::kSweep) {
      const std::vector<serve::AqRequest> expanded =
          serve::ExpandBatch(BatchFor(op, gravity));
      members.push_back(1 + rng->Below(expanded.size() - 1));
      requests = {expanded[0], expanded[members[1]]};
    }
    for (size_t k = 0; k < members.size(); ++k) {
      auto golden = server->QueryUncached(requests[k]);
      if (!golden.ok() ||
          !SameAnswer(golden.value(), pass.outcomes[i].answers[members[k]])) {
        report->Wrong(std::string(KindName(op.kind)) + " op " +
                      std::to_string(i) +
                      " differs from its from-scratch recomputation");
      }
    }
  }
}

struct Setup {
  std::unique_ptr<serve::AqServer> server;
  double seconds = 0.0;
  double build_city_ms = 0.0;
};

/// City build, offline phase, and one exact request per client so worker
/// contexts exist before timing starts.
Setup SetUp(const core::GravityConfig& gravity,
            const gtfs::TimeInterval& interval) {
  Setup setup;
  util::Stopwatch watch;
  synth::City city = BuildBenchCity();
  setup.build_city_ms = watch.ElapsedMillis();
  setup.server = std::make_unique<serve::AqServer>(
      std::move(city), interval, serve::AqServer::Options());
  std::vector<serve::AqTicket> warm;
  for (int c = 0; c < kClients; ++c) {
    // Seeds 1 and 2 are never drawn by a mix (its seeds start far above).
    warm.push_back(setup.server->Submit(
        RequestFor(ColdOp{OpKind::kExact, synth::PoiCategory::kHospital,
                          static_cast<uint64_t>(c + 1)},
                   gravity)));
  }
  for (auto& ticket : warm) {
    auto result = ticket.Get();
    if (!result.ok()) {
      std::fprintf(stderr, "warm-up failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }
  setup.seconds = watch.ElapsedSeconds();
  return setup;
}

}  // namespace

PhaseResult RunWhatifCold(const Args& args, Report* report) {
  const core::GravityConfig gravity = BenchGravity();
  Rng rng(args.seed);
  // A traced run fits its untraced and its traced pass into one budget.
  const double pass_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const int blocks = std::max(
      1, static_cast<int>(std::lround(pass_s / kSecondsPerBlock)));
  const std::vector<ColdOp> ops = MakeMix(&rng, blocks);
  const std::vector<bool> keep = PickRechecks(&rng, ops);
  // The traced run's second mix has the same shape and fresh seeds.
  const std::vector<ColdOp> traced_ops = MakeMix(&rng, blocks);
  const std::vector<bool> traced_keep(traced_ops.size(), false);

  PhaseResult phase;
  std::vector<double> setup_s;
  Setup setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup = Setup();  // tear the previous set-up down first
    setup = SetUp(gravity, args.interval);
    setup_s.push_back(setup.seconds);
  }
  phase.setup_s = Quantile(setup_s, 0.5);
  serve::AqServer& server = *setup.server;
  std::fprintf(stderr,
               "whatif_cold: %zu ops (%d blocks), %d clients, %zu workers, "
               "%s\n",
               ops.size(), blocks, kClients, server.num_threads(),
               args.interval.label.c_str());

  Tracer untraced(false);
  const PassResult pass = RunPass(&server, ops, keep, gravity, &untraced);
  const serve::ServerStats before_traced = server.stats();
  report->attempted += ops.size();
  for (const Outcome& out : pass.outcomes) report->failed += out.ok ? 0 : 1;
  const std::vector<double> exact = LatenciesOf(ops, pass, OpKind::kExact);

  if (!args.trace) {
    const std::vector<double> ssr = LatenciesOf(ops, pass, OpKind::kSsr);
    const std::vector<double> sweep = LatenciesOf(ops, pass, OpKind::kSweep);
    phase.metrics["exact_p50_ms"] = Quantile(exact, 0.5);
    phase.metrics["exact_p90_ms"] = Quantile(exact, 0.9);
    phase.metrics["ssr_p50_ms"] = Quantile(ssr, 0.5);
    phase.metrics["ssr_p90_ms"] = Quantile(ssr, 0.9);
    phase.metrics["sweep_p50_ms"] = Quantile(sweep, 0.5);
    std::fprintf(stderr, "samples: exact %zu, ssr %zu, sweep %zu\n",
                 exact.size(), ssr.size(), sweep.size());
    for (synth::PoiCategory category : Categories()) {
      std::vector<double> of_category[2];
      for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].category != category || !pass.outcomes[i].ok) continue;
        if (ops[i].kind == OpKind::kExact) {
          of_category[0].push_back(pass.outcomes[i].latency_ms);
        } else if (ops[i].kind == OpKind::kSsr) {
          of_category[1].push_back(pass.outcomes[i].latency_ms);
        }
      }
      std::fprintf(stderr, "  %-8s exact p50 %7.1f ms, ssr p50 %7.1f ms\n",
                   CategoryTag(category), Quantile(of_category[0], 0.5),
                   Quantile(of_category[1], 0.5));
    }
    Recheck(&server, ops, keep, pass, gravity, &rng, report);
    return phase;
  }

  Tracer tracer(true);
  const PassResult traced =
      RunPass(&server, traced_ops, traced_keep, gravity, &tracer);
  const serve::ServerStats after = server.stats();
  report->attempted += traced_ops.size();
  for (const Outcome& out : traced.outcomes) report->failed += out.ok ? 0 : 1;
  for (const std::string& mismatch : traced.mismatches) {
    report->Wrong(mismatch);
  }
  Recheck(&server, ops, keep, pass, gravity, &rng, report);

  const auto self = tracer.SelfTimesMs();
  auto p = [&](const char* name, double q) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : Quantile(it->second, q);
  };
  std::map<std::string, double>& layers = phase.metrics;
  layers["synth.build_city_ms"] = setup.build_city_ms;
  if (server.router_options().connections != nullptr) {
    layers["router.connections_build_ms"] =
        server.router_options().connections->build_seconds() * 1e3;
  }
  layers["serve.offline_build_ms"] =
      server.Snapshot()->offline().build_seconds * 1e3;
  layers["core.todam_ms"] = p("core.todam", 0.5);
  layers["core.labeling_ms"] = p("core.labeling", 0.5);
  layers["core.labeling_p90_ms"] = p("core.labeling", 0.9);
  layers["core.spqs_per_state"] = Mean(traced.spqs_per_state);
  layers["core.expansions_per_state"] = Mean(traced.expansions_per_state);
  layers["core.measures_ms"] = p("core.measures", 0.5);
  layers["core.features_ms"] = p("core.features", 0.5);
  layers["core.sample_label_ms"] = p("core.sample_label", 0.5);
  layers["core.capture_ms"] = p("core.capture", 0.5);
  layers["core.columnar_ms"] = p("core.columnar", 0.5);
  for (ml::ModelKind model : kSsrModels) {
    layers[std::string(FitSpan(model)) + "_ms"] = p(FitSpan(model), 0.5);
    layers[std::string(PredictSpan(model)) + "_ms"] =
        p(PredictSpan(model), 0.5);
  }
  std::vector<double> queue_wait;
  for (OpKind kind : {OpKind::kExact, OpKind::kSsr, OpKind::kSweep}) {
    auto it = self.find(RequestSpan(kind));
    if (it != self.end()) {
      queue_wait.insert(queue_wait.end(), it->second.begin(),
                        it->second.end());
    }
  }
  layers["serve.queue_wait_ms"] = Quantile(queue_wait, 0.5);
  layers["serve.queue_wait_p99_ms"] = Quantile(queue_wait, 0.99);
  const uint64_t hits = after.cache_hits - before_traced.cache_hits;
  const uint64_t misses = after.cache_misses - before_traced.cache_misses;
  layers["serve.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  layers["serve.state_builds"] = static_cast<double>(
      after.exact_state_builds - before_traced.exact_state_builds);
  layers["serve.shed"] = static_cast<double>(after.shed - before_traced.shed);
  layers["serve.rejected"] =
      static_cast<double>(after.rejected - before_traced.rejected);

  // Per-request views: features per category, and the exact closure check.
  const auto by_request = tracer.SelfTimesByRequest();
  std::map<synth::PoiCategory, std::vector<double>> features;
  std::vector<double> closure;
  for (size_t i = 0; i < traced_ops.size(); ++i) {
    auto it = by_request.find(i + 1);
    if (it == by_request.end()) continue;
    const auto& spans = it->second;
    auto self_of = [&](const char* name) {
      auto s = spans.find(name);
      return s == spans.end() ? 0.0 : s->second;
    };
    if (traced_ops[i].kind == OpKind::kSsr) {
      features[traced_ops[i].category].push_back(self_of("core.features"));
    }
    if (traced_ops[i].kind == OpKind::kExact &&
        traced.outcomes[i].service_ms > 0.0) {
      closure.push_back((self_of("core.todam") + self_of("core.labeling") +
                         self_of("core.measures")) /
                        traced.outcomes[i].service_ms);
    }
  }
  for (const auto& [category, samples] : features) {
    layers[std::string("core.features.") + CategoryTag(category) + "_ms"] =
        Quantile(samples, 0.5);
  }
  const double closure_ratio = Quantile(closure, 0.5);
  layers["closure.exact_ratio"] = closure_ratio;
  const double traced_exact_p50 =
      Quantile(LatenciesOf(traced_ops, traced, OpKind::kExact), 0.5);
  layers["trace.exact_overhead_ms"] = traced_exact_p50 - Quantile(exact, 0.5);
  std::fprintf(stderr,
               "closure: replayed todam+labeling+measures / server elapsed "
               "= %.3f (tolerance +-%.2f) %s\n",
               closure_ratio, kClosureTolerance,
               std::abs(closure_ratio - 1.0) <= kClosureTolerance ? "PASS"
                                                                  : "FAIL");
  std::fprintf(stderr, "tracing overhead on exact p50: %+.2f ms\n",
               layers["trace.exact_overhead_ms"]);
  if (!args.trace_file.empty() && !tracer.WriteJsonLines(args.trace_file)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_file.c_str());
  }
  return phase;
}

}  // namespace staqbench
