#include "core/access_query.h"

#include <algorithm>

#include "ml/kernels.h"
#include "util/stopwatch.h"

namespace staq::core {

void FinalizeAccessQueryResult(const std::vector<synth::Zone>& zones,
                               AccessQueryResult* result) {
  result->classes = ClassifyAccessibility(result->mac, result->acsd);
  result->mean_mac = 0.0;
  result->mean_acsd = 0.0;
  for (size_t z = 0; z < result->mac.size(); ++z) {
    result->mean_mac += result->mac[z];
    result->mean_acsd += result->acsd[z];
  }
  result->mean_mac /= static_cast<double>(result->mac.size());
  result->mean_acsd /= static_cast<double>(result->acsd.size());

  result->fairness = JainIndex(result->mac);
  std::vector<double> pop_weights, vulnerable_weights;
  pop_weights.reserve(zones.size());
  vulnerable_weights.reserve(zones.size());
  for (const synth::Zone& z : zones) {
    pop_weights.push_back(z.population);
    vulnerable_weights.push_back(z.population * z.vulnerability);
  }
  result->population_fairness = WeightedJainIndex(result->mac, pop_weights);
  result->vulnerable_fairness =
      WeightedJainIndex(result->mac, vulnerable_weights);
}

void SetZoneMeasures(const std::vector<ZoneLabel>& labels,
                     AccessQueryResult* result) {
  result->mac.resize(labels.size());
  result->acsd.resize(labels.size());
  for (size_t z = 0; z < labels.size(); ++z) {
    result->mac[z] = labels[z].mac;
    result->acsd[z] = labels[z].acsd;
  }
}

void FinalizeAccessQueryResultColumnar(const std::vector<synth::Zone>& zones,
                                       AccessQueryResult* result) {
  result->classes = ClassifyAccessibilityColumnar(result->mac, result->acsd);
  size_t n = result->mac.size();
  result->mean_mac = ml::kernels::ReduceSum(n, result->mac.data()) /
                     static_cast<double>(n);
  result->mean_acsd = ml::kernels::ReduceSum(n, result->acsd.data()) /
                      static_cast<double>(n);

  result->fairness = JainIndexColumnar(result->mac);
  std::vector<double> pop_weights, vulnerable_weights;
  pop_weights.reserve(zones.size());
  vulnerable_weights.reserve(zones.size());
  for (const synth::Zone& z : zones) {
    pop_weights.push_back(z.population);
    vulnerable_weights.push_back(z.population * z.vulnerability);
  }
  result->population_fairness =
      WeightedJainIndexColumnar(result->mac, pop_weights);
  result->vulnerable_fairness =
      WeightedJainIndexColumnar(result->mac, vulnerable_weights);
}

AccessQueryEngine::AccessQueryEngine(synth::City city,
                                     gtfs::TimeInterval interval)
    : city_(std::move(city)), interval_(interval) {
  pipeline_ = std::make_unique<SsrPipeline>(&city_, interval_);
}

util::Result<AccessQueryResult> AccessQueryEngine::Query(
    synth::PoiCategory category, const AccessQueryOptions& options) {
  if (options.exact) {
    auto answers = QueryVector(category, options, VectorQuerySpec{});
    if (!answers.ok()) return answers.status();
    return std::move(answers.value().front());
  }
  std::vector<synth::Poi> pois = city_.PoisOf(category);
  if (pois.empty()) {
    return util::Status::NotFound("no POIs of requested category");
  }

  util::Stopwatch watch;
  Todam todam = pipeline_->BuildGravityTodam(pois, options.gravity,
                                             options.seed);
  PipelineConfig config;
  config.beta = options.beta;
  config.model = options.model;
  config.cost = options.cost;
  config.gac = options.gac;
  config.seed = options.seed;
  auto run = pipeline_->Run(pois, todam, config);
  if (!run.ok()) return run.status();

  AccessQueryResult result;
  result.gravity_trips = todam.num_trips();
  result.mac = std::move(run.value().mac);
  result.acsd = std::move(run.value().acsd);
  result.spqs = run.value().spqs;
  FinalizeAccessQueryResult(city_.zones, &result);
  result.elapsed_s = watch.ElapsedSeconds();
  return result;
}

util::Result<std::vector<AccessQueryResult>> AccessQueryEngine::QueryVector(
    synth::PoiCategory category, const AccessQueryOptions& base,
    const VectorQuerySpec& spec) {
  if (!base.exact) {
    return util::Status::InvalidArgument(
        "vector queries require exact=true: SSR members train per-member "
        "models and share no labeling pass");
  }
  std::vector<synth::PoiCategory> categories =
      spec.categories.empty() ? std::vector<synth::PoiCategory>{category}
                              : spec.categories;
  std::vector<uint64_t> seeds = spec.seeds.empty()
                                    ? std::vector<uint64_t>{base.seed}
                                    : spec.seeds;
  std::vector<CostMember> members =
      spec.cost_members.empty()
          ? std::vector<CostMember>{{base.cost, base.gac}}
          : spec.cost_members;
  for (const CostMember& m : members) {
    if (m.cost == CostKind::kGeneralizedCost && !m.gac.Valid()) {
      return util::Status::InvalidArgument(
          "invalid GAC weights in vector query member");
    }
  }

  std::vector<AccessQueryResult> out;
  out.reserve(categories.size() * seeds.size() * members.size());
  std::vector<double> member_costs;
  for (synth::PoiCategory cat : categories) {
    for (uint64_t seed : seeds) {
      std::vector<synth::Poi> pois = city_.PoisOf(cat);
      if (pois.empty()) {
        return util::Status::NotFound("no POIs of requested category");
      }
      util::Stopwatch watch;
      Todam todam = pipeline_->BuildGravityTodam(pois, base.gravity, seed);
      CapturedCosts captured =
          pipeline_->CaptureGroundTruthColumns(pois, todam);
      for (const CostMember& m : members) {
        AccessQueryResult result;
        result.gravity_trips = todam.num_trips();
        MemberCostColumn(captured.columns, m, &member_costs);
        SetZoneMeasures(AggregateZoneLabels(captured.columns, member_costs),
                        &result);
        // Each member reports the full pass it would have paid alone.
        result.spqs = captured.spqs;
        FinalizeAccessQueryResultColumnar(city_.zones, &result);
        result.elapsed_s = watch.ElapsedSeconds();
        out.push_back(std::move(result));
      }
    }
  }
  return out;
}

uint32_t AccessQueryEngine::AddPoi(synth::PoiCategory category,
                                   const geo::Point& position) {
  uint32_t id = city_.pois.empty() ? 0 : city_.pois.back().id + 1;
  city_.pois.push_back(synth::Poi{id, category, position});
  ++scenario_version_;
  return id;
}

util::Status AccessQueryEngine::RemovePoi(uint32_t poi_id) {
  auto it = std::find_if(city_.pois.begin(), city_.pois.end(),
                         [poi_id](const synth::Poi& p) {
                           return p.id == poi_id;
                         });
  if (it == city_.pois.end()) {
    return util::Status::NotFound("no POI with id " + std::to_string(poi_id));
  }
  city_.pois.erase(it);
  ++scenario_version_;
  return util::Status::OK();
}

void AccessQueryEngine::SetInterval(const gtfs::TimeInterval& interval) {
  interval_ = interval;
  pipeline_ = std::make_unique<SsrPipeline>(&city_, interval_);
  ++scenario_version_;
}

}  // namespace staq::core
