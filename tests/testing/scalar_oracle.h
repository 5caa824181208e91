// The scalar cost and measure oracle: the paper's Eq. 1, the per-trip
// MAC/ACSD aggregation (§IV-D) and the summary measures of §III-D, each
// written as the plain loop the library's column kernels replaced.
//
// The library derives every zone label from captured cost columns
// (core/columnar.h: MemberCostColumn + AggregateZoneLabels) and reduces
// every measure through ml::kernels. Those kernels accumulate in the same
// ascending single-accumulator order as these loops, so each library
// result must equal its oracle here bit for bit; tests, the per-trip
// reference labeler (per_trip_labeling.h) and the per-cost exact reference
// (exact_reference.h, bench_load's measure_eval foil) check it.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/access_query.h"
#include "core/gravity.h"
#include "core/labeling.h"
#include "core/measures.h"
#include "geo/latlon.h"
#include "router/cost.h"
#include "synth/city_builder.h"

namespace staq::testing {

/// Evaluates Eq. 1 on a journey, in generalized seconds. Infeasible
/// journeys return +infinity.
inline double GeneralizedAccessCost(const router::Journey& journey,
                                    const router::GacWeights& w) {
  if (!journey.feasible) return std::numeric_limits<double>::infinity();
  double tan = journey.access_walk_s + journey.transfer_walk_s;
  double transfers =
      journey.num_boardings > 1 ? journey.num_boardings - 1 : 0;
  return w.lambda_tan * tan + w.lambda_wt * journey.wait_s +
         w.lambda_ivt * journey.in_vehicle_s +
         w.lambda_et * journey.egress_walk_s +
         w.transfer_penalty_s * transfers +
         journey.total_fare / w.value_of_time;
}

/// One zone's label from its trips' journeys, listed in the TODAM's
/// original trip order: infeasible trips are counted and excluded, and the
/// feasible costs fold into MAC/ACSD with one interleaved accumulator pair.
inline core::ZoneLabel TripOrderLabel(
    const std::vector<router::Journey>& journeys, core::CostKind kind,
    const router::GacWeights& gac = {}) {
  core::ZoneLabel label;
  label.num_trips = static_cast<uint32_t>(journeys.size());
  double sum = 0.0, sum_sq = 0.0;
  uint32_t feasible = 0;
  for (const router::Journey& journey : journeys) {
    if (!journey.feasible) {
      ++label.num_infeasible;
      continue;
    }
    if (journey.IsWalkOnly()) ++label.num_walk_only;
    double cost = kind == core::CostKind::kJourneyTime
                      ? journey.JourneyTimeSeconds()
                      : testing::GeneralizedAccessCost(journey, gac);
    sum += cost;
    sum_sq += cost * cost;
    ++feasible;
  }
  if (feasible > 0) {
    double n = static_cast<double>(feasible);
    label.mac = sum / n;
    double var = sum_sq / n - label.mac * label.mac;
    label.acsd = var > 0 ? std::sqrt(var) : 0.0;
  }
  return label;
}

inline std::vector<int> ClassifyAccessibility(const std::vector<double>& mac,
                                              const std::vector<double>& acsd) {
  assert(mac.size() == acsd.size() && !mac.empty());
  double mac_mean = 0.0, acsd_mean = 0.0;
  for (size_t i = 0; i < mac.size(); ++i) {
    mac_mean += mac[i];
    acsd_mean += acsd[i];
  }
  mac_mean /= static_cast<double>(mac.size());
  acsd_mean /= static_cast<double>(acsd.size());

  std::vector<int> classes(mac.size());
  for (size_t i = 0; i < mac.size(); ++i) {
    bool high_mac = mac[i] > mac_mean;
    bool high_acsd = acsd[i] > acsd_mean;
    core::AccessClass c;
    if (!high_mac && !high_acsd) {
      c = core::AccessClass::kBest;
    } else if (high_mac && !high_acsd) {
      c = core::AccessClass::kWorst;
    } else if (!high_mac && high_acsd) {
      c = core::AccessClass::kMostlyGood;
    } else {
      c = core::AccessClass::kMostlyBad;
    }
    classes[i] = static_cast<int>(c);
  }
  return classes;
}

inline double JainIndex(const std::vector<double>& values) {
  assert(!values.empty());
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq <= 0.0) return 1.0;
  double n = static_cast<double>(values.size());
  return (sum * sum) / (n * sum_sq);
}

inline double WeightedJainIndex(const std::vector<double>& values,
                                const std::vector<double>& weights) {
  assert(values.size() == weights.size() && !values.empty());
  // Weighted form: J = (Σ w x)^2 / (Σw · Σ w x^2); reduces to JainIndex
  // when all weights are equal.
  double wsum = 0.0, wx = 0.0, wx2 = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    wsum += weights[i];
    wx += weights[i] * values[i];
    wx2 += weights[i] * values[i] * values[i];
  }
  if (wx2 <= 0.0 || wsum <= 0.0) return 1.0;
  return (wx * wx) / (wsum * wx2);
}

inline void FinalizeAccessQueryResult(const std::vector<synth::Zone>& zones,
                                      core::AccessQueryResult* result) {
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

inline std::vector<double> StableGravityNorms(
    const std::vector<synth::Zone>& zones, const std::vector<synth::Poi>& pois,
    double decay_scale_m) {
  std::vector<double> norms(zones.size(), 0.0);
  for (size_t z = 0; z < zones.size(); ++z) {
    for (const synth::Poi& poi : pois) {
      norms[z] += core::DistanceDecay(
          geo::Distance(zones[z].centroid, poi.position), decay_scale_m);
    }
  }
  return norms;
}

}  // namespace staq::testing
