#include "core/columnar.h"

#include <algorithm>
#include <cmath>

#include "ml/kernels.h"

namespace staq::core {

size_t TripCostColumns::AppendZone(size_t trips) {
  size_t base = flags.size();
  zone_offsets.push_back(base + trips);
  flags.resize(base + trips, 0);
  jt.resize(base + trips, 0.0);
  gac_parts.resize((base + trips) * kNumGacParts, 0.0);
  fare.resize(base + trips, 0.0);
  return base;
}

void TripCostColumns::StoreZone(size_t base, const TripCostColumns& zone) {
  std::copy(zone.flags.begin(), zone.flags.end(), flags.begin() + base);
  std::copy(zone.jt.begin(), zone.jt.end(), jt.begin() + base);
  std::copy(zone.gac_parts.begin(), zone.gac_parts.end(),
            gac_parts.begin() + base * kNumGacParts);
  std::copy(zone.fare.begin(), zone.fare.end(), fare.begin() + base);
}

void TripCostColumns::Record(size_t index, const router::Journey& journey) {
  if (!journey.feasible) return;  // slot stays zeroed, flags stay 0
  uint8_t f = 1;
  if (journey.IsWalkOnly()) f |= 2;
  flags[index] = f;
  jt[index] = journey.JourneyTimeSeconds();
  double* parts = gac_parts.data() + index * kNumGacParts;
  // Component order matches the scalar GAC expression (router/cost.cc):
  // TAN (access + transfer walk), WT, IVT, ET, transfers.
  parts[0] = journey.access_walk_s + journey.transfer_walk_s;
  parts[1] = journey.wait_s;
  parts[2] = journey.in_vehicle_s;
  parts[3] = journey.egress_walk_s;
  parts[4] = journey.num_boardings > 1 ? journey.num_boardings - 1 : 0;
  fare[index] = journey.total_fare;
}

void TripCostColumns::Clear() {
  zone_offsets.assign(1, 0);
  flags.clear();
  jt.clear();
  gac_parts.clear();
  fare.clear();
}

void MemberCostColumn(const TripCostColumns& columns, const CostMember& member,
                      std::vector<double>* out) {
  size_t n = columns.num_trips();
  out->assign(n, 0.0);
  if (n == 0) return;
  if (member.cost == CostKind::kJourneyTime) {
    std::copy(columns.jt.begin(), columns.jt.end(), out->begin());
    return;
  }
  const router::GacWeights& w = member.gac;
  const double weights[kNumGacParts] = {w.lambda_tan, w.lambda_wt,
                                        w.lambda_ivt, w.lambda_et,
                                        w.transfer_penalty_s};
  ml::kernels::Gemm(n, kNumGacParts, 1, columns.gac_parts.data(), kNumGacParts,
                    weights, 1, out->data(), 1);
  // FARE/VOT epilogue: the scalar expression divides by the value of time,
  // and x / v != x * (1 / v) in general, so the division stays.
  double* o = out->data();
  const double* fare = columns.fare.data();
  for (size_t i = 0; i < n; ++i) o[i] += fare[i] / w.value_of_time;
}

std::vector<ZoneLabel> AggregateZoneLabels(const TripCostColumns& columns,
                                           const std::vector<double>& costs) {
  std::vector<ZoneLabel> labels(columns.num_zones());
  std::vector<double> feasible_costs;  // reused across zones
  for (size_t z = 0; z < labels.size(); ++z) {
    ZoneLabel& label = labels[z];
    size_t begin = columns.zone_offsets[z];
    size_t end = columns.zone_offsets[z + 1];
    label.num_trips = static_cast<uint32_t>(end - begin);
    feasible_costs.clear();
    for (size_t i = begin; i < end; ++i) {
      if (!(columns.flags[i] & 1)) {
        ++label.num_infeasible;
        continue;
      }
      if (columns.flags[i] & 2) ++label.num_walk_only;
      feasible_costs.push_back(costs[i]);
    }
    if (feasible_costs.empty()) continue;
    double n = static_cast<double>(feasible_costs.size());
    double sum =
        ml::kernels::ReduceSum(feasible_costs.size(), feasible_costs.data());
    double sum_sq = ml::kernels::Dot(feasible_costs.size(),
                                     feasible_costs.data(),
                                     feasible_costs.data());
    label.mac = sum / n;
    double var = sum_sq / n - label.mac * label.mac;
    label.acsd = var > 0 ? std::sqrt(var) : 0.0;
  }
  return labels;
}

}  // namespace staq::core
