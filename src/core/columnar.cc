#include "core/columnar.h"

#include <algorithm>
#include <cmath>

#include "ml/kernels.h"

namespace staq::core {

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
