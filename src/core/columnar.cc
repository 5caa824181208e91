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

void AggregateZoneLabels(const size_t* offsets, size_t num_zones,
                         const uint8_t* flags, const double* costs,
                         ZoneLabel* out) {
  for (size_t z = 0; z < num_zones; ++z) {
    ZoneLabel label;
    const size_t begin = offsets[z];
    const size_t end = offsets[z + 1];
    label.num_trips = static_cast<uint32_t>(end - begin);
    // One pass: single accumulators add the feasible costs in trip order,
    // as the scalar aggregation loop does.
    size_t feasible = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (size_t i = begin; i < end; ++i) {
      if (!(flags[i] & 1)) {
        ++label.num_infeasible;
        continue;
      }
      if (flags[i] & 2) ++label.num_walk_only;
      ++feasible;
      sum += costs[i];
      sum_sq += costs[i] * costs[i];
    }
    if (feasible > 0) {
      double n = static_cast<double>(feasible);
      label.mac = sum / n;
      double var = sum_sq / n - label.mac * label.mac;
      label.acsd = var > 0 ? std::sqrt(var) : 0.0;
    }
    out[z] = label;
  }
}

}  // namespace staq::core
