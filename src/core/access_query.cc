#include "core/access_query.h"

#include "ml/kernels.h"

namespace staq::core {

void SetZoneMeasures(const std::vector<ZoneLabel>& labels,
                     AccessQueryResult* result) {
  result->mac.resize(labels.size());
  result->acsd.resize(labels.size());
  for (size_t z = 0; z < labels.size(); ++z) {
    result->mac[z] = labels[z].mac;
    result->acsd[z] = labels[z].acsd;
  }
}

void FinalizeAccessQueryResult(const std::vector<synth::Zone>& zones,
                               AccessQueryResult* result) {
  result->classes = ClassifyAccessibility(result->mac, result->acsd);
  size_t n = result->mac.size();
  result->mean_mac = ml::kernels::ReduceSum(n, result->mac.data()) /
                     static_cast<double>(n);
  result->mean_acsd = ml::kernels::ReduceSum(n, result->acsd.data()) /
                      static_cast<double>(n);

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

}  // namespace staq::core
