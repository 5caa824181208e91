#include "core/measures.h"

#include <cassert>
#include <cmath>

#include "ml/kernels.h"

namespace staq::core {

const char* AccessClassName(AccessClass c) {
  switch (c) {
    case AccessClass::kBest:
      return "best";
    case AccessClass::kWorst:
      return "worst";
    case AccessClass::kMostlyGood:
      return "mostly_good";
    case AccessClass::kMostlyBad:
      return "mostly_bad";
  }
  return "unknown";
}

std::vector<int> ClassifyAccessibility(const std::vector<double>& mac,
                                       const std::vector<double>& acsd) {
  assert(mac.size() == acsd.size() && !mac.empty());
  double mac_mean = ml::kernels::ReduceSum(mac.size(), mac.data()) /
                    static_cast<double>(mac.size());
  double acsd_mean = ml::kernels::ReduceSum(acsd.size(), acsd.data()) /
                     static_cast<double>(acsd.size());

  std::vector<int> classes(mac.size());
  for (size_t i = 0; i < mac.size(); ++i) {
    bool high_mac = mac[i] > mac_mean;
    bool high_acsd = acsd[i] > acsd_mean;
    AccessClass c;
    if (!high_mac && !high_acsd) {
      c = AccessClass::kBest;
    } else if (high_mac && !high_acsd) {
      c = AccessClass::kWorst;
    } else if (!high_mac && high_acsd) {
      c = AccessClass::kMostlyGood;
    } else {
      c = AccessClass::kMostlyBad;
    }
    classes[i] = static_cast<int>(c);
  }
  return classes;
}

double JainIndex(const std::vector<double>& values) {
  assert(!values.empty());
  double sum = ml::kernels::ReduceSum(values.size(), values.data());
  double sum_sq =
      ml::kernels::Dot(values.size(), values.data(), values.data());
  if (sum_sq <= 0.0) return 1.0;
  double n = static_cast<double>(values.size());
  return (sum * sum) / (n * sum_sq);
}

double WeightedJainIndex(const std::vector<double>& values,
                         const std::vector<double>& weights) {
  assert(values.size() == weights.size() && !values.empty());
  size_t n = values.size();
  double wsum = ml::kernels::ReduceSum(n, weights.data());
  double wx = ml::kernels::Dot(n, weights.data(), values.data());
  std::vector<double> wv(n);
  for (size_t i = 0; i < n; ++i) wv[i] = weights[i] * values[i];
  double wx2 = ml::kernels::Dot(n, wv.data(), values.data());
  if (wx2 <= 0.0 || wsum <= 0.0) return 1.0;
  return (wx * wx) / (wsum * wx2);
}

double FairnessIndexError(const std::vector<double>& truth_mac,
                          const std::vector<double>& predicted_mac) {
  return std::abs(JainIndex(truth_mac) - JainIndex(predicted_mac));
}

}  // namespace staq::core
