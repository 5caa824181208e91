// Accessibility measures over the (predicted or ground-truth) zone labels
// (paper §III-D): MAC, ACSD, the four-class accessibility classification,
// and the Jain fairness index.
//
// Every sum reduces through the ml::kernels ReduceSum/Dot kernels, which
// accumulate in the ascending-index single-accumulator order of the plain
// loops (splitting an interleaved multi-accumulator loop into one
// reduction per accumulator keeps each accumulator's addition sequence).
// Those loops are the oracle in tests/testing/scalar_oracle.h, and each
// measure equals its oracle bit for bit.
#pragma once

#include <string>
#include <vector>

namespace staq::core {

/// The accessibility classes of §III-D.
enum class AccessClass {
  kBest = 0,        // low MAC, low ACSD
  kWorst,           // high MAC, low ACSD
  kMostlyGood,      // low MAC, high ACSD
  kMostlyBad,       // high MAC, high ACSD
};

const char* AccessClassName(AccessClass c);

/// Classifies every zone using the paper's rule set: "low" means below the
/// across-zone average, "high" above. Returns one class per zone (as int,
/// matching AccessClass).
std::vector<int> ClassifyAccessibility(const std::vector<double>& mac,
                                       const std::vector<double>& acsd);

/// Jain's fairness index over per-zone MAC values:
/// J = (Σx)^2 / (n Σx^2), in (0, 1]; 1 = perfectly even access.
/// Requires non-empty input; all-zero input returns 1 (trivially even).
double JainIndex(const std::vector<double>& values);

/// Population (or any) weighted Jain index: each zone contributes with the
/// given weight, exposing unfairness against specific groups. The w·x²
/// accumulator reduces as Dot(w ⊙ x, x), keeping the (w*x)*x product
/// association.
double WeightedJainIndex(const std::vector<double>& values,
                         const std::vector<double>& weights);

/// |truth - predicted| of the Jain index — the paper's FIE metric.
double FairnessIndexError(const std::vector<double>& truth_mac,
                          const std::vector<double>& predicted_mac);

}  // namespace staq::core
