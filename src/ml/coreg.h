// COREG: semi-supervised regression with co-training (Zhou & Li, IJCAI'05).
//
// Two kNN regressors with different Minkowski distance orders label each
// other's most confidently predicted unlabeled examples. Confidence of a
// candidate is the reduction in squared error over its labeled neighbourhood
// when the candidate (with its pseudo-label) is added to the training set.
//
// Pool screening runs on incremental caches (per-candidate top-k lists and
// per-stored-example leave-one-out neighbourhoods, both updated in O(k) per
// pseudo-label add) instead of rescanning the full store per candidate per
// iteration, with the same result as the rescan. Fit and Predict run on
// the calling thread.
#pragma once

#include <memory>

#include "ml/knn.h"
#include "ml/model.h"
#include "ml/scaler.h"
#include "util/rng.h"

namespace staq::ml {

struct CoregConfig {
  KnnConfig knn1{3, 2.0, true};  // Euclidean
  KnnConfig knn2{3, 5.0, true};  // higher-order Minkowski for diversity
  int max_iterations = 50;
  /// Size of the random unlabeled pool screened per iteration.
  size_t pool_size = 100;
  uint64_t seed = 11;
};

class Coreg : public SsrModel {
 public:
  explicit Coreg(CoregConfig config = {}) : config_(config) {}

  const char* name() const override { return "COREG"; }
  util::Status Fit(const Dataset& data) override;
  std::vector<double> Predict() const override;

  /// Number of pseudo-labels each regressor absorbed (diagnostics).
  int pseudo_labels_added() const { return pseudo_labels_added_; }

 private:
  CoregConfig config_;
  StandardScaler scaler_;
  std::unique_ptr<KnnCore> h1_, h2_;
  Matrix x_all_scaled_;
  int pseudo_labels_added_ = 0;
};

}  // namespace staq::ml
