// Multi-layer perceptron regression and its reusable pieces.
//
// DenseNet (a feed-forward net with ReLU hidden layers and a scalar linear
// output) plus an Adam optimiser, written without any autodiff framework —
// this is the C++ substitute for the paper's PyTorch MLP, and the Mean
// Teacher model reuses both.
//
// Training runs mini-batches through the register-tiled GEMM kernels
// (ForwardBatch/BackwardBatch); per parameter, gradient terms accumulate in
// ascending sample order — the order of one sample's forward/backward pass
// after another, which tests/testing/per_sample_mlp.h writes out as the
// gradient reference the tests check against — so results are
// deterministic per (seed, batch size).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/matrix.h"
#include "ml/model.h"
#include "ml/scaler.h"
#include "util/rng.h"

namespace staq::ml {

/// Reusable buffers for batched forward/backward passes. Owned by the
/// caller; contents are scratch.
struct DenseNetScratch {
  std::vector<Matrix> acts;  // per-layer activations, batch x width
  Matrix delta;              // gradient wrt current layer output
  Matrix delta_t;            // delta transposed, out x batch
  Matrix next_delta;
};

/// Fully-connected scalar-output network. Parameters live in one flat
/// vector (per layer: row-major W[in][out], then b[out]) so optimisers and
/// EMA copies can treat them uniformly.
class DenseNet {
 public:
  /// He-initialised network with the given hidden widths.
  DenseNet(size_t input_dim, std::vector<size_t> hidden, util::Rng* rng);

  size_t input_dim() const { return dims_.front(); }
  /// Layer widths: [input, hidden..., 1].
  const std::vector<size_t>& dims() const { return dims_; }
  size_t num_params() const { return params_.size(); }
  std::vector<double>& params() { return params_; }
  const std::vector<double>& params() const { return params_; }

  /// Forward pass for `batch` samples in row-major `x` (batch x
  /// input_dim()); activations land in scratch->acts, whose back() is the
  /// batch x 1 output column. Per sample this computes exactly what a
  /// one-sample pass computes.
  void ForwardBatch(const double* x, size_t batch,
                    DenseNetScratch* scratch) const;

  /// Accumulates dL/dparams into `grad` for a batch, given the per-sample
  /// upstream gradients `dloss` (size batch). scratch->acts must come from
  /// ForwardBatch on the same x. Per parameter, sample contributions
  /// accumulate in ascending batch order — one sample's backward pass after
  /// another.
  void BackwardBatch(const double* x, size_t batch,
                     const std::vector<double>& dloss,
                     std::vector<double>* grad,
                     DenseNetScratch* scratch) const;

 private:
  std::vector<size_t> dims_;          // [in, h1, ..., 1]
  std::vector<size_t> layer_offset_;  // offset of each layer's W in params_
  std::vector<double> params_;
};

/// Adam optimiser with decoupled weight decay (AdamW).
class AdamOptimizer {
 public:
  AdamOptimizer(size_t num_params, double lr, double weight_decay = 0.0);

  /// Applies one update in place; `grad` must match the parameter size.
  void Step(std::vector<double>* params, const std::vector<double>& grad);

  void set_lr(double lr) { lr_ = lr; }

 private:
  double lr_;
  double weight_decay_;
  double beta1_ = 0.9;
  double beta2_ = 0.999;
  double eps_ = 1e-8;
  int64_t t_ = 0;
  std::vector<double> m_, v_;
};

struct MlpConfig {
  std::vector<size_t> hidden = {64, 32};
  int epochs = 500;
  /// Samples per mini-batch. Each batch runs as one forward/backward pass,
  /// so its gradient accumulates in ascending sample order at every size.
  /// Batches of more than 32 samples were once cut into 32-sample chunks
  /// summed in chunk order; such fits now get different, equally valid
  /// bits (batches of up to 32 are unchanged).
  size_t batch_size = 16;
  double learning_rate = 1e-3;
  double weight_decay = 1e-4;
  uint64_t seed = 7;
};

/// Supervised MLP on the labeled rows (the paper's strongest model).
class MlpRegressor : public SsrModel {
 public:
  explicit MlpRegressor(MlpConfig config = {}) : config_(config) {}

  const char* name() const override { return "MLP"; }
  util::Status Fit(const Dataset& data) override;
  std::vector<double> Predict() const override;

 private:
  MlpConfig config_;
  StandardScaler scaler_;
  TargetScaler target_scaler_;
  std::unique_ptr<DenseNet> net_;
  Matrix x_all_scaled_;
};

}  // namespace staq::ml
