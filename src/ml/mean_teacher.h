// Mean Teacher semi-supervised regression (Tarvainen & Valpola, NeurIPS'17).
//
// A student MLP is trained with a supervised MSE on labeled zones plus a
// consistency loss pulling its predictions on noise-perturbed unlabeled
// zones toward those of a teacher network, whose weights are an exponential
// moving average of the student's. The consistency weight ramps up over
// training (the sigmoid-shaped ramp from the original paper).
#pragma once

#include <memory>

#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/scaler.h"

namespace staq::ml {

struct MeanTeacherConfig {
  std::vector<size_t> hidden = {64, 32};
  int epochs = 300;
  size_t batch_size = 32;
  double learning_rate = 1e-3;
  double weight_decay = 1e-4;
  double ema_decay = 0.99;
  double consistency_weight_max = 1.0;
  /// Fraction of training spent ramping the consistency weight up.
  double rampup_fraction = 0.4;
  /// Standard deviation of the input perturbation (features are
  /// standardised, so this is in units of feature sigma).
  double input_noise = 0.1;
  uint64_t seed = 13;
};

class MeanTeacher : public SsrModel {
 public:
  explicit MeanTeacher(MeanTeacherConfig config = {}) : config_(config) {}

  const char* name() const override { return "MT"; }
  util::Status Fit(const Dataset& data) override;
  std::vector<double> Predict() const override;

 private:
  MeanTeacherConfig config_;
  StandardScaler scaler_;
  TargetScaler target_scaler_;
  std::unique_ptr<DenseNet> teacher_;
  Matrix x_all_scaled_;
};

}  // namespace staq::ml
