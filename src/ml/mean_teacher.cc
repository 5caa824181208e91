#include "ml/mean_teacher.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace staq::ml {

namespace {

/// Sigmoid ramp-up from the Mean Teacher paper: exp(-5 (1 - t)^2).
double RampUp(double progress) {
  if (progress >= 1.0) return 1.0;
  double phase = 1.0 - progress;
  return std::exp(-5.0 * phase * phase);
}

}  // namespace

util::Status MeanTeacher::Fit(const Dataset& data) {
  STAQ_RETURN_NOT_OK(data.Validate());

  Matrix x_labeled = data.x.SelectRows(data.labeled);
  scaler_.Fit(x_labeled);
  x_all_scaled_ = scaler_.Transform(data.x);
  Matrix xs = scaler_.Transform(x_labeled);
  size_t dim = xs.cols();

  std::vector<double> y_labeled(data.labeled.size());
  for (size_t i = 0; i < data.labeled.size(); ++i) {
    y_labeled[i] = data.y[data.labeled[i]];
  }
  target_scaler_.Fit(y_labeled);
  std::vector<double> ys = target_scaler_.Transform(y_labeled);

  std::vector<uint32_t> unlabeled = data.UnlabeledIndices();

  util::Rng rng(config_.seed);
  DenseNet student(dim, config_.hidden, &rng);
  teacher_ = std::make_unique<DenseNet>(student);
  AdamOptimizer opt(student.num_params(), config_.learning_rate,
                    config_.weight_decay);

  size_t n = xs.rows();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::vector<double> grad(student.num_params());

  int rampup_epochs =
      std::max(1, static_cast<int>(config_.epochs * config_.rampup_fraction));

  // RNG draws follow the per-sample order (per consistency sample: the
  // pool pick, then the student/teacher noise interleaved per feature), and
  // gradient terms accumulate in ascending sample order.
  DenseNetScratch scratch, teacher_scratch;
  Matrix batch_x, noisy_x, noisy_teacher_x;
  std::vector<double> dloss;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    double consistency =
        config_.consistency_weight_max *
        RampUp(static_cast<double>(epoch) / rampup_epochs);
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += config_.batch_size) {
      size_t end = std::min(n, start + config_.batch_size);
      size_t batch = end - start;
      std::fill(grad.begin(), grad.end(), 0.0);

      // Supervised term.
      batch_x.Reset(batch, dim);
      for (size_t b = 0; b < batch; ++b) {
        std::memcpy(batch_x.row(b), xs.row(order[start + b]),
                    dim * sizeof(double));
      }
      student.ForwardBatch(batch_x.data().data(), batch, &scratch);
      dloss.resize(batch);
      {
        const Matrix& preds = scratch.acts.back();
        for (size_t b = 0; b < batch; ++b) {
          dloss[b] = (preds(b, 0) - ys[order[start + b]]) /
                     static_cast<double>(batch);
        }
      }
      student.BackwardBatch(batch_x.data().data(), batch, dloss, &grad,
                            &scratch);

      // Consistency term on a same-sized sample of unlabeled zones.
      if (!unlabeled.empty() && consistency > 0.0) {
        noisy_x.Reset(batch, dim);
        noisy_teacher_x.Reset(batch, dim);
        for (size_t b = 0; b < batch; ++b) {
          uint32_t u = unlabeled[static_cast<size_t>(
              rng.UniformU64(unlabeled.size()))];
          const double* row = x_all_scaled_.row(u);
          double* sr = noisy_x.row(b);
          double* tr = noisy_teacher_x.row(b);
          for (size_t c = 0; c < dim; ++c) {
            sr[c] = row[c] + rng.Normal(0.0, config_.input_noise);
            tr[c] = row[c] + rng.Normal(0.0, config_.input_noise);
          }
        }
        teacher_->ForwardBatch(noisy_teacher_x.data().data(), batch,
                               &teacher_scratch);
        student.ForwardBatch(noisy_x.data().data(), batch, &scratch);
        const Matrix& teacher_preds = teacher_scratch.acts.back();
        const Matrix& student_preds = scratch.acts.back();
        for (size_t b = 0; b < batch; ++b) {
          dloss[b] = consistency * (student_preds(b, 0) - teacher_preds(b, 0)) /
                     static_cast<double>(batch);
        }
        student.BackwardBatch(noisy_x.data().data(), batch, dloss, &grad,
                              &scratch);
      }

      opt.Step(&student.params(), grad);

      // EMA teacher update.
      auto& tp = teacher_->params();
      const auto& sp = student.params();
      for (size_t i = 0; i < tp.size(); ++i) {
        tp[i] = config_.ema_decay * tp[i] + (1.0 - config_.ema_decay) * sp[i];
      }
    }
  }
  return util::Status::OK();
}

std::vector<double> MeanTeacher::Predict() const {
  const size_t n = x_all_scaled_.rows();
  std::vector<double> out(n);
  DenseNetScratch scratch;
  teacher_->ForwardBatch(x_all_scaled_.data().data(), n, &scratch);
  const Matrix& preds = scratch.acts.back();
  for (size_t i = 0; i < n; ++i) {
    out[i] = target_scaler_.InverseTransform(preds(i, 0));
  }
  return out;
}

}  // namespace staq::ml
