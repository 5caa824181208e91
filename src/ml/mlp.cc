#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/kernels.h"
#include "ml/parallel.h"
#include "util/check.h"

namespace staq::ml {

namespace {

/// Samples per gradient chunk. Fixed — never derived from the thread
/// count — so the chunk layout, and with it the chunk-order gradient
/// reduction, is identical for every MlpConfig::threads value. At the
/// default batch size (16) a batch is a single chunk, which makes the
/// batched path bit-identical to per-sample Forward/Backward as well.
constexpr size_t kGradChunkSamples = 32;

}  // namespace

DenseNet::DenseNet(size_t input_dim, std::vector<size_t> hidden,
                   util::Rng* rng) {
  dims_.push_back(input_dim);
  for (size_t h : hidden) dims_.push_back(h);
  dims_.push_back(1);

  size_t total = 0;
  for (size_t l = 0; l + 1 < dims_.size(); ++l) {
    layer_offset_.push_back(total);
    total += dims_[l] * dims_[l + 1] + dims_[l + 1];
  }
  params_.resize(total);

  // He initialisation for ReLU layers; biases zero.
  for (size_t l = 0; l + 1 < dims_.size(); ++l) {
    size_t in = dims_[l], out = dims_[l + 1];
    double scale = std::sqrt(2.0 / static_cast<double>(in));
    double* w = params_.data() + layer_offset_[l];
    for (size_t i = 0; i < in * out; ++i) w[i] = rng->Normal(0.0, scale);
    // biases (the `out` doubles after W) remain zero.
  }
}

double DenseNet::Forward(const double* x,
                         std::vector<std::vector<double>>* activations) const {
  if (activations) {
    activations->assign(dims_.size() - 1, {});
  }
  std::vector<double> current(x, x + dims_[0]);
  for (size_t l = 0; l + 1 < dims_.size(); ++l) {
    size_t in = dims_[l], out = dims_[l + 1];
    const double* w = params_.data() + layer_offset_[l];
    const double* b = w + in * out;
    std::vector<double> next(out, 0.0);
    for (size_t i = 0; i < in; ++i) {
      double xi = current[i];
      if (xi == 0.0) continue;
      const double* w_row = w + i * out;
      for (size_t j = 0; j < out; ++j) next[j] += xi * w_row[j];
    }
    bool is_output = (l + 2 == dims_.size());
    for (size_t j = 0; j < out; ++j) {
      next[j] += b[j];
      if (!is_output && next[j] < 0.0) next[j] = 0.0;  // ReLU
    }
    if (activations) (*activations)[l] = next;
    current = std::move(next);
  }
  return current[0];
}

void DenseNet::ForwardBatch(const double* x, size_t batch,
                            DenseNetScratch* scratch) const {
  const size_t num_layers = dims_.size() - 1;
  scratch->acts.resize(num_layers);
  const double* current = x;
  size_t current_ld = dims_[0];
  for (size_t l = 0; l < num_layers; ++l) {
    const size_t in = dims_[l], out = dims_[l + 1];
    const double* w = params_.data() + layer_offset_[l];
    const double* b = w + in * out;
    Matrix& a = scratch->acts[l];
    a.Reset(batch, out);
    double* ad = a.data().data();
    // Accumulates ascending-k from zero, then bias, then ReLU — the same
    // per-element order Forward() uses for one sample.
    kernels::GemmAccumulate(batch, in, out, current, current_ld, w, out, ad,
                            out);
    const bool is_output = (l + 1 == num_layers);
    for (size_t r = 0; r < batch; ++r) {
      double* ar = ad + r * out;
      for (size_t j = 0; j < out; ++j) {
        ar[j] += b[j];
        if (!is_output && ar[j] < 0.0) ar[j] = 0.0;  // ReLU
      }
    }
    current = ad;
    current_ld = out;
  }
}

void DenseNet::Backward(const double* x,
                        const std::vector<std::vector<double>>& activations,
                        double dloss_dout, std::vector<double>* grad) const {
  STAQ_CHECK(grad->size() == params_.size(),
             "DenseNet::Backward: gradient size differs from parameters");
  size_t num_layers = dims_.size() - 1;
  std::vector<double> delta{dloss_dout};  // gradient wrt layer output

  for (size_t l = num_layers; l-- > 0;) {
    size_t in = dims_[l], out = dims_[l + 1];
    const double* input =
        (l == 0) ? x : activations[l - 1].data();
    const double* w = params_.data() + layer_offset_[l];
    double* gw = grad->data() + layer_offset_[l];
    double* gb = gw + in * out;

    // ReLU mask on hidden-layer outputs (output layer is linear).
    bool is_output = (l + 1 == num_layers);
    std::vector<double> local = delta;
    if (!is_output) {
      for (size_t j = 0; j < out; ++j) {
        if (activations[l][j] <= 0.0) local[j] = 0.0;
      }
    }

    for (size_t j = 0; j < out; ++j) gb[j] += local[j];
    std::vector<double> next_delta(in, 0.0);
    for (size_t i = 0; i < in; ++i) {
      double xi = input[i];
      const double* w_row = w + i * out;
      double* gw_row = gw + i * out;
      double acc = 0.0;
      for (size_t j = 0; j < out; ++j) {
        gw_row[j] += xi * local[j];
        acc += w_row[j] * local[j];
      }
      next_delta[i] = acc;
    }
    delta = std::move(next_delta);
  }
}

void DenseNet::BackwardBatch(const double* x, size_t batch,
                             const std::vector<double>& dloss,
                             std::vector<double>* grad,
                             DenseNetScratch* scratch) const {
  STAQ_CHECK(grad->size() == params_.size(),
             "DenseNet::BackwardBatch: gradient size differs from parameters");
  STAQ_CHECK(dloss.size() >= batch,
             "DenseNet::BackwardBatch: dloss shorter than batch");
  const size_t num_layers = dims_.size() - 1;
  STAQ_CHECK(scratch->acts.size() == num_layers,
             "DenseNet::BackwardBatch: activations not from ForwardBatch");
  for (size_t l = 0; l < num_layers; ++l) {
    STAQ_CHECK(scratch->acts[l].rows() == batch &&
                   scratch->acts[l].cols() == dims_[l + 1],
               "DenseNet::BackwardBatch: activation shape differs");
  }
  scratch->delta.Reset(batch, 1);
  std::copy(dloss.begin(), dloss.begin() + batch,
            scratch->delta.data().begin());

  for (size_t l = num_layers; l-- > 0;) {
    const size_t in = dims_[l], out = dims_[l + 1];
    const double* input = (l == 0) ? x : scratch->acts[l - 1].data().data();
    const double* w = params_.data() + layer_offset_[l];
    double* gw = grad->data() + layer_offset_[l];
    double* gb = gw + in * out;

    // delta is batch x out: the ReLU gate masks it in place (hidden layers
    // only; the output layer is linear).
    double* local = scratch->delta.data().data();
    const bool is_output = (l + 1 == num_layers);
    if (!is_output) {
      const double* act = scratch->acts[l].data().data();
      for (size_t i = 0; i < batch * out; ++i) {
        local[i] = act[i] <= 0.0 ? 0.0 : local[i];  // ReLU gate
      }
    }

    // gb[j] += sum over samples of local(r, j), ascending r.
    for (size_t r = 0; r < batch; ++r) {
      const double* lr = local + r * out;
      for (size_t j = 0; j < out; ++j) gb[j] += lr[j];
    }
    // gW += X^T local: per element, ascending sample order.
    kernels::GemmAtB(batch, in, out, input, in, local, out, gw, out);
    if (l > 0) {
      // next_delta(r, i) = sum_j W(i, j) local(r, j) from +0.0 in ascending
      // j, the per-sample Backward's dot product. GemmAtBt reads local
      // transposed (out x batch) and vectorises across samples.
      scratch->delta_t.Reset(out, batch);
      double* lt = scratch->delta_t.data().data();
      for (size_t r = 0; r < batch; ++r) {
        for (size_t j = 0; j < out; ++j) lt[j * batch + r] = local[r * out + j];
      }
      scratch->next_delta.Reset(batch, in);
      kernels::GemmAtBt(out, batch, in, lt, batch, w, out,
                        scratch->next_delta.data().data(), in);
      std::swap(scratch->delta, scratch->next_delta);
    }
  }
}

AdamOptimizer::AdamOptimizer(size_t num_params, double lr, double weight_decay)
    : lr_(lr),
      weight_decay_(weight_decay),
      m_(num_params, 0.0),
      v_(num_params, 0.0) {}

void AdamOptimizer::Step(std::vector<double>* params,
                         const std::vector<double>& grad) {
  STAQ_CHECK(params->size() == m_.size() && grad.size() == m_.size(),
             "AdamOptimizer::Step: size mismatch");
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // Locals and unaliased pointers let the loop vectorise (sqrt becomes
  // sqrtpd under -fno-math-errno). The expression is unchanged: division
  // and square root round correctly in every lane.
  const double beta1 = beta1_, beta2 = beta2_, eps = eps_, lr = lr_,
               weight_decay = weight_decay_;
  double* __restrict p = params->data();
  const double* __restrict g = grad.data();
  double* __restrict m = m_.data();
  double* __restrict v = v_.data();
  const size_t n = grad.size();
  for (size_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1 - beta1) * g[i];
    v[i] = beta2 * v[i] + (1 - beta2) * g[i] * g[i];
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    p[i] -= lr * (m_hat / (std::sqrt(v_hat) + eps) + weight_decay * p[i]);
  }
}

util::Status MlpRegressor::Fit(const Dataset& data) {
  STAQ_RETURN_NOT_OK(data.Validate());
  Matrix x_labeled = data.x.SelectRows(data.labeled);
  scaler_.Fit(x_labeled);
  Matrix xs = scaler_.Transform(x_labeled);

  std::vector<double> y_labeled(data.labeled.size());
  for (size_t i = 0; i < data.labeled.size(); ++i) {
    y_labeled[i] = data.y[data.labeled[i]];
  }
  target_scaler_.Fit(y_labeled);
  std::vector<double> ys = target_scaler_.Transform(y_labeled);

  util::Rng rng(config_.seed);
  net_ = std::make_unique<DenseNet>(xs.cols(), config_.hidden, &rng);
  AdamOptimizer opt(net_->num_params(), config_.learning_rate,
                    config_.weight_decay);

  size_t n = xs.rows();
  size_t dim = xs.cols();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::vector<double> grad(net_->num_params());

  // Each batch is cut into fixed-size sample chunks; every
  // chunk gathers its rows, runs one batched forward/backward, and (when
  // there is more than one chunk) accumulates into its own buffer. The
  // buffers reduce in chunk order, so the gradient — and the whole fit —
  // is identical for any threads value.
  struct ChunkSlot {
    Matrix x;                   // gathered input rows
    DenseNetScratch scratch;
    std::vector<double> dloss;
    std::vector<double> grad;   // partial gradient (multi-chunk only)
  };
  const size_t max_batch = std::min(n, std::max<size_t>(config_.batch_size, 1));
  const size_t num_slots = (max_batch + kGradChunkSamples - 1) / kGradChunkSamples;
  const bool multi_chunk = num_slots > 1;
  std::vector<ChunkSlot> slots(num_slots);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += config_.batch_size) {
      const size_t end = std::min(n, start + config_.batch_size);
      const size_t batch = end - start;
      std::fill(grad.begin(), grad.end(), 0.0);
      const size_t chunks =
          (batch + kGradChunkSamples - 1) / kGradChunkSamples;
      ForEachChunk(
          config_.threads, batch, kGradChunkSamples,
          [&](size_t c, size_t cb, size_t ce) {
            ChunkSlot& slot = slots[c];
            const size_t m = ce - cb;
            slot.x.Reset(m, dim);
            for (size_t r = 0; r < m; ++r) {
              std::memcpy(slot.x.row(r), xs.row(order[start + cb + r]),
                          dim * sizeof(double));
            }
            net_->ForwardBatch(slot.x.data().data(), m, &slot.scratch);
            const Matrix& out_act = slot.scratch.acts.back();
            slot.dloss.resize(m);
            for (size_t r = 0; r < m; ++r) {
              slot.dloss[r] = (out_act(r, 0) - ys[order[start + cb + r]]) /
                              static_cast<double>(batch);
            }
            std::vector<double>* g = &grad;
            if (multi_chunk) {
              slot.grad.assign(grad.size(), 0.0);
              g = &slot.grad;
            }
            net_->BackwardBatch(slot.x.data().data(), m, slot.dloss, g,
                                &slot.scratch);
          });
      if (multi_chunk) {
        for (size_t c = 0; c < chunks; ++c) {
          kernels::Axpy(grad.size(), 1.0, slots[c].grad.data(), grad.data());
        }
      }
      opt.Step(&net_->params(), grad);
    }
  }

  x_all_scaled_ = scaler_.Transform(data.x);
  return util::Status::OK();
}

std::vector<double> MlpRegressor::Predict() const {
  const size_t n = x_all_scaled_.rows();
  std::vector<double> out(n);
  DenseNetScratch scratch;
  net_->ForwardBatch(x_all_scaled_.data().data(), n, &scratch);
  const Matrix& preds = scratch.acts.back();
  for (size_t i = 0; i < n; ++i) {
    out[i] = target_scaler_.InverseTransform(preds(i, 0));
  }
  return out;
}

}  // namespace staq::ml
