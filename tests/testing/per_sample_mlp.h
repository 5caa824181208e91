// Per-sample DenseNet passes: the gradient reference for the batched
// ForwardBatch/BackwardBatch pair (ml/mlp.h), which is all fits run.
//
// One sample at a time, with plain matrix-vector loops over the net's flat
// parameter layout (per layer: row-major W[in][out], then b[out]). Running
// samples in ascending order and accumulating into one gradient must equal
// the batched kernels bit for bit, whatever the 2x8 register tiles do with
// row and column tails.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "ml/mlp.h"
#include "util/check.h"

namespace staq::testing {

/// Offset of each layer's W in DenseNet::params().
inline std::vector<size_t> DenseNetLayerOffsets(const ml::DenseNet& net) {
  const std::vector<size_t>& dims = net.dims();
  std::vector<size_t> offsets;
  size_t total = 0;
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    offsets.push_back(total);
    total += dims[l] * dims[l + 1] + dims[l + 1];
  }
  return offsets;
}

/// Forward pass for one sample. When `activations` is non-null it receives
/// the post-nonlinearity outputs of every layer (needed by
/// PerSampleBackward).
inline double PerSampleForward(
    const ml::DenseNet& net, const double* x,
    std::vector<std::vector<double>>* activations = nullptr) {
  const std::vector<size_t>& dims = net.dims();
  const std::vector<size_t> layer_offset = DenseNetLayerOffsets(net);
  if (activations) {
    activations->assign(dims.size() - 1, {});
  }
  std::vector<double> current(x, x + dims[0]);
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    size_t in = dims[l], out = dims[l + 1];
    const double* w = net.params().data() + layer_offset[l];
    const double* b = w + in * out;
    std::vector<double> next(out, 0.0);
    for (size_t i = 0; i < in; ++i) {
      double xi = current[i];
      if (xi == 0.0) continue;
      const double* w_row = w + i * out;
      for (size_t j = 0; j < out; ++j) next[j] += xi * w_row[j];
    }
    bool is_output = (l + 2 == dims.size());
    for (size_t j = 0; j < out; ++j) {
      next[j] += b[j];
      if (!is_output && next[j] < 0.0) next[j] = 0.0;  // ReLU
    }
    if (activations) (*activations)[l] = next;
    current = std::move(next);
  }
  return current[0];
}

/// Accumulates dL/dparams into `grad` (same layout/size as params) given
/// the upstream scalar gradient dL/doutput. `activations` must come from
/// PerSampleForward() on the same x.
inline void PerSampleBackward(
    const ml::DenseNet& net, const double* x,
    const std::vector<std::vector<double>>& activations, double dloss_dout,
    std::vector<double>* grad) {
  const std::vector<size_t>& dims = net.dims();
  const std::vector<size_t> layer_offset = DenseNetLayerOffsets(net);
  STAQ_CHECK(grad->size() == net.num_params(),
             "PerSampleBackward: gradient size differs from parameters");
  size_t num_layers = dims.size() - 1;
  std::vector<double> delta{dloss_dout};  // gradient wrt layer output

  for (size_t l = num_layers; l-- > 0;) {
    size_t in = dims[l], out = dims[l + 1];
    const double* input =
        (l == 0) ? x : activations[l - 1].data();
    const double* w = net.params().data() + layer_offset[l];
    double* gw = grad->data() + layer_offset[l];
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

}  // namespace staq::testing
