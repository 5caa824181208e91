#include "ml/mlp.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "testing/per_sample_mlp.h"
#include "testing/test_data.h"

namespace staq::ml {
namespace {

TEST(DenseNetTest, ParameterCountMatchesArchitecture) {
  util::Rng rng(1);
  DenseNet net(4, {8, 4}, &rng);
  // 4*8+8 + 8*4+4 + 4*1+1 = 40 + 36 + 5.
  EXPECT_EQ(net.num_params(), 81u);
  EXPECT_EQ(net.input_dim(), 4u);
}

/// Sum of the net's outputs over a batch (row-major x, batch x in).
double BatchOutputSum(const DenseNet& net, const std::vector<double>& x,
                      size_t batch) {
  DenseNetScratch scratch;
  net.ForwardBatch(x.data(), batch, &scratch);
  double sum = 0.0;
  for (size_t r = 0; r < batch; ++r) sum += scratch.acts.back()(r, 0);
  return sum;
}

TEST(DenseNetTest, ForwardIsDeterministic) {
  util::Rng rng(2);
  DenseNet net(3, {8}, &rng);
  std::vector<double> x = {1.0, -0.5, 2.0};
  EXPECT_EQ(BatchOutputSum(net, x, 1), BatchOutputSum(net, x, 1));
}

TEST(DenseNetTest, GradientMatchesFiniteDifference) {
  util::Rng rng(3);
  DenseNet net(3, {5, 4}, &rng);
  // Three samples; the loss is the sum of their outputs.
  std::vector<double> x = {0.7, -1.2, 0.3, -0.4, 0.9, 1.1, 0.2, 0.5, -0.8};
  const size_t batch = 3;

  DenseNetScratch scratch;
  net.ForwardBatch(x.data(), batch, &scratch);
  std::vector<double> grad(net.num_params(), 0.0);
  net.BackwardBatch(x.data(), batch, std::vector<double>(batch, 1.0), &grad,
                    &scratch);

  const double eps = 1e-6;
  // Spot-check a spread of parameters against central differences.
  for (size_t p = 0; p < net.num_params(); p += 7) {
    double saved = net.params()[p];
    net.params()[p] = saved + eps;
    double up = BatchOutputSum(net, x, batch);
    net.params()[p] = saved - eps;
    double down = BatchOutputSum(net, x, batch);
    net.params()[p] = saved;
    double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(grad[p], numeric, 1e-5)
        << "param " << p << " analytic " << grad[p] << " numeric " << numeric;
  }
}

TEST(DenseNetTest, BackwardAccumulates) {
  util::Rng rng(4);
  DenseNet net(2, {4}, &rng);
  std::vector<double> x = {1.0, 1.0, 0.5, -1.0};
  const std::vector<double> dloss = {1.0, 0.5};
  DenseNetScratch scratch;
  net.ForwardBatch(x.data(), 2, &scratch);
  std::vector<double> grad(net.num_params(), 0.0);
  net.BackwardBatch(x.data(), 2, dloss, &grad, &scratch);
  std::vector<double> once = grad;
  // BackwardBatch leaves the forward activations in place, so the same
  // scratch backs a second pass.
  net.BackwardBatch(x.data(), 2, dloss, &grad, &scratch);
  for (size_t p = 0; p < grad.size(); ++p) {
    EXPECT_NEAR(grad[p], 2 * once[p], 1e-12);
  }
}

TEST(DenseNetTest, BatchFormsBitIdenticalToPerSamplePasses) {
  // Widths and batch sizes off the 2x8 register tile: odd batches leave a
  // row tail, widths that are not multiples of 8 a column tail.
  struct Shape {
    size_t input;
    std::vector<size_t> hidden;
  };
  const std::vector<Shape> shapes = {
      {3, {5, 4}}, {7, {13, 9}}, {20, {64, 32}}, {9, {17}}};
  util::Rng rng(21);
  for (const Shape& shape : shapes) {
    DenseNet net(shape.input, shape.hidden, &rng);
    for (size_t batch : {1u, 2u, 3u, 5u, 16u, 17u}) {
      SCOPED_TRACE("input " + std::to_string(shape.input) + " batch " +
                   std::to_string(batch));
      std::vector<double> x(batch * shape.input);
      for (double& v : x) v = rng.Normal(0.0, 1.0);
      std::vector<double> dloss(batch);
      for (double& v : dloss) v = rng.Normal(0.0, 0.5);

      // Both accumulate into the same non-zero gradient, so the order of
      // every addition into it shows.
      std::vector<double> start(net.num_params());
      for (double& v : start) v = rng.Normal(0.0, 0.1);

      DenseNetScratch scratch;
      net.ForwardBatch(x.data(), batch, &scratch);
      std::vector<double> grad = start;
      net.BackwardBatch(x.data(), batch, dloss, &grad, &scratch);

      std::vector<double> want_grad = start;
      for (size_t r = 0; r < batch; ++r) {
        const double* xr = x.data() + r * shape.input;
        std::vector<std::vector<double>> acts;
        const double out = testing::PerSampleForward(net, xr, &acts);
        for (size_t l = 0; l < acts.size(); ++l) {
          for (size_t j = 0; j < acts[l].size(); ++j) {
            ASSERT_EQ(std::bit_cast<uint64_t>(scratch.acts[l](r, j)),
                      std::bit_cast<uint64_t>(acts[l][j]))
                << "layer " << l << " sample " << r << " unit " << j;
          }
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(scratch.acts.back()(r, 0)),
                  std::bit_cast<uint64_t>(out));
        testing::PerSampleBackward(net, xr, acts, dloss[r], &want_grad);
      }
      for (size_t p = 0; p < grad.size(); ++p) {
        ASSERT_EQ(std::bit_cast<uint64_t>(grad[p]),
                  std::bit_cast<uint64_t>(want_grad[p]))
            << "param " << p;
      }
    }
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimise (w - 3)^2 for each of 4 params.
  std::vector<double> params(4, 0.0);
  AdamOptimizer opt(4, 0.1, 0.0);
  for (int step = 0; step < 500; ++step) {
    std::vector<double> grad(4);
    for (size_t i = 0; i < 4; ++i) grad[i] = 2 * (params[i] - 3.0);
    opt.Step(&params, grad);
  }
  for (double w : params) EXPECT_NEAR(w, 3.0, 1e-3);
}

TEST(AdamTest, WeightDecayShrinksTowardZero) {
  std::vector<double> params{10.0};
  AdamOptimizer opt(1, 0.05, 0.5);
  for (int step = 0; step < 300; ++step) {
    opt.Step(&params, {0.0});  // no gradient, only decay
  }
  EXPECT_LT(std::abs(params[0]), 1.0);
}

TEST(AdamTest, VectorisedStepMatchesScalarLoopBitForBit) {
  // The scalar loop Step replaced, verbatim: the vectorised step must keep
  // its expression and operation order, so every bit must agree.
  struct ScalarAdam {
    ScalarAdam(size_t n, double lr, double weight_decay)
        : lr(lr), weight_decay(weight_decay), m(n, 0.0), v(n, 0.0) {}
    double lr, weight_decay, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    int64_t t = 0;
    std::vector<double> m, v;
    void Step(std::vector<double>* params, const std::vector<double>& grad) {
      ++t;
      double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
      double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
      for (size_t i = 0; i < grad.size(); ++i) {
        m[i] = beta1 * m[i] + (1 - beta1) * grad[i];
        v[i] = beta2 * v[i] + (1 - beta2) * grad[i] * grad[i];
        double m_hat = m[i] / bc1;
        double v_hat = v[i] / bc2;
        (*params)[i] -= lr * (m_hat / (std::sqrt(v_hat) + eps) +
                              weight_decay * (*params)[i]);
      }
    }
  };
  // The default MLP's parameter count (odd, so the vector loop has a tail).
  const size_t n = 20 * 64 + 64 + 64 * 32 + 32 + 32 + 1;
  util::Rng rng(11);
  std::vector<double> params(n);
  for (double& p : params) p = rng.Normal(0.0, 0.3);
  std::vector<double> reference = params;
  AdamOptimizer opt(n, 1e-3, 1e-4);
  ScalarAdam scalar(n, 1e-3, 1e-4);
  std::vector<double> grad(n);
  for (int step = 0; step < 300; ++step) {
    for (size_t i = 0; i < n; ++i) {
      // Some exact zeros and tiny magnitudes keep v near eps's scale.
      grad[i] = i % 7 == 0 ? 0.0 : rng.Normal(0.0, i % 5 == 0 ? 1e-9 : 1.0);
    }
    opt.Step(&params, grad);
    scalar.Step(&reference, grad);
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(params[i]),
              std::bit_cast<uint64_t>(reference[i]))
        << "param " << i;
  }
}

MlpConfig FastMlp(uint64_t seed) {
  MlpConfig config;
  config.epochs = 150;
  config.hidden = {32, 16};
  config.seed = seed;
  return config;
}

TEST(MlpRegressorTest, LearnsLinearFunction) {
  auto data = testing::LinearDataset(250, 3, 100, 0.1, 41);
  MlpRegressor model(FastMlp(1));
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_LT(testing::UnlabeledMae(data, model.Predict()), 0.8);
}

TEST(MlpRegressorTest, LearnsNonlinearFunction) {
  // y = x0^2 + sin(3 x1): beyond OLS, a small MLP should fit it.
  util::Rng rng(42);
  Dataset data;
  size_t n = 400;
  data.x = Matrix(n, 2);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.x(i, 0) = rng.Uniform(-2, 2);
    data.x(i, 1) = rng.Uniform(-2, 2);
    data.y[i] = data.x(i, 0) * data.x(i, 0) + std::sin(3 * data.x(i, 1));
  }
  auto sample = rng.SampleWithoutReplacement(n, 250);
  data.labeled.assign(sample.begin(), sample.end());

  MlpConfig config = FastMlp(2);
  config.epochs = 400;
  MlpRegressor model(config);
  ASSERT_TRUE(model.Fit(data).ok());

  double mlp_mae = testing::UnlabeledMae(data, model.Predict());
  EXPECT_LT(mlp_mae, 0.5);
}

TEST(MlpRegressorTest, DeterministicForSameSeed) {
  auto data = testing::LinearDataset(120, 3, 60, 0.2, 43);
  // 64 runs each batch of more than 32 samples as one forward/backward.
  for (size_t batch_size : {size_t{16}, size_t{64}}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    MlpConfig config = FastMlp(5);
    config.batch_size = batch_size;
    MlpRegressor a(config), b(config);
    ASSERT_TRUE(a.Fit(data).ok());
    ASSERT_TRUE(b.Fit(data).ok());
    const std::vector<double> predictions = a.Predict();
    for (double v : predictions) EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(predictions, b.Predict());
  }
}

TEST(MlpRegressorTest, RejectsInvalidDataset) {
  MlpRegressor model;
  EXPECT_FALSE(model.Fit(Dataset{}).ok());
}

TEST(MlpRegressorTest, NameIsStable) {
  EXPECT_STREQ(MlpRegressor().name(), "MLP");
}

}  // namespace
}  // namespace staq::ml
