// Cross-commit golden for every SSR model's predictions.
//
// GNN, OLS and COREG have no per-sample oracle to compare against, so a
// change to the shared numeric kernels (ml/kernels.h) that altered one of
// their additions would otherwise go unnoticed. Each model is fitted with
// the library defaults on one fixed serve-shaped dataset (324 zones x 20
// features, 32 labeled — one Brindale SSR answer at beta 0.1) and its
// predictions are reduced to a digest of their exact bits: FNV-1a over the
// "%a" hex-float text of every value. The digests were recorded before the
// kernels were register-tiled; a kernel rewrite must leave them unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "ml/model_factory.h"
#include "testing/test_data.h"

namespace staq::ml {
namespace {

uint64_t HexFloatDigest(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  char buf[64];
  for (double v : values) {
    const int len = std::snprintf(buf, sizeof(buf), "%a;", v);
    for (int i = 0; i < len; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;  // FNV-1a 64 prime
    }
  }
  return h;
}

uint64_t GoldenDigest(ModelKind kind) {
  switch (kind) {
    case ModelKind::kOls: return 0xf8591f4342a949f9ull;
    case ModelKind::kMlp: return 0xe6a96750192f6963ull;
    case ModelKind::kCoreg: return 0xd30b73f812af4b17ull;
    case ModelKind::kMeanTeacher: return 0x23a17552f758df67ull;
    case ModelKind::kGnn: return 0xbc86d498414031b0ull;
  }
  return 0;
}

class ModelGoldenTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelGoldenTest, PredictionsMatchRecordedDigest) {
  const auto data = testing::LinearDataset(324, 20, 32, 0.1, 7919);
  auto model = CreateModel(GetParam(), /*seed=*/17);
  ASSERT_TRUE(model->Fit(data).ok()) << model->name();
  const auto pred = model->Predict();
  ASSERT_EQ(pred.size(), data.num_instances());
  const uint64_t digest = HexFloatDigest(pred);
  EXPECT_EQ(digest, GoldenDigest(GetParam()))
      << model->name() << " digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelGoldenTest, ::testing::ValuesIn(AllModelKinds()),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return std::string(ModelKindName(info.param));
    });

}  // namespace
}  // namespace staq::ml
