// Cross-commit goldens for the SSR models' predictions.
//
// GNN, OLS and COREG have no per-sample oracle to compare against, so a
// change to the shared numeric kernels (ml/kernels.h) that altered one of
// their additions would otherwise go unnoticed. Each model is fitted with
// the library defaults on one fixed serve-shaped dataset (324 zones x 20
// features, 32 labeled — one Brindale SSR answer at beta 0.1) and its
// predictions are reduced to a digest of their exact bits: FNV-1a over the
// "%a" hex-float text of every value. The digests were recorded before the
// kernels were register-tiled; a kernel rewrite must leave them unchanged.
//
// TrainingPathGoldenTest pins the training paths on the inputs where they
// were once checked bit for bit against the originals they replaced (COREG's
// full-rescan screening, per-sample MLP and Mean Teacher updates), so those
// originals' outputs stay guarded after their removal.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "ml/coreg.h"
#include "ml/mean_teacher.h"
#include "ml/mlp.h"
#include "ml/model_factory.h"
#include "testing/digest.h"
#include "testing/test_data.h"

namespace staq::ml {
namespace {

using testing::HexFloatDigest;

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

TEST(TrainingPathGoldenTest, CoregScreening) {
  struct Case {
    uint64_t seed;
    int pseudo_labels;
    uint64_t digest;
  };
  for (const Case& c : {Case{29, 60, 0x602da9fb4c1466c3ull},
                        Case{30, 60, 0x66ae73f19cd4e6bcull},
                        Case{31, 60, 0xe094f9f3f7bb6454ull}}) {
    auto data = testing::LinearDataset(160, 3, 24, 0.15, c.seed);
    CoregConfig config;
    config.max_iterations = 30;
    Coreg model(config);
    ASSERT_TRUE(model.Fit(data).ok());
    EXPECT_EQ(model.pseudo_labels_added(), c.pseudo_labels)
        << "seed " << c.seed;
    const uint64_t digest = HexFloatDigest(model.Predict());
    EXPECT_EQ(digest, c.digest) << "seed " << c.seed << " digest 0x"
                                << std::hex << digest;
  }
}

TEST(TrainingPathGoldenTest, MlpAtDefaultBatchSize) {
  // The last two shapes are the serve shape: 324 zones x 20 features, 16
  // and 32 labeled.
  for (auto [n, d, labeled, golden] :
       {std::tuple<size_t, size_t, size_t, uint64_t>{
            120, 3, 60, 0xc6cf989f6964a9f3ull},
        {324, 20, 16, 0x28eda40f80b31f16ull},
        {324, 20, 32, 0xc9e1b27a5a78349aull}}) {
    auto data = testing::LinearDataset(n, d, labeled, 0.1, 43);
    MlpConfig config;
    config.epochs = 30;
    config.threads = 8;
    MlpRegressor model(config);
    ASSERT_TRUE(model.Fit(data).ok());
    const uint64_t digest = HexFloatDigest(model.Predict());
    EXPECT_EQ(digest, golden) << n << " x " << d << ", " << labeled
                              << " labeled: digest 0x" << std::hex << digest;
  }
}

TEST(TrainingPathGoldenTest, MeanTeacher) {
  auto data = testing::LinearDataset(150, 3, 40, 0.1, 44);
  MeanTeacherConfig config;
  config.epochs = 30;
  MeanTeacher model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  const uint64_t digest = HexFloatDigest(model.Predict());
  EXPECT_EQ(digest, 0x02fb43ceb9242a99ull) << "digest 0x" << std::hex
                                           << digest;
}

}  // namespace
}  // namespace staq::ml
