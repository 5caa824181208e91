#include "ml/coreg.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/test_data.h"

namespace staq::ml {
namespace {

TEST(CoregTest, FitsSmoothFunctionBeatsMeanBaseline) {
  auto data = testing::LinearDataset(300, 3, 60, 0.1, 21);
  Coreg model;
  ASSERT_TRUE(model.Fit(data).ok());
  auto pred = model.Predict();
  ASSERT_EQ(pred.size(), 300u);
  double mean = 0;
  for (double y : data.y) mean += y;
  mean /= data.y.size();
  std::vector<double> mean_pred(300, mean);
  EXPECT_LT(testing::UnlabeledMae(data, pred),
            0.8 * testing::UnlabeledMae(data, mean_pred));
}

TEST(CoregTest, AddsPseudoLabels) {
  auto data = testing::LinearDataset(300, 3, 30, 0.05, 22);
  CoregConfig config;
  config.max_iterations = 20;
  Coreg model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  // On smooth data, co-training should find beneficial pseudo-labels.
  EXPECT_GT(model.pseudo_labels_added(), 0);
}

TEST(CoregTest, DeterministicForSameSeed) {
  auto data = testing::LinearDataset(150, 3, 30, 0.2, 23);
  Coreg a, b;
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  EXPECT_EQ(a.Predict(), b.Predict());
}

TEST(CoregTest, WorksWithNoUnlabeledData) {
  auto data = testing::LinearDataset(50, 2, 50, 0.1, 24);  // all labeled
  Coreg model;
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_EQ(model.pseudo_labels_added(), 0);
  EXPECT_EQ(model.Predict().size(), 50u);
}

TEST(CoregTest, SmallPoolBound) {
  auto data = testing::LinearDataset(40, 2, 10, 0.1, 25);
  CoregConfig config;
  config.pool_size = 5;
  config.max_iterations = 100;  // more iterations than pool+unlabeled
  Coreg model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  // Cannot add more pseudo-labels than there are unlabeled points, and each
  // iteration adds at most 2.
  EXPECT_LE(model.pseudo_labels_added(), 30 + 2);
}

TEST(CoregTest, PoolLargerThanUnlabeledSet) {
  auto data = testing::LinearDataset(30, 2, 25, 0.1, 26);  // only 5 unlabeled
  CoregConfig config;
  config.pool_size = 100;  // exceeds the unlabeled count
  config.max_iterations = 10;
  Coreg model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_LE(model.pseudo_labels_added(), 10);  // can't exceed 2x unlabeled
  EXPECT_EQ(model.Predict().size(), 30u);
}

TEST(CoregTest, RejectsInvalidDataset) {
  Coreg model;
  EXPECT_FALSE(model.Fit(Dataset{}).ok());
}

TEST(CoregTest, NameIsStable) { EXPECT_STREQ(Coreg().name(), "COREG"); }

TEST(CoregTest, EmptyPoolTrainsSupervisedOnly) {
  auto data = testing::LinearDataset(60, 2, 20, 0.1, 27);
  CoregConfig config;
  config.pool_size = 0;  // nothing to screen: degenerate co-training
  Coreg model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_EQ(model.pseudo_labels_added(), 0);
  auto pred = model.Predict();
  ASSERT_EQ(pred.size(), 60u);
  for (double p : pred) EXPECT_TRUE(std::isfinite(p));
}

TEST(CoregTest, ExhaustsReplenishedPool) {
  // Pool smaller than the unlabeled set and more iterations than needed:
  // backfill must keep the pool full until the unlabeled set runs dry, and
  // Fit must terminate cleanly once it does.
  auto data = testing::LinearDataset(40, 2, 28, 0.01, 28);  // 12 unlabeled
  CoregConfig config;
  config.pool_size = 3;
  config.max_iterations = 1000;
  Coreg model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_LE(model.pseudo_labels_added(), 12);
  EXPECT_EQ(model.Predict().size(), 40u);
}

}  // namespace
}  // namespace staq::ml
