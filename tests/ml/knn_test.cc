#include "ml/knn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "testing/test_data.h"
#include "util/rng.h"

namespace staq::ml {
namespace {

TEST(KnnCoreTest, SingleExamplePredictsItsTarget) {
  KnnCore core(KnnConfig{3, 2.0, true});
  core.Add({0.0, 0.0}, 5.0);
  double row[2] = {10.0, 10.0};
  EXPECT_DOUBLE_EQ(core.PredictOne(row, 2), 5.0);
}

TEST(KnnCoreTest, ExactMatchDominatesWeighting) {
  KnnCore core(KnnConfig{2, 2.0, true});
  core.Add({0.0, 0.0}, 1.0);
  core.Add({10.0, 0.0}, 100.0);
  double at_first[2] = {0.0, 0.0};
  // Inverse-distance weighting: a near-zero distance overwhelms.
  EXPECT_NEAR(core.PredictOne(at_first, 2), 1.0, 1e-3);
}

TEST(KnnCoreTest, UnweightedMeanOfKNearest) {
  KnnCore core(KnnConfig{2, 2.0, /*distance_weighted=*/false});
  core.Add({0.0}, 10.0);
  core.Add({1.0}, 20.0);
  core.Add({100.0}, 999.0);
  double q[1] = {0.5};
  EXPECT_DOUBLE_EQ(core.PredictOne(q, 1), 15.0);
}

TEST(KnnCoreTest, MinkowskiOrderChangesNeighbors) {
  // With p=2 the diagonal point is closer; with very high p (Chebyshev-ish)
  // the axis point wins.
  KnnConfig euclid{1, 2.0, false};
  KnnConfig high_p{1, 8.0, false};
  KnnCore a(euclid), b(high_p);
  for (KnnCore* core : {&a, &b}) {
    core->Add({3.0, 3.0}, 1.0);   // euclid dist 4.24, p8 ~3.0+
    core->Add({4.1, 0.0}, 2.0);   // euclid dist 4.1, p8 4.1
  }
  double q[2] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(a.PredictOne(q, 2), 2.0);
  EXPECT_DOUBLE_EQ(b.PredictOne(q, 2), 1.0);
}

TEST(KnnRegressorTest, FitsSmoothFunction) {
  auto data = testing::LinearDataset(300, 3, 150, 0.1, 11);
  KnnRegressor model(KnnConfig{5, 2.0, true});
  ASSERT_TRUE(model.Fit(data).ok());
  auto pred = model.Predict();
  ASSERT_EQ(pred.size(), 300u);
  // kNN won't be exact but must clearly beat predicting the mean.
  double mean = 0;
  for (double y : data.y) mean += y;
  mean /= data.y.size();
  std::vector<double> mean_pred(300, mean);
  EXPECT_LT(testing::UnlabeledMae(data, pred),
            0.8 * testing::UnlabeledMae(data, mean_pred));
}

TEST(KnnRegressorTest, LabeledRowsPredictNearTheirTargets) {
  auto data = testing::LinearDataset(100, 2, 40, 0.0, 12);
  KnnRegressor model(KnnConfig{3, 2.0, true});
  ASSERT_TRUE(model.Fit(data).ok());
  auto pred = model.Predict();
  for (uint32_t idx : data.labeled) {
    // The row itself is in the training set at distance 0.
    EXPECT_NEAR(pred[idx], data.y[idx], 1e-3);
  }
}

TEST(KnnRegressorTest, RejectsInvalidDataset) {
  KnnRegressor model;
  EXPECT_FALSE(model.Fit(Dataset{}).ok());
}

// ---- exact distance pins --------------------------------------------------
// The p=1 and small-integer-p paths avoid per-element std::pow; these pins
// are exact (EXPECT_EQ, not NEAR) so any rounding change in the fast paths
// is a test failure.

TEST(KnnDistanceTest, ManhattanDistanceIsExact) {
  KnnCore core(KnnConfig{1, 1.0, true});
  core.Add({1.5, 2.0, -3.0}, 0.0);
  double q[3] = {0.5, 0.25, 1.0};
  // |1.0| + |1.75| + |-4.0| = 6.75, representable exactly.
  EXPECT_EQ(core.DistanceTo(0, q, 3), 6.75);
}

TEST(KnnDistanceTest, EuclideanDistanceIsExact) {
  KnnCore core(KnnConfig{1, 2.0, true});
  core.Add({0.0, 0.0}, 0.0);
  double q[2] = {3.0, 4.0};
  EXPECT_EQ(core.DistanceTo(0, q, 2), 5.0);
}

TEST(KnnDistanceTest, SmallIntegerOrdersMatchPowOfExactSum) {
  // diffs {1, 2}: sum |d|^p is an exact small integer, so the reference
  // value is unambiguous: pow(sum, 1/p).
  KnnCore cubic(KnnConfig{1, 3.0, true});
  cubic.Add({0.0, 0.0}, 0.0);
  double q[2] = {1.0, 2.0};
  EXPECT_EQ(cubic.DistanceTo(0, q, 2), std::pow(9.0, 1.0 / 3.0));

  KnnCore quintic(KnnConfig{1, 5.0, true});  // COREG's second regressor
  quintic.Add({0.0, 0.0}, 0.0);
  EXPECT_EQ(quintic.DistanceTo(0, q, 2), std::pow(33.0, 1.0 / 5.0));

  KnnCore quartic(KnnConfig{1, 4.0, true});  // even order: no abs needed
  quartic.Add({0.0, -0.0}, 0.0);
  EXPECT_EQ(quartic.DistanceTo(0, q, 2), std::pow(17.0, 1.0 / 4.0));
}

TEST(KnnDistanceTest, FractionalOrderUsesGeneralFormula) {
  KnnCore core(KnnConfig{1, 2.5, true});
  core.Add({0.0, 0.0}, 0.0);
  double q[2] = {1.0, 2.0};
  double expected = std::pow(
      std::pow(1.0, 2.5) + std::pow(2.0, 2.5), 1.0 / 2.5);
  EXPECT_EQ(core.DistanceTo(0, q, 2), expected);
}

TEST(KnnDistanceTest, OrderOneEqualsGeneralMinkowskiFormula) {
  // pow(x, 1.0) == x exactly, so skipping the pow calls cannot change bits.
  KnnCore core(KnnConfig{1, 1.0, true});
  core.Add({0.3, -1.7, 2.9}, 0.0);
  double q[3] = {1.1, 0.2, -0.4};
  double general = 0.0;
  for (size_t c = 0; c < 3; ++c) {
    general += std::pow(std::abs(core.features(0)[c] - q[c]), 1.0);
  }
  general = std::pow(general, 1.0 / 1.0);
  EXPECT_EQ(core.DistanceTo(0, q, 3), general);
}

// ---- incremental neighbour caches ----------------------------------------

TEST(KnnCacheTest, UpdateNeighborsTracksFreshSelection) {
  util::Rng rng(31);
  KnnCore core(KnnConfig{3, 2.0, true});
  std::vector<double> q = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
  CachedNeighbors incremental;
  NeighborScratch scratch;
  for (int add = 0; add < 40; ++add) {
    core.Add({rng.Uniform(-1, 1), rng.Uniform(-1, 1)}, rng.Uniform(0, 10));
    core.UpdateNeighbors(q.data(), UINT32_MAX, &incremental, &scratch);
    CachedNeighbors fresh;
    core.UpdateNeighbors(q.data(), UINT32_MAX, &fresh, &scratch);
    ASSERT_EQ(incremental.sorted, fresh.sorted) << "after add " << add;
    ASSERT_EQ(incremental.version, core.size());
  }
}

TEST(KnnCacheTest, SkippedRootsMatchAFullScan) {
  // Top-k scans stop summing an example once its partial sum rules it out,
  // and take no root for it. Against every distance sorted in full, over
  // orders with each root path: rows on a thin shell around `center` (for
  // that query, every distance is within 1e-6 of the others, so most sums
  // sit near the bound), coarse grid rows (exact distance ties) and
  // duplicate rows (zero distances).
  for (double p : {1.0, 2.0, 3.0, 5.0, 1.5, 20.0}) {
    SCOPED_TRACE("p " + std::to_string(p));
    util::Rng rng(33);
    const size_t k = 4, dim = 5;
    KnnCore core(KnnConfig{static_cast<int>(k), p, true});
    const std::vector<double> center(dim, 0.25);
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < 120; ++i) {
      std::vector<double> row(dim);
      for (double& v : row) v = rng.Uniform(-2, 2);
      if (i % 3 == 0) {  // on the shell: p-norm 1 + O(1e-6) from center
        double norm = 0.0;
        for (double v : row) norm += std::pow(std::abs(v), p);
        const double scale =
            (1.0 + 1e-6 * rng.Uniform(0, 1)) / std::pow(norm, 1.0 / p);
        for (size_t c = 0; c < dim; ++c) row[c] = center[c] + row[c] * scale;
      } else if (i % 3 == 1) {
        for (double& v : row) v = std::round(v * 2.0) / 2.0;
      }
      if (i % 7 == 6) row = rows[static_cast<size_t>(i) / 2];
      rows.push_back(row);
    }
    CachedNeighbors streamed;
    NeighborScratch scratch;
    for (size_t i = 0; i < rows.size(); ++i) {
      core.Add(rows[i], 0.0);
      const std::vector<double>* queries[] = {&rows[(i * 5) % (i + 1)],
                                              &center};
      for (const std::vector<double>* q : queries) {
        for (uint32_t exclude : {UINT32_MAX, static_cast<uint32_t>(i / 2)}) {
          std::vector<std::pair<double, uint32_t>> full;
          for (uint32_t j = 0; j < core.size(); ++j) {
            if (j == exclude) continue;
            full.emplace_back(core.DistanceTo(j, q->data(), dim), j);
          }
          std::sort(full.begin(), full.end());
          full.resize(std::min(full.size(), k));
          const size_t len =
              core.SelectTopK(q->data(), dim, exclude, &scratch);
          const std::vector<std::pair<double, uint32_t>> selected(
              scratch.heap.begin(), scratch.heap.begin() + len);
          ASSERT_EQ(selected, full)
              << "store " << core.size() << " exclude " << exclude;
        }
      }
      // Streaming over the growing store, one query for all of it.
      core.UpdateNeighbors(center.data(), UINT32_MAX, &streamed, &scratch);
      CachedNeighbors fresh;
      core.UpdateNeighbors(center.data(), UINT32_MAX, &fresh, &scratch);
      ASSERT_EQ(streamed.sorted, fresh.sorted) << "store " << core.size();
    }
  }
}

TEST(KnnCacheTest, UpdateNeighborsReportsChanges) {
  KnnCore core(KnnConfig{2, 2.0, true});
  core.Add({0.0}, 1.0);
  core.Add({1.0}, 2.0);
  double q[1] = {0.0};
  CachedNeighbors cache;
  NeighborScratch scratch;
  EXPECT_TRUE(core.UpdateNeighbors(q, UINT32_MAX, &cache, &scratch));
  // No additions: nothing to do.
  EXPECT_FALSE(core.UpdateNeighbors(q, UINT32_MAX, &cache, &scratch));
  // A far point does not enter the top-2.
  core.Add({100.0}, 3.0);
  EXPECT_FALSE(core.UpdateNeighbors(q, UINT32_MAX, &cache, &scratch));
  // A near point evicts the current second neighbour.
  core.Add({0.25}, 4.0);
  EXPECT_TRUE(core.UpdateNeighbors(q, UINT32_MAX, &cache, &scratch));
  ASSERT_EQ(cache.sorted.size(), 2u);
  EXPECT_EQ(cache.sorted[0].second, 0u);
  EXPECT_EQ(cache.sorted[1].second, 3u);
}

TEST(KnnCacheTest, ChangedExcludeForcesRebuild) {
  KnnCore core(KnnConfig{2, 2.0, true});
  core.Add({0.0}, 1.0);
  core.Add({0.5}, 2.0);
  core.Add({1.0}, 3.0);
  double q[1] = {0.0};
  CachedNeighbors cache;
  NeighborScratch scratch;
  core.UpdateNeighbors(q, UINT32_MAX, &cache, &scratch);
  core.UpdateNeighbors(q, /*exclude=*/0, &cache, &scratch);
  ASSERT_EQ(cache.sorted.size(), 2u);
  for (const auto& [d, idx] : cache.sorted) EXPECT_NE(idx, 0u);
}

TEST(KnnCacheTest, ScratchReuseMatchesAllocatingPath) {
  util::Rng rng(32);
  KnnCore core(KnnConfig{4, 5.0, true});
  for (int i = 0; i < 30; ++i) {
    core.Add({rng.Uniform(-2, 2), rng.Uniform(-2, 2), rng.Uniform(-2, 2)},
             rng.Uniform(0, 5));
  }
  NeighborScratch scratch;  // shared across every call below
  for (int i = 0; i < 10; ++i) {
    double q[3] = {rng.Uniform(-2, 2), rng.Uniform(-2, 2),
                   rng.Uniform(-2, 2)};
    EXPECT_EQ(core.PredictOne(q, 3, &scratch), core.PredictOne(q, 3));
  }
}

TEST(KnnCacheTest, PredictFromListSupportsTentativeExtra) {
  KnnCore core(KnnConfig{2, 2.0, /*distance_weighted=*/false});
  core.Add({0.0}, 10.0);
  core.Add({1.0}, 20.0);
  // A tentative extra example (index == size()) with target 40 at the same
  // distance as example 0.
  std::pair<double, uint32_t> list[2] = {
      {1.0, 0u}, {2.0, static_cast<uint32_t>(core.size())}};
  EXPECT_EQ(core.PredictFromList(list, 2, /*extra_target=*/40.0), 25.0);
}

}  // namespace
}  // namespace staq::ml
