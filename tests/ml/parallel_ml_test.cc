// Bit-identity of the parallel SSR training paths across thread counts.
//
// COREG pool screening and MLP gradient computation fan out across the
// shared util::ThreadPool, but chunk layout is fixed by the input size and
// every reduction runs serially in a fixed order — so any thread count must
// produce byte-for-byte the same model. These suites EXPECT_EQ (not NEAR)
// whole prediction vectors across ml_threads values, at the model level and
// through the full pipeline on both synthetic city families. Labeled
// `concurrency`, so the TSAN build covers the fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/pipeline.h"
#include "ml/coreg.h"
#include "ml/mlp.h"
#include "ml/parallel.h"
#include "testing/test_data.h"

namespace staq::ml {
namespace {

TEST(ForEachChunkTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> seen(103);
    ForEachChunk(threads, seen.size(), 8,
                 [&](size_t, size_t begin, size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     seen[i].fetch_add(1, std::memory_order_relaxed);
                   }
                 });
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ForEachChunkTest, ChunkLayoutIndependentOfThreadCount) {
  // body(chunk, begin, end) must see the same (chunk -> [begin, end)) map
  // for every thread count; only the executing thread may differ.
  auto layout_for = [](int threads) {
    std::vector<std::pair<size_t, size_t>> layout(7, {SIZE_MAX, SIZE_MAX});
    ForEachChunk(threads, 50, 8, [&](size_t chunk, size_t begin, size_t end) {
      layout[chunk] = {begin, end};
    });
    return layout;
  };
  auto reference = layout_for(1);
  EXPECT_EQ(layout_for(2), reference);
  EXPECT_EQ(layout_for(8), reference);
}

TEST(ParallelCoregTest, ThreadCountDoesNotChangeModel) {
  auto data = testing::LinearDataset(180, 3, 30, 0.2, 41);
  std::vector<double> reference;
  for (int threads : {1, 2, 8}) {
    CoregConfig config;
    config.threads = threads;
    Coreg model(config);
    ASSERT_TRUE(model.Fit(data).ok());
    auto pred = model.Predict();
    if (threads == 1) {
      reference = pred;
    } else {
      EXPECT_EQ(pred, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelMlpTest, ThreadCountDoesNotChangeMultiChunkFit) {
  auto data = testing::LinearDataset(200, 4, 120, 0.1, 42);
  std::vector<double> reference;
  for (int threads : {1, 2, 8}) {
    MlpConfig config;
    config.batch_size = 64;  // several 32-sample gradient chunks per batch
    config.epochs = 40;
    config.threads = threads;
    MlpRegressor model(config);
    ASSERT_TRUE(model.Fit(data).ok());
    auto pred = model.Predict();
    if (threads == 1) {
      reference = pred;
    } else {
      EXPECT_EQ(pred, reference) << "threads=" << threads;
    }
  }
}

// Full-pipeline check: an access query answered with COREG must not depend
// on the server's ml_threads tuning, on either synthetic city family.
class ParallelPipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelPipelineTest, CoregRunBitIdenticalAcrossMlThreads) {
  synth::CitySpec spec = std::string(GetParam()) == "brindale"
                             ? synth::CitySpec::Brindale(0.06, 5)
                             : synth::CitySpec::Covely(0.06, 5);
  auto built = synth::BuildCity(spec);
  ASSERT_TRUE(built.ok());
  synth::City city = std::move(built).value();
  core::SsrPipeline pipeline(&city, gtfs::WeekdayAmPeak());
  auto pois = city.PoisOf(synth::PoiCategory::kSchool);
  core::GravityConfig gravity = core::CalibratedGravityConfig(city.spec);
  gravity.sample_rate_per_hour = 4;  // keep the test fast
  core::Todam todam = pipeline.BuildGravityTodam(pois, gravity, 1);

  std::vector<double> mac, acsd;
  for (int threads : {1, 2, 8}) {
    core::PipelineConfig config;
    config.beta = 0.2;
    config.model = ml::ModelKind::kCoreg;
    config.seed = 3;
    config.ml_threads = threads;
    auto run = pipeline.Run(pois, todam, config);
    ASSERT_TRUE(run.ok()) << run.status();
    if (threads == 1) {
      mac = run.value().mac;
      acsd = run.value().acsd;
    } else {
      EXPECT_EQ(run.value().mac, mac) << "ml_threads=" << threads;
      EXPECT_EQ(run.value().acsd, acsd) << "ml_threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cities, ParallelPipelineTest,
                         ::testing::Values("brindale", "covely"));

}  // namespace
}  // namespace staq::ml
