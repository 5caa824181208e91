// Warm start from a snapshot written by `staq_cli snapshot save --cost gac`.
//
// The CLI materialises one exact label state before it exports, and a
// server warm-started from the file answers that key from the restored
// state. The state must therefore be labeled exactly as the server would
// label it: Query (the restored state) must equal QueryUncached (a fresh
// labeling on the server's own router options) bit for bit. The file is
// written by the `cli_gac_snapshot_save` ctest fixture; run this binary
// through ctest.
#include <filesystem>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "serve/server.h"
#include "synth/city_builder.h"
#include "synth/city_spec.h"

namespace staq::serve {
namespace {

TEST(CliSnapshotTest, WarmStartedGacStateEqualsQueryUncached) {
  const std::string path = STAQ_CLI_GAC_SNAPSHOT;
  ASSERT_TRUE(std::filesystem::exists(path))
      << path << " is written by the cli_gac_snapshot_save ctest fixture";

  // The city and interval the fixture's save command names: --synth
  // brindale --scale 0.05 --seed 42, interval am.
  auto city = synth::BuildCity(synth::CitySpec::Brindale(0.05, 42));
  ASSERT_TRUE(city.ok());
  AqServer::Options options;
  options.num_threads = 2;
  options.warm_start_path = path;
  AqServer server(std::move(city).value(), gtfs::WeekdayAmPeak(), options);
  ASSERT_TRUE(server.warm_started());
  ASSERT_EQ(server.Snapshot()->MaterializedStates().size(), 1u);

  // The key the fixture saved: --poi school --cost gac, label seed 1 and
  // default gravity and weights.
  AqRequest request;
  request.category = synth::PoiCategory::kSchool;
  request.options.exact = true;
  request.options.cost = core::CostKind::kGeneralizedCost;

  auto served = server.Query(request);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(server.stats().exact_state_builds, 0u)
      << "the answer must come from the restored state";
  auto uncached = server.QueryUncached(request);
  ASSERT_TRUE(uncached.ok()) << uncached.status();

  const core::AccessQueryResult& a = served.value();
  const core::AccessQueryResult& b = uncached.value();
  ASSERT_EQ(a.mac.size(), b.mac.size());
  size_t differing = 0;
  for (size_t z = 0; z < a.mac.size(); ++z) {
    if (a.mac[z] != b.mac[z] || a.acsd[z] != b.acsd[z]) ++differing;
  }
  EXPECT_EQ(differing, 0u) << "zones whose MAC or ACSD differ";
  EXPECT_EQ(a.mac, b.mac);
  EXPECT_EQ(a.acsd, b.acsd);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.mean_mac, b.mean_mac);
}

}  // namespace
}  // namespace staq::serve
