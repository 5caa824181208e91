// Golden round-trip tests of SaveSnapshot/LoadSnapshot: a loaded scenario
// must be bit-identical to the one that was saved — same label bits, same
// TODAM trips, same answers — across both city families, both
// timetables, chains of POI-edit epochs and version-1 files. The byte-identity re-export check
// (save -> load -> save produces the same file) covers every stored field
// at once; the semantic checks pin the parts queries actually consume.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/labeling.h"
#include "router/router.h"
#include "serve/scenario.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "store/writer.h"
#include "synth/city_spec.h"
#include "testing/label_state.h"
#include "testing/test_city.h"
#include "testing/zone_loop.h"

namespace staq::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "staq_snapshot_" + name;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

serve::LabelKey SchoolKey() {
  serve::LabelKey key;
  key.category = synth::PoiCategory::kSchool;
  key.gravity.sample_rate_per_hour = 4;
  key.gravity.keep_scale = 2.0;
  key.seed = 3;
  return key;
}

serve::LabelKey VaxGacKey() {
  serve::LabelKey key = SchoolKey();
  key.category = synth::PoiCategory::kVaxCenter;
  key.cost = core::CostKind::kGeneralizedCost;
  key.seed = 7;
  return key;
}

using testing::DoubleBits;

/// Finds `key`'s state in a MaterializedStates() listing.
std::shared_ptr<const serve::ExactLabelState> StateFor(
    const serve::Scenario& scenario, const serve::LabelKey& key) {
  for (const auto& [k, state] : scenario.MaterializedStates()) {
    if (k.Canonical() == key.Canonical()) return state;
  }
  return nullptr;
}

TEST(SnapshotRoundTrip, TinyCityBitIdentical) {
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);
  auto scenario = store.Acquire();
  scenario->GetOrBuildLabelState(SchoolKey(), loop);
  scenario->GetOrBuildLabelState(VaxGacKey(), loop);

  const std::string path = TempPath("tiny.staq");
  ASSERT_TRUE(store.ExportSnapshot(path).ok());
  ASSERT_TRUE(VerifySnapshot(path).ok());

  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const serve::RestoredScenario& r = restored.value();

  // City and feed shape.
  const synth::City& original = store.base_city();
  EXPECT_EQ(r.city->spec.name, original.spec.name);
  EXPECT_EQ(r.city->spec.seed, original.spec.seed);
  EXPECT_EQ(r.city->zones.size(), original.zones.size());
  EXPECT_EQ(r.city->pois.size(), original.pois.size());
  EXPECT_EQ(r.city->feed.stops().size(), original.feed.stops().size());
  EXPECT_EQ(r.city->feed.trips().size(), original.feed.trips().size());
  EXPECT_EQ(r.city->feed.stop_times().size(),
            original.feed.stop_times().size());
  for (size_t z = 0; z < original.zones.size(); ++z) {
    EXPECT_EQ(DoubleBits(r.city->zones[z].population),
              DoubleBits(original.zones[z].population));
    EXPECT_EQ(DoubleBits(r.city->zones[z].vulnerability),
              DoubleBits(original.zones[z].vulnerability));
  }

  // Both label states came back bit-identically.
  ASSERT_EQ(r.label_states.size(), 2u);
  for (const serve::LabelKey& key : {SchoolKey(), VaxGacKey()}) {
    auto original_state = StateFor(*scenario, key);
    ASSERT_NE(original_state, nullptr);
    std::shared_ptr<const serve::ExactLabelState> loaded;
    for (const auto& [k, state] : r.label_states) {
      if (k.Canonical() == key.Canonical()) loaded = state;
    }
    ASSERT_NE(loaded, nullptr) << key.Canonical();
    testing::ExpectStatesIdentical(*original_state, *loaded);
  }

  // Strongest check: standing the restored scenario up and re-exporting
  // must reproduce the file byte for byte.
  testing::CountingZoneLoop restored_loop;
  serve::ScenarioStore restored_store(std::move(restored).value(),
                                      restored_loop);
  const std::string path2 = TempPath("tiny_reexport.staq");
  ASSERT_TRUE(restored_store.ExportSnapshot(path2).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(path2));

  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(SnapshotRoundTrip, BrindaleFamilyBitIdentical) {
  // The other city family: Brindale's generator exercises different route
  // topology and POI densities than Covely, so its columns (and their
  // delta patterns) are a genuinely different encode/decode workload.
  auto built = synth::BuildCity(synth::CitySpec::Brindale(0.05, 11));
  ASSERT_TRUE(built.ok()) << built.status();
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(std::move(built).value(), gtfs::WeekdayAmPeak(),
                             loop);
  auto scenario = store.Acquire();
  scenario->GetOrBuildLabelState(SchoolKey(), loop);

  const std::string path = TempPath("brindale.staq");
  ASSERT_TRUE(store.ExportSnapshot(path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status();

  auto original_state = StateFor(*scenario, SchoolKey());
  ASSERT_NE(original_state, nullptr);
  ASSERT_EQ(restored.value().label_states.size(), 1u);
  testing::ExpectStatesIdentical(*original_state,
                                 *restored.value().label_states[0].second);

  testing::CountingZoneLoop restored_loop;
  serve::ScenarioStore restored_store(std::move(restored).value(),
                                      restored_loop);
  const std::string path2 = TempPath("brindale_reexport.staq");
  ASSERT_TRUE(restored_store.ExportSnapshot(path2).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(SnapshotRoundTrip, SaveIsDeterministic) {
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);
  store.Acquire()->GetOrBuildLabelState(SchoolKey(), loop);

  const std::string a = TempPath("det_a.staq");
  const std::string b = TempPath("det_b.staq");
  ASSERT_TRUE(store.ExportSnapshot(a).ok());
  ASSERT_TRUE(store.ExportSnapshot(b).ok());
  EXPECT_EQ(ReadFile(a), ReadFile(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// A save records what was built, never how long building took: two
// servers cold-built apart from one city spec, each holding the same
// state, export the same bytes.
TEST(SnapshotRoundTrip, ServersBuiltApartSaveIdenticalFiles) {
  const synth::CitySpec spec = synth::CitySpec::Brindale(0.03, 21);
  std::vector<std::vector<uint8_t>> files;
  for (const char* name : {"apart_a.staq", "apart_b.staq"}) {
    auto city = synth::BuildCity(spec);
    ASSERT_TRUE(city.ok()) << city.status();
    serve::AqServer server(std::move(city).value(), gtfs::WeekdayAmPeak());
    serve::AqRequest request;
    request.category = synth::PoiCategory::kSchool;
    request.options.exact = true;
    request.options.gravity.sample_rate_per_hour = 4;
    request.options.gravity.keep_scale = 2.0;
    ASSERT_TRUE(server.Query(request).ok());
    const std::string path = TempPath(name);
    ASSERT_TRUE(server.ExportSnapshot(path).ok());
    files.push_back(ReadFile(path));
    std::remove(path.c_str());
  }
  ASSERT_FALSE(files[0].empty());
  EXPECT_TRUE(files[0] == files[1]);
}

TEST(SnapshotRoundTrip, SmallCitySundayRestoresTheExportedState) {
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(testing::SmallCity(), gtfs::SundayMorning(), loop);
  auto scenario = store.Acquire();
  scenario->GetOrBuildLabelState(SchoolKey(), loop);

  const std::string path = TempPath("small.staq");
  ASSERT_TRUE(store.ExportSnapshot(path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value().offline->interval, gtfs::SundayMorning());
  EXPECT_EQ(restored.value().next_poi_id, store.next_poi_id());

  auto original_state = StateFor(*scenario, SchoolKey());
  ASSERT_NE(original_state, nullptr);
  ASSERT_EQ(restored.value().label_states.size(), 1u);
  testing::ExpectStatesIdentical(*original_state,
                                 *restored.value().label_states[0].second);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, VersionOneFileRestoresLabelsFromTripColumns) {
  // A version-1 file also stores every state's zone labels. The reader
  // never reads them: a v1 file whose labels section disagrees with its
  // trip columns restores the labels those columns determine.
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);
  auto scenario = store.Acquire();
  scenario->GetOrBuildLabelState(SchoolKey(), loop);
  scenario->GetOrBuildLabelState(VaxGacKey(), loop);

  const std::string path = TempPath("v2.staq");
  const std::string v1 = TempPath("v1.staq");
  ASSERT_TRUE(store.ExportSnapshot(path).ok());
  {
    Reader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    Writer writer;
    ASSERT_TRUE(writer.Open(v1).ok());
    size_t label_states = 0;
    auto ends_with = [](const std::string& name, const std::string& leaf) {
      return name.size() > leaf.size() &&
             name.compare(name.size() - leaf.size(), leaf.size(), leaf) == 0;
    };
    for (const SectionEntry& entry : reader.sections()) {
      if (ends_with(entry.name, "/labels")) continue;  // replaced below
      auto in = reader.Section(entry.name);
      ASSERT_TRUE(in.ok()) << in.status();
      std::vector<uint8_t> payload(in.value().cursor(),
                                   in.value().cursor() + in.value().remaining());
      ASSERT_TRUE(writer
                      .AddSection(entry.name, entry.encoding,
                                  std::move(payload), entry.element_count)
                      .ok());
      const std::string leaf = "/key";
      if (entry.name.compare(0, 6, "label/") != 0 ||
          !ends_with(entry.name, leaf)) {
        continue;
      }
      // The v1 labels section (mac, acsd fixed; trips, infeasible,
      // walk-only delta), filled with values no state could hold.
      const size_t zones = store.base_city().zones.size();
      std::vector<uint8_t> labels;
      PutFixedColumn(&labels, std::vector<double>(zones, -7.5));
      PutFixedColumn(&labels, std::vector<double>(zones, 1e9));
      for (int column = 0; column < 3; ++column) {
        PutDeltaColumn(&labels, std::vector<uint32_t>(zones, 12345));
      }
      const std::string name =
          entry.name.substr(0, entry.name.size() - leaf.size()) + "/labels";
      ASSERT_TRUE(writer
                      .AddSection(name, SectionEncoding::kStruct,
                                  std::move(labels), zones)
                      .ok());
      ++label_states;
    }
    ASSERT_EQ(label_states, 2u);
    ASSERT_TRUE(writer.Finish().ok());
  }
  // The header's version field is outside every checksum.
  std::vector<uint8_t> bytes = ReadFile(v1);
  const uint32_t version = 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  {
    std::ofstream out(v1, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  auto info = InspectSnapshot(v1);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_EQ(info.value().format_version, 1u);

  auto restored = LoadSnapshot(v1);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored.value().label_states.size(), 2u);
  for (const serve::LabelKey& key : {SchoolKey(), VaxGacKey()}) {
    auto original_state = StateFor(*scenario, key);
    ASSERT_NE(original_state, nullptr);
    std::shared_ptr<const serve::ExactLabelState> loaded;
    for (const auto& [k, state] : restored.value().label_states) {
      if (k.Canonical() == key.Canonical()) loaded = state;
    }
    ASSERT_NE(loaded, nullptr) << key.Canonical();
    testing::ExpectStatesIdentical(*original_state, *loaded);
  }
  std::remove(path.c_str());
  std::remove(v1.c_str());
}

TEST(SnapshotRoundTrip, ChainedPoiEditEpochs) {
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);
  store.Acquire()->GetOrBuildLabelState(SchoolKey(), loop);

  // Drive a chain of edits so the exported state is a patched descendant,
  // not a fresh build: add two schools, remove the first again.
  const geo::BBox& extent = store.base_city().extent;
  geo::Point p1{extent.min_x + 0.3 * (extent.max_x - extent.min_x),
                extent.min_y + 0.4 * (extent.max_y - extent.min_y)};
  geo::Point p2{extent.min_x + 0.7 * (extent.max_x - extent.min_x),
                extent.min_y + 0.6 * (extent.max_y - extent.min_y)};
  auto add1 = store.AddPoi(synth::PoiCategory::kSchool, p1);
  auto add2 = store.AddPoi(synth::PoiCategory::kSchool, p2);
  auto removed = store.RemovePoi(add1.poi_id);
  ASSERT_TRUE(removed.ok()) << removed.status();
  ASSERT_EQ(store.epoch(), 3u);

  const std::string path = TempPath("chained.staq");
  ASSERT_TRUE(store.ExportSnapshot(path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value().source_epoch, 3u);

  auto live = store.Acquire();
  {
    auto original_state = StateFor(*live, SchoolKey());
    ASSERT_NE(original_state, nullptr);
    ASSERT_EQ(restored.value().label_states.size(), 1u);
    testing::ExpectStatesIdentical(*original_state,
                                   *restored.value().label_states[0].second);
  }

  // The POI id cursor must survive: the same follow-up edit on the live
  // store and the restored store must assign the same stable id and patch
  // to bit-identical states (stable-id-keyed RNG streams).
  testing::CountingZoneLoop restored_loop;
  serve::ScenarioStore restored_store(std::move(restored).value(),
                                      restored_loop);
  EXPECT_EQ(restored_store.epoch(), 0u);
  auto live_add = store.AddPoi(synth::PoiCategory::kSchool, p1);
  auto restored_add = restored_store.AddPoi(synth::PoiCategory::kSchool, p1);
  EXPECT_EQ(live_add.poi_id, restored_add.poi_id);
  EXPECT_GT(restored_add.poi_id, add2.poi_id);

  auto live_state = StateFor(*store.Acquire(), SchoolKey());
  auto restored_state = StateFor(*restored_store.Acquire(), SchoolKey());
  ASSERT_NE(live_state, nullptr);
  ASSERT_NE(restored_state, nullptr);
  testing::ExpectStatesIdentical(*live_state, *restored_state);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, InspectReportsTheFile) {
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);
  store.Acquire()->GetOrBuildLabelState(SchoolKey(), loop);

  const std::string path = TempPath("inspect.staq");
  ASSERT_TRUE(store.ExportSnapshot(path).ok());
  auto info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info.value().format_version, kFormatVersion);
  EXPECT_EQ(info.value().city_name, store.base_city().spec.name);
  EXPECT_EQ(info.value().interval_label, gtfs::WeekdayAmPeak().label);
  EXPECT_EQ(info.value().num_zones, store.base_city().zones.size());
  EXPECT_EQ(info.value().num_pois, store.base_city().pois.size());
  EXPECT_EQ(info.value().num_label_states, 1u);
  EXPECT_FALSE(info.value().sections.empty());
  EXPECT_EQ(info.value().file_size, ReadFile(path).size());
  std::remove(path.c_str());
}

TEST(SnapshotWarmStart, ServerAnswersBitIdenticallyToColdBuild) {
  serve::AqServer::Options cold_options;
  cold_options.num_threads = 2;
  serve::AqServer cold(testing::TinyCity(), gtfs::WeekdayAmPeak(),
                       cold_options);

  serve::AqRequest request;
  request.category = synth::PoiCategory::kSchool;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = 3;
  auto cold_answer = cold.Query(request);
  ASSERT_TRUE(cold_answer.ok()) << cold_answer.status();

  const std::string path = TempPath("warm.staq");
  ASSERT_TRUE(cold.ExportSnapshot(path).ok());

  serve::AqServer::Options warm_options = cold_options;
  warm_options.warm_start_path = path;
  serve::AqServer warm(testing::TinyCity(), gtfs::WeekdayAmPeak(),
                       warm_options);
  ASSERT_TRUE(warm.warm_started());
  EXPECT_EQ(warm.epoch(), 0u);

  auto warm_answer = warm.Query(request);
  ASSERT_TRUE(warm_answer.ok()) << warm_answer.status();
  ASSERT_EQ(warm_answer.value().mac.size(), cold_answer.value().mac.size());
  for (size_t z = 0; z < cold_answer.value().mac.size(); ++z) {
    EXPECT_EQ(DoubleBits(warm_answer.value().mac[z]),
              DoubleBits(cold_answer.value().mac[z]))
        << "zone " << z;
    EXPECT_EQ(DoubleBits(warm_answer.value().acsd[z]),
              DoubleBits(cold_answer.value().acsd[z]))
        << "zone " << z;
  }
  EXPECT_EQ(warm_answer.value().gravity_trips,
            cold_answer.value().gravity_trips);

  // The warm-started server is a full server: mutations and further
  // queries keep working on top of the restored epoch.
  const geo::BBox& extent = warm.base_city().extent;
  auto report = warm.AddPoi(
      synth::PoiCategory::kSchool,
      geo::Point{extent.min_x + 0.5 * (extent.max_x - extent.min_x),
                 extent.min_y + 0.5 * (extent.max_y - extent.min_y)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().epoch, 1u);
  auto after = warm.Query(request);
  ASSERT_TRUE(after.ok()) << after.status();
  std::remove(path.c_str());
}

/// Bit-level equality of two exact answers' zone measures.
void ExpectSameAnswer(const core::AccessQueryResult& a,
                      const core::AccessQueryResult& b) {
  ASSERT_EQ(a.mac.size(), b.mac.size());
  for (size_t z = 0; z < a.mac.size(); ++z) {
    EXPECT_EQ(DoubleBits(a.mac[z]), DoubleBits(b.mac[z])) << "zone " << z;
    EXPECT_EQ(DoubleBits(a.acsd[z]), DoubleBits(b.acsd[z])) << "zone " << z;
  }
  EXPECT_EQ(a.gravity_trips, b.gravity_trips);
}

TEST(SnapshotWarmStart, WalkScaleSurvivesTheSnapshot) {
  // A snapshot taken after a walk rescale must restore the rescaled walk:
  // a key the exporter never labeled is built fresh on the warm server,
  // over the restored router, and must equal the exporter's answer.
  serve::AqServer::Options options;
  options.num_threads = 2;
  serve::AqServer exporter(testing::TinyCity(), gtfs::WeekdayAmPeak(),
                           options);
  serve::AqRequest materialised;
  materialised.category = synth::PoiCategory::kSchool;
  materialised.options.exact = true;
  materialised.options.gravity.sample_rate_per_hour = 4;
  materialised.options.gravity.keep_scale = 2.0;
  materialised.options.seed = 3;
  ASSERT_TRUE(exporter.Query(materialised).ok());
  ASSERT_TRUE(exporter.ScaleWalkSpeed(0.5).ok());
  ASSERT_TRUE(exporter.ScaleWalkSpeed(0.8).ok());

  const std::string path = TempPath("walk_scale.staq");
  ASSERT_TRUE(exporter.ExportSnapshot(path).ok());
  serve::AqServer::Options warm_options = options;
  warm_options.warm_start_path = path;
  serve::AqServer warm(testing::TinyCity(), gtfs::WeekdayAmPeak(),
                       warm_options);
  ASSERT_TRUE(warm.warm_started());
  EXPECT_EQ(warm.Snapshot()->walk_scale(), exporter.Snapshot()->walk_scale());
  EXPECT_EQ(
      DoubleBits(warm.Snapshot()->router_options().walk.speed_mps),
      DoubleBits(exporter.Snapshot()->router_options().walk.speed_mps));

  serve::AqRequest fresh = materialised;
  fresh.options.seed = 11;
  fresh.options.cost = core::CostKind::kGeneralizedCost;
  for (const serve::AqRequest& request : {materialised, fresh}) {
    auto want = exporter.Query(request);
    auto got = warm.Query(request);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameAnswer(got.value(), want.value());
  }

  // A further rescale on both keeps them equal: the warm store derives
  // its walk from its options and the cumulative scale, as the exporter.
  ASSERT_TRUE(exporter.ScaleWalkSpeed(0.9).ok());
  ASSERT_TRUE(warm.ScaleWalkSpeed(0.9).ok());
  fresh.options.seed = 13;
  for (const serve::AqRequest& request : {materialised, fresh}) {
    auto want = exporter.Query(request);
    auto got = warm.Query(request);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameAnswer(got.value(), want.value());
  }
  std::remove(path.c_str());
}

TEST(SnapshotWarmStart, SnapshotWithoutTripCostsAnswersLikeAColdServer) {
  // A file whose label states carry no trip-cost section (written before
  // the section existed) still warm-starts: those states are dropped and
  // rebuilt on demand, so every answer — before and after a POI patch —
  // equals a cold server's.
  serve::AqServer::Options options;
  options.num_threads = 2;
  serve::AqServer cold(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  serve::AqRequest request;
  request.category = synth::PoiCategory::kSchool;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = 3;
  auto cold_answer = cold.Query(request);
  ASSERT_TRUE(cold_answer.ok()) << cold_answer.status();

  const std::string path = TempPath("with_costs.staq");
  const std::string stripped = TempPath("without_costs.staq");
  ASSERT_TRUE(cold.ExportSnapshot(path).ok());
  {
    Reader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    Writer writer;
    ASSERT_TRUE(writer.Open(stripped).ok());
    size_t dropped = 0;
    for (const SectionEntry& entry : reader.sections()) {
      const std::string leaf = "/trip_costs";
      if (entry.name.size() > leaf.size() &&
          entry.name.compare(entry.name.size() - leaf.size(), leaf.size(),
                             leaf) == 0) {
        ++dropped;
        continue;
      }
      auto in = reader.Section(entry.name);
      ASSERT_TRUE(in.ok()) << in.status();
      std::vector<uint8_t> payload(in.value().cursor(),
                                   in.value().cursor() + in.value().remaining());
      ASSERT_TRUE(writer
                      .AddSection(entry.name, entry.encoding,
                                  std::move(payload), entry.element_count)
                      .ok());
    }
    ASSERT_EQ(dropped, 1u);
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto loaded = LoadSnapshot(stripped);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded.value().label_states.empty());

  serve::AqServer::Options warm_options = options;
  warm_options.warm_start_path = stripped;
  serve::AqServer warm(testing::TinyCity(), gtfs::WeekdayAmPeak(),
                       warm_options);
  ASSERT_TRUE(warm.warm_started());
  auto warm_answer = warm.Query(request);
  ASSERT_TRUE(warm_answer.ok()) << warm_answer.status();
  ExpectSameAnswer(warm_answer.value(), cold_answer.value());

  const geo::BBox& extent = cold.base_city().extent;
  const geo::Point site{extent.min_x + 0.4 * (extent.max_x - extent.min_x),
                        extent.min_y + 0.6 * (extent.max_y - extent.min_y)};
  ASSERT_TRUE(cold.AddPoi(synth::PoiCategory::kSchool, site).ok());
  ASSERT_TRUE(warm.AddPoi(synth::PoiCategory::kSchool, site).ok());
  auto cold_after = cold.Query(request);
  auto warm_after = warm.Query(request);
  ASSERT_TRUE(cold_after.ok()) << cold_after.status();
  ASSERT_TRUE(warm_after.ok()) << warm_after.status();
  ExpectSameAnswer(warm_after.value(), cold_after.value());
  std::remove(path.c_str());
  std::remove(stripped.c_str());
}

TEST(SnapshotLoad, RejectsCorruptSnapshotsCleanly) {
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);
  const std::string path = TempPath("corrupt.staq");
  ASSERT_TRUE(store.ExportSnapshot(path).ok());
  std::vector<uint8_t> good = ReadFile(path);

  const std::string bad = TempPath("corrupt_bad.staq");
  // Truncations at coarse stride across the whole file: LoadSnapshot must
  // fail with a clean status every time, never crash or half-build.
  for (size_t keep = 0; keep < good.size(); keep += good.size() / 37 + 1) {
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(good.data()),
              static_cast<std::streamsize>(keep));
    out.close();
    auto restored = LoadSnapshot(bad);
    ASSERT_FALSE(restored.ok()) << "kept " << keep;
    auto code = restored.status().code();
    EXPECT_TRUE(code == util::StatusCode::kInvalidArgument ||
                code == util::StatusCode::kDataLoss ||
                code == util::StatusCode::kIoError)
        << restored.status();
  }
  std::remove(bad.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace staq::store
