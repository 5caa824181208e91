// Deterministic mutation fuzzing of the snapshot's label-state decoders
// (ctest -L fuzz). Block checksums reject any byte flipped in a stored
// file, so corrupting a file on disk never reaches the decoders behind
// them. This test mutates section payloads instead and re-wraps every
// section through store::Writer, so each mutant carries valid checksums
// and lands in the decoders of `label/<i>/{key,todam,trip_costs}` and
// `network/walk_scale`. Mutants are seeded bit flips,
// truncations, splices with another section's payload, oversized varints
// and rewritten footer element counts. LoadSnapshot must come back with a
// restored scenario or a decoder's own status (DataLoss or
// InvalidArgument): no crash, and no exception caught by LoadSnapshot's
// catch-all. A restored state must hold one trip column entry per TODAM
// trip and one label per zone, point every trip at one of the scenario's
// POIs of its category and carry a key a request could name: the store's
// patches rely on both. The fault this fuzzer found (a key with a sample
// rate of 0) is kept as a regression case at the end of the file, next to
// the one a rewritten normaliser section exposed.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/todam.h"
#include "serve/request.h"
#include "serve/scenario.h"
#include "store/coding.h"
#include "store/reader.h"
#include "store/snapshot.h"
#include "store/writer.h"
#include "testing/label_state.h"
#include "testing/test_city.h"
#include "testing/zone_loop.h"
#include "util/rng.h"

namespace staq::store {
namespace {

/// One footer entry and its payload, as the reader returned them.
struct Section {
  std::string name;
  SectionEncoding encoding = SectionEncoding::kStruct;
  std::vector<uint8_t> payload;
  uint64_t element_count = 0;
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "staq_snapshot_fuzz_" + name;
}

/// A TinyCity store holding two label states (school JT, vax GAC),
/// exported and read back section by section.
std::vector<Section> SeedSections() {
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);
  auto scenario = store.Acquire();
  serve::LabelKey school;
  school.category = synth::PoiCategory::kSchool;
  school.gravity.sample_rate_per_hour = 4;
  school.gravity.keep_scale = 2.0;
  school.seed = 3;
  serve::LabelKey vax = school;
  vax.category = synth::PoiCategory::kVaxCenter;
  vax.cost = core::CostKind::kGeneralizedCost;
  vax.seed = 7;
  scenario->GetOrBuildLabelState(school, loop);
  scenario->GetOrBuildLabelState(vax, loop);

  const std::string path = TempPath("seed.staq");
  EXPECT_TRUE(store.ExportSnapshot(path).ok());
  std::vector<Section> sections;
  Reader reader;
  EXPECT_TRUE(reader.Open(path).ok());
  for (const SectionEntry& entry : reader.sections()) {
    auto in = reader.Section(entry.name);
    EXPECT_TRUE(in.ok()) << in.status();
    if (!in.ok()) continue;
    sections.push_back(Section{
        entry.name, entry.encoding,
        std::vector<uint8_t>(in.value().cursor(),
                             in.value().cursor() + in.value().remaining()),
        entry.element_count});
  }
  std::remove(path.c_str());
  return sections;
}

/// Whether `name` is one of the sections this fuzzer mutates.
bool IsTarget(const std::string& name) {
  if (name == "network/walk_scale") return true;
  if (name.compare(0, 6, "label/") != 0) return false;
  for (const char* leaf : {"/key", "/todam", "/trip_costs"}) {
    const std::string l = leaf;
    if (name.size() > l.size() &&
        name.compare(name.size() - l.size(), l.size(), l) == 0) {
      return true;
    }
  }
  return false;
}

/// A seeded stream of mutants of one section.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  /// Applies one to three edits to `target`; `donors` are the payloads a
  /// splice may borrow a tail from.
  void Mutate(Section* target, const std::vector<Section>& donors) {
    const int edits = 1 + static_cast<int>(rng_.UniformU64(3));
    for (int e = 0; e < edits; ++e) Edit(target, donors);
  }

 private:
  size_t Pos(const std::vector<uint8_t>& bytes) {
    return bytes.empty() ? 0 : rng_.UniformU64(bytes.size());
  }

  /// A varint no honest writer emits for this layout: a huge count, a
  /// 32-bit wrap or an overlong ten-byte encoding.
  std::vector<uint8_t> OversizedVarint() {
    std::vector<uint8_t> out;
    switch (rng_.UniformU64(4)) {
      case 0:
        PutVarint64(&out, ~uint64_t{0});
        break;
      case 1:
        PutVarint64(&out, (uint64_t{1} << 32) + rng_.UniformU64(4));
        break;
      case 2:
        PutVarint64(&out, uint64_t{1} << (40 + rng_.UniformU64(23)));
        break;
      default:
        out.assign(10, 0xff);  // never terminates inside ten bytes
        break;
    }
    return out;
  }

  void Edit(Section* target, const std::vector<Section>& donors) {
    std::vector<uint8_t>& bytes = target->payload;
    switch (rng_.UniformU64(6)) {
      case 0:  // flip one bit
        if (!bytes.empty()) {
          bytes[Pos(bytes)] ^= static_cast<uint8_t>(1u << rng_.UniformU64(8));
        }
        break;
      case 1:  // truncate
        bytes.resize(Pos(bytes));
        break;
      case 2: {  // splice: this payload's head onto another's tail
        const std::vector<uint8_t>& other =
            donors[rng_.UniformU64(donors.size())].payload;
        std::vector<uint8_t> spliced(bytes.begin(), bytes.begin() + Pos(bytes));
        spliced.insert(spliced.end(), other.begin() + Pos(other), other.end());
        bytes = std::move(spliced);
        break;
      }
      case 3: {  // overwrite with an oversized varint
        const std::vector<uint8_t> varint = OversizedVarint();
        const size_t at = Pos(bytes);
        for (size_t i = 0; i < varint.size(); ++i) {
          if (at + i < bytes.size()) {
            bytes[at + i] = varint[i];
          } else {
            bytes.push_back(varint[i]);
          }
        }
        break;
      }
      case 4: {  // insert an oversized varint
        const std::vector<uint8_t> varint = OversizedVarint();
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(Pos(bytes)),
                     varint.begin(), varint.end());
        break;
      }
      default: {  // rewrite the footer's element count
        const uint64_t counts[] = {0,
                                   1,
                                   target->element_count + 1,
                                   target->element_count - 1,
                                   uint64_t{1} << 32,
                                   ~uint64_t{0}};
        target->element_count = counts[rng_.UniformU64(6)];
        break;
      }
    }
  }

  util::Rng rng_;
};

/// Writes `sections` as a snapshot file at `path` (fresh checksums).
void WriteSections(const std::vector<Section>& sections,
                   const std::string& path) {
  Writer writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (const Section& s : sections) {
    ASSERT_TRUE(
        writer.AddSection(s.name, s.encoding, s.payload, s.element_count).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
}

/// Loads `path`: OK with every state consistent, or a decoder's status.
/// Returns whether the load succeeded.
bool LoadsCleanly(const std::string& path, const std::string& what) {
  auto restored = LoadSnapshot(path);
  if (!restored.ok()) {
    const util::StatusCode code = restored.status().code();
    EXPECT_TRUE(code == util::StatusCode::kDataLoss ||
                code == util::StatusCode::kInvalidArgument)
        << what << ": " << restored.status();
    return false;
  }
  const serve::RestoredScenario& r = restored.value();
  const size_t zones = r.city->zones.size();
  for (const auto& [key, state] : r.label_states) {
    // What the store's patches rely on: every trip points at one of the
    // scenario's POIs of the state's category (labeling indexes that list
    // with it), and the key is one a request could name (a patch samples
    // the new POI's trips under the key's gravity).
    uint32_t num_pois = 0;
    for (const synth::Poi& poi : r.pois) {
      if (poi.category == key.category) ++num_pois;
    }
    size_t unknown = 0;
    for (const core::TripEntry& trip : state->todam.trips()) {
      if (trip.poi >= num_pois) ++unknown;
    }
    EXPECT_EQ(unknown, 0u) << what;
    EXPECT_TRUE(key.gravity.decay_scale_m > 0.0 &&
                std::isfinite(key.gravity.decay_scale_m) &&
                key.gravity.keep_scale >= 0.0 &&
                std::isfinite(key.gravity.keep_scale) &&
                key.gravity.sample_rate_per_hour >= 1 &&
                key.gravity.sample_rate_per_hour <=
                    serve::kMaxSampleRatePerHour)
        << what << ": " << key.Canonical();
    EXPECT_TRUE(key.cost != core::CostKind::kGeneralizedCost ||
                key.gac.Valid())
        << what << ": " << key.Canonical();
    EXPECT_EQ(state->todam.num_zones(), zones) << what;
    uint64_t trips = 0;
    for (uint32_t z = 0; z < state->todam.num_zones(); ++z) {
      trips += state->todam.TripsFor(z).size();
    }
    EXPECT_EQ(trips, state->todam.num_trips()) << what;
    EXPECT_EQ(state->trip_flags.size(), state->todam.num_trips()) << what;
    EXPECT_EQ(state->trip_costs.size(), state->todam.num_trips()) << what;
    EXPECT_EQ(state->labels.size(), zones) << what;
  }
  return true;
}

TEST(SnapshotDecoderFuzzTest, LabelStateSectionsLoadOrFailCleanly) {
  const std::vector<Section> seed = SeedSections();
  ASSERT_FALSE(seed.empty());
  std::vector<size_t> targets;
  std::vector<Section> donors;
  for (size_t i = 0; i < seed.size(); ++i) {
    if (IsTarget(seed[i].name)) {
      targets.push_back(i);
      donors.push_back(seed[i]);
    }
  }
  // Two states of three sections each, plus the walk scale.
  ASSERT_EQ(targets.size(), 7u);

  const std::string path = TempPath("mutant.staq");
  WriteSections(seed, path);
  ASSERT_TRUE(LoadsCleanly(path, "unmutated"));

  Mutator mutator(0x5eed5);
  constexpr int kMutantsPerSection = 100;
  int loaded = 0, rejected = 0;
  for (size_t t : targets) {
    for (int m = 0; m < kMutantsPerSection; ++m) {
      std::vector<Section> sections = seed;
      mutator.Mutate(&sections[t], donors);
      WriteSections(sections, path);
      const std::string what = seed[t].name + " mutant " + std::to_string(m);
      (LoadsCleanly(path, what) ? loaded : rejected) += 1;
      if (::testing::Test::HasFailure()) {
        std::remove(path.c_str());
        return;
      }
    }
  }
  // Both outcomes are reached, so neither path goes unexercised.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
  std::remove(path.c_str());
}

// Regression: a label key no request can name used to load, and the next
// AddPoi sampled the new POI's trips under it (a rate of 2^31 per hour
// would draw billions). The store builds such a state when asked directly;
// its snapshot must not load.
TEST(SnapshotDecoderFuzzTest, RejectsALabelKeyNoRequestCanName) {
  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);
  serve::LabelKey key;
  key.category = synth::PoiCategory::kSchool;
  key.gravity.sample_rate_per_hour = 0;
  ASSERT_FALSE(serve::CheckLabelKey(key).ok());
  store.Acquire()->GetOrBuildLabelState(key, loop);
  const std::string path = TempPath("rate0.staq");
  ASSERT_TRUE(store.ExportSnapshot(path).ok());
  auto restored = LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), util::StatusCode::kInvalidArgument)
      << restored.status();
}

/// Replaces the section named like `section`, or appends it when absent.
void SetSection(std::vector<Section>* sections, Section section) {
  for (Section& s : *sections) {
    if (s.name == section.name) {
      s = std::move(section);
      return;
    }
  }
  sections->push_back(std::move(section));
}

// Regression: a state's stored POI list and gravity normalisers used to be
// trusted. A file whose `label/<i>/norm` was rewritten inside valid
// checksums loaded, and the next AddPoi drew the new POI's trips under the
// rewritten normalisers (TinyCity school: 1 168 trips against a fresh
// build's 1 090); a POI list naming a POI the scenario lacks was refused
// only because the RemovePoi of the POI it replaced would have aborted.
// Older files carry both sections per state: the loader ignores them, so
// the scenario and the key alone decide every patch.
TEST(SnapshotDecoderFuzzTest, IgnoresStoredStatePoisAndNorms) {
  std::vector<Section> sections = SeedSections();
  const std::string path = TempPath("older.staq");
  WriteSections(sections, path);
  auto seeded = LoadSnapshot(path);
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  const serve::RestoredScenario& r = seeded.value();
  ASSERT_EQ(r.label_states.size(), 2u);

  // An older file's sections, every normaliser halved and label/0's first
  // POI id replaced.
  uint32_t victim = 0;
  for (size_t i = 0; i < r.label_states.size(); ++i) {
    const serve::LabelKey& key = r.label_states[i].first;
    const std::string prefix = "label/" + std::to_string(i);
    std::vector<uint32_t> ids;
    std::vector<uint8_t> categories;
    std::vector<geo::Point> positions;
    for (const synth::Poi& poi : r.pois) {
      if (poi.category != key.category) continue;
      ids.push_back(poi.id);
      categories.push_back(static_cast<uint8_t>(poi.category));
      positions.push_back(poi.position);
    }
    ASSERT_FALSE(ids.empty());
    if (i == 0) {
      victim = ids.front();
      ids.front() = 1u << 30;
    }
    Section listed{prefix + "/pois", SectionEncoding::kStruct, {}, ids.size()};
    PutDeltaColumn(&listed.payload, ids);
    PutFixedColumn(&listed.payload, categories);
    PutFixedColumn(&listed.payload, positions);
    SetSection(&sections, std::move(listed));

    std::vector<double> norm =
        core::StableGravityNorms(r.city->zones, r.city->PoisOf(key.category),
                                 key.gravity.decay_scale_m);
    for (double& v : norm) v *= 0.5;
    Section norms{prefix + "/norm", SectionEncoding::kRaw,
                  std::vector<uint8_t>(norm.size() * sizeof(double)),
                  norm.size()};
    std::memcpy(norms.payload.data(), norm.data(), norms.payload.size());
    SetSection(&sections, std::move(norms));
  }
  WriteSections(sections, path);
  auto restored = LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.ok()) << restored.status();

  testing::CountingZoneLoop loop;
  serve::ScenarioStore store(std::move(restored).value(), loop);
  const auto expect_fresh = [&store, &loop] {
    auto scenario = store.Acquire();
    const auto states = scenario->MaterializedStates();
    ASSERT_EQ(states.size(), 2u);
    for (const auto& [key, state] : states) {
      SCOPED_TRACE(key.Canonical());
      testing::ExpectStatesIdentical(*state,
                                     *scenario->BuildLabelState(key, loop));
    }
  };
  store.AddPoi(r.label_states[0].first.category, store.base_city().Centre());
  {
    SCOPED_TRACE("after AddPoi");
    expect_fresh();
  }
  ASSERT_TRUE(store.RemovePoi(victim).ok());
  {
    SCOPED_TRACE("after RemovePoi");
    expect_fresh();
  }
}

}  // namespace
}  // namespace staq::store
