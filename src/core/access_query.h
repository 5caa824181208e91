// Dynamic access queries — the library's user-facing API (paper §I, §III).
//
// An AccessQueryEngine wraps a city and answers analytical access queries:
// "what is the aggregate access cost to <POI category> in <time interval>,
// how does it vary across zones, and how fairly is it distributed?" —
// either exactly (full labeling, the naive baseline) or via the SSR
// solution at a chosen labeling budget.
//
// The engine supports the *dynamic* part of the paper's motivation: POIs
// can be added or removed (e.g. testing a new vaccination-centre site) and
// the analysis interval can be changed (re-running the offline phase);
// subsequent queries reflect the updated scenario.
#pragma once

#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "synth/city_builder.h"

namespace staq::core {

/// Options for one access query.
struct AccessQueryOptions {
  /// false: SSR solution at `beta`; true: exact full labeling.
  bool exact = false;
  double beta = 0.05;
  ml::ModelKind model = ml::ModelKind::kMlp;
  CostKind cost = CostKind::kJourneyTime;
  GravityConfig gravity;
  router::GacWeights gac;
  uint64_t seed = 1;
};

/// Answer to an access query: the zone-level measures of §III-D plus
/// summary statistics and cost accounting.
struct AccessQueryResult {
  std::vector<double> mac;   // per zone
  std::vector<double> acsd;  // per zone
  std::vector<int> classes;  // AccessClass per zone
  double mean_mac = 0.0;
  double mean_acsd = 0.0;
  double fairness = 0.0;             // Jain index over MAC
  double population_fairness = 0.0;  // population-weighted
  double vulnerable_fairness = 0.0;  // weighted by population x vulnerability
  uint64_t spqs = 0;
  double elapsed_s = 0.0;
  uint64_t gravity_trips = 0;
};

/// Assembles the user-facing answer from zone-level measures: classes,
/// summary means, and the three fairness indices, every sum reduced by
/// kernel (core/measures.h). Shared by the single client engine below and
/// the concurrent serve subsystem (serve/server.h); `result.mac`/
/// `result.acsd` must already be populated.
void FinalizeAccessQueryResult(const std::vector<synth::Zone>& zones,
                               AccessQueryResult* result);

/// Forward kept only because the benchmark (staqbench/src/whatif_cold.cc)
/// calls this name; delete with that call (ROADMAP item 3).
inline void FinalizeAccessQueryResultColumnar(
    const std::vector<synth::Zone>& zones, AccessQueryResult* result) {
  FinalizeAccessQueryResult(zones, result);
}

/// Copies each zone label's MAC and ACSD into `result` (one entry per
/// label, in zone order).
void SetZoneMeasures(const std::vector<ZoneLabel>& labels,
                     AccessQueryResult* result);

/// Axes of a vector query: one request template swept across POI
/// categories, TODAM seeds (the `t`-resample axis) and cost definitions.
/// An empty axis means "the template's value". Derived results are ordered
/// category-major, then seed, then cost member — the order QueryVector
/// returns and the serve batch tier caches under.
struct VectorQuerySpec {
  std::vector<synth::PoiCategory> categories;
  std::vector<uint64_t> seeds;
  std::vector<CostMember> cost_members;
};

/// Owns a city and serves access queries against it.
class AccessQueryEngine {
 public:
  /// Takes ownership of the city. The offline phase for `interval` runs
  /// immediately.
  AccessQueryEngine(synth::City city, gtfs::TimeInterval interval);

  const synth::City& city() const { return city_; }
  const gtfs::TimeInterval& interval() const { return interval_; }
  double offline_seconds() const { return pipeline_->offline_seconds(); }

  /// Answers an AQ for one POI category under the current scenario. An
  /// exact query is a QueryVector of one, so a generalized-cost one whose
  /// weights fail GacWeights::Valid() is refused (InvalidArgument), as the
  /// SSR path already refused it.
  util::Result<AccessQueryResult> Query(synth::PoiCategory category,
                                        const AccessQueryOptions& options);

  /// Answers a vector of derived queries in one call. All members of a
  /// (category, seed) group share ONE exact labeling pass — journeys do
  /// not depend on the cost definition — and each member's measures are
  /// derived columnarly, bit-identical to the single Query it replaces
  /// (including `spqs`, which every single exact query would pay in full).
  /// Requires `base.exact`: SSR templates train per-member models and have
  /// no shared pass to amortise (InvalidArgument).
  util::Result<std::vector<AccessQueryResult>> QueryVector(
      synth::PoiCategory category, const AccessQueryOptions& base,
      const VectorQuerySpec& spec);

  /// Dynamic scenario edit: adds a POI (e.g. a candidate facility site).
  /// Returns its id. Takes effect on the next Query().
  uint32_t AddPoi(synth::PoiCategory category, const geo::Point& position);

  /// Dynamic scenario edit: removes a POI by id. NotFound if absent.
  util::Status RemovePoi(uint32_t poi_id);

  /// Switches the analysis interval, re-running the offline phase (hop
  /// trees are interval-specific).
  void SetInterval(const gtfs::TimeInterval& interval);

  /// Monotonic counter bumped by every scenario mutation (POI add/remove,
  /// interval switch). External caches keyed on it observe staleness
  /// without inspecting the scenario itself.
  uint64_t scenario_version() const { return scenario_version_; }

 private:
  synth::City city_;
  gtfs::TimeInterval interval_;
  std::unique_ptr<SsrPipeline> pipeline_;
  uint64_t scenario_version_ = 0;
};

}  // namespace staq::core
