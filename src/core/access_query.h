// Access-query types — what an access query asks and what it answers
// (paper §I, §III): "what is the aggregate access cost to <POI category>
// in <time interval>, how does it vary across zones, and how fairly is it
// distributed?", either exactly (full labeling, the naive baseline) or via
// the SSR solution at a chosen labeling budget.
//
// The library answers these through one front door, serve::AqServer
// (serve/server.h): synchronous Query/QueryBatch, the dynamic edits
// AddPoi/RemovePoi and SetInterval, and the asynchronous Submit API, all
// over one ScenarioStore. This header holds only the request options, the
// answer, and the finalize step that turns zone measures into an answer.
#pragma once

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
/// kernel (core/measures.h). Every server answer ends here
/// (serve/server.h); `result.mac`/`result.acsd` must already be populated.
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

}  // namespace staq::core
