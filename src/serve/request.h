// Request/response types of the serve subsystem.
//
// An AqRequest is one access query addressed to an AqServer: the POI
// category, the query's AccessQueryOptions (core/access_query.h), and an
// optional deadline. Requests are canonicalised into cache-key strings so
// that two requests that must produce identical answers — regardless of how
// their irrelevant option fields differ — share one result-cache entry: an
// exact query ignores beta/model (no SSR stage runs), and a journey-time
// query ignores the GAC weights.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/access_query.h"
#include "core/columnar.h"
#include "util/status.h"

namespace staq::serve {

/// Upper bound on a request's gravity.sample_rate_per_hour: one TODAM
/// sample per minute, above the 30/h any workload here uses. A TODAM holds
/// at most rate × interval hours × |Z| × |P| trips, so the rate is what
/// bounds one request's work and memory.
constexpr int kMaxSampleRatePerHour = 60;

/// One access query submitted to an AqServer. Fields arrive unchecked over
/// the wire; admission (and QueryUncached) refuses a request with
/// kInvalidArgument unless every field its answer reads is in range: an
/// SSR beta finite in (0, 1]; a finite decay_scale_m > 0; a finite
/// keep_scale >= 0; sample_rate_per_hour in [1, kMaxSampleRatePerHour];
/// and, under the generalized cost, valid GAC weights.
struct AqRequest {
  synth::PoiCategory category = synth::PoiCategory::kHospital;
  core::AccessQueryOptions options;
  /// Wall-clock budget in seconds, measured from submission. A request
  /// still queued when its budget expires fails with kDeadlineExceeded
  /// instead of occupying a worker. 0 disables the deadline.
  double deadline_s = 0.0;
};

/// One request template swept across POI categories, TODAM seeds, and cost
/// definitions. An empty axis means "the template's value". Every member of
/// an exact batch that shares a (category, seed) shares ONE labeling pass on
/// a worker and its answer lands in the ResultCache under the derived
/// single-query key, so later single submissions of any member are cache
/// hits.
struct AqBatchRequest {
  AqRequest request;
  std::vector<synth::PoiCategory> categories;
  std::vector<uint64_t> seeds;
  std::vector<core::CostMember> cost_members;
};

/// Expands the template × axes into concrete single requests in the
/// deterministic batch order: category-major, then seed, then cost member.
/// SubmitBatch returns tickets in exactly this order.
std::vector<AqRequest> ExpandBatch(const AqBatchRequest& batch);

/// Everything an *exact* labeling depends on besides the scenario's POI
/// set: the inputs of the edit-stable TODAM plus the cost definition.
/// Scenario memoises one ExactLabelState per distinct key (see
/// serve/scenario.h).
struct LabelKey {
  synth::PoiCategory category = synth::PoiCategory::kHospital;
  core::CostKind cost = core::CostKind::kJourneyTime;
  router::GacWeights gac;
  core::GravityConfig gravity;
  uint64_t seed = 1;

  /// Canonical string form: identical keys ⇔ identical strings. GAC
  /// weights are included only under kGeneralizedCost — they cannot affect
  /// a journey-time labeling.
  std::string Canonical() const;
};

/// The label-state key a request resolves to.
LabelKey LabelKeyFor(const AqRequest& request);

/// kInvalidArgument unless `key` is one an admitted request can name: a
/// finite decay_scale_m > 0, a finite keep_scale >= 0, sample_rate_per_hour
/// in [1, kMaxSampleRatePerHour] and, under the generalized cost, valid
/// GAC weights. Admission checks requests with it, and a snapshot's label
/// keys must pass it too, since mutations patch every restored state.
util::Status CheckLabelKey(const LabelKey& key);

/// Canonical result-cache key of a request *within one scenario epoch*
/// (the server prepends the epoch). Exact requests drop beta/model; SSR
/// requests append them to the label key.
std::string CanonicalRequestKey(const AqRequest& request);

/// Cumulative server counters, snapshotted by AqServer::stats().
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;          // promise fulfilled with an OK result
  uint64_t failed = 0;             // fulfilled with a non-OK status
  uint64_t rejected = 0;           // refused at admission (queue full)
  uint64_t shed = 0;               // refused at admission (queue-delay budget)
  uint64_t deadline_exceeded = 0;  // expired before a worker picked it up
  uint64_t cancelled = 0;          // withdrawn via AqTicket::TryCancel

  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  /// Exact label states built from scratch (full labeling sweeps).
  uint64_t exact_state_builds = 0;
  /// SSR zone feature matrices built for the per-epoch feature memo (at
  /// most one per category and decay scale per epoch).
  uint64_t ssr_feature_builds = 0;

  uint64_t mutations = 0;
  uint64_t states_patched = 0;    // label states carried across epochs by patching
  uint64_t zones_relabeled = 0;   // zones recomputed by all patches
  uint64_t patch_spqs = 0;        // SPQs spent inside patches
};

}  // namespace staq::serve
