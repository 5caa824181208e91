// Temporal origin-destination access matrix (paper §III-C).
//
// The TODAM is conceptually |Z| x |P| x |R|: every (zone, POI, start-time)
// trip. Materialising the full matrix M_f is exactly the bottleneck the
// paper attacks, so this type supports both:
//   * materialised construction (full or gravity-masked M_g) — trips are
//     stored grouped by origin zone, which is the access pattern of both
//     labeling and aggregation;
//   * counting-only construction, which reproduces Table I's matrix sizes
//     at full city scale without allocating hundreds of millions of trips.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gravity.h"
#include "gtfs/time.h"
#include "synth/city_builder.h"
#include "util/rng.h"
#include "util/status.h"

namespace staq::core {

/// One sampled trip from a zone: destination POI index (into the POI set
/// the TODAM was built over) and start time.
struct TripEntry {
  uint32_t poi = 0;        // index into the builder's POI vector
  gtfs::TimeOfDay depart = 0;

  bool operator==(const TripEntry& other) const {
    return poi == other.poi && depart == other.depart;
  }
};

/// Frozen per-zone gravity normalisers for the *edit-stable* TODAM mode
/// (serve scenario store): Σ_j decay(d_ij) over a fixed reference POI set.
/// Freezing the normaliser — instead of re-normalising α over the current
/// POI set — is what makes a POI add/remove perturb only that POI's trips,
/// so incremental relabeling can be exact (see serve/scenario.h). One
/// decay column per POI accumulates with an Axpy over all zones, so each
/// norms[z] sums its decays in ascending-POI order, bit-identical to the
/// zone-by-zone loop of tests/testing/scalar_oracle.h.
std::vector<double> StableGravityNorms(const std::vector<synth::Zone>& zones,
                                       const std::vector<synth::Poi>& pois,
                                       double decay_scale_m);

/// Forward kept only because the benchmark (staqbench/src/whatif_cold.cc)
/// calls this name; delete with that call (ROADMAP item 3).
inline std::vector<double> StableGravityNormsColumnar(
    const std::vector<synth::Zone>& zones, const std::vector<synth::Poi>& pois,
    double decay_scale_m) {
  return StableGravityNorms(zones, pois, decay_scale_m);
}

/// Materialised TODAM over one POI set and one time interval.
class Todam {
 public:
  /// Trips originating at `zone`, grouped contiguously.
  const std::vector<TripEntry>& TripsFor(uint32_t zone) const {
    return trips_[zone];
  }
  size_t num_zones() const { return trips_.size(); }
  uint64_t num_trips() const { return num_trips_; }

  /// α_ij weights used during construction (row-normalised); needed again
  /// for the gravity-weighted feature aggregation.
  const std::vector<std::vector<double>>& alpha() const { return alpha_; }

  /// Fraction of trips whose POI is within the walking reach `reach_m` of
  /// the origin centroid (the paper's walk-only share diagnostic, §V-B2).
  double WalkOnlyFraction(const std::vector<synth::Zone>& zones,
                          const std::vector<synth::Poi>& pois,
                          double reach_m) const;

  // --- scenario mutation hooks (serve subsystem) ------------------------
  //
  // Both hooks keep the invariant that a patched TODAM equals the one
  // BuildGravityStable would produce from scratch over the edited POI set:
  // within a zone, trips stay grouped per POI in POI-vector order, so
  // removing a column erases one contiguous block and appending a column
  // extends the tail. Zones whose trip sequence changed are recorded in
  // `affected` (ascending) — exactly the zones whose labels can change.

  /// Removes every trip targeting POI index `poi_index` and shifts higher
  /// indices down by one (mirroring erasure from the POI vector). Also
  /// drops the α column when α is populated.
  void RemovePoiColumn(uint32_t poi_index, std::vector<uint32_t>* affected);

  /// Samples and appends the column of `poi`, added at index `poi_index`
  /// (the old POI count), in the edit-stable mode: every zone's α entry
  /// and kept trips are drawn by the same per-pair code as
  /// TodamBuilder::BuildGravityStable over (`zones`, `zone_norm`,
  /// `gravity`, `interval`, `seed`). The pair's RNG stream is keyed by the
  /// POI's stable id, so no other column is touched. The trips go after
  /// each zone's existing ones; α rows grow when α is populated.
  void AppendStablePoiColumn(const std::vector<synth::Zone>& zones,
                             const synth::Poi& poi, uint32_t poi_index,
                             const std::vector<double>& zone_norm,
                             const GravityConfig& gravity,
                             const gtfs::TimeInterval& interval, uint64_t seed,
                             std::vector<uint32_t>* affected);

  /// Reassembles a TODAM from persisted columns (snapshot restore).
  /// `trips[z]` / `alpha[z]` become zone z's rows verbatim, so the
  /// restored matrix is bit-identical to the built one (the property the
  /// snapshot golden tests assert end to end).
  static Todam FromParts(std::vector<std::vector<TripEntry>> trips,
                         std::vector<std::vector<double>> alpha);

 private:
  friend class TodamBuilder;
  std::vector<std::vector<TripEntry>> trips_;
  std::vector<std::vector<double>> alpha_;
  uint64_t num_trips_ = 0;
};

/// Builds full and gravity TODAMs and their trip counts.
class TodamBuilder {
 public:
  /// `zones`/`pois` must outlive the builder call; `interval` gives the
  /// start-time window, `config` the gravity parameters. Construction is
  /// free: the modes that read the row-normalised α build it per call, and
  /// BuildGravityStable derives its own from the frozen normalisers.
  TodamBuilder(const std::vector<synth::Zone>& zones,
               const std::vector<synth::Poi>& pois,
               const gtfs::TimeInterval& interval, GravityConfig config);

  /// |R|: start-time samples per (zone, POI) pair.
  uint32_t SamplesPerPair() const;

  /// Size of the full matrix M_f = |Z| x |P| x |R| (no materialisation).
  uint64_t FullTripCount() const;

  /// Materialises the full TODAM M_f. Use only at small scales.
  Todam BuildFull(uint64_t seed) const;

  /// Materialises the gravity TODAM M_g: per pair (i,j), each of the |R|
  /// start times is kept with probability min(1, keep_scale * α_ij).
  Todam BuildGravity(uint64_t seed) const;

  /// Edit-stable variant for the serve scenario store: keep probability is
  /// min(1, keep_scale * decay_ij / zone_norm[i]) with `zone_norm` frozen
  /// (StableGravityNorms over a reference POI set), and the per-pair RNG is
  /// keyed by the POI's stable id. At the reference POI set this draws the
  /// same keep probabilities as BuildGravity; under POI edits it is
  /// history-independent: rebuilding from scratch equals patching via
  /// RemovePoiColumn/AppendStablePoiColumn, trip for trip.
  Todam BuildGravityStable(uint64_t seed,
                           const std::vector<double>& zone_norm) const;

  /// Trip count of M_g under `seed` without materialising the start times
  /// (draws only the per-pair binomial counts). Matches BuildGravity's
  /// count for the same seed.
  uint64_t GravityTripCount(uint64_t seed) const;

 private:
  double KeepProbability(double alpha_ij) const;

  const std::vector<synth::Zone>& zones_;
  const std::vector<synth::Poi>& pois_;
  gtfs::TimeInterval interval_;
  GravityConfig config_;
};

}  // namespace staq::core
