// Parameter specification for synthetic cities.
//
// Substitutes for the paper's real inputs (census-tract shapefiles, OSM
// road network, the TfWM GTFS feed, scraped POI locations). Two presets
// mirror the evaluation cities' structure:
//  * Brindale — Birmingham-shaped: ~3217 zones at full scale, dense and
//    extensive transit, large POI sets (874 schools, ...).
//  * Covely — Coventry-shaped: ~1014 zones, smaller POI sets, and a higher
//    share of walk-only trips (the property §V-B2 uses to explain the
//    ACSD-correlation gap).
//
// Both presets accept a linear `scale` on zone/POI counts so experiments
// can run at laptop scale while preserving relative structure. scale=1.0
// reproduces the paper's zone counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace staq::synth {

/// The four POI categories evaluated in the paper (§V-A).
enum class PoiCategory : uint8_t {
  kSchool = 0,
  kHospital,
  kVaxCenter,
  kJobCenter,
};

inline constexpr int kNumPoiCategories = 4;

/// Stable display name ("school", "hospital", ...).
const char* PoiCategoryName(PoiCategory c);

/// The category whose PoiCategoryName is `name`.
util::Result<PoiCategory> PoiCategoryFromName(const std::string& name);

/// How POIs of a category are sited.
enum class PoiPlacement : uint8_t {
  kPopulationWeighted,  // near where people live (schools)
  kDispersed,           // spread out, max-min distance (hospitals)
  kMixed,               // half weighted, half dispersed (vax centres)
  kCentral,             // biased to the city centre (job centres)
};

/// Per-category POI configuration.
struct PoiSpec {
  PoiCategory category = PoiCategory::kSchool;
  int count = 0;
  PoiPlacement placement = PoiPlacement::kPopulationWeighted;
};

/// Full description of a synthetic city.
struct CitySpec {
  std::string name;
  uint64_t seed = 1;
  /// The linear count multiplier this spec was built with (1.0 = the
  /// paper's zone/POI counts). Gravity calibration uses it to keep the
  /// Table-I reduction shape invariant under scaling.
  double scale = 1.0;

  // --- zones -------------------------------------------------------------
  int zones_x = 20;            // zone lattice dimensions
  int zones_y = 20;
  double zone_spacing_m = 450; // lattice pitch; centroids are jittered
  double centre_density_scale_m = 4000;  // pop density e-folding radius

  // --- road / footpath graph ----------------------------------------------
  int road_nodes_per_zone_axis = 2;  // road lattice is this x finer
  double diagonal_edge_prob = 0.3;
  double road_detour_factor = 1.1;   // edge length over straight line

  // --- transit -------------------------------------------------------------
  int num_radial_routes = 10;
  int num_orbital_routes = 3;
  int num_crosstown_routes = 6;
  double stop_spacing_m = 420;
  double bus_speed_mps = 7.0;        // effective incl. acceleration
  double dwell_s = 15;
  double peak_headway_s = 600;       // base headway during peaks
  double offpeak_headway_s = 1200;
  double weekend_headway_multiplier = 2.0;
  double route_headway_jitter = 0.5; // per-route factor in [1-j, 1+j]
  double flat_fare = 2.0;            // currency units per boarding
  int service_start_hour = 5;
  int service_end_hour = 23;

  // --- POIs ------------------------------------------------------------------
  std::vector<PoiSpec> pois;

  // --- demographics ---------------------------------------------------------
  double base_zone_population = 320;

  /// Total zone count implied by the lattice.
  int num_zones() const { return zones_x * zones_y; }

  /// Birmingham-shaped preset; `scale` multiplies zone and POI counts.
  static CitySpec Brindale(double scale = 0.25, uint64_t seed = 42);
  /// Coventry-shaped preset.
  static CitySpec Covely(double scale = 0.25, uint64_t seed = 43);
};

}  // namespace staq::synth
