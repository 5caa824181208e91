#include "synth/city_spec.h"

#include <algorithm>
#include <cmath>

namespace staq::synth {

namespace {

/// Lattice dimensions whose product approximates `target` zones.
void LatticeDims(double target, int* x, int* y) {
  int side = static_cast<int>(std::lround(std::sqrt(target)));
  *x = std::max(side, 4);
  *y = std::max(side, 4);
}

int ScaledCount(int full_count, double scale) {
  // Small categories (a handful of hospitals / job centres) lose their
  // spatial structure if scaled all the way down, so they are floored at 4
  // (or the full count when the paper's city has fewer than that).
  int floor_count = std::min(full_count, 4);
  int scaled = static_cast<int>(std::lround(full_count * scale));
  return std::max(floor_count, scaled);
}

}  // namespace

const char* PoiCategoryName(PoiCategory c) {
  switch (c) {
    case PoiCategory::kSchool:
      return "school";
    case PoiCategory::kHospital:
      return "hospital";
    case PoiCategory::kVaxCenter:
      return "vax_center";
    case PoiCategory::kJobCenter:
      return "job_center";
  }
  return "unknown";
}

util::Result<PoiCategory> PoiCategoryFromName(const std::string& name) {
  for (int c = 0; c < kNumPoiCategories; ++c) {
    const auto category = static_cast<PoiCategory>(c);
    if (name == PoiCategoryName(category)) return category;
  }
  return util::Status::InvalidArgument("unknown POI category: " + name);
}

CitySpec CitySpec::Brindale(double scale, uint64_t seed) {
  CitySpec spec;
  spec.name = "brindale";
  spec.seed = seed;
  spec.scale = scale;
  LatticeDims(3217.0 * scale, &spec.zones_x, &spec.zones_y);
  spec.zone_spacing_m = 450;
  spec.centre_density_scale_m = 0.3 * spec.zones_x * spec.zone_spacing_m;

  // Transit network scales with the city's linear extent.
  double linear = std::sqrt(scale);
  spec.num_radial_routes = std::max(6, static_cast<int>(std::lround(18 * linear)));
  spec.num_orbital_routes = std::max(2, static_cast<int>(std::lround(5 * linear)));
  spec.num_crosstown_routes =
      std::max(3, static_cast<int>(std::lround(12 * linear)));
  spec.peak_headway_s = 420;
  spec.offpeak_headway_s = 840;
  spec.bus_speed_mps = 8.0;

  // Paper Table I POI counts for Birmingham. Job centres sit part-central,
  // part-where-people-live (DWP offices are spread across boroughs).
  spec.pois = {
      {PoiCategory::kSchool, ScaledCount(874, scale),
       PoiPlacement::kPopulationWeighted},
      {PoiCategory::kHospital, ScaledCount(56, scale), PoiPlacement::kDispersed},
      {PoiCategory::kVaxCenter, ScaledCount(82, scale), PoiPlacement::kMixed},
      {PoiCategory::kJobCenter, ScaledCount(20, scale), PoiPlacement::kMixed},
  };
  return spec;
}

CitySpec CitySpec::Covely(double scale, uint64_t seed) {
  CitySpec spec;
  spec.name = "covely";
  spec.seed = seed;
  spec.scale = scale;
  LatticeDims(1014.0 * scale, &spec.zones_x, &spec.zones_y);
  // Slightly tighter zone pitch: Coventry is more compact, which raises the
  // walk-only trip share the paper highlights (7.1% vs 4.3%).
  spec.zone_spacing_m = 400;
  spec.centre_density_scale_m = 0.35 * spec.zones_x * spec.zone_spacing_m;

  double linear = std::sqrt(scale);
  spec.num_radial_routes = std::max(4, static_cast<int>(std::lround(10 * linear)));
  spec.num_orbital_routes = std::max(1, static_cast<int>(std::lround(3 * linear)));
  spec.num_crosstown_routes =
      std::max(2, static_cast<int>(std::lround(6 * linear)));
  spec.peak_headway_s = 600;
  spec.offpeak_headway_s = 1200;
  spec.bus_speed_mps = 7.5;

  // Paper Table I POI counts for Coventry.
  spec.pois = {
      {PoiCategory::kSchool, ScaledCount(230, scale),
       PoiPlacement::kPopulationWeighted},
      {PoiCategory::kHospital, ScaledCount(6, scale), PoiPlacement::kDispersed},
      {PoiCategory::kVaxCenter, ScaledCount(22, scale), PoiPlacement::kMixed},
      {PoiCategory::kJobCenter, ScaledCount(2, scale), PoiPlacement::kCentral},
  };
  return spec;
}

}  // namespace staq::synth
