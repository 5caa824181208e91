// Access-cost definitions (paper §III-C).
//
// Two access costs are computed per trip (o, d, t):
//  * JT  — journey time: c(o,d,t) = AT(d) - t.
//  * GAC — generalized access cost, the UK DfT TAG M3.2 formulation
//    (paper Eq. 1):
//      c = λ1·TAN + λ2·WT + λ3·IVT + λ4·ET + TP + FARE/VOT
//    where TAN is access walk time, WT waiting time, IVT in-vehicle time,
//    ET egress walk time, TP the interchange penalty, and FARE/VOT converts
//    money into equivalent seconds via the value of time.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gtfs/feed.h"

namespace staq::router {

/// One leg of a reconstructed journey.
struct JourneyLeg {
  enum class Type { kWalk, kWait, kRide };
  Type type = Type::kWalk;
  gtfs::TimeOfDay start = 0;
  gtfs::TimeOfDay end = 0;
  uint32_t route = gtfs::kInvalidId;  // kRide only
  uint32_t from_stop = gtfs::kInvalidId;
  uint32_t to_stop = gtfs::kInvalidId;

  gtfs::TimeOfDay Duration() const { return end - start; }
};

/// A resolved (o, d, t) journey with its cost decomposition.
struct Journey {
  bool feasible = false;
  gtfs::TimeOfDay depart = 0;  // the query time t
  gtfs::TimeOfDay arrive = 0;  // AT(d)

  // Component seconds; sums match arrive - depart.
  double access_walk_s = 0.0;    // TAN
  double transfer_walk_s = 0.0;  // folded into TAN per DfT practice
  double wait_s = 0.0;           // WT (initial + interchange waits)
  double in_vehicle_s = 0.0;     // IVT
  double egress_walk_s = 0.0;    // ET
  int num_boardings = 0;
  double total_fare = 0.0;

  std::vector<JourneyLeg> legs;

  /// JT in seconds: AT(d) - t.
  double JourneyTimeSeconds() const {
    return static_cast<double>(arrive - depart);
  }
  bool IsWalkOnly() const { return feasible && num_boardings == 0; }
};

/// Weighting factors for Eq. 1, defaulted to DfT TAG M3.2 guidance values:
/// walking and waiting weighted ~2x in-vehicle time, a ~10-minute penalty
/// per interchange, and a value of time of ~£9/hour.
struct GacWeights {
  double lambda_tan = 2.0;          // λ1, access (+transfer) walk weight
  double lambda_wt = 2.5;           // λ2, wait weight
  double lambda_ivt = 1.0;          // λ3, in-vehicle weight
  double lambda_et = 2.0;           // λ4, egress walk weight
  double transfer_penalty_s = 600;  // TP per interchange (boardings - 1)
  double value_of_time = 9.0 / 3600.0;  // VOT in currency units per second

  /// Validates that every weight is usable (finite, non-negative, VOT
  /// positive); an infinite weight would turn every cost non-finite.
  bool Valid() const {
    for (double w : {lambda_tan, lambda_wt, lambda_ivt, lambda_et,
                     transfer_penalty_s, value_of_time}) {
      if (!std::isfinite(w) || w < 0) return false;
    }
    return value_of_time > 0;
  }
};

/// Evaluates Eq. 1 on a journey, in generalized seconds. Infeasible
/// journeys return +infinity.
double GeneralizedAccessCost(const Journey& journey, const GacWeights& w);

/// Human-readable one-line description ("walk 4m, route 12 7:05->7:21, ...").
std::string DescribeJourney(const Journey& journey);

}  // namespace staq::router
