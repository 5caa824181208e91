#include "router/cost.h"

#include "util/strings.h"

namespace staq::router {

std::string DescribeJourney(const Journey& journey) {
  if (!journey.feasible) return "infeasible";
  std::vector<std::string> parts;
  for (const JourneyLeg& leg : journey.legs) {
    switch (leg.type) {
      case JourneyLeg::Type::kWalk:
        parts.push_back(util::Format("walk %ds", leg.Duration()));
        break;
      case JourneyLeg::Type::kWait:
        parts.push_back(util::Format("wait %ds", leg.Duration()));
        break;
      case JourneyLeg::Type::kRide:
        parts.push_back(util::Format(
            "ride route %u %s->%s", leg.route,
            gtfs::FormatTime(leg.start).c_str(),
            gtfs::FormatTime(leg.end).c_str()));
        break;
    }
  }
  return util::Format("[%s -> %s] ", gtfs::FormatTime(journey.depart).c_str(),
                      gtfs::FormatTime(journey.arrive).c_str()) +
         util::Join(parts, ", ");
}

}  // namespace staq::router
