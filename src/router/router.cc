#include "router/router.h"

#include <cmath>

#include "router/connections.h"
#include "router/csa.h"
#include "util/check.h"

namespace staq::router {

Router::Router(const gtfs::Feed* feed, RouterOptions options)
    : options_(options), walk_table_(feed, options.walk) {
  // A non-positive budget would not fail — it would make every search come
  // back empty (no boarding window, no reachable stop), which reads as
  // "nothing is accessible" instead of "the options are wrong".
  STAQ_CHECK(options_.horizon_s > 0, "horizon_s must be positive");
  STAQ_CHECK(options_.max_boarding_wait_s > 0,
             "max_boarding_wait_s must be positive");
  STAQ_CHECK(options_.walk.speed_mps > 0, "walk speed must be positive");
  STAQ_CHECK(options_.walk.detour_factor > 0,
             "walk detour factor must be positive");
  STAQ_CHECK(options_.walk.max_access_walk_s > 0,
             "access walk budget must be positive");
  STAQ_CHECK(options_.walk.max_transfer_walk_s > 0,
             "transfer walk budget must be positive");

  // options() then hands the shared array on: routers built from a
  // router's options (parallel labeling participants) scan this one.
  options_.connections =
      ConnectionArray::EnsureFor(options_.connections, feed);
  csa_ = std::make_unique<CsaEngine>(feed, options_, options_.connections,
                                     &walk_table_);
}

Router::~Router() = default;

gtfs::TimeOfDay RelaxLimit(double worst_total, gtfs::TimeOfDay depart,
                           gtfs::TimeOfDay latest_arrival) {
  if (!std::isfinite(worst_total)) return latest_arrival;
  // Keep labels with arrival - depart < worst_total; for integer arrivals
  // the latest such value is depart + ceil(worst_total) - 1.
  double cutoff = std::ceil(worst_total);
  if (cutoff >= static_cast<double>(latest_arrival - depart)) {
    return latest_arrival;
  }
  return depart + static_cast<gtfs::TimeOfDay>(cutoff) - 1;
}

Journey Router::Route(const geo::Point& origin, const geo::Point& dest,
                      gtfs::Day day, gtfs::TimeOfDay depart) {
  Journey out;
  RouteMany(origin, &dest, 1, day, depart, &out);
  return out;
}

std::vector<Journey> Router::RouteMany(const geo::Point& origin,
                                       const std::vector<geo::Point>& targets,
                                       gtfs::Day day, gtfs::TimeOfDay depart) {
  std::vector<Journey> out(targets.size());
  RouteMany(origin, targets.data(), targets.size(), day, depart, out.data());
  return out;
}

void Router::RouteMany(const geo::Point& origin, const geo::Point* targets,
                       size_t num_targets, gtfs::Day day,
                       gtfs::TimeOfDay depart, Journey* out,
                       const std::vector<WalkHop>* origin_access) {
  csa_->RouteMany(origin, targets, num_targets, day, depart, out,
                  origin_access);
}

}  // namespace staq::router
