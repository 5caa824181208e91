// RouterOptions validation: non-positive horizons, boarding waits, or walk
// budgets would silently turn every query into an empty search, so the
// Router constructor aborts on them via STAQ_CHECK (util/check.h) before
// the connection scan engine is built.
#include <gtest/gtest.h>

#include "router/router.h"
#include "testing/test_city.h"

namespace staq::router {
namespace {

class RouterOptionsDeathTest : public ::testing::Test {
 protected:
  gtfs::Feed feed_ = testing::LineFeed(600);
};

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveHorizon) {
  RouterOptions options;
  options.horizon_s = 0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
  options.horizon_s = -3600;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveBoardingWait) {
  RouterOptions options;
  options.max_boarding_wait_s = 0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveWalkSpeed) {
  RouterOptions options;
  options.walk.speed_mps = 0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveDetourFactor) {
  RouterOptions options;
  options.walk.detour_factor = -1.0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveWalkBudgets) {
  RouterOptions options;
  options.walk.max_access_walk_s = 0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
  options = RouterOptions{};
  options.walk.max_transfer_walk_s = -5;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, ValidOptionsConstruct) {
  Router csa(&feed_, RouterOptions{});
  EXPECT_NE(csa.csa(), nullptr);
  EXPECT_NE(csa.options().connections, nullptr);
}

}  // namespace
}  // namespace staq::router
