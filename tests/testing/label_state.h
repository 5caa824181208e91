// Shared assertion: bit-level equality of two ExactLabelStates. Both the
// POI-mutation and the disruption golden suites check the same contract —
// an incrementally patched state equals a from-scratch build — so the
// comparison lives here once.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "serve/scenario.h"

namespace staq::testing {

/// Bit pattern of a double: the columns are compared bit for bit, not by
/// value (-0.0 == 0.0 would pass a value compare).
inline uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Full bit-level equality: POIs, the TODAM's zone offsets and flat trips,
/// α rows, every trip's cost and flags, labels.
inline void ExpectStatesIdentical(const serve::ExactLabelState& patched,
                                  const serve::ExactLabelState& fresh) {
  ASSERT_EQ(patched.pois.size(), fresh.pois.size());
  for (size_t p = 0; p < fresh.pois.size(); ++p) {
    EXPECT_EQ(patched.pois[p].id, fresh.pois[p].id);
  }
  ASSERT_EQ(patched.todam.offsets(), fresh.todam.offsets());
  ASSERT_EQ(patched.todam.trips().size(), fresh.todam.trips().size());
  for (size_t i = 0; i < fresh.todam.trips().size(); ++i) {
    EXPECT_EQ(patched.todam.trips()[i], fresh.todam.trips()[i])
        << "trip " << i << " differs";
  }
  ASSERT_EQ(patched.todam.alpha().size(), fresh.todam.alpha().size());
  for (size_t z = 0; z < fresh.todam.alpha().size(); ++z) {
    EXPECT_EQ(patched.todam.alpha()[z], fresh.todam.alpha()[z])
        << "alpha row differs in zone " << z;
  }
  ASSERT_EQ(patched.trip_flags.size(), fresh.trip_flags.size());
  ASSERT_EQ(patched.trip_costs.size(), fresh.trip_costs.size());
  ASSERT_EQ(fresh.trip_costs.size(), fresh.todam.num_trips());
  for (size_t i = 0; i < fresh.trip_costs.size(); ++i) {
    EXPECT_EQ(patched.trip_flags[i], fresh.trip_flags[i]) << "trip " << i;
    EXPECT_EQ(DoubleBits(patched.trip_costs[i]),
              DoubleBits(fresh.trip_costs[i]))
        << "trip " << i;
  }
  ASSERT_EQ(patched.labels.size(), fresh.labels.size());
  for (size_t z = 0; z < fresh.labels.size(); ++z) {
    // EXPECT_EQ on doubles on purpose: the claim is bit-identity, not
    // tolerance-level agreement.
    EXPECT_EQ(patched.labels[z].mac, fresh.labels[z].mac) << "zone " << z;
    EXPECT_EQ(patched.labels[z].acsd, fresh.labels[z].acsd) << "zone " << z;
    EXPECT_EQ(patched.labels[z].num_trips, fresh.labels[z].num_trips);
    EXPECT_EQ(patched.labels[z].num_infeasible,
              fresh.labels[z].num_infeasible);
    EXPECT_EQ(patched.labels[z].num_walk_only,
              fresh.labels[z].num_walk_only);
  }
}

}  // namespace staq::testing
