// Shared assertion: bit-level equality of two ExactLabelStates. The
// POI-mutation and disruption golden suites (a patched state equals a
// from-scratch build) and the snapshot round trips (a loaded state equals
// the saved one) check the same contract, so the comparison lives here
// once.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "serve/scenario.h"

namespace staq::testing {

/// Bit pattern of a double: the columns are compared bit for bit, not by
/// value (-0.0 == 0.0 would pass a value compare).
inline uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Full bit-level equality of a state's four members: the TODAM's zone
/// offsets, flat trips and α rows, every trip's cost and flags, labels.
inline void ExpectStatesIdentical(const serve::ExactLabelState& patched,
                                  const serve::ExactLabelState& fresh) {
  ASSERT_EQ(patched.todam.offsets(), fresh.todam.offsets());
  ASSERT_EQ(patched.todam.trips().size(), fresh.todam.trips().size());
  for (size_t i = 0; i < fresh.todam.trips().size(); ++i) {
    EXPECT_EQ(patched.todam.trips()[i], fresh.todam.trips()[i])
        << "trip " << i << " differs";
  }
  ASSERT_EQ(patched.todam.alpha().size(), fresh.todam.alpha().size());
  for (size_t z = 0; z < fresh.todam.alpha().size(); ++z) {
    const std::vector<double>& got = patched.todam.alpha()[z];
    const std::vector<double>& want = fresh.todam.alpha()[z];
    ASSERT_EQ(got.size(), want.size()) << "alpha row of zone " << z;
    for (size_t p = 0; p < want.size(); ++p) {
      EXPECT_EQ(DoubleBits(got[p]), DoubleBits(want[p]))
          << "alpha[" << z << "][" << p << "]";
    }
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
    EXPECT_EQ(DoubleBits(patched.labels[z].mac),
              DoubleBits(fresh.labels[z].mac))
        << "zone " << z;
    EXPECT_EQ(DoubleBits(patched.labels[z].acsd),
              DoubleBits(fresh.labels[z].acsd))
        << "zone " << z;
    EXPECT_EQ(patched.labels[z].num_trips, fresh.labels[z].num_trips);
    EXPECT_EQ(patched.labels[z].num_infeasible,
              fresh.labels[z].num_infeasible);
    EXPECT_EQ(patched.labels[z].num_walk_only,
              fresh.labels[z].num_walk_only);
  }
}

}  // namespace staq::testing
