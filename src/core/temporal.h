// Temporal accessibility analysis (paper §I questions 1 and 3, §II
// "temporal accessibility studies").
//
// Given the same access query answered in several time intervals (an
// AqServer's SetInterval + Query per interval, serve/server.h), derives the
// temporal measures the motivating questions ask for: how access varies
// over the day/week, which zones' access collapses at particular times
// ("does the varying transit schedule restrict or prevent access at
// particular times of the day?"), and how fairness shifts between
// intervals.
#pragma once

#include <vector>

#include "core/access_query.h"

namespace staq::core {

/// One interval's answer.
struct IntervalResult {
  gtfs::TimeInterval interval;
  AccessQueryResult result;
};

/// Per-zone temporal spread: max - min MAC across the intervals. Requires
/// at least one interval; all results must cover the same zones.
std::vector<double> TemporalSpread(const std::vector<IntervalResult>& results);

/// Zones whose MAC in some interval exceeds `factor` x their MAC in the
/// reference interval (results[0]) — the "temporal access desert" set.
/// Zones with zero reference MAC are skipped.
std::vector<uint32_t> TemporalAccessDeserts(
    const std::vector<IntervalResult>& results, double factor);

}  // namespace staq::core
