#include "core/temporal.h"

#include <algorithm>
#include <cassert>

namespace staq::core {

std::vector<double> TemporalSpread(
    const std::vector<IntervalResult>& results) {
  assert(!results.empty());
  size_t n = results[0].result.mac.size();
  std::vector<double> spread(n, 0.0);
  for (size_t z = 0; z < n; ++z) {
    double lo = results[0].result.mac[z];
    double hi = lo;
    for (const IntervalResult& r : results) {
      assert(r.result.mac.size() == n);
      lo = std::min(lo, r.result.mac[z]);
      hi = std::max(hi, r.result.mac[z]);
    }
    spread[z] = hi - lo;
  }
  return spread;
}

std::vector<uint32_t> TemporalAccessDeserts(
    const std::vector<IntervalResult>& results, double factor) {
  assert(!results.empty());
  std::vector<uint32_t> deserts;
  size_t n = results[0].result.mac.size();
  for (uint32_t z = 0; z < n; ++z) {
    double reference = results[0].result.mac[z];
    if (reference <= 0.0) continue;
    for (size_t i = 1; i < results.size(); ++i) {
      if (results[i].result.mac[z] > factor * reference) {
        deserts.push_back(z);
        break;
      }
    }
  }
  return deserts;
}

}  // namespace staq::core
