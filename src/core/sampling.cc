#include "core/sampling.h"

#include <algorithm>
#include <cmath>

namespace staq::core {

util::Result<std::vector<uint32_t>> SampleLabeledZones(size_t num_zones,
                                                       double beta,
                                                       uint64_t seed) {
  if (num_zones < 2) {
    return util::Status::InvalidArgument("need at least 2 zones");
  }
  if (!(beta > 0.0 && beta <= 1.0)) {  // NaN fails too
    return util::Status::InvalidArgument("beta must be in (0, 1]");
  }
  size_t want = static_cast<size_t>(std::ceil(beta * static_cast<double>(num_zones)));
  want = std::clamp<size_t>(want, 2, num_zones);

  util::Rng rng(seed);
  auto sample = rng.SampleWithoutReplacement(num_zones, want);
  std::vector<uint32_t> out(sample.begin(), sample.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace staq::core
