// Cross-commit goldens: a digest of the exact bits of a value sequence.
//
// FNV-1a (64-bit) over the "%a" hex-float text of every value, each
// followed by ';'. Hex-float text is exact, so two sequences share a
// digest only if every value is bit-identical (up to hash collisions);
// integers up to 2^53 round-trip through double unchanged.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

namespace staq::testing {

inline uint64_t HexFloatDigest(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  char buf[64];
  for (double v : values) {
    const int len = std::snprintf(buf, sizeof(buf), "%a;", v);
    for (int i = 0; i < len; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;  // FNV-1a 64 prime
    }
  }
  return h;
}

}  // namespace staq::testing
