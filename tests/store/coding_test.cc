// Byte-level encoder/decoder tests: every round trip is exact, every
// decoder refuses truncated or corrupt input with `false` instead of
// reading out of bounds, and the XXH64 reimplementation matches the
// reference vectors of the published specification.
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/hash.h"
#include "store/coding.h"

namespace staq::store {
namespace {

TEST(Varint, RoundTripsBoundaryValues) {
  const std::vector<uint64_t> values = {
      0,
      1,
      127,
      128,
      16383,
      16384,
      (1ull << 32) - 1,
      1ull << 32,
      (1ull << 63) - 1,
      1ull << 63,
      std::numeric_limits<uint64_t>::max(),
  };
  std::vector<uint8_t> buffer;
  for (uint64_t v : values) PutVarint64(&buffer, v);

  ByteReader reader(buffer.data(), buffer.size());
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(reader.ReadVarint64(&got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(reader.exhausted());
}

TEST(Varint, SingleByteForSmallValues) {
  std::vector<uint8_t> buffer;
  PutVarint64(&buffer, 127);
  EXPECT_EQ(buffer.size(), 1u);
  PutVarint64(&buffer, 128);
  EXPECT_EQ(buffer.size(), 3u);  // 128 takes two bytes
}

TEST(Varint, TruncatedInputFails) {
  std::vector<uint8_t> buffer;
  PutVarint64(&buffer, std::numeric_limits<uint64_t>::max());
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    ByteReader reader(buffer.data(), cut);
    uint64_t out;
    EXPECT_FALSE(reader.ReadVarint64(&out)) << "cut at " << cut;
  }
}

TEST(Varint, OverlongContinuationFails) {
  // Eleven continuation bytes: no valid varint64 is that long.
  std::vector<uint8_t> buffer(11, 0x80);
  ByteReader reader(buffer.data(), buffer.size());
  uint64_t out;
  EXPECT_FALSE(reader.ReadVarint64(&out));
}

TEST(ZigZag, RoundTripsSignedExtremes) {
  const std::vector<int64_t> values = {
      0, -1, 1, -2, 2, 1000000, -1000000,
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(),
  };
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
  // Small magnitudes stay small after encoding (the point of zigzag).
  EXPECT_LT(ZigZagEncode(-1), 4u);
  EXPECT_LT(ZigZagEncode(1), 4u);
}

TEST(DeltaColumn, RoundTripsSortedAndUnsorted) {
  const std::vector<uint32_t> sorted = {0, 1, 1, 5, 100, 100000, 4000000000u};
  const std::vector<int32_t> mixed = {-5, 300, -40000, 0, 7, 7, -7};

  std::vector<uint8_t> buffer;
  PutDeltaColumn(&buffer, sorted);
  PutDeltaColumn(&buffer, mixed);

  ByteReader reader(buffer.data(), buffer.size());
  std::vector<uint32_t> sorted_out;
  std::vector<int32_t> mixed_out;
  ASSERT_TRUE(ReadDeltaColumn(&reader, &sorted_out));
  ASSERT_TRUE(ReadDeltaColumn(&reader, &mixed_out));
  EXPECT_EQ(sorted_out, sorted);
  EXPECT_EQ(mixed_out, mixed);
  EXPECT_TRUE(reader.exhausted());
}

TEST(DeltaColumn, EmptyColumnRoundTrips) {
  std::vector<uint8_t> buffer;
  PutDeltaColumn(&buffer, std::vector<uint32_t>{});
  ByteReader reader(buffer.data(), buffer.size());
  std::vector<uint32_t> out = {1, 2, 3};
  ASSERT_TRUE(ReadDeltaColumn(&reader, &out));
  EXPECT_TRUE(out.empty());
}

TEST(DeltaColumn, RejectsAbsurdCount) {
  // A count far beyond the remaining bytes must be rejected before any
  // allocation, not trusted into a multi-gigabyte resize.
  std::vector<uint8_t> buffer;
  PutVarint64(&buffer, 1ull << 40);
  ByteReader reader(buffer.data(), buffer.size());
  std::vector<uint32_t> out;
  EXPECT_FALSE(ReadDeltaColumn(&reader, &out));
}

TEST(DeltaColumn, RejectsValueOverflowingElementType) {
  // 2^32 fits int64 deltas but not a uint32 element: corruption must not
  // wrap around into a plausible id.
  std::vector<uint8_t> buffer;
  PutDeltaColumn(&buffer, std::vector<uint64_t>{1ull << 32});
  ByteReader reader(buffer.data(), buffer.size());
  std::vector<uint32_t> out;
  EXPECT_FALSE(ReadDeltaColumn(&reader, &out));
}

TEST(DeltaColumn, RejectsNegativeForUnsigned) {
  std::vector<uint8_t> buffer;
  PutDeltaColumn(&buffer, std::vector<int64_t>{-3});
  ByteReader reader(buffer.data(), buffer.size());
  std::vector<uint32_t> out;
  EXPECT_FALSE(ReadDeltaColumn(&reader, &out));
}

TEST(DeltaColumn, TruncationFailsCleanly) {
  std::vector<uint8_t> buffer;
  PutDeltaColumn(&buffer, std::vector<uint32_t>{10, 20, 30, 40});
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    ByteReader reader(buffer.data(), cut);
    std::vector<uint32_t> out;
    EXPECT_FALSE(ReadDeltaColumn(&reader, &out)) << "cut at " << cut;
  }
}

TEST(FixedColumn, DoubleBitsRoundTripExactly) {
  // -0.0, denormals and huge values must survive bit-for-bit: the
  // snapshot bit-identity guarantee rides on this.
  const std::vector<double> values = {
      0.0, -0.0, 1.5, -1.0 / 3.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::infinity(),
  };
  std::vector<uint8_t> buffer;
  PutFixedColumn(&buffer, values);
  ByteReader reader(buffer.data(), buffer.size());
  std::vector<double> out;
  ASSERT_TRUE(ReadFixedColumn(&reader, &out));
  ASSERT_EQ(out.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t a, b;
    std::memcpy(&a, &values[i], 8);
    std::memcpy(&b, &out[i], 8);
    EXPECT_EQ(a, b) << "index " << i;
  }
}

TEST(FixedColumn, EmptyColumnReadsFromAnEmptyBuffer) {
  // An empty payload has no bytes to point at: the read must copy nothing
  // rather than hand memcpy a null pointer (UBSAN aborts on that).
  ByteReader empty(nullptr, 0);
  std::vector<double> out = {1.0};
  ASSERT_TRUE(empty.ReadFixedColumn(0, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(empty.exhausted());

  std::vector<uint8_t> buffer;
  PutFixedColumn(&buffer, std::vector<double>{});
  ByteReader reader(buffer.data(), buffer.size());
  ASSERT_TRUE(ReadFixedColumn(&reader, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(reader.exhausted());
}

TEST(FixedColumn, RejectsCountBeyondPayload) {
  std::vector<uint8_t> buffer;
  PutVarint64(&buffer, 1000);  // claims 1000 doubles, provides none
  ByteReader reader(buffer.data(), buffer.size());
  std::vector<double> out;
  EXPECT_FALSE(ReadFixedColumn(&reader, &out));
}

TEST(LengthPrefixed, RoundTripsAndRejectsBogusLength) {
  std::vector<uint8_t> buffer;
  PutLengthPrefixed(&buffer, "weekday-am-peak");
  PutLengthPrefixed(&buffer, "");
  {
    ByteReader reader(buffer.data(), buffer.size());
    std::string a, b;
    ASSERT_TRUE(reader.ReadLengthPrefixed(&a));
    ASSERT_TRUE(reader.ReadLengthPrefixed(&b));
    EXPECT_EQ(a, "weekday-am-peak");
    EXPECT_EQ(b, "");
  }
  std::vector<uint8_t> bogus;
  PutVarint64(&bogus, 1 << 20);  // length prefix far past the end
  ByteReader reader(bogus.data(), bogus.size());
  std::string out;
  EXPECT_FALSE(reader.ReadLengthPrefixed(&out));
}

TEST(ByteReader, FixedReadsStopAtEnd) {
  std::vector<uint8_t> buffer(7, 0xAB);  // one byte short of a double
  ByteReader reader(buffer.data(), buffer.size());
  double out;
  EXPECT_FALSE(reader.ReadFixed(&out));
  EXPECT_EQ(reader.remaining(), 7u);  // a failed read consumes nothing
}

TEST(XxHash64, MatchesReferenceVectors) {
  // Published xxHash test vectors (seed 0).
  EXPECT_EQ(util::XxHash64(nullptr, 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(util::XxHash64("abc", 3), 0x44BC2CF5AD770999ull);
}

TEST(XxHash64, SeedAndContentChangeDigest) {
  const std::string data(1000, 'x');
  const uint64_t base = util::XxHash64(data.data(), data.size());
  EXPECT_NE(util::XxHash64(data.data(), data.size(), 1), base);

  std::string flipped = data;
  flipped[500] ^= 0x01;
  EXPECT_NE(util::XxHash64(flipped.data(), flipped.size()), base);

  // Stable across calls (no hidden state).
  EXPECT_EQ(util::XxHash64(data.data(), data.size()), base);
}

TEST(XxHash64, CoversAllStripeRemainders) {
  // Lengths around the 32-byte stripe and 8/4/1-byte tail boundaries all
  // hash distinctly and deterministically.
  std::string data(100, 0);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  std::vector<uint64_t> seen;
  for (size_t len : {0, 1, 3, 4, 7, 8, 15, 31, 32, 33, 63, 64, 65, 100}) {
    uint64_t digest = util::XxHash64(data.data(), len);
    for (uint64_t prior : seen) EXPECT_NE(digest, prior) << "len " << len;
    seen.push_back(digest);
  }
}

}  // namespace
}  // namespace staq::store
