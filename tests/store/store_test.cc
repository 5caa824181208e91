// Container-level tests of the snapshot store: writer/reader round trips,
// a reader outliving an in-place rewrite of its file, and the
// corruption-robustness guarantee — any
// truncation, bit flip, or header/trailer forgery degrades into a clean
// kInvalidArgument / kDataLoss status. Nothing in here may crash, which is
// what makes this suite worth running under ASAN/UBSAN.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/coding.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/status.h"

namespace staq::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "staq_store_" + name;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Writes a small three-section container and returns its path.
std::string WriteSample(const std::string& name) {
  const std::string path = TempPath(name);
  Writer writer;
  EXPECT_TRUE(writer.Open(path).ok());

  std::vector<uint8_t> ints;
  PutDeltaColumn(&ints, std::vector<uint32_t>{3, 1, 4, 1, 5, 9, 2, 6});
  EXPECT_TRUE(
      writer.AddSection("ints", SectionEncoding::kDelta, std::move(ints), 8)
          .ok());

  std::vector<uint8_t> raw;
  for (double v : {0.5, -1.25, 3e300}) PutFixed(&raw, v);
  EXPECT_TRUE(
      writer.AddSection("raw", SectionEncoding::kRaw, std::move(raw), 3).ok());

  std::vector<uint8_t> record;
  PutLengthPrefixed(&record, "hello");
  PutVarint64(&record, 42);
  EXPECT_TRUE(writer
                  .AddSection("record", SectionEncoding::kStruct,
                              std::move(record), 1)
                  .ok());
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

void ExpectSampleReads(Reader* reader) {
  auto ints = reader->Section("ints", SectionEncoding::kDelta);
  ASSERT_TRUE(ints.ok()) << ints.status();
  std::vector<uint32_t> decoded;
  ASSERT_TRUE(ReadDeltaColumn(&ints.value(), &decoded));
  EXPECT_EQ(decoded, (std::vector<uint32_t>{3, 1, 4, 1, 5, 9, 2, 6}));

  auto raw = reader->Section("raw", SectionEncoding::kRaw);
  ASSERT_TRUE(raw.ok()) << raw.status();
  std::vector<double> doubles;
  ASSERT_TRUE(raw.value().ReadFixedColumn(3, &doubles));
  EXPECT_EQ(doubles, (std::vector<double>{0.5, -1.25, 3e300}));

  auto record = reader->Section("record", SectionEncoding::kStruct);
  ASSERT_TRUE(record.ok()) << record.status();
  std::string s;
  uint64_t n;
  ASSERT_TRUE(record.value().ReadLengthPrefixed(&s));
  ASSERT_TRUE(record.value().ReadVarint64(&n));
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(n, 42u);
}

TEST(StoreRoundTrip, WrittenSectionsReadBack) {
  const std::string path = WriteSample("roundtrip.staq");
  Reader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.format_version(), kFormatVersion);
  EXPECT_EQ(reader.sections().size(), 3u);
  EXPECT_TRUE(reader.Has("ints"));
  EXPECT_FALSE(reader.Has("missing"));
  ExpectSampleReads(&reader);
  EXPECT_TRUE(reader.VerifyAllBlocks().ok());
  std::remove(path.c_str());
}

TEST(StoreRoundTrip, OpenReaderSurvivesAnInPlaceRewrite) {
  // Another process truncating the file in place (as fopen "wb" does) must
  // not reach a reader that already opened it: it holds its own copy of
  // every byte, where a mapping would fault past the new end of file.
  const std::string path = WriteSample("rewritten.staq");
  Reader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::FILE* rewrite = std::fopen(path.c_str(), "wb");
  ASSERT_NE(rewrite, nullptr);
  std::fclose(rewrite);
  ASSERT_TRUE(ReadFile(path).empty());

  ExpectSampleReads(&reader);
  EXPECT_TRUE(reader.VerifyAllBlocks().ok());
  std::remove(path.c_str());
}

TEST(StoreRoundTrip, SectionsAreAlignedAndDescribed) {
  const std::string path = WriteSample("aligned.staq");
  Reader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  for (const SectionEntry& s : reader.sections()) {
    EXPECT_EQ(s.offset % 8, 0u) << s.name;
    EXPECT_GE(s.offset, kHeaderSize) << s.name;
    // One checksum per started kBlockSize block.
    size_t blocks = s.size == 0 ? 0 : (s.size + kBlockSize - 1) / kBlockSize;
    EXPECT_EQ(s.block_checksums.size(), blocks) << s.name;
  }
  auto ints = reader.Section("ints");
  ASSERT_TRUE(ints.ok());
  std::remove(path.c_str());
}

TEST(StoreRoundTrip, EmptySectionAndEmptyContainer) {
  const std::string path = TempPath("empty.staq");
  {
    Writer writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(
        writer.AddSection("nothing", SectionEncoding::kRaw, {}, 0).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  Reader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  auto section = reader.Section("nothing");
  ASSERT_TRUE(section.ok()) << section.status();
  EXPECT_EQ(section.value().remaining(), 0u);
  std::remove(path.c_str());
}

TEST(StoreRoundTrip, MissingSectionIsNotFound) {
  const std::string path = WriteSample("missing.staq");
  Reader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  auto missing = reader.Section("no-such-section");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(StoreRoundTrip, EncodingMismatchIsRejected) {
  const std::string path = WriteSample("encoding.staq");
  Reader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  auto wrong = reader.Section("ints", SectionEncoding::kRaw);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(StoreRoundTrip, LargeSectionSpansMultipleBlocks) {
  const std::string path = TempPath("blocks.staq");
  std::vector<double> column(3 * kBlockSize / sizeof(double) + 17);
  for (size_t i = 0; i < column.size(); ++i) {
    column[i] = static_cast<double>(i) * 0.75;
  }
  {
    Writer writer;
    ASSERT_TRUE(writer.Open(path).ok());
    std::vector<uint8_t> payload(column.size() * sizeof(double));
    std::memcpy(payload.data(), column.data(), payload.size());
    ASSERT_TRUE(writer
                    .AddSection("big", SectionEncoding::kRaw,
                                std::move(payload), column.size())
                    .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  Reader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ASSERT_EQ(reader.sections().size(), 1u);
  EXPECT_EQ(reader.sections()[0].block_checksums.size(), 4u);
  auto section = reader.Section("big", SectionEncoding::kRaw);
  ASSERT_TRUE(section.ok());
  std::vector<double> out;
  ASSERT_TRUE(section.value().ReadFixedColumn(column.size(), &out));
  EXPECT_EQ(out, column);
  std::remove(path.c_str());
}

// --- corruption robustness --------------------------------------------------

bool IsCleanFailure(const util::Status& status) {
  return !status.ok() &&
         (status.code() == util::StatusCode::kInvalidArgument ||
          status.code() == util::StatusCode::kDataLoss ||
          status.code() == util::StatusCode::kIoError);
}

TEST(StoreCorruption, NonexistentEmptyAndTinyFiles) {
  Reader reader;
  EXPECT_TRUE(IsCleanFailure(reader.Open(TempPath("does_not_exist.staq"))));

  const std::string path = TempPath("tiny.staq");
  for (size_t size : {0, 1, 8, 15, 16, 23, 24, 39}) {
    WriteFile(path, std::vector<uint8_t>(size, 0x5A));
    Reader r;
    EXPECT_TRUE(IsCleanFailure(r.Open(path))) << "size " << size;
  }
  std::remove(path.c_str());
}

TEST(StoreCorruption, WrongMagicsAndVersion) {
  const std::string good_path = WriteSample("forge_src.staq");
  const std::vector<uint8_t> good = ReadFile(good_path);
  const std::string path = TempPath("forged.staq");

  {
    std::vector<uint8_t> bytes = good;
    bytes[0] ^= 0xFF;  // header magic
    WriteFile(path, bytes);
    Reader reader;
    auto status = reader.Open(path);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  }
  {
    std::vector<uint8_t> bytes = good;
    bytes[bytes.size() - 1] ^= 0xFF;  // trailer magic
    WriteFile(path, bytes);
    Reader reader;
    EXPECT_TRUE(IsCleanFailure(reader.Open(path)));
  }
  {
    std::vector<uint8_t> bytes = good;
    bytes[8] = 99;  // format_version -> unsupported future version
    WriteFile(path, bytes);
    Reader reader;
    auto status = reader.Open(path);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
  std::remove(good_path.c_str());
}

TEST(StoreCorruption, EveryTruncationFailsCleanly) {
  const std::string good_path = WriteSample("trunc_src.staq");
  const std::vector<uint8_t> good = ReadFile(good_path);
  const std::string path = TempPath("truncated.staq");

  // Every prefix of a valid file — including cuts inside the header,
  // payloads, footer, and trailer — must be rejected without crashing. A
  // torn write is exactly such a prefix.
  for (size_t keep = 0; keep < good.size(); keep += 7) {
    WriteFile(path, std::vector<uint8_t>(good.begin(), good.begin() + keep));
    Reader reader;
    EXPECT_TRUE(IsCleanFailure(reader.Open(path))) << "kept " << keep;
  }
  std::remove(path.c_str());
  std::remove(good_path.c_str());
}

TEST(StoreCorruption, EveryBitFlipIsDetected) {
  const std::string good_path = WriteSample("flip_src.staq");
  const std::vector<uint8_t> good = ReadFile(good_path);
  const std::string path = TempPath("flipped.staq");

  // Flip one bit at every byte offset. The file must either fail to open
  // (header/footer/trailer damage) or fail checksum verification — silent
  // acceptance of a flipped payload bit would defeat the store's purpose.
  for (size_t offset = 0; offset < good.size(); ++offset) {
    std::vector<uint8_t> bytes = good;
    bytes[offset] ^= 0x10;
    WriteFile(path, bytes);
    Reader reader;
    auto open_status = reader.Open(path);
    if (!open_status.ok()) {
      EXPECT_TRUE(IsCleanFailure(open_status)) << "offset " << offset;
      continue;
    }
    auto verify = reader.VerifyAllBlocks();
    ASSERT_FALSE(verify.ok()) << "undetected flip at offset " << offset;
    EXPECT_EQ(verify.code(), util::StatusCode::kDataLoss);
  }
  std::remove(path.c_str());
  std::remove(good_path.c_str());
}

TEST(StoreCorruption, FlippedPayloadFailsSectionAccess) {
  const std::string good_path = WriteSample("flip_section_src.staq");
  const std::vector<uint8_t> good = ReadFile(good_path);
  const std::string path = TempPath("flip_section.staq");

  // Damage the first payload byte specifically: Open succeeds (footer is
  // intact) and the per-section checksum catches it on access.
  std::vector<uint8_t> bytes = good;
  bytes[kHeaderSize] ^= 0x01;
  WriteFile(path, bytes);
  Reader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  auto section = reader.Section("ints");
  ASSERT_FALSE(section.ok());
  EXPECT_EQ(section.status().code(), util::StatusCode::kDataLoss);
  std::remove(path.c_str());
  std::remove(good_path.c_str());
}

TEST(StoreCorruption, GarbageWithValidSizeIsRejected) {
  const std::string path = TempPath("garbage.staq");
  std::vector<uint8_t> bytes(4096);
  uint64_t state = 0x243F6A8885A308D3ull;  // fixed-seed xorshift garbage
  for (auto& b : bytes) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    b = static_cast<uint8_t>(state);
  }
  WriteFile(path, bytes);
  Reader reader;
  EXPECT_TRUE(IsCleanFailure(reader.Open(path)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace staq::store
