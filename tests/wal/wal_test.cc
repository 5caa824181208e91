// staq::wal — record codec, append/recover round trips, rotation, torn
// tails, corruption taxonomy, and the tailing follower.
#include "wal/wal.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "wal/record.h"

namespace staq::wal {
namespace {

namespace fs = std::filesystem;

/// Fresh (empty) per-test WAL directory under the gtest temp root.
std::string WalDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "staq_wal_" + name;
  fs::remove_all(dir);
  return dir;
}

MutationRecord SampleAdd(uint64_t sequence) {
  return MutationRecord::AddPoi(sequence, synth::PoiCategory::kHospital,
                                geo::Point{1234.5, -67.25},
                                /*poi_id=*/900 + static_cast<uint32_t>(sequence));
}

/// A short history touching every mutation type.
std::vector<MutationRecord> SampleHistory(uint64_t first_sequence = 1) {
  std::vector<MutationRecord> records;
  records.push_back(SampleAdd(first_sequence));
  records.push_back(MutationRecord::RemovePoi(first_sequence + 1, 17));
  records.push_back(
      MutationRecord::SetInterval(first_sequence + 2, gtfs::WeekdayPmPeak()));
  records.push_back(SampleAdd(first_sequence + 3));
  return records;
}

TEST(MutationRecordTest, CodecRoundTripsEveryType) {
  for (const MutationRecord& record : SampleHistory(41)) {
    std::vector<uint8_t> bytes;
    EncodeMutationRecord(record, &bytes);
    store::ByteReader in(bytes.data(), bytes.size());
    MutationRecord decoded;
    ASSERT_TRUE(DecodeMutationRecord(&in, &decoded))
        << MutationTypeName(record.type);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(record, decoded) << record.ToString();
  }
}

TEST(MutationRecordTest, DecodeRejectsTruncationEverywhere) {
  std::vector<uint8_t> bytes;
  EncodeMutationRecord(SampleAdd(7), &bytes);
  // Every strict prefix must fail cleanly, never read past the end.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    store::ByteReader in(bytes.data(), cut);
    MutationRecord decoded;
    EXPECT_FALSE(DecodeMutationRecord(&in, &decoded)) << "prefix " << cut;
  }
}

/// The five disruption records (types 4-8), explicit and all-target forms.
std::vector<MutationRecord> DisruptionHistory(uint64_t first_sequence = 1) {
  std::vector<MutationRecord> records;
  records.push_back(MutationRecord::SuspendRoute(first_sequence, 3));
  records.push_back(MutationRecord::CloseStop(first_sequence + 1, 41));
  records.push_back(MutationRecord::ScaleHeadway(first_sequence + 2, 7, 2));
  records.push_back(
      MutationRecord::ScaleHeadway(first_sequence + 3, kAllTargets, 4));
  records.push_back(MutationRecord::SetFare(first_sequence + 4, 5, 4.25));
  records.push_back(
      MutationRecord::SetFare(first_sequence + 5, kAllTargets, 0.0));
  records.push_back(MutationRecord::ScaleWalkSpeed(first_sequence + 6, 0.5));
  return records;
}

TEST(MutationRecordTest, CodecRoundTripsEveryDisruptionType) {
  for (const MutationRecord& record : DisruptionHistory(91)) {
    std::vector<uint8_t> bytes;
    EncodeMutationRecord(record, &bytes);
    store::ByteReader in(bytes.data(), bytes.size());
    MutationRecord decoded;
    ASSERT_TRUE(DecodeMutationRecord(&in, &decoded))
        << MutationTypeName(record.type);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(record, decoded) << record.ToString();
    // Truncation stays clean for the new layouts too.
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      store::ByteReader prefix(bytes.data(), cut);
      EXPECT_FALSE(DecodeMutationRecord(&prefix, &decoded))
          << MutationTypeName(record.type) << " prefix " << cut;
    }
  }
}

TEST(MutationRecordTest, DecodeRejectsOutOfDomainDisruptions) {
  // The encoder writes whatever it is given; the *decoder* is the trust
  // boundary (WAL recovery, the wire), so out-of-domain payloads must come
  // back as corruption, not as records a replay would choke on.
  std::vector<MutationRecord> bad;
  bad.push_back(MutationRecord::SuspendRoute(1, kAllTargets));
  bad.push_back(MutationRecord::CloseStop(1, kAllTargets));
  bad.push_back(MutationRecord::ScaleHeadway(1, 0, 1));  // factor must be >= 2
  bad.push_back(MutationRecord::ScaleHeadway(1, 0, 0));
  bad.push_back(MutationRecord::SetFare(1, 0, -0.25));
  bad.push_back(
      MutationRecord::SetFare(1, 0, std::numeric_limits<double>::quiet_NaN()));
  bad.push_back(MutationRecord::ScaleWalkSpeed(1, 0.0));
  bad.push_back(MutationRecord::ScaleWalkSpeed(1, -0.5));
  bad.push_back(
      MutationRecord::ScaleWalkSpeed(1, std::numeric_limits<double>::infinity()));
  for (const MutationRecord& record : bad) {
    std::vector<uint8_t> bytes;
    EncodeMutationRecord(record, &bytes);
    store::ByteReader in(bytes.data(), bytes.size());
    MutationRecord decoded;
    EXPECT_FALSE(DecodeMutationRecord(&in, &decoded)) << record.ToString();
  }
}

TEST(MutationRecordTest, DecodeRejectsUnknownType) {
  std::vector<uint8_t> bytes;
  EncodeMutationRecord(SampleAdd(7), &bytes);
  bytes[0] = 0x7F;  // type byte is first
  store::ByteReader in(bytes.data(), bytes.size());
  MutationRecord decoded;
  EXPECT_FALSE(DecodeMutationRecord(&in, &decoded));
}

TEST(WalTest, AbsentDirectoryIsAnEmptyLog) {
  std::string dir = WalDir("absent");
  auto contents = ReadLog(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_TRUE(contents.value().records.empty());
  EXPECT_TRUE(contents.value().segments.empty());
  EXPECT_TRUE(VerifyLog(dir).ok());
}

TEST(WalTest, AppendReadRoundTrip) {
  std::string dir = WalDir("roundtrip");
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  std::vector<MutationRecord> history = SampleHistory();
  for (const MutationRecord& record : history) {
    ASSERT_TRUE(wal.value()->Append(record).ok()) << record.ToString();
  }
  EXPECT_EQ(wal.value()->last_sequence(), 4u);
  EXPECT_EQ(wal.value()->stats().appends, 4u);

  auto contents = ReadLog(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_EQ(contents.value().records.size(), history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(contents.value().records[i], history[i]) << "record " << i;
  }
  EXPECT_FALSE(contents.value().torn_tail);
  EXPECT_TRUE(VerifyLog(dir).ok());
}

TEST(WalTest, PreDisruptionSegmentsRecoverAndExtendWithDisruptions) {
  // Compatibility: the disruption extension added types 4-8 without
  // changing the segment header version or the byte layout of types 1-3,
  // so a log written before the extension is byte-for-byte what today's
  // writer produces for the same records — recover it, then keep logging
  // disruptions into the same chain.
  std::string dir = WalDir("predisruption");
  {
    auto wal = MutationWal::Open(dir);
    ASSERT_TRUE(wal.ok());
    for (const MutationRecord& record : SampleHistory()) {
      ASSERT_TRUE(wal.value()->Append(record).ok());
    }
  }
  ASSERT_TRUE(VerifyLog(dir).ok());

  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(wal.value()->last_sequence(), 4u);
  for (const MutationRecord& record : DisruptionHistory(5)) {
    ASSERT_TRUE(wal.value()->Append(record).ok()) << record.ToString();
  }
  EXPECT_EQ(wal.value()->last_sequence(), 11u);

  auto contents = ReadLog(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_EQ(contents.value().records.size(), 11u);
  EXPECT_EQ(contents.value().records[4],
            MutationRecord::SuspendRoute(5, 3));  // the mixed log round-trips
  EXPECT_TRUE(VerifyLog(dir).ok());
}

TEST(WalTest, ReopenContinuesTheChain) {
  std::string dir = WalDir("reopen");
  {
    auto wal = MutationWal::Open(dir);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(SampleAdd(1)).ok());
    ASSERT_TRUE(wal.value()->Append(SampleAdd(2)).ok());
  }
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(wal.value()->last_sequence(), 2u);
  ASSERT_TRUE(wal.value()->Append(SampleAdd(3)).ok());
  auto contents = ReadLog(dir);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().records.size(), 3u);
}

TEST(WalTest, OutOfOrderAppendIsAbortedAndHarmless) {
  std::string dir = WalDir("order");
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(SampleAdd(1)).ok());

  // A gap, a duplicate, and a rewind are all refused with kAborted...
  for (uint64_t bad : {3ull, 1ull, 0ull}) {
    auto st = wal.value()->Append(SampleAdd(bad));
    EXPECT_EQ(st.code(), util::StatusCode::kAborted) << "sequence " << bad;
  }
  // ...without breaking the log: the in-order append still lands.
  EXPECT_FALSE(wal.value()->broken());
  EXPECT_TRUE(wal.value()->Append(SampleAdd(2)).ok());
  auto contents = ReadLog(dir);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().records.size(), 2u);
}

TEST(WalTest, FirstRecordSeedsTheChainAboveOne) {
  // A warm-started primary resumes its snapshot's history: the first record
  // of the empty log carries snapshot_sequence + 1.
  std::string dir = WalDir("seeded");
  {
    auto wal = MutationWal::Open(dir);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal.value()->Append(SampleAdd(0)).code(),
              util::StatusCode::kFailedPrecondition);  // sequences start at 1
    ASSERT_TRUE(wal.value()->Append(SampleAdd(41)).ok());
    ASSERT_TRUE(wal.value()->Append(SampleAdd(42)).ok());
  }
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(wal.value()->last_sequence(), 42u);
  EXPECT_EQ(wal.value()->Append(SampleAdd(7)).code(),
            util::StatusCode::kAborted);
  EXPECT_TRUE(wal.value()->Append(SampleAdd(43)).ok());
}

TEST(WalTest, RotationSpansSegmentsSeamlessly) {
  std::string dir = WalDir("rotation");
  WalOptions options;
  options.segment_bytes = 64;  // every record rotates
  auto wal = MutationWal::Open(dir, options);
  ASSERT_TRUE(wal.ok());
  constexpr uint64_t kRecords = 10;
  for (uint64_t seq = 1; seq <= kRecords; ++seq) {
    ASSERT_TRUE(wal.value()->Append(SampleAdd(seq)).ok());
  }
  EXPECT_GT(wal.value()->stats().segments_created, 1u);

  auto contents = ReadLog(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_EQ(contents.value().records.size(), kRecords);
  EXPECT_GT(contents.value().segments.size(), 1u);
  for (uint64_t seq = 1; seq <= kRecords; ++seq) {
    EXPECT_EQ(contents.value().records[seq - 1].sequence, seq);
  }
  EXPECT_TRUE(VerifyLog(dir).ok());

  // Reopen across the rotation boundary and keep appending.
  wal = MutationWal::Open(dir, options);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->last_sequence(), kRecords);
  EXPECT_TRUE(wal.value()->Append(SampleAdd(kRecords + 1)).ok());
}

/// Appends `extra` garbage bytes to the lexicographically last segment —
/// the shape a crash mid-write leaves behind.
void TearTail(const std::string& dir, size_t extra) {
  std::string last;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string() > last) last = entry.path().string();
  }
  ASSERT_FALSE(last.empty());
  std::ofstream out(last, std::ios::binary | std::ios::app);
  for (size_t i = 0; i < extra; ++i) out.put('\x5A');
}

TEST(WalTest, TornTailIsReportedAndTruncatedOnOpen) {
  std::string dir = WalDir("torn");
  {
    auto wal = MutationWal::Open(dir);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(SampleAdd(1)).ok());
    ASSERT_TRUE(wal.value()->Append(SampleAdd(2)).ok());
  }
  TearTail(dir, 5);  // less than a frame header: unambiguous crash debris

  // ReadLog tolerates it: valid prefix plus a torn-tail report.
  auto contents = ReadLog(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents.value().records.size(), 2u);
  EXPECT_TRUE(contents.value().torn_tail);
  EXPECT_GT(contents.value().torn_offset, 0u);
  // VerifyLog is stricter: a torn tail is not a clean log.
  EXPECT_EQ(VerifyLog(dir).code(), util::StatusCode::kDataLoss);

  // Open truncates the debris and appends continue from the durable prefix.
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(wal.value()->last_sequence(), 2u);
  ASSERT_TRUE(wal.value()->Append(SampleAdd(3)).ok());
  EXPECT_TRUE(VerifyLog(dir).ok());
}

TEST(WalTest, MidLogCorruptionIsDataLoss) {
  std::string dir = WalDir("midlog");
  WalOptions options;
  options.segment_bytes = 64;  // force several segments
  {
    auto wal = MutationWal::Open(dir, options);
    ASSERT_TRUE(wal.ok());
    for (uint64_t seq = 1; seq <= 6; ++seq) {
      ASSERT_TRUE(wal.value()->Append(SampleAdd(seq)).ok());
    }
  }
  // Tear a *non-last* segment: durable successors exist, so this is loss,
  // not crash debris.
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GT(segments.size(), 2u);
  fs::resize_file(segments[0], fs::file_size(segments[0]) - 3);

  EXPECT_EQ(ReadLog(dir).status().code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(VerifyLog(dir).code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(MutationWal::Open(dir, options).status().code(),
            util::StatusCode::kDataLoss);
}

TEST(WalTest, FlippedPayloadByteIsCaughtByTheChecksum) {
  std::string dir = WalDir("bitflip");
  {
    auto wal = MutationWal::Open(dir);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(SampleAdd(1)).ok());
    ASSERT_TRUE(wal.value()->Append(SampleAdd(2)).ok());
  }
  std::string segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segment = entry.path().string();
  }
  // Flip one byte in the first record's payload (just past the segment
  // header and frame header). The checksum must catch it; within the last
  // segment a bad frame is indistinguishable from crash debris, so the
  // valid-prefix contract applies: record 1 and everything after it is cut.
  std::fstream file(segment, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(static_cast<std::streamoff>(kWalHeaderSize + kWalFrameSize + 2));
  file.put('\xFF');
  file.close();

  auto contents = ReadLog(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_TRUE(contents.value().torn_tail);
  EXPECT_TRUE(contents.value().records.empty());
  EXPECT_EQ(contents.value().torn_offset, kWalHeaderSize);
  // VerifyLog never blesses a log that lost bytes, whatever the cause.
  EXPECT_EQ(VerifyLog(dir).code(), util::StatusCode::kDataLoss);
}

TEST(WalTest, NonWalFileIsInvalidArgument) {
  std::string dir = WalDir("notawal");
  fs::create_directories(dir);
  std::ofstream(dir + "/wal-00000000000000000001.log", std::ios::binary)
      << "definitely not a WAL segment header, but comfortably long";
  EXPECT_EQ(ReadLog(dir).status().code(), util::StatusCode::kInvalidArgument);
}

TEST(WalFollowerTest, TailsNewlyDurableRecords) {
  std::string dir = WalDir("follower");
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(SampleAdd(1)).ok());
  ASSERT_TRUE(wal.value()->Append(SampleAdd(2)).ok());

  WalFollower follower(dir, /*start_after_sequence=*/1);
  std::vector<MutationRecord> batch;
  ASSERT_TRUE(follower.Poll(&batch).ok());
  ASSERT_EQ(batch.size(), 1u);  // record 1 is behind the cursor
  EXPECT_EQ(batch[0].sequence, 2u);
  EXPECT_EQ(follower.next_sequence(), 3u);

  // Nothing new: an empty poll, not an error.
  batch.clear();
  ASSERT_TRUE(follower.Poll(&batch).ok());
  EXPECT_TRUE(batch.empty());

  // The writer appends; the follower picks it up on the next poll.
  ASSERT_TRUE(wal.value()->Append(SampleAdd(3)).ok());
  ASSERT_TRUE(follower.Poll(&batch).ok());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].sequence, 3u);
}

TEST(WalFollowerTest, IgnoresATornTailUntilItBecomesDurable) {
  std::string dir = WalDir("follower_torn");
  {
    auto wal = MutationWal::Open(dir);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(SampleAdd(1)).ok());
  }
  TearTail(dir, 4);

  WalFollower follower(dir, /*start_after_sequence=*/0);
  std::vector<MutationRecord> batch;
  ASSERT_TRUE(follower.Poll(&batch).ok());  // torn tail = "not there yet"
  EXPECT_EQ(batch.size(), 1u);

  // Recovery truncates the debris; the follower carries on unfazed.
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(SampleAdd(2)).ok());
  batch.clear();
  ASSERT_TRUE(follower.Poll(&batch).ok());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].sequence, 2u);
}

TEST(WalTest, EveryAppendSyncs) {
  // Append syncs as part of the append itself.
  std::string dir = WalDir("every");
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(SampleAdd(1)).ok());
  EXPECT_EQ(wal.value()->stats().syncs, 1u);
  ASSERT_TRUE(wal.value()->Append(SampleAdd(2)).ok());
  EXPECT_EQ(wal.value()->stats().syncs, 2u);
}

}  // namespace
}  // namespace staq::wal
