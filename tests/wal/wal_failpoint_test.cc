// Fault injection for staq::wal: every failure site degrades into a clean
// Status, a failed write turns the log read-only (broken()), and reopening
// recovers a consistent prefix — never a crash, never silent corruption.
//
// Sites covered (see DESIGN.md §8): wal.open, wal.append, wal.fsync,
// wal.recover.read.
#include <filesystem>

#include <gtest/gtest.h>

#include "util/failpoint.h"
#include "wal/wal.h"

namespace staq::wal {
namespace {

namespace fs = std::filesystem;

std::string WalDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "staq_wal_fp_" + name;
  fs::remove_all(dir);
  return dir;
}

MutationRecord Record(uint64_t sequence) {
  return MutationRecord::AddPoi(sequence, synth::PoiCategory::kSchool,
                                geo::Point{10.0, 20.0},
                                static_cast<uint32_t>(sequence));
}

class WalFailPointTest : public ::testing::Test {
 protected:
  ~WalFailPointTest() override { util::FailPoints::DisarmAll(); }
};

TEST_F(WalFailPointTest, OpenFailureIsACleanStatus) {
  std::string dir = WalDir("open");
  util::ScopedFailPoint fp("wal.open", util::FailPointConfig::ThrowOnce());
  auto wal = MutationWal::Open(dir);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), util::StatusCode::kIoError);

  // The failure consumed the arming; a retry simply works.
  auto retry = MutationWal::Open(dir);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_TRUE(retry.value()->Append(Record(1)).ok());
}

TEST_F(WalFailPointTest, RecoveryReadFailureIsACleanStatus) {
  std::string dir = WalDir("recover");
  {
    auto wal = MutationWal::Open(dir);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(Record(1)).ok());
  }
  util::ScopedFailPoint fp("wal.recover.read",
                           util::FailPointConfig::ThrowOnce());
  EXPECT_EQ(ReadLog(dir).status().code(), util::StatusCode::kIoError);
  // The log itself is intact: the next read sees everything.
  auto contents = ReadLog(dir);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents.value().records.size(), 1u);
}

TEST_F(WalFailPointTest, AppendFailureBreaksTheWalUntilReopened) {
  std::string dir = WalDir("append");
  {
    auto wal = MutationWal::Open(dir);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(Record(1)).ok());

    {
      util::ScopedFailPoint fp("wal.append",
                               util::FailPointConfig::ThrowOnce());
      auto st = wal.value()->Append(Record(2));
      EXPECT_EQ(st.code(), util::StatusCode::kIoError);
    }
    // Bytes of unknown extent may be on disk: the WAL refuses to continue.
    EXPECT_TRUE(wal.value()->broken());
    EXPECT_EQ(wal.value()->Append(Record(2)).code(),
              util::StatusCode::kFailedPrecondition);
  }  // close the broken instance before recovery touches its segment

  // Reopen recovers the acknowledged prefix; the never-acked record #2 is
  // gone (correct — its Append returned an error) and the chain continues.
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(wal.value()->last_sequence(), 1u);
  EXPECT_TRUE(wal.value()->Append(Record(2)).ok());
  EXPECT_TRUE(VerifyLog(dir).ok());
}

TEST_F(WalFailPointTest, SegmentHeaderWriteFailureRecovers) {
  std::string dir = WalDir("header");
  {
    auto wal = MutationWal::Open(dir);
    ASSERT_TRUE(wal.ok());

    // The very first append creates the segment; fail its header write
    // (wal.append guards every WriteAll, the header included).
    {
      util::ScopedFailPoint fp("wal.append",
                               util::FailPointConfig::ThrowOnce());
      EXPECT_EQ(wal.value()->Append(Record(1)).code(),
                util::StatusCode::kIoError);
    }
    EXPECT_TRUE(wal.value()->broken());
  }

  // The debris is a headerless file; Open drops it and the log is empty.
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(wal.value()->last_sequence(), 0u);
  EXPECT_TRUE(wal.value()->Append(Record(1)).ok());
  EXPECT_TRUE(VerifyLog(dir).ok());
}

TEST_F(WalFailPointTest, FsyncFailureBreaksTheWal) {
  std::string dir = WalDir("fsync");
  {
    auto wal = MutationWal::Open(dir);  // Append syncs
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(Record(1)).ok());

    {
      util::ScopedFailPoint fp("wal.fsync",
                               util::FailPointConfig::ThrowOnce());
      EXPECT_EQ(wal.value()->Append(Record(2)).code(),
                util::StatusCode::kIoError);
    }
    // fsyncgate discipline: after a failed fsync durability is unknown, so
    // the WAL will not accept further appends.
    EXPECT_TRUE(wal.value()->broken());
    EXPECT_EQ(wal.value()->Append(Record(3)).code(),
              util::StatusCode::kFailedPrecondition);
  }

  // Reopen recovers a clean prefix. Record #2 was never acknowledged, so
  // both outcomes are legal: present (the buffered bytes reached disk when
  // the file closed) or absent — but the chain must be gap-free either way.
  auto wal = MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_GE(wal.value()->last_sequence(), 1u);
  EXPECT_LE(wal.value()->last_sequence(), 2u);
  EXPECT_TRUE(VerifyLog(dir).ok());
  EXPECT_TRUE(
      wal.value()->Append(Record(wal.value()->last_sequence() + 1)).ok());
}

}  // namespace
}  // namespace staq::wal
