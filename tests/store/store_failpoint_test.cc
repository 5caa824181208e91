// Deterministic fault injection against the snapshot store.
//
// Every store failpoint site — writer open/write/fsync, reader open/read —
// gets a test that trips it and asserts graceful degradation: SaveSnapshot
// and LoadSnapshot return a clean kIoError status (never an escaped
// exception), a failed save leaves no file of its own behind and keeps the
// snapshot already at its path, and an AqServer whose warm start dies
// mid-load falls back to the cold build and still serves.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/scenario.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "testing/test_city.h"
#include "testing/zone_loop.h"
#include "util/failpoint.h"

#if defined(STAQ_FAILPOINTS) && STAQ_FAILPOINTS

namespace staq::store {
namespace {

using util::FailPointConfig;
using util::FailPoints;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "staq_store_fp_" + name;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

/// Files next to `path` whose names extend its name: a save's temporary
/// files.
std::vector<std::string> TempSiblingsOf(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".";
  std::vector<std::string> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
  }
  return out;
}

class StoreFaultInjectionTest : public ::testing::Test {
 protected:
  StoreFaultInjectionTest()
      : store_(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop_) {}
  ~StoreFaultInjectionTest() override { FailPoints::DisarmAll(); }

  testing::CountingZoneLoop loop_;
  serve::ScenarioStore store_;
};

void ExpectIoError(const util::Status& status) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError) << status;
}

// --- writer sites -----------------------------------------------------------

TEST_F(StoreFaultInjectionTest, WriterOpenFailureIsCleanStatus) {
  FailPoints::Arm("store.writer.open", FailPointConfig::Throw("disk gone"));
  const std::string path = TempPath("open_fail.staq");
  ExpectIoError(store_.ExportSnapshot(path));
  // Disarmed, the same store saves fine: the failure poisoned nothing.
  FailPoints::Disarm("store.writer.open");
  ASSERT_TRUE(store_.ExportSnapshot(path).ok());
  EXPECT_TRUE(VerifySnapshot(path).ok());
  std::remove(path.c_str());
}

TEST_F(StoreFaultInjectionTest, WriteFailureLeavesOnlyARejectedTornFile) {
  // Fail the third flush: header and some payload reach the temporary
  // file, the footer and trailer never do — the canonical torn write. The
  // save never renames it onto `path` and removes it, so nothing is left
  // at `path` (no reader accepts it) and no temporary file remains.
  const std::string path = TempPath("write_fail.staq");
  FailPointConfig config = FailPointConfig::Throw("io error");
  config.skip = 2;
  config.limit = 1;
  FailPoints::Arm("store.writer.write", config);
  ExpectIoError(store_.ExportSnapshot(path));
  FailPoints::Disarm("store.writer.write");

  auto restored = LoadSnapshot(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().code(), util::StatusCode::kOk);
  Reader reader;
  EXPECT_FALSE(reader.Open(path).ok());
  EXPECT_TRUE(TempSiblingsOf(path).empty());
  std::remove(path.c_str());
}

TEST_F(StoreFaultInjectionTest, FailedResaveKeepsTheGoodSnapshot) {
  // A save that fails partway over an existing snapshot must leave that
  // snapshot byte for byte as it was, still loadable.
  const std::string path = TempPath("resave_fail.staq");
  ASSERT_TRUE(store_.ExportSnapshot(path).ok());
  const std::vector<uint8_t> good = ReadFile(path);

  FailPointConfig config = FailPointConfig::Throw("io error");
  config.skip = 2;
  config.limit = 1;
  FailPoints::Arm("store.writer.write", config);
  ExpectIoError(store_.ExportSnapshot(path));
  FailPoints::Disarm("store.writer.write");

  EXPECT_EQ(ReadFile(path), good);
  EXPECT_TRUE(VerifySnapshot(path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(TempSiblingsOf(path).empty());
  std::remove(path.c_str());
}

TEST_F(StoreFaultInjectionTest, FsyncFailureFailsTheSave) {
  FailPoints::Arm("store.writer.fsync", FailPointConfig::Throw("fsync lost"));
  const std::string path = TempPath("fsync_fail.staq");
  ExpectIoError(store_.ExportSnapshot(path));
  EXPECT_TRUE(TempSiblingsOf(path).empty());
  std::remove(path.c_str());
}

// --- reader sites -----------------------------------------------------------

class StoreReaderFaultTest : public StoreFaultInjectionTest {
 protected:
  // Path is per-test: ctest runs each test as its own process, possibly in
  // parallel, so a shared fixture file would race with its siblings.
  StoreReaderFaultTest()
      : path_(TempPath(std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()) +
                       ".staq")) {
    EXPECT_TRUE(store_.ExportSnapshot(path_).ok());
  }
  ~StoreReaderFaultTest() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(StoreReaderFaultTest, ReaderOpenFailureIsCleanStatus) {
  FailPoints::Arm("store.reader.open", FailPointConfig::Throw("mount gone"));
  auto restored = LoadSnapshot(path_);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), util::StatusCode::kIoError);
  FailPoints::Disarm("store.reader.open");
  EXPECT_TRUE(LoadSnapshot(path_).ok());
}

TEST_F(StoreReaderFaultTest, ReadFailureMidLoadIsCleanStatus) {
  // Fail the Nth section access for several N: the load dies at different
  // stages of reassembly and must always come back as a clean status.
  for (uint64_t skip : {0ull, 3ull, 8ull}) {
    FailPointConfig config = FailPointConfig::Throw("read torn");
    config.skip = skip;
    config.limit = 1;
    FailPoints::Arm("store.reader.read", config);
    auto restored = LoadSnapshot(path_);
    ASSERT_FALSE(restored.ok()) << "skip " << skip;
    EXPECT_EQ(restored.status().code(), util::StatusCode::kIoError);
    FailPoints::Disarm("store.reader.read");
  }
  EXPECT_TRUE(LoadSnapshot(path_).ok());
}

// --- warm-start fallback ----------------------------------------------------

TEST_F(StoreReaderFaultTest, WarmStartFailingMidLoadFallsBackToColdBuild) {
  FailPointConfig config = FailPointConfig::Throw("read torn");
  config.skip = 5;
  config.limit = 1;
  FailPoints::Arm("store.reader.read", config);

  serve::AqServer::Options options;
  options.num_threads = 2;
  options.warm_start_path = path_;
  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  FailPoints::Disarm("store.reader.read");

  // The injected fault killed the load; the server must have cold-built
  // and still serve correct answers.
  EXPECT_FALSE(server.warm_started());
  EXPECT_EQ(server.epoch(), 0u);
  serve::AqRequest request;
  request.category = synth::PoiCategory::kSchool;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = 3;
  auto answer = server.Query(request);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer.value().mac.size(), server.base_city().zones.size());
}

TEST(StoreWarmStartFallback, MissingSnapshotFileFallsBackToColdBuild) {
  serve::AqServer::Options options;
  options.num_threads = 2;
  options.warm_start_path = TempPath("never_written.staq");
  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  EXPECT_FALSE(server.warm_started());
  serve::AqRequest request;
  request.category = synth::PoiCategory::kSchool;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = 3;
  EXPECT_TRUE(server.Query(request).ok());
}

TEST(StoreWarmStartFallback, GarbageSnapshotFileFallsBackToColdBuild) {
  const std::string path = TempPath("garbage_warm.staq");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 4096; ++i) out.put(static_cast<char>(i * 31));
  }
  serve::AqServer::Options options;
  options.num_threads = 2;
  options.warm_start_path = path;
  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  EXPECT_FALSE(server.warm_started());
  EXPECT_EQ(server.base_city().zones.size(),
            server.Snapshot()->base_city().zones.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace staq::store

#endif  // STAQ_FAILPOINTS
