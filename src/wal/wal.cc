#include "wal/wal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "store/coding.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/strings.h"

// fileno/fsync are POSIX, not ISO C; staq targets POSIX hosts (the store
// writer already relies on them).
#include <unistd.h>

namespace staq::wal {

namespace fs = std::filesystem;

namespace {

std::string SegmentName(uint64_t start_sequence) {
  return util::Format("wal-%020llu.log",
                      static_cast<unsigned long long>(start_sequence));
}

/// Guarded failpoint: evaluates `site` and degrades a FailPointError into
/// the kIoError a real syscall failure at that spot would produce.
util::Status HitFailPoint(const char* site) {
  try {
    STAQ_FAILPOINT(site);
  } catch (const std::exception& e) {
    return util::Status::IoError(std::string(site) + ": " + e.what());
  }
  return util::Status::OK();
}

/// Lists wal-*.log files in `dir`, sorted by name (== by start sequence,
/// thanks to the zero-padded naming).
util::Result<std::vector<std::string>> ListSegments(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return paths;  // absent dir = empty log
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 4, 4, ".log") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    return util::Status::IoError("cannot list WAL directory '" + dir +
                                 "': " + ec.message());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Reads one segment's records into `contents`. `expect_sequence` is the
/// next record sequence the log-wide chain requires (0 = adopt the
/// segment's own start). `last_segment` selects torn-tail tolerance.
util::Status ReadSegment(const std::string& path, bool last_segment,
                         uint64_t* expect_sequence, WalContents* contents) {
  STAQ_RETURN_NOT_OK(HitFailPoint("wal.recover.read"));

  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return util::Status::IoError("cannot open WAL segment '" + path +
                                 "': " + std::strerror(errno));
  }
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{file};

  WalSegmentInfo info;
  info.path = path;
  std::error_code ec;
  info.bytes = fs::file_size(path, ec);
  if (ec) {
    return util::Status::IoError("cannot stat WAL segment '" + path +
                                 "': " + ec.message());
  }

  auto torn = [&](uint64_t offset) {
    // A frame the crash cut short. Only tolerable at the very end of the
    // log: a durable successor (more bytes in this segment handled below,
    // or a later segment handled by the caller) proves acked history
    // preceded the damage.
    if (!last_segment) {
      return util::Status::DataLoss(
          "WAL segment '" + path +
          "' is corrupt mid-log (a later segment exists)");
    }
    contents->torn_tail = true;
    contents->torn_path = path;
    contents->torn_offset = offset;
    contents->segments.push_back(info);
    return util::Status::OK();
  };

  uint8_t header[kWalHeaderSize];
  size_t got = std::fread(header, 1, sizeof(header), file);
  if (got < sizeof(header)) {
    // Creation itself was cut short; there is nothing to keep.
    return torn(0);
  }
  store::ByteReader cursor(header, sizeof(header));
  uint64_t magic = 0, start_sequence = 0;
  uint32_t version = 0, flags = 0;
  (void)cursor.ReadFixed(&magic);
  (void)cursor.ReadFixed(&version);
  (void)cursor.ReadFixed(&flags);
  (void)cursor.ReadFixed(&start_sequence);
  if (magic != kWalMagic) {
    return util::Status::InvalidArgument("'" + path + "' is not a WAL segment");
  }
  if (version != kWalFormatVersion) {
    return util::Status::InvalidArgument(
        util::Format("WAL segment '%s' has unsupported version %u",
                     path.c_str(), version));
  }
  if (flags != 0) {
    return util::Status::InvalidArgument(
        "WAL segment '" + path + "' sets reserved flags");
  }
  if (start_sequence == 0) {
    return util::Status::InvalidArgument(
        "WAL segment '" + path + "' declares sequence 0 (sequences start at 1)");
  }
  if (*expect_sequence != 0 && start_sequence != *expect_sequence) {
    return util::Status::DataLoss(util::Format(
        "WAL sequence gap: segment '%s' starts at %llu, expected %llu",
        path.c_str(), static_cast<unsigned long long>(start_sequence),
        static_cast<unsigned long long>(*expect_sequence)));
  }
  info.start_sequence = start_sequence;
  uint64_t expected = *expect_sequence != 0 ? *expect_sequence : start_sequence;

  uint64_t offset = kWalHeaderSize;
  std::vector<uint8_t> payload;
  for (;;) {
    uint8_t frame[kWalFrameSize];
    got = std::fread(frame, 1, sizeof(frame), file);
    if (got == 0) break;  // clean end of segment
    if (got < sizeof(frame)) return torn(offset);
    store::ByteReader frame_cursor(frame, sizeof(frame));
    uint32_t payload_size = 0;
    uint64_t digest = 0;
    (void)frame_cursor.ReadFixed(&payload_size);
    (void)frame_cursor.ReadFixed(&digest);
    if (payload_size == 0 || payload_size > kMaxRecordPayload) {
      // Garbage length: indistinguishable from a torn frame header.
      return torn(offset);
    }
    payload.resize(payload_size);
    got = std::fread(payload.data(), 1, payload_size, file);
    if (got < payload_size) return torn(offset);
    if (util::XxHash64(payload.data(), payload.size()) != digest) {
      return torn(offset);
    }
    // The checksum passed, so these are the bytes the writer framed; a
    // record that still fails to decode (or chains out of sequence) is not
    // crash debris but a format violation or lost history.
    MutationRecord record;
    store::ByteReader payload_cursor(payload.data(), payload.size());
    if (!DecodeMutationRecord(&payload_cursor, &record) ||
        !payload_cursor.exhausted()) {
      return util::Status::InvalidArgument(util::Format(
          "WAL segment '%s' holds an undecodable record at offset %llu",
          path.c_str(), static_cast<unsigned long long>(offset)));
    }
    if (record.sequence != expected) {
      return util::Status::DataLoss(util::Format(
          "WAL sequence gap in '%s': record #%llu where #%llu was expected",
          path.c_str(), static_cast<unsigned long long>(record.sequence),
          static_cast<unsigned long long>(expected)));
    }
    contents->records.push_back(std::move(record));
    ++expected;
    ++info.records;
    offset += kWalFrameSize + payload_size;
  }
  *expect_sequence = expected;
  contents->segments.push_back(info);
  return util::Status::OK();
}

}  // namespace

util::Result<WalContents> ReadLog(const std::string& dir) {
  auto segments = ListSegments(dir);
  if (!segments.ok()) return segments.status();
  WalContents contents;
  uint64_t expect_sequence = 0;
  for (size_t i = 0; i < segments.value().size(); ++i) {
    const bool last = i + 1 == segments.value().size();
    STAQ_RETURN_NOT_OK(
        ReadSegment(segments.value()[i], last, &expect_sequence, &contents));
    if (contents.torn_tail) break;  // valid prefix ends here by definition
  }
  return contents;
}

util::Status VerifyLog(const std::string& dir) {
  auto contents = ReadLog(dir);
  if (!contents.ok()) return contents.status();
  if (contents.value().torn_tail) {
    return util::Status::DataLoss(util::Format(
        "torn tail in '%s' at offset %llu (Open() would truncate it)",
        contents.value().torn_path.c_str(),
        static_cast<unsigned long long>(contents.value().torn_offset)));
  }
  return util::Status::OK();
}

MutationWal::MutationWal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

MutationWal::~MutationWal() { CloseSegment(); }

util::Result<std::unique_ptr<MutationWal>> MutationWal::Open(
    const std::string& dir, WalOptions options) {
  STAQ_RETURN_NOT_OK(HitFailPoint("wal.open"));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return util::Status::IoError("cannot create WAL directory '" + dir +
                                 "': " + ec.message());
  }
  auto contents = ReadLog(dir);
  if (!contents.ok()) return contents.status();
  const WalContents& log = contents.value();

  std::unique_ptr<MutationWal> wal(new MutationWal(dir, options));
  // A tail torn inside the 24-byte header means the segment never parsed a
  // base sequence; its file is removed below rather than truncated.
  const bool headerless_tail = log.torn_tail && log.torn_offset < kWalHeaderSize;
  if (!log.records.empty()) {
    wal->last_sequence_ = log.records.back().sequence;
  } else if (!log.segments.empty() && !headerless_tail) {
    // Headered but still record-free segment: adopt its declared base.
    wal->last_sequence_ = log.segments.back().start_sequence - 1;
  }

  if (log.torn_tail) {
    // Truncate the crash debris so appends extend a clean prefix. A tail
    // torn inside the header leaves nothing worth keeping; drop the file
    // and let the next append recreate it.
    if (headerless_tail) {
      fs::remove(log.torn_path, ec);
    } else {
      fs::resize_file(log.torn_path, log.torn_offset, ec);
    }
    if (ec) {
      return util::Status::IoError("cannot repair torn WAL tail in '" +
                                   log.torn_path + "': " + ec.message());
    }
  }

  // Resume the last segment when it has room; otherwise the next append
  // starts a fresh one lazily (so an empty log never creates a segment
  // whose base sequence it would have to guess).
  if (!log.segments.empty() && !headerless_tail) {
    const std::string& path = log.segments.back().path;
    uint64_t size = fs::file_size(path, ec);
    if (ec) {
      return util::Status::IoError("cannot stat WAL segment '" + path +
                                   "': " + ec.message());
    }
    if (size < options.segment_bytes) {
      std::FILE* file = std::fopen(path.c_str(), "ab");
      if (file == nullptr) {
        return util::Status::IoError("cannot reopen WAL segment '" + path +
                                     "': " + std::strerror(errno));
      }
      wal->file_ = file;
      wal->segment_path_ = path;
      wal->segment_size_ = size;
    }
  }
  return wal;
}

util::Status MutationWal::OpenSegment(uint64_t start_sequence) {
  STAQ_RETURN_NOT_OK(HitFailPoint("wal.open"));
  CloseSegment();
  std::string path = dir_ + "/" + SegmentName(start_sequence);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return util::Status::IoError("cannot create WAL segment '" + path +
                                 "': " + std::strerror(errno));
  }
  file_ = file;
  segment_path_ = std::move(path);
  segment_size_ = 0;
  ++stats_.segments_created;

  std::vector<uint8_t> header;
  header.reserve(kWalHeaderSize);
  store::PutFixed(&header, kWalMagic);
  store::PutFixed(&header, kWalFormatVersion);
  store::PutFixed(&header, uint32_t{0});
  store::PutFixed(&header, start_sequence);
  return WriteAll(header.data(), header.size());
}

util::Status MutationWal::WriteAll(const void* data, size_t size) {
  util::Status injected = HitFailPoint("wal.append");
  if (!injected.ok()) {
    // Model a syscall that died mid-write: bytes of unknown extent may be
    // on disk, so this WAL may no longer append safely.
    broken_ = true;
    return injected;
  }
  if (std::fwrite(data, 1, size, file_) != size) {
    broken_ = true;
    return util::Status::IoError("WAL write to '" + segment_path_ +
                                 "' failed: " + std::strerror(errno));
  }
  segment_size_ += size;
  return util::Status::OK();
}

void MutationWal::CloseSegment() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

util::Status MutationWal::Append(const MutationRecord& record) {
  if (broken_) {
    return util::Status::FailedPrecondition(
        "WAL is read-only after a failed write; reopen to recover");
  }
  if (last_sequence_ != 0 || file_ != nullptr) {
    if (record.sequence != last_sequence_ + 1) {
      return util::Status::Aborted(util::Format(
          "out-of-order WAL append: record #%llu after #%llu",
          static_cast<unsigned long long>(record.sequence),
          static_cast<unsigned long long>(last_sequence_)));
    }
  } else if (record.sequence == 0) {
    return util::Status::FailedPrecondition(
        "WAL sequences start at 1 (0 is the empty-log sentinel)");
  }

  std::vector<uint8_t> payload;
  EncodeMutationRecord(record, &payload);
  STAQ_CHECK(payload.size() <= kMaxRecordPayload,
             "mutation record exceeds the WAL frame bound");

  if (file_ == nullptr || segment_size_ >= options_.segment_bytes) {
    STAQ_RETURN_NOT_OK(OpenSegment(record.sequence));
  }

  std::vector<uint8_t> frame;
  frame.reserve(kWalFrameSize + payload.size());
  store::PutFixed(&frame, static_cast<uint32_t>(payload.size()));
  store::PutFixed(&frame, util::XxHash64(payload.data(), payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  STAQ_RETURN_NOT_OK(WriteAll(frame.data(), frame.size()));

  STAQ_RETURN_NOT_OK(Sync());

  last_sequence_ = record.sequence;
  ++stats_.appends;
  stats_.bytes_appended += frame.size();
  return util::Status::OK();
}

util::Status MutationWal::Sync() {
  if (file_ == nullptr) return util::Status::OK();
  util::Status injected = HitFailPoint("wal.fsync");
  if (!injected.ok()) {
    broken_ = true;  // fsync failure leaves durability unknown (fsyncgate)
    return injected;
  }
  if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    broken_ = true;
    return util::Status::IoError("WAL fsync of '" + segment_path_ +
                                 "' failed: " + std::strerror(errno));
  }
  ++stats_.syncs;
  return util::Status::OK();
}

util::Status WalFollower::Poll(std::vector<MutationRecord>* out) {
  auto contents = ReadLog(dir_);
  if (!contents.ok()) return contents.status();
  for (const MutationRecord& record : contents.value().records) {
    if (record.sequence >= next_sequence_) {
      out->push_back(record);
      next_sequence_ = record.sequence + 1;
    }
  }
  return util::Status::OK();
}

}  // namespace staq::wal
