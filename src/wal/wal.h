// Durable mutation WAL — append-only, checksummed, replayable.
//
// A MutationWal is a directory of numbered segment files:
//
//   <dir>/wal-<start_sequence, 20 digits>.log
//
//   segment  = header | record*
//   header   = magic "STAQWAL1" u64 | version u32 | flags u32 |
//              start_sequence u64                       (24 bytes)
//   record   = payload_size u32 | xxh64(payload) u64 | payload
//   payload  = one encoded MutationRecord (wal/record.h)
//
// Records are framed individually (the NuRaft file-log-store shape) rather
// than blocked like the snapshot store, because the unit of durability is
// one mutation: Append() writes a complete frame and fsyncs it before
// returning, so an acknowledged mutation survives a crash.
//
// Recovery (Open / ReadLog) replays every segment in order, verifying
// per-record checksums and gap-free sequence numbers. A torn tail — a
// record the crash cut short at the end of the *last* segment — is normal
// and is truncated away on Open; corruption anywhere earlier (a bad record
// with durable successors, a sequence gap between segments) is kDataLoss:
// acknowledged history is missing and no automatic repair is safe.
//
// A MutationWal instance is not thread-safe; the serve layer serialises
// appends (mutations already serialise on the store's writer mutex).
// Concurrent *readers* (WalFollower, ReadLog) are safe against a live
// writer: they stop cleanly at the first incomplete frame and pick it up
// once it is durable, which is exactly how replicas tail the log.
//
// Failure sites (util/failpoint.h): "wal.open", "wal.append", "wal.fsync",
// "wal.recover.read".
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "wal/record.h"

namespace staq::wal {

/// Leading segment magic ("STAQWAL1" as little-endian u64).
inline constexpr uint64_t kWalMagic = 0x314C415751415453ull;
inline constexpr uint32_t kWalFormatVersion = 1;
/// magic + version + flags + start_sequence.
inline constexpr size_t kWalHeaderSize = 24;
/// payload_size + checksum.
inline constexpr size_t kWalFrameSize = 12;
/// Upper bound on one record's payload; anything larger in a frame header
/// is treated as corruption, not an allocation request.
inline constexpr uint32_t kMaxRecordPayload = 1 << 20;

struct WalOptions {
  /// Rotate to a new segment once the current one reaches this size
  /// (header + frames). Every segment holds at least one record.
  uint64_t segment_bytes = 4ull << 20;
};

struct WalStats {
  uint64_t appends = 0;
  uint64_t bytes_appended = 0;  // frames incl. headers, excl. segment headers
  uint64_t syncs = 0;
  uint64_t segments_created = 0;
};

/// One segment as recovery saw it (for `staq_cli wal inspect`).
struct WalSegmentInfo {
  std::string path;
  uint64_t start_sequence = 0;
  uint64_t records = 0;
  uint64_t bytes = 0;  // file size
};

/// Everything a full log read returns. `torn_tail` marks a final segment
/// whose last frame was cut short — `records` then holds the valid prefix
/// and `torn_offset` the byte offset recovery would truncate to.
struct WalContents {
  std::vector<MutationRecord> records;
  std::vector<WalSegmentInfo> segments;
  bool torn_tail = false;
  std::string torn_path;
  uint64_t torn_offset = 0;
};

/// Reads every record in `dir` in sequence order. Tolerates a torn tail
/// (reported, not repaired); returns kDataLoss for mid-log corruption or
/// sequence gaps, kInvalidArgument for files that are not WAL segments.
/// An absent or empty directory is an empty log, not an error.
util::Result<WalContents> ReadLog(const std::string& dir);

/// `staq_cli wal verify`: OK only for a fully clean log — every checksum
/// valid, sequences gap-free, no torn tail. A torn tail (recoverable by
/// Open) is reported as kDataLoss naming the segment and offset, so an
/// operator can tell "crash debris, Open will repair" from silent loss.
util::Status VerifyLog(const std::string& dir);

/// The append side. Open() recovers the directory (truncating a torn
/// tail), then appends continue from the recovered sequence.
class MutationWal {
 public:
  /// Creates `dir` if missing, recovers existing segments, truncates a
  /// torn tail, and positions for appending. Fails with the ReadLog
  /// taxonomy when recovery finds unrepairable corruption.
  static util::Result<std::unique_ptr<MutationWal>> Open(
      const std::string& dir, WalOptions options = WalOptions());

  ~MutationWal();

  MutationWal(const MutationWal&) = delete;
  MutationWal& operator=(const MutationWal&) = delete;

  /// Appends one record and fsyncs it — the durability contract
  /// replication advertises (an acked mutation survives a crash).
  /// `record.sequence` must be exactly last_sequence() + 1 (kAborted
  /// otherwise — the append is refused to keep the log gap-free) — except
  /// for the very first record of an empty log, whose sequence seeds the
  /// chain (a warm-started primary starts at its snapshot's sequence + 1).
  ///
  /// A write error leaves bytes of unknown extent on disk, so the WAL
  /// turns read-only (`broken()`): further appends fail with
  /// kFailedPrecondition and the caller must reopen — recovery truncates
  /// the debris. The failed record was never acknowledged, so dropping it
  /// is correct.
  util::Status Append(const MutationRecord& record);

  /// Sequence of the last durable append; 0 for an empty log (or the
  /// seeded base - 1 after recovering a log whose first segment starts
  /// above 1).
  uint64_t last_sequence() const { return last_sequence_; }

  bool broken() const { return broken_; }
  const std::string& dir() const { return dir_; }
  WalStats stats() const { return stats_; }

 private:
  MutationWal(std::string dir, WalOptions options);

  /// Flushes and fsyncs the current segment (no-op on an empty log).
  util::Status Sync();
  util::Status OpenSegment(uint64_t start_sequence);
  util::Status WriteAll(const void* data, size_t size);
  void CloseSegment();

  std::string dir_;
  WalOptions options_;
  std::FILE* file_ = nullptr;  // current segment, opened for appending
  std::string segment_path_;
  uint64_t segment_size_ = 0;  // bytes in the current segment (incl. header)
  uint64_t last_sequence_ = 0;
  bool broken_ = false;
  WalStats stats_;
};

/// Tailing reader: a replica polls the log for records past the ones it
/// has applied. Each Poll() re-reads the directory and returns the records
/// with sequence > the follower's cursor, in order — a live writer's
/// half-written frame is simply not there yet. Mutation logs are small
/// (mutations are rare next to queries), so the re-read is cheap and
/// rotation needs no special handling.
class WalFollower {
 public:
  WalFollower(std::string dir, uint64_t start_after_sequence)
      : dir_(std::move(dir)), next_sequence_(start_after_sequence + 1) {}

  /// Appends newly durable records to `out` and advances the cursor.
  /// Propagates ReadLog errors (kDataLoss never self-heals; the replica
  /// surfaces it instead of serving a gap).
  util::Status Poll(std::vector<MutationRecord>* out);

  /// The sequence the next returned record will carry.
  uint64_t next_sequence() const { return next_sequence_; }

 private:
  std::string dir_;
  uint64_t next_sequence_;
};

}  // namespace staq::wal
