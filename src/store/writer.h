// Snapshot container writer.
//
// Append-only: sections are buffered one at a time, checksummed per block,
// and streamed to a temporary sibling of the target path; Finish() writes
// the footer index and the trailer, fsyncs, closes, renames the temporary
// file over the target and fsyncs the directory. Until that rename the
// target is untouched, so a save that fails (error or injected fault)
// removes its temporary file and leaves whatever was at the path before —
// a good snapshot stays loadable, and a reader that already opened it is
// never disturbed.
//
// Failure sites (util/failpoint.h): "store.writer.open",
// "store.writer.write" (every flush), "store.writer.fsync".
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "store/coding.h"
#include "store/format.h"
#include "util/status.h"

namespace staq::store {

class Writer {
 public:
  Writer() = default;
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Creates the temporary sibling of `path` and writes the header.
  util::Status Open(const std::string& path);

  /// Appends a section. The payload is consumed (moved) to avoid a copy of
  /// multi-megabyte columns.
  util::Status AddSection(const std::string& name, SectionEncoding encoding,
                          std::vector<uint8_t> payload,
                          uint64_t element_count = 0);

  /// Writes footer + trailer, fsyncs and closes the file, then renames it
  /// over the target path and fsyncs the directory.
  util::Status Finish();

  /// Total payload bytes appended so far (bench accounting).
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  util::Status WriteAll(const void* data, size_t size);
  util::Status Pad(size_t alignment);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::string tmp_path_;
  uint64_t offset_ = 0;         // current file offset
  uint64_t bytes_written_ = 0;  // payload bytes (excl. header/footer)
  std::vector<SectionEntry> sections_;
  bool finished_ = false;
};

}  // namespace staq::store
