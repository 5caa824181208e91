// Snapshot container reader.
//
// Open() reads the whole file into one heap buffer with read(), so an open
// Reader owns every byte it will decode: a later rewrite or truncation of
// the file cannot reach it. It then validates the header magic + version
// and the checksummed footer; Section() resolves by name, and the block
// checksums of a section are verified on its first access (memoised).
// VerifyAllBlocks() checks every block, for `staq_cli snapshot verify`.
//
// Failure taxonomy: wrong magic / unknown version / malformed footer or
// section -> kInvalidArgument; checksum mismatch or truncation after a
// valid trailer -> kDataLoss; filesystem errors -> kIoError.
//
// Failure sites (util/failpoint.h): "store.reader.open",
// "store.reader.read" (every section access).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "store/coding.h"
#include "store/format.h"
#include "util/status.h"

namespace staq::store {

class Reader {
 public:
  Reader() = default;

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  util::Status Open(const std::string& path);

  uint32_t format_version() const { return format_version_; }
  uint64_t file_size() const { return file_size_; }

  /// Footer entries in file order (for `snapshot inspect`).
  const std::vector<SectionEntry>& sections() const { return sections_; }

  bool Has(const std::string& name) const;

  /// Resolves a section and returns a bounds-checked cursor over its
  /// payload (pointing into the file buffer — valid while the Reader
  /// lives). Verifies the section's block checksums on first access.
  util::Result<ByteReader> Section(const std::string& name);

  /// Like Section() but also enforces the expected encoding, so a decode
  /// path can never run against bytes written by a different encoder.
  util::Result<ByteReader> Section(const std::string& name,
                                   SectionEncoding expected);

  /// Verifies every block of every section. Returns kDataLoss naming the
  /// first bad (section, block) pair.
  util::Status VerifyAllBlocks();

 private:
  const SectionEntry* Find(const std::string& name) const;
  util::Status VerifyBlocks(size_t index);
  util::Status ParseFooter();

  std::string path_;
  uint64_t file_size_ = 0;
  uint64_t footer_offset_ = 0;
  uint32_t format_version_ = 0;

  std::vector<uint8_t> buffer_;
  const uint8_t* data_ = nullptr;  // buffer_.data() once open

  std::vector<SectionEntry> sections_;
  std::vector<uint8_t> verified_;  // per section: block checksums passed
};

}  // namespace staq::store
