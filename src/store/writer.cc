#include "store/writer.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#ifdef _WIN32
#error "staq::store targets POSIX hosts"
#endif
#include <fcntl.h>
#include <unistd.h>

#include "util/hash.h"
#include "util/failpoint.h"

namespace staq::store {

namespace {

util::Status IoError(const std::string& what, const std::string& path) {
  return util::Status::IoError(what + " " + path + ": " +
                               std::strerror(errno));
}

/// fsyncs the directory holding `path`, so a rename into it is durable.
util::Status SyncDirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return IoError("open directory", dir);
  util::Status status = util::Status::OK();
  if (::fsync(fd) != 0) status = IoError("fsync directory", dir);
  ::close(fd);
  return status;
}

}  // namespace

const char* SectionEncodingName(SectionEncoding e) {
  switch (e) {
    case SectionEncoding::kRaw: return "raw";
    case SectionEncoding::kVarint: return "varint";
    case SectionEncoding::kDelta: return "delta";
    case SectionEncoding::kStruct: return "struct";
  }
  return "?";
}

Writer::~Writer() {
  // A save that did not finish removes its temporary file.
  if (file_ != nullptr) std::fclose(file_);
  if (!finished_ && !tmp_path_.empty()) ::unlink(tmp_path_.c_str());
}

util::Status Writer::Open(const std::string& path) {
  if (file_ != nullptr) {
    return util::Status::FailedPrecondition("Writer already open");
  }
  try {
    STAQ_FAILPOINT("store.writer.open");
  } catch (const std::exception& e) {
    return util::Status::IoError(std::string("open ") + path + ": " +
                                 e.what());
  }
  // Unique per process and per save, so concurrent saves to one path
  // never share a temporary file.
  static std::atomic<uint64_t> saves{0};
  tmp_path_ = path + ".tmp." + std::to_string(::getpid()) + "." +
              std::to_string(saves.fetch_add(1));
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) return IoError("create", tmp_path_);
  path_ = path;

  uint8_t header[kHeaderSize];
  std::memcpy(header, &kHeaderMagic, 8);
  uint32_t version = kFormatVersion;
  uint32_t flags = 0;
  std::memcpy(header + 8, &version, 4);
  std::memcpy(header + 12, &flags, 4);
  return WriteAll(header, sizeof(header));
}

util::Status Writer::WriteAll(const void* data, size_t size) {
  try {
    STAQ_FAILPOINT("store.writer.write");
  } catch (const std::exception& e) {
    return util::Status::IoError(std::string("write ") + path_ + ": " +
                                 e.what());
  }
  if (size > 0 && std::fwrite(data, 1, size, file_) != size) {
    return IoError("write", path_);
  }
  offset_ += size;
  return util::Status::OK();
}

util::Status Writer::Pad(size_t alignment) {
  static const uint8_t zeros[16] = {0};
  size_t misalign = static_cast<size_t>(offset_ % alignment);
  if (misalign == 0) return util::Status::OK();
  return WriteAll(zeros, alignment - misalign);
}

util::Status Writer::AddSection(const std::string& name,
                                SectionEncoding encoding,
                                std::vector<uint8_t> payload,
                                uint64_t element_count) {
  if (file_ == nullptr || finished_) {
    return util::Status::FailedPrecondition("Writer not open");
  }
  // 8-byte payload alignment so raw double/u64 columns stay aligned in the
  // reader's file buffer.
  STAQ_RETURN_NOT_OK(Pad(8));

  SectionEntry entry;
  entry.name = name;
  entry.encoding = encoding;
  entry.offset = offset_;
  entry.size = payload.size();
  entry.element_count = element_count;
  for (size_t at = 0; at < payload.size(); at += kBlockSize) {
    size_t n = std::min(kBlockSize, payload.size() - at);
    entry.block_checksums.push_back(util::XxHash64(payload.data() + at, n));
  }
  // Zero-length sections still carry one digest (of the empty block) so
  // "section exists" and "section verified" stay the same statement.
  if (payload.empty()) entry.block_checksums.push_back(util::XxHash64(nullptr, 0));

  STAQ_RETURN_NOT_OK(WriteAll(payload.data(), payload.size()));
  bytes_written_ += payload.size();
  sections_.push_back(std::move(entry));
  return util::Status::OK();
}

util::Status Writer::Finish() {
  if (file_ == nullptr || finished_) {
    return util::Status::FailedPrecondition("Writer not open");
  }
  STAQ_RETURN_NOT_OK(Pad(8));
  const uint64_t footer_offset = offset_;

  std::vector<uint8_t> footer;
  PutVarint64(&footer, sections_.size());
  for (const SectionEntry& s : sections_) {
    PutLengthPrefixed(&footer, s.name);
    footer.push_back(static_cast<uint8_t>(s.encoding));
    PutVarint64(&footer, s.offset);
    PutVarint64(&footer, s.size);
    PutVarint64(&footer, s.element_count);
    PutVarint64(&footer, s.block_checksums.size());
    for (uint64_t digest : s.block_checksums) PutFixed(&footer, digest);
  }
  STAQ_RETURN_NOT_OK(WriteAll(footer.data(), footer.size()));

  uint8_t trailer[kTrailerSize];
  std::memcpy(trailer, &footer_offset, 8);
  uint64_t footer_digest = util::XxHash64(footer.data(), footer.size());
  std::memcpy(trailer + 8, &footer_digest, 8);
  std::memcpy(trailer + 16, &kTrailerMagic, 8);
  STAQ_RETURN_NOT_OK(WriteAll(trailer, sizeof(trailer)));

  if (std::fflush(file_) != 0) return IoError("flush", tmp_path_);
  try {
    STAQ_FAILPOINT("store.writer.fsync");
    if (::fsync(fileno(file_)) != 0) return IoError("fsync", tmp_path_);
  } catch (const std::exception& e) {
    return util::Status::IoError(std::string("fsync ") + tmp_path_ + ": " +
                                 e.what());
  }
  const int closed = std::fclose(file_);
  file_ = nullptr;
  if (closed != 0) return IoError("close", tmp_path_);
  if (::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return IoError("rename onto", path_);
  }
  finished_ = true;
  return SyncDirectoryOf(path_);
}

}  // namespace staq::store
