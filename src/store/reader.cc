#include "store/reader.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/hash.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace staq::store {

namespace {

util::Status IoError(const std::string& what, const std::string& path) {
  return util::Status::IoError(what + " " + path + ": " +
                               std::strerror(errno));
}

}  // namespace

util::Status Reader::Open(const std::string& path) {
  if (data_ != nullptr) {
    return util::Status::FailedPrecondition("Reader already open");
  }
  path_ = path;
  try {
    STAQ_FAILPOINT("store.reader.open");
  } catch (const std::exception& e) {
    return util::Status::IoError(std::string("open ") + path + ": " +
                                 e.what());
  }

  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    util::Status status = IoError("stat", path);
    ::close(fd);
    return status;
  }
  file_size_ = static_cast<uint64_t>(st.st_size);
  if (file_size_ < kHeaderSize + kTrailerSize) {
    ::close(fd);
    return util::Status::DataLoss(
        util::Format("%s: %llu bytes is smaller than any snapshot",
                     path.c_str(),
                     static_cast<unsigned long long>(file_size_)));
  }

  buffer_.resize(file_size_);
  size_t got = 0;
  while (got < buffer_.size()) {
    ssize_t n = ::read(fd, buffer_.data() + got, buffer_.size() - got);
    if (n < 0) {
      util::Status status = IoError("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;  // truncated between stat and read
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  if (got != buffer_.size()) {
    return util::Status::DataLoss(path + ": short read (file truncated)");
  }
  data_ = buffer_.data();

  util::Status status = ParseFooter();
  if (!status.ok()) {
    // Leave no half-open state behind: a failed Open is indistinguishable
    // from one never attempted.
    buffer_.clear();
    data_ = nullptr;
    sections_.clear();
  }
  return status;
}

util::Status Reader::ParseFooter() {
  uint64_t magic, version_flags;
  std::memcpy(&magic, data_, 8);
  if (magic != kHeaderMagic) {
    return util::Status::InvalidArgument(path_ + ": not a staq snapshot");
  }
  std::memcpy(&version_flags, data_ + 8, 8);
  format_version_ = static_cast<uint32_t>(version_flags);
  if (format_version_ == 0 || format_version_ > kFormatVersion) {
    return util::Status::InvalidArgument(
        util::Format("%s: format version %u not supported (this build reads "
                     "versions 1..%u)",
                     path_.c_str(), format_version_, kFormatVersion));
  }
  // No flag bits are defined yet, so any set bit is either corruption (the
  // flags field is outside every checksum's coverage) or a future feature
  // this build cannot honour — reject both.
  const uint32_t flags = static_cast<uint32_t>(version_flags >> 32);
  if (flags != 0) {
    return util::Status::InvalidArgument(
        util::Format("%s: unknown header flags 0x%x", path_.c_str(), flags));
  }

  const uint8_t* trailer = data_ + file_size_ - kTrailerSize;
  uint64_t footer_offset, footer_digest, tail_magic;
  std::memcpy(&footer_offset, trailer, 8);
  std::memcpy(&footer_digest, trailer + 8, 8);
  std::memcpy(&tail_magic, trailer + 16, 8);
  if (tail_magic != kTrailerMagic) {
    return util::Status::DataLoss(
        path_ + ": trailer magic missing (file truncated or torn write)");
  }
  if (footer_offset < kHeaderSize ||
      footer_offset > file_size_ - kTrailerSize) {
    return util::Status::DataLoss(path_ + ": footer offset out of range");
  }
  footer_offset_ = footer_offset;
  const uint8_t* footer = data_ + footer_offset;
  const size_t footer_size = file_size_ - kTrailerSize - footer_offset;
  if (util::XxHash64(footer, footer_size) != footer_digest) {
    return util::Status::DataLoss(path_ + ": footer checksum mismatch");
  }

  ByteReader in(footer, footer_size);
  uint64_t num_sections;
  if (!in.ReadVarint64(&num_sections) || num_sections > file_size_) {
    return util::Status::InvalidArgument(path_ + ": malformed footer");
  }
  sections_.clear();
  sections_.reserve(static_cast<size_t>(num_sections));
  for (uint64_t i = 0; i < num_sections; ++i) {
    SectionEntry entry;
    uint8_t encoding;
    uint64_t num_blocks;
    if (!in.ReadLengthPrefixed(&entry.name) || !in.ReadFixed(&encoding) ||
        !in.ReadVarint64(&entry.offset) || !in.ReadVarint64(&entry.size) ||
        !in.ReadVarint64(&entry.element_count) ||
        !in.ReadVarint64(&num_blocks) ||
        encoding > static_cast<uint8_t>(SectionEncoding::kStruct)) {
      return util::Status::InvalidArgument(path_ + ": malformed footer");
    }
    entry.encoding = static_cast<SectionEncoding>(encoding);
    // A section must lie inside the payload region and its block count
    // must match its size, or the footer itself is inconsistent.
    if (entry.offset < kHeaderSize || entry.offset + entry.size < entry.offset ||
        entry.offset + entry.size > footer_offset ||
        num_blocks != std::max<uint64_t>(1, (entry.size + kBlockSize - 1) /
                                                kBlockSize)) {
      return util::Status::InvalidArgument(
          path_ + ": section '" + entry.name + "' out of bounds");
    }
    entry.block_checksums.resize(static_cast<size_t>(num_blocks));
    for (uint64_t& digest : entry.block_checksums) {
      if (!in.ReadFixed(&digest)) {
        return util::Status::InvalidArgument(path_ + ": malformed footer");
      }
    }
    sections_.push_back(std::move(entry));
  }
  verified_.assign(sections_.size(), 0);
  return util::Status::OK();
}

const SectionEntry* Reader::Find(const std::string& name) const {
  for (const SectionEntry& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool Reader::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

util::Status Reader::VerifyBlocks(size_t index) {
  const SectionEntry& s = sections_[index];
  if (verified_[index]) return util::Status::OK();
  const uint8_t* payload = data_ + s.offset;
  for (size_t b = 0; b < s.block_checksums.size(); ++b) {
    const size_t at = b * kBlockSize;
    const size_t n = std::min(kBlockSize, static_cast<size_t>(s.size) - at);
    if (util::XxHash64(payload + at, n) != s.block_checksums[b]) {
      return util::Status::DataLoss(
          util::Format("%s: checksum mismatch in section '%s' block %zu",
                       path_.c_str(), s.name.c_str(), b));
    }
  }
  verified_[index] = 1;
  return util::Status::OK();
}

util::Result<ByteReader> Reader::Section(const std::string& name) {
  if (data_ == nullptr) {
    return util::Status::FailedPrecondition("Reader not open");
  }
  try {
    STAQ_FAILPOINT("store.reader.read");
  } catch (const std::exception& e) {
    return util::Status::IoError(std::string("read ") + path_ + ": " +
                                 e.what());
  }
  const SectionEntry* entry = Find(name);
  if (entry == nullptr) {
    return util::Status::NotFound(path_ + ": no section '" + name + "'");
  }
  STAQ_RETURN_NOT_OK(
      VerifyBlocks(static_cast<size_t>(entry - sections_.data())));
  return ByteReader(data_ + entry->offset,
                    static_cast<size_t>(entry->size));
}

util::Result<ByteReader> Reader::Section(const std::string& name,
                                         SectionEncoding expected) {
  const SectionEntry* entry = Find(name);
  if (entry != nullptr && entry->encoding != expected) {
    return util::Status::InvalidArgument(
        util::Format("%s: section '%s' is %s-encoded, expected %s",
                     path_.c_str(), name.c_str(),
                     SectionEncodingName(entry->encoding),
                     SectionEncodingName(expected)));
  }
  return Section(name);
}

util::Status Reader::VerifyAllBlocks() {
  if (data_ == nullptr) {
    return util::Status::FailedPrecondition("Reader not open");
  }
  for (size_t i = 0; i < sections_.size(); ++i) {
    STAQ_RETURN_NOT_OK(VerifyBlocks(i));
  }
  // Alignment padding between sections is the one region no digest covers;
  // the writer emits zeros there, so any set bit is corruption. With this,
  // every byte of the file is accounted for: header and trailer by magics
  // and version checks, the footer by its digest, payloads by block
  // digests, padding by the all-zeros invariant.
  uint64_t cursor = kHeaderSize;
  for (const SectionEntry& section : sections_) {
    for (uint64_t at = cursor; at < section.offset; ++at) {
      if (data_[at] != 0) {
        return util::Status::DataLoss(
            util::Format("%s: nonzero padding byte at offset %llu",
                         path_.c_str(),
                         static_cast<unsigned long long>(at)));
      }
    }
    cursor = section.offset + section.size;
  }
  for (uint64_t at = cursor; at < footer_offset_; ++at) {
    if (data_[at] != 0) {
      return util::Status::DataLoss(
          util::Format("%s: nonzero padding byte at offset %llu",
                       path_.c_str(), static_cast<unsigned long long>(at)));
    }
  }
  return util::Status::OK();
}

}  // namespace staq::store
