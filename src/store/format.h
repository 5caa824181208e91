// On-disk container format of the snapshot store.
//
// A snapshot file is a sequence of named, checksummed sections behind a
// footer index (the ClickHouse data-part shape, reduced to one file):
//
//   +--------------------------------------------------------------+
//   | header: magic "STAQSNP1" | format_version u32 | flags u32    |
//   +--------------------------------------------------------------+
//   | section payloads, 8-byte aligned, written append-only        |
//   |   each payload is split into <= kBlockSize blocks;           |
//   |   every block has an XXH64 digest in the footer's block table|
//   +--------------------------------------------------------------+
//   | footer blob (varint-encoded):                                |
//   |   per section: name, encoding, offset, size, element count,  |
//   |                block checksums                               |
//   +--------------------------------------------------------------+
//   | trailer (24 bytes): footer_offset u64 | footer_xxh64 u64 |   |
//   |                     tail magic "STAQEND1"                    |
//   +--------------------------------------------------------------+
//
// Readers open from the tail: validate both magics and the version,
// checksum the footer blob, then resolve sections by name. Payload block
// checksums are verified on first access of each section (or all at once
// by Reader::VerifyAllBlocks). Every integrity failure maps to kDataLoss
// and every format violation to kInvalidArgument — a corrupt file can
// never crash the process or half-install a scenario.
//
// Versioning policy: kFormatVersion bumps on any incompatible layout
// change; readers reject newer majors outright (no forward compat) and
// keep decode paths for older ones for as long as ROADMAP retention asks.
// Adding a *new* section is backward compatible by construction — old
// readers never look it up, new readers treat its absence as "feature not
// present in this snapshot". Dropping a section old readers require is
// not: version 2 stopped writing each label state's `labels` section
// (restored labels are derived from the state's trip columns), and this
// reader still opens version 1 files without reading that section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace staq::store {

/// Leading file magic ("STAQSNP1" as little-endian u64).
inline constexpr uint64_t kHeaderMagic = 0x31504E5351415453ull;
/// Trailing magic ("STAQEND1"), written last: its presence proves the
/// footer made it to disk, so truncation anywhere is detected cheaply.
inline constexpr uint64_t kTrailerMagic = 0x31444E4551415453ull;

/// Current container format version. Readers accept 1..kFormatVersion.
inline constexpr uint32_t kFormatVersion = 2;

/// Payload bytes covered by one checksum. 256 KiB keeps the block table
/// tiny (8 bytes per 256 KiB) while localising corruption reports.
inline constexpr size_t kBlockSize = 256 * 1024;

/// Fixed sizes of the non-section file regions.
inline constexpr size_t kHeaderSize = 16;   // magic + version + flags
inline constexpr size_t kTrailerSize = 24;  // footer offset + digest + magic

/// How a section's payload bytes are produced/consumed. Stored per section
/// so `snapshot inspect` can explain a file and readers can reject a
/// mismatched decode attempt.
enum class SectionEncoding : uint8_t {
  kRaw = 0,      // fixed-width little-endian values
  kVarint = 1,   // LEB128 varints (zigzag where signed)
  kDelta = 2,    // consecutive deltas, zigzag varint
  kStruct = 3,   // heterogeneous record stream (coding.h primitives)
};

const char* SectionEncodingName(SectionEncoding e);

/// Footer entry describing one section.
struct SectionEntry {
  std::string name;
  SectionEncoding encoding = SectionEncoding::kStruct;
  uint64_t offset = 0;          // absolute file offset of the payload
  uint64_t size = 0;            // payload bytes
  uint64_t element_count = 0;   // decoded elements (informational)
  std::vector<uint64_t> block_checksums;  // XXH64 per kBlockSize block
};

}  // namespace staq::store
