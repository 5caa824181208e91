// Mutation records — the replication unit of staq.
//
// Every scenario mutation an AqServer accepts — POI add/remove, interval
// switch, and the five timetable disruptions (route suspension, stop
// closure, headway thinning, flat fare, walk-speed scaling) — is one small,
// self-contained record, and it is the only form a mutation takes from the
// wire through AqServer::Mutate to ScenarioStore::Apply. Because the
// mutation semantics are bit-identical under replay (edit-stable TODAM,
// PRs 2-4), a replica that applies the same records in the same order *is*
// the primary: same epochs, same label states, same query answers. The
// record therefore carries everything replay needs and everything replay
// must *verify*:
//
//   * sequence — the primary's scenario sequence after applying (monotonic,
//     gap-free). Replay checks contiguity; a gap means log loss.
//   * poi_id (kAddPoi) — the stable id the primary assigned. Ids drive the
//     per-(zone, POI) RNG streams, so a replica that assigns a different
//     id has diverged; replay cross-checks and aborts rather than serve
//     silently different answers.
//
// Encoding reuses the snapshot store's codec conventions (store/coding.h):
// varints for ids/sequences, raw IEEE bits for coordinates (bit-exact),
// length-prefixed strings. Decoders are bounds-checked and validate enum
// ranges, so a corrupt payload degrades into a clean failure upstream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/latlon.h"
#include "gtfs/time.h"
#include "store/coding.h"
#include "synth/city_spec.h"

namespace staq::wal {

enum class MutationType : uint8_t {
  kAddPoi = 1,
  kRemovePoi = 2,
  kSetInterval = 3,
  // Disruption mutations (scenario subsystem). Values 4-8 extend the codec
  // in place: records of types 1-3 keep their exact byte layout, so WAL
  // segments written before the extension decode unchanged.
  kSuspendRoute = 4,
  kCloseStop = 5,
  kScaleHeadway = 6,
  kSetFare = 7,
  kScaleWalkSpeed = 8,
};

/// "Every route" sentinel for kScaleHeadway / kSetFare targets.
inline constexpr uint32_t kAllTargets = static_cast<uint32_t>(-1);

const char* MutationTypeName(MutationType type);

/// One logged scenario mutation. Only the fields of the record's type are
/// meaningful; the rest stay at their defaults (and are not encoded).
struct MutationRecord {
  MutationType type = MutationType::kAddPoi;
  /// Scenario sequence after applying this mutation: the primary's
  /// base sequence (snapshot source epoch at warm start, else 0) plus the
  /// local epoch the mutation installed.
  uint64_t sequence = 0;

  // kAddPoi
  synth::PoiCategory category = synth::PoiCategory::kSchool;
  geo::Point position;
  /// kAddPoi: id the primary assigned (replay must reproduce it).
  /// kRemovePoi: id to remove.
  uint32_t poi_id = 0;

  // kSetInterval
  gtfs::TimeInterval interval;

  // Disruption mutations. `target` is the route id (kSuspendRoute,
  // kScaleHeadway, kSetFare) or stop id (kCloseStop); kAllTargets means
  // "every route" where the mutation supports it. `value` carries the flat
  // fare (kSetFare) or the walk-speed factor (kScaleWalkSpeed) as raw IEEE
  // bits — replay must reproduce the identical doubles. `factor` is the
  // kScaleHeadway thinning divisor (keep every factor-th trip).
  uint32_t target = kAllTargets;
  double value = 0.0;
  uint32_t factor = 0;

  /// One factory per kind; each sets exactly the fields of its kind.
  static MutationRecord AddPoi(uint64_t sequence, synth::PoiCategory category,
                               const geo::Point& position, uint32_t poi_id);
  static MutationRecord RemovePoi(uint64_t sequence, uint32_t poi_id);
  static MutationRecord SetInterval(uint64_t sequence,
                                    const gtfs::TimeInterval& interval);
  static MutationRecord SuspendRoute(uint64_t sequence, uint32_t route);
  static MutationRecord CloseStop(uint64_t sequence, uint32_t stop);
  static MutationRecord ScaleHeadway(uint64_t sequence, uint32_t route,
                                     uint32_t factor);
  static MutationRecord SetFare(uint64_t sequence, uint32_t route, double fare);
  static MutationRecord ScaleWalkSpeed(uint64_t sequence, double factor);

  /// True for the kind whose poi_id the primary assigns (kAddPoi): the
  /// incoming id is ignored there, and replay must reproduce the logged one.
  bool assigns_poi_id() const { return type == MutationType::kAddPoi; }

  /// Human-readable one-liner for `staq_cli wal inspect`.
  std::string ToString() const;

  bool operator==(const MutationRecord& other) const;
};

/// Appends the record's canonical byte encoding to `out`.
void EncodeMutationRecord(const MutationRecord& record,
                          std::vector<uint8_t>* out);

/// Decodes one record. Returns false on truncation, an unknown type, or an
/// out-of-range enum value — never reads past the cursor's end.
bool DecodeMutationRecord(store::ByteReader* in, MutationRecord* out);

}  // namespace staq::wal
