// Full serving-state snapshots (the staq::store public API).
//
// SaveSnapshot serialises one serve::Scenario — the synthetic city, the
// GTFS feed, the interval's offline structures (isochrones, hop trees) and
// every materialised exact label state — into the checksummed columnar
// container of writer.h/reader.h. LoadSnapshot reassembles a
// serve::RestoredScenario that a ScenarioStore / AqServer can publish as
// epoch 0 without running the offline cold build: the warm-start path.
//
// Bit-identity contract: a loaded scenario answers every query with
// exactly the bytes a from-scratch build would produce. Doubles are stored
// as raw IEEE bits, integer columns delta/zigzag-coded losslessly, and the
// deterministic derived structures (departure index, k-d trees, feature
// extractor, each label state's zone labels) are rebuilt rather than
// stored — their builders are pure functions of the stored state.
//
// Failure taxonomy follows reader.h: not-a-snapshot / unknown version /
// structurally inconsistent -> kInvalidArgument; checksum mismatch,
// truncation, or a section that decodes short -> kDataLoss; filesystem
// errors -> kIoError. Injected faults (util/failpoint.h) surface as
// kIoError statuses, never as escaping exceptions, so callers like the
// AqServer warm start can fall back to a cold build.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/scenario.h"
#include "store/format.h"
#include "store/reader.h"
#include "util/status.h"

namespace staq::store {

/// Serialises `scenario` plus the owning store's POI id cursor to `path`.
/// The scenario is immutable, so this is safe while the store keeps
/// serving queries and installing new epochs. Writes are atomic at the
/// file level (writer.h): a failed save leaves the file that was at `path`
/// before, if any, untouched.
///
/// `base_sequence` is the owning store's sequence offset
/// (ScenarioStore::base_sequence()): the persisted source epoch becomes
/// base_sequence + scenario.epoch(), i.e. the *absolute* mutation sequence,
/// so WAL replay chains across generations of snapshots.
util::Status SaveSnapshot(const serve::Scenario& scenario,
                          uint32_t next_poi_id, const std::string& path,
                          uint64_t base_sequence = 0);

/// Loads a snapshot into the ingredients of a warm-started ScenarioStore.
/// Every label is derived from its state's trip columns (the one
/// aggregation POI patches use), so it cannot disagree with them.
util::Result<serve::RestoredScenario> LoadSnapshot(const std::string& path);

/// Summary of a snapshot file, decoded from the footer and the meta
/// section only (no bulk columns are read or verified).
struct SnapshotInfo {
  uint32_t format_version = 0;
  uint64_t file_size = 0;
  uint64_t source_epoch = 0;
  uint32_t next_poi_id = 0;
  std::string city_name;
  std::string interval_label;
  uint64_t num_zones = 0;
  uint64_t num_pois = 0;
  uint64_t num_stops = 0;
  uint64_t num_trips = 0;
  uint64_t num_stop_times = 0;
  uint64_t num_label_states = 0;
  std::vector<SectionEntry> sections;
};

/// `staq_cli snapshot inspect`: header + footer + meta, nothing else.
util::Result<SnapshotInfo> InspectSnapshot(const std::string& path);

/// `staq_cli snapshot verify`: opens the file and checks every block
/// checksum of every section. OK means the container is intact (it does
/// not re-run the semantic validation LoadSnapshot performs).
util::Status VerifySnapshot(const std::string& path);

}  // namespace staq::store
