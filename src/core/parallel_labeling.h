// Parallel labeling.
//
// Labeling dominates the solution's run time (paper §IV-E) and the related
// work notes that "parallelization can benefit an SSR approach too, as the
// majority of the runtime is in labeling" (§II). This module runs the zone
// list as one util::ParallelLoop: the calling thread and helpers on the
// shared util::ThreadPool claim blocks of kZoneBlock zones one at a time,
// each participant with its own Router instance (the router's scratch
// space is not shareable), and labels come back in the same order as the
// input zones — bit-identical to the serial path, because every zone is
// labeled independently of its block.
#pragma once

#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "core/todam.h"
#include "router/router.h"
#include "synth/city_builder.h"

namespace staq::core {

/// Labels `zones` using `num_threads` participants (the caller plus
/// num_threads - 1 pool helpers). num_threads <= 1 degrades to the serial
/// LabelingEngine. Results match LabelZones exactly. `total_spqs` and
/// `total_expansions` (optional) receive the SPQ and router-expansion
/// counts across participants.
///
/// The connection array is built (or taken from router_options.connections)
/// ONCE and shared read-only by every worker's Router, and every block of
/// zones is labeled by one window scan.
std::vector<ZoneLabel> LabelZonesParallel(
    const synth::City& city, const Todam& todam,
    const std::vector<uint32_t>& zones, const std::vector<synth::Poi>& pois,
    CostKind kind, gtfs::Day day, int num_threads,
    const router::RouterOptions& router_options = {},
    router::GacWeights gac_weights = {}, uint64_t* total_spqs = nullptr,
    uint64_t* total_expansions = nullptr);

}  // namespace staq::core
