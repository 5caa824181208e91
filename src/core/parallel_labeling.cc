#include "core/parallel_labeling.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "router/connections.h"
#include "util/parallel_loop.h"
#include "util/thread_pool.h"

namespace staq::core {

std::vector<ZoneLabel> LabelZonesParallel(
    const synth::City& city, const Todam& todam,
    const std::vector<uint32_t>& zones, const std::vector<synth::Poi>& pois,
    CostKind kind, gtfs::Day day, int num_threads,
    const router::RouterOptions& router_options,
    router::GacWeights gac_weights, uint64_t* total_spqs,
    uint64_t* total_expansions) {
  // Build (or adopt) the connection array once, outside the participants:
  // each per-participant Router then shares the immutable array instead of
  // rebuilding it num_threads times.
  router::RouterOptions options = router_options;
  options.connections =
      router::ConnectionArray::EnsureFor(options.connections, &city.feed);

  if (num_threads <= 1 || zones.size() <= 1) {
    router::Router router(&city.feed, options);
    LabelingEngine engine(&city, &router, gac_weights);
    auto labels = engine.LabelZones(todam, zones, pois, kind, day);
    if (total_spqs != nullptr) *total_spqs = engine.spq_count();
    if (total_expansions != nullptr) {
      *total_expansions = engine.expansion_count();
    }
    return labels;
  }

  std::vector<ZoneLabel> labels(zones.size());
  std::atomic<uint64_t> spqs{0};
  std::atomic<uint64_t> expansions{0};
  /// One participant's routing scratch; its counts are folded in when the
  /// participant ends (the chunk function owning it is destroyed).
  struct Participant {
    Participant(const synth::City& city, const router::RouterOptions& options,
                router::GacWeights gac, std::atomic<uint64_t>* spqs_out,
                std::atomic<uint64_t>* expansions_out)
        : router(&city.feed, options),
          engine(&city, &router, gac),
          spqs(spqs_out),
          expansions(expansions_out) {}
    ~Participant() {
      spqs->fetch_add(engine.spq_count());
      expansions->fetch_add(engine.expansion_count());
    }
    router::Router router;  // per participant: scratch is instance-local
    LabelingEngine engine;
    std::atomic<uint64_t>* spqs;
    std::atomic<uint64_t>* expansions;
  };
  util::LoopOptions loop;
  loop.max_helpers = static_cast<size_t>(num_threads) - 1;
  util::ParallelLoop(
      util::ThreadPool::Shared(), NumZoneBlocks(zones.size()), loop,
      [&](bool /*helper*/) -> util::LoopTask {
        auto participant = std::make_shared<Participant>(
            city, options, gac_weights, &spqs, &expansions);
        return [&, participant](size_t i) -> util::LoopStore {
          const size_t first = i * kZoneBlock;
          participant->engine.LabelBlock(
              todam, zones.data() + first,
              std::min(kZoneBlock, zones.size() - first), pois, kind, day,
              labels.data() + first);
          return {};
        };
      });

  if (total_spqs != nullptr) *total_spqs = spqs.load();
  if (total_expansions != nullptr) *total_expansions = expansions.load();
  return labels;
}

}  // namespace staq::core
