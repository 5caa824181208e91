// Zone-labeling throughput: the library's Connection Scan labeling against
// the label-correcting oracle.
//
// Labeling is the dominant cost of the whole solution (paper §IV-E), so
// this bench measures exactly that hot path in two result-identical
// configurations:
//   batched       — the oracle's grouped labeler
//                   (tests/testing/label_correcting_router.h): one
//                   label-correcting RouteMany per departure group: the
//                   speedup baseline
//   csa profile   — core::LabelingEngine: ONE window scan per block of
//                   core::kZoneBlock zones, every departure group of every
//                   zone of the block a lane of the same connection sweep
//                   (the production configuration)
// plus the multicore rows of the cold-build scaling story, `csa helped(N)`
// for N = 2 and N = 4 (reported, not gated): one cold exact school query on
// a serve::AqServer of N workers, whose serving loop labels the zones on
// the calling thread plus up to N - 1 idle-priority helpers — the code that
// serves every cold build. Each helped answer is checked bit-identical
// (MAC, ACSD, SPQs) against the same server's serial QueryUncached, which
// also times its speedup: both label the serving path's edit-stable TODAM,
// not the TODAM of the serial rows, so a helped row is never compared with
// the oracle row.
// Labels are checked bit-identical across configurations before any number
// is reported, and the binary exits non-zero unless the CSA profile engine
// clears the speedup floor over the batched baseline — the regression gate
// for the routing core. The 10x design target is reported alongside (see
// kCsaTargetSpeedup), and so is the serial CSA engine's scan state after
// labeling every zone (`csa_lane_stride`, `csa_scratch_bytes`), which
// perfgate caps: it is what each serving context holds.
//
// Output: paper-style table on stdout and a machine-readable
// BENCH_labeling.json in STAQ_BENCH_OUT.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_registry.h"
#include "core/labeling.h"
#include "core/todam.h"
#include "router/connections.h"
#include "router/csa.h"
#include "router/router.h"
#include "serve/server.h"
#include "testing/label_correcting_router.h"
#include "util/stopwatch.h"

namespace staq::bench {
namespace {

/// Regression floor: the serial CSA profile engine (array build included)
/// must beat the batched label-correcting baseline by at least this factor
/// or the bench exits non-zero. It keeps the share of the measured median
/// the earlier floors had (1.18x against 1.72x, 0.69): with block window
/// scans 10 runs at the default scale on a shared 4-core host measured a
/// median of 2.15x (1.61-2.35x), so 1.48x.
constexpr double kCsaSpeedupFloor = 1.48;

/// The cold-build design target, restated against the batched baseline:
/// 10x the per-trip binary-heap engine, which the batched engine itself
/// beats by ~2.3x. Not met serially — the remaining scan is
/// memory-bandwidth-bound at ~1 label write per (live lane, stop) — so it
/// is reported in the JSON (`csa_target_speedup` / `target_met`) rather
/// than enforced.
constexpr double kCsaTargetSpeedup = 4.3;

struct ModeResult {
  std::string name;
  std::string engine;  // "label_correcting" | "csa"
  double seconds = 0.0;
  uint64_t spqs = 0;
  uint64_t expansions = 0;
  std::vector<core::ZoneLabel> labels;
  // Serial CSA modes: the engine's scan state after labeling every zone.
  size_t lane_stride = 0;
  size_t scratch_bytes = 0;
};

/// One `csa helped(N)` row: a cold exact query on an N-worker server
/// against that server's serial QueryUncached.
struct HelpedResult {
  std::string name;
  double seconds = 0.0;
  double serial_seconds = 0.0;
  uint64_t spqs = 0;
  uint64_t trips = 0;
  bool bit_identical = false;
};

bool SameLabels(const std::vector<core::ZoneLabel>& a,
                const std::vector<core::ZoneLabel>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].mac != b[i].mac || a[i].acsd != b[i].acsd ||
        a[i].num_trips != b[i].num_trips ||
        a[i].num_infeasible != b[i].num_infeasible ||
        a[i].num_walk_only != b[i].num_walk_only) {
      return false;
    }
  }
  return true;
}

}  // namespace

exp::RunResult RunLabelingBench() {
  PrintHeader("Zone-labeling throughput: label-correcting vs CSA labeling");

  BenchCity bc =
      MakeBenchCity(synth::CitySpec::Brindale(BenchScale(), BenchSeed()));
  const synth::City& city = *bc.city;
  auto pois = city.PoisOf(synth::PoiCategory::kSchool);
  core::TodamBuilder builder(city.zones, pois, gtfs::WeekdayAmPeak(),
                             bc.gravity);
  core::Todam todam = builder.BuildGravity(BenchSeed());

  std::vector<uint32_t> zones(city.zones.size());
  for (uint32_t z = 0; z < zones.size(); ++z) zones[z] = z;
  std::printf("  city=%s  zones=%zu  pois=%zu  trips=%llu\n", bc.name.c_str(),
              zones.size(), pois.size(),
              static_cast<unsigned long long>(todam.num_trips()));

  // The connection array is timetable-derived and shared by every serial
  // CSA mode below, so its build is timed once here and reported
  // separately from the scans (each helped row's server builds its own,
  // outside the timing).
  auto connections =
      router::ConnectionArray::EnsureFor(nullptr, &city.feed);
  std::printf("  connection array: %zu connections, built in %.3fs\n",
              connections->num_connections(), connections->build_seconds());
  router::RouterOptions csa_opts;
  csa_opts.connections = connections;

  // Runs one labeler over every zone and times it.
  auto run_serial = [&](const char* name, const char* engine, auto& labeler) {
    ModeResult r;
    r.name = name;
    r.engine = engine;
    util::Stopwatch watch;
    r.labels = labeler.LabelZones(todam, zones, pois,
                                  core::CostKind::kJourneyTime,
                                  gtfs::Day::kTuesday);
    r.seconds = watch.ElapsedSeconds();
    r.spqs = labeler.spq_count();
    r.expansions = labeler.expansion_count();
    return r;
  };

  std::vector<ModeResult> results;
  {
    testing::LabelCorrectingRouter oracle(&city.feed, {});
    testing::LabelCorrectingLabeler grouped(&city, &oracle);
    results.push_back(run_serial("batched", "label_correcting", grouped));
  }
  {
    router::Router router(&city.feed, csa_opts);
    core::LabelingEngine engine(&city, &router);
    results.push_back(run_serial("csa profile", "csa", engine));
    results.back().lane_stride = router.csa()->lane_stride();
    results.back().scratch_bytes = router.csa()->scratch_bytes();
  }

  serve::AqRequest request;
  request.category = synth::PoiCategory::kSchool;
  request.options.exact = true;
  request.options.gravity = bc.gravity;
  request.options.seed = BenchSeed();
  std::vector<HelpedResult> helped;
  for (size_t threads : {2, 4}) {
    serve::AqServer::Options options;
    options.num_threads = threads;
    serve::AqServer server(synth::City(city), gtfs::WeekdayAmPeak(), options);
    HelpedResult r;
    r.name = "csa helped(" + std::to_string(threads) + ")";
    util::Stopwatch watch;
    auto answer = server.Query(request);
    r.seconds = watch.ElapsedSeconds();
    util::Stopwatch serial_watch;
    auto serial = server.QueryUncached(request);
    r.serial_seconds = serial_watch.ElapsedSeconds();
    if (!answer.ok() || !serial.ok()) {
      std::fprintf(stderr, "FATAL: %s query failed: %s\n", r.name.c_str(),
                   (answer.ok() ? serial : answer).status().ToString().c_str());
      return {1, ""};
    }
    r.spqs = answer.value().spqs;
    r.trips = answer.value().gravity_trips;
    r.bit_identical = answer.value().mac == serial.value().mac &&
                      answer.value().acsd == serial.value().acsd &&
                      answer.value().spqs == serial.value().spqs;
    helped.push_back(std::move(r));
  }

  // Equivalence gate: a throughput number for a mode that changes results
  // would be meaningless.
  for (size_t i = 1; i < results.size(); ++i) {
    if (!SameLabels(results[0].labels, results[i].labels)) {
      std::fprintf(stderr, "FATAL: %s labels differ from %s\n",
                   results[i].name.c_str(), results[0].name.c_str());
      return {1, ""};
    }
  }
  std::printf("  all modes bit-identical to '%s'\n",
              results[0].name.c_str());
  bool bit_identical = true;
  for (const HelpedResult& r : helped) {
    if (!r.bit_identical) {
      std::fprintf(stderr, "FATAL: %s answer differs from its serial "
                   "QueryUncached\n", r.name.c_str());
      bit_identical = false;
    }
  }
  if (bit_identical) {
    std::printf("  helped answers bit-identical to their serial "
                "QueryUncached\n");
  }
  std::printf("\n");

  std::printf("  %-22s %-17s %9s %10s %10s %12s %8s\n", "mode", "engine",
              "seconds", "zones/s", "SPQs/s", "expansions", "speedup");
  for (const ModeResult& r : results) {
    double zps = static_cast<double>(zones.size()) / r.seconds;
    double sps = static_cast<double>(r.spqs) / r.seconds;
    double speedup = results[0].seconds / r.seconds;
    std::printf("  %-22s %-17s %9.3f %10.1f %10.0f %12llu %7.2fx\n",
                r.name.c_str(), r.engine.c_str(), r.seconds, zps, sps,
                static_cast<unsigned long long>(r.expansions), speedup);
  }
  for (const HelpedResult& r : helped) {
    std::printf("  %-22s %-17s %9.3f %10.1f %10.0f %12s %7.2fx vs serial "
                "%.3fs (%llu trips)\n",
                r.name.c_str(), "csa", r.seconds,
                static_cast<double>(zones.size()) / r.seconds,
                static_cast<double>(r.spqs) / r.seconds, "-",
                r.serial_seconds / r.seconds, r.serial_seconds,
                static_cast<unsigned long long>(r.trips));
  }

  // Regression gate: the serial window-scan engine (connection-array build
  // time included — that is the true cold-build cost) must hold the floor.
  double csa_total = connections->build_seconds();
  const ModeResult* csa_serial = nullptr;
  for (const ModeResult& r : results) {
    if (r.name == "csa profile") {
      csa_total += r.seconds;
      csa_serial = &r;
    }
  }
  std::printf("\n  csa context after every zone: lane stride %zu, scan "
              "scratch %.1f KiB\n",
              csa_serial->lane_stride,
              static_cast<double>(csa_serial->scratch_bytes) / 1024.0);
  double csa_speedup = results[0].seconds / csa_total;
  bool gate_passed = csa_speedup >= kCsaSpeedupFloor;
  bool target_met = csa_speedup >= kCsaTargetSpeedup;
  std::printf("\n  gate: csa profile %.2fx vs batched (incl. %.3fs array "
              "build, floor %.2fx) -> %s  [design target %.1fx: %s]\n",
              csa_speedup, connections->build_seconds(), kCsaSpeedupFloor,
              gate_passed ? "PASS" : "FAIL", kCsaTargetSpeedup,
              target_met ? "met" : "not met serially");

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "labeling");
  w.String("city", bc.name);
  w.Fixed("scale", BenchScale(), 4);
  w.Int("rate_per_hour", BenchRate());
  w.Uint("seed", BenchSeed());
  w.Uint("zones", zones.size());
  w.Uint("trips", todam.num_trips());
  w.Uint("connections", connections->num_connections());
  w.Fixed("connections_build_seconds", connections->build_seconds(), 6);
  w.BeginArray("modes");
  for (const ModeResult& r : results) {
    w.BeginObject();
    w.String("name", r.name);
    w.String("engine", r.engine);
    w.Fixed("seconds", r.seconds, 6);
    w.Fixed("zones_per_s", static_cast<double>(zones.size()) / r.seconds, 3);
    w.Fixed("spqs_per_s", static_cast<double>(r.spqs) / r.seconds, 1);
    w.Uint("spqs", r.spqs);
    w.Uint("expansions", r.expansions);
    w.Fixed("speedup_vs_baseline", results[0].seconds / r.seconds, 4);
    w.EndObject();
  }
  for (const HelpedResult& r : helped) {
    w.BeginObject();
    w.String("name", r.name);
    w.String("engine", "csa");
    w.Fixed("seconds", r.seconds, 6);
    w.Fixed("zones_per_s", static_cast<double>(zones.size()) / r.seconds, 3);
    w.Fixed("spqs_per_s", static_cast<double>(r.spqs) / r.seconds, 1);
    w.Uint("spqs", r.spqs);
    w.Uint("trips", r.trips);
    w.Fixed("serial_seconds", r.serial_seconds, 6);
    w.Fixed("speedup_vs_serial", r.serial_seconds / r.seconds, 4);
    w.Bool("bit_identical", r.bit_identical);
    w.EndObject();
  }
  w.EndArray();
  w.Fixed("csa_speedup_floor", kCsaSpeedupFloor, 2);
  w.Fixed("csa_target_speedup", kCsaTargetSpeedup, 2);
  w.Fixed("csa_profile_speedup", csa_speedup, 4);
  w.Uint("csa_lane_stride", csa_serial->lane_stride);
  w.Uint("csa_scratch_bytes", csa_serial->scratch_bytes);
  w.Bool("gate_passed", gate_passed);
  w.Bool("target_met", target_met);
  w.Bool("bit_identical", bit_identical);
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("labeling", json);

  int exit_code = gate_passed ? 0 : 1;
  if (!gate_passed && Params().relax_gates) {
    std::printf("  (gate relaxed: reporting only)\n");
    exit_code = 0;
  }
  if (!bit_identical) exit_code = 1;  // never relaxed
  return {exit_code, std::move(json)};
}

}  // namespace staq::bench

