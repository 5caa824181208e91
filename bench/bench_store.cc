// Snapshot store benchmark: cold build vs warm start.
//
// Measures the full warm-start story of the snapshot store on one Brindale
// city:
//   cold   — AqServer construction (offline isochrone/hop-tree build) plus
//            the first exact query (full labeling sweep): the cost a
//            process pays every restart without snapshots
//   save   — SaveSnapshot of the materialised serving state, plus the
//            resulting file size and a full checksum verification pass
//   load   — LoadSnapshot alone, isolating deserialisation cost
//   warm   — AqServer construction with Options::warm_start_path plus the
//            same first query answered from the restored label state: the
//            cost a restart pays with snapshots. At perfgate scale it takes
//            ~10 ms, so one descheduling can move a single timing by
//            several times: it is the median of kWarmRepeats warm starts.
//            The cold build stays one timing: it is the process's first
//            server, and a restart pays what a first server pays.
//
// Correctness gates run before any number is reported: the warm server must
// actually warm-start (no silent cold fallback) and its answers must be
// bit-identical to the cold server's. The headline gate — warm start at
// least 10x faster than the cold build — fails the bench with exit code 1,
// so CI catches a regression that quietly turns the warm path cold.
//
// Output: a summary table on stdout and BENCH_store.json in STAQ_BENCH_OUT.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_registry.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "util/stopwatch.h"

namespace staq::bench {
namespace {

/// Warm starts behind the reported warm time, which is their median.
constexpr int kWarmRepeats = 5;

serve::AqRequest ExactRequest(synth::PoiCategory category,
                              const core::GravityConfig& gravity) {
  serve::AqRequest request;
  request.category = category;
  request.options.exact = true;
  request.options.gravity = gravity;
  request.options.seed = BenchSeed();
  return request;
}

bool BitIdentical(const core::AccessQueryResult& a,
                  const core::AccessQueryResult& b) {
  if (a.mac.size() != b.mac.size() || a.acsd.size() != b.acsd.size()) {
    return false;
  }
  auto same_bits = [](double x, double y) {
    uint64_t xb, yb;
    std::memcpy(&xb, &x, 8);
    std::memcpy(&yb, &y, 8);
    return xb == yb;
  };
  for (size_t z = 0; z < a.mac.size(); ++z) {
    if (!same_bits(a.mac[z], b.mac[z]) || !same_bits(a.acsd[z], b.acsd[z])) {
      return false;
    }
  }
  return same_bits(a.mean_mac, b.mean_mac) &&
         same_bits(a.mean_acsd, b.mean_acsd) &&
         a.gravity_trips == b.gravity_trips;
}

}  // namespace

exp::RunResult RunStoreBench() {
  PrintHeader("staq snapshot store: cold build vs warm start");

  const synth::CitySpec spec =
      synth::CitySpec::Brindale(BenchScale(), BenchSeed());
  core::GravityConfig gravity = core::CalibratedGravityConfig(spec);
  gravity.sample_rate_per_hour = BenchRate();
  const std::vector<serve::AqRequest> requests = {
      ExactRequest(synth::PoiCategory::kSchool, gravity),
      ExactRequest(synth::PoiCategory::kHospital, gravity),
  };

  auto build_city = [&]() {
    auto built = synth::BuildCity(spec);
    if (!built.ok()) {
      std::fprintf(stderr, "city build failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(built).value();
  };
  // City synthesis happens on both paths identically; build every city up
  // front so no phase's timing includes it.
  synth::City cold_city = build_city();
  std::vector<synth::City> warm_cities;
  for (int rep = 0; rep < kWarmRepeats; ++rep) {
    warm_cities.push_back(build_city());
  }

  serve::AqServer::Options options;
  options.num_threads = 2;

  // --- cold: offline build + first exact answers ---------------------------
  util::Stopwatch cold_watch;
  serve::AqServer cold(std::move(cold_city), gtfs::WeekdayAmPeak(), options);
  std::vector<core::AccessQueryResult> cold_answers;
  for (const serve::AqRequest& request : requests) {
    auto answer = cold.Query(request);
    if (!answer.ok()) {
      std::fprintf(stderr, "cold query failed: %s\n",
                   answer.status().ToString().c_str());
      return {1, ""};
    }
    cold_answers.push_back(std::move(answer).value());
  }
  const double cold_seconds = cold_watch.ElapsedSeconds();
  const size_t num_zones = cold.base_city().zones.size();
  std::printf("  cold build + first answers : %8.3f s  (%zu zones)\n",
              cold_seconds, num_zones);

  // --- save + verify --------------------------------------------------------
  const std::string path = OutDir() + "/bench_store_snapshot.staq";
  util::Stopwatch save_watch;
  auto saved = cold.ExportSnapshot(path);
  const double save_seconds = save_watch.ElapsedSeconds();
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return {1, ""};
  }
  auto info = store::InspectSnapshot(path);
  if (!info.ok()) {
    std::fprintf(stderr, "inspect failed: %s\n",
                 info.status().ToString().c_str());
    return {1, ""};
  }
  const uint64_t file_bytes = info.value().file_size;
  util::Stopwatch verify_watch;
  auto verified = store::VerifySnapshot(path);
  const double verify_seconds = verify_watch.ElapsedSeconds();
  if (!verified.ok()) {
    std::fprintf(stderr, "verify failed: %s\n", verified.ToString().c_str());
    return {1, ""};
  }
  std::printf("  save                       : %8.3f s  (%.2f MiB, "
              "verify %.3f s)\n",
              save_seconds, static_cast<double>(file_bytes) / (1 << 20),
              verify_seconds);

  // --- load alone -----------------------------------------------------------
  double load_seconds = 0.0;
  {
    util::Stopwatch load_watch;
    auto restored = store::LoadSnapshot(path);
    load_seconds = load_watch.ElapsedSeconds();
    if (!restored.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   restored.status().ToString().c_str());
      return {1, ""};
    }
  }
  std::printf("  load                       : %8.3f s\n", load_seconds);

  // --- warm: load + publish + the same first answers, gated every time ----
  // One warm start over `city`. Returns its seconds, or a negative value
  // when a query fails, the server fell back to a cold build, or an answer
  // differs from the cold build's.
  serve::AqServer::Options warm_options = options;
  warm_options.warm_start_path = path;
  auto time_warm = [&](synth::City city) -> double {
    util::Stopwatch warm_watch;
    serve::AqServer warm(std::move(city), gtfs::WeekdayAmPeak(), warm_options);
    std::vector<core::AccessQueryResult> warm_answers;
    for (const serve::AqRequest& request : requests) {
      auto answer = warm.Query(request);
      if (!answer.ok()) {
        std::fprintf(stderr, "warm query failed: %s\n",
                     answer.status().ToString().c_str());
        return -1.0;
      }
      warm_answers.push_back(std::move(answer).value());
    }
    const double seconds = warm_watch.ElapsedSeconds();
    if (!warm.warm_started()) {
      std::fprintf(stderr,
                   "GATE FAILED: server fell back to a cold build instead of "
                   "warm-starting from %s\n",
                   path.c_str());
      return -1.0;
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!BitIdentical(cold_answers[i], warm_answers[i])) {
        std::fprintf(stderr,
                     "GATE FAILED: warm answer %zu differs from cold build\n",
                     i);
        return -1.0;
      }
    }
    return seconds;
  };

  std::vector<double> warm_samples;
  for (int rep = 0; rep < kWarmRepeats; ++rep) {
    warm_samples.push_back(time_warm(std::move(warm_cities[rep])));
    if (warm_samples.back() < 0) return {1, ""};
  }
  const double warm_seconds = Summarise(warm_samples).p50_ms;
  std::printf("  warm start + first answers : %8.3f s  (median of %d)\n",
              warm_seconds, kWarmRepeats);

  // --- gate -----------------------------------------------------------------
  const double speedup =
      warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0;
  std::printf("  speedup                    : %8.1fx (gate: >= 10x)\n",
              speedup);
  bool gate_passed = speedup >= 10.0;
  if (!gate_passed) {
    std::fprintf(stderr,
                 "GATE FAILED: warm start %.1fx faster than cold build, "
                 "gate requires >= 10x\n",
                 speedup);
  }

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "store");
  w.String("city", spec.name);
  w.Fixed("scale", BenchScale(), 4);
  w.Int("rate_per_hour", BenchRate());
  w.Uint("seed", BenchSeed());
  w.Uint("zones", num_zones);
  w.Uint("label_states", requests.size());
  w.Fixed("cold_seconds", cold_seconds, 6);
  w.Fixed("save_seconds", save_seconds, 6);
  w.Fixed("verify_seconds", verify_seconds, 6);
  w.Uint("file_bytes", file_bytes);
  w.Fixed("load_seconds", load_seconds, 6);
  w.Fixed("warm_seconds", warm_seconds, 6);
  w.Fixed("speedup", speedup, 2);
  w.Fixed("speedup_gate", 10.0, 1);
  w.Bool("gate_passed", gate_passed);
  w.Bool("bit_identical", true);
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("store", json);
  std::remove(path.c_str());

  int exit_code = gate_passed ? 0 : 1;
  if (!gate_passed && Params().relax_gates) {
    std::printf("  (gate relaxed: reporting only)\n");
    exit_code = 0;
  }
  return {exit_code, std::move(json)};
}

}  // namespace staq::bench
