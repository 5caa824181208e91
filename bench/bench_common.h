// Shared infrastructure for the paper-reproduction benches.
//
// Every bench reads its settings from the process-wide BenchParams, which
// layer three sources (later wins):
//   1. compiled defaults (laptop scale);
//   2. environment overrides —
//        STAQ_BENCH_SCALE  linear zone/POI count multiplier (default 0.25;
//                          1.0 reproduces the paper's 3217/1014 zones)
//        STAQ_BENCH_RATE   TODAM start-time samples per hour (default 12;
//                          the paper's matrices correspond to ~30)
//        STAQ_BENCH_SEED   master seed (default 42)
//        STAQ_BENCH_OUT    directory for CSV/JSON outputs (default ".")
//        STAQ_BENCH_THREADS, STAQ_BENCH_SPQ_MS, STAQ_BENCH_RELAX_GATES
//        (see BenchParams fields);
//   3. experiment-cell parameters when a bench runs under the staq::exp
//      runner (ScopedBenchParams installs them for the cell's duration).
//
// The header also provides bench::JsonWriter — the one JSON emitter every
// bench uses for its BENCH_*.json document (same escaping, fixed float
// precision, byte-stable output) — and the shared latency Summarise()
// with explicit sample counts and approx-quantile marking.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/access_query.h"
#include "core/pipeline.h"
#include "synth/city_builder.h"
#include "testing/ssr_harness.h"
#include "util/csv.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace staq::bench {

// ---------------------------------------------------------------------------
// Parameters

struct BenchParams {
  double scale = 0.25;
  int rate = 12;
  uint64_t seed = 42;
  std::string out_dir = ".";
  /// Worker threads for pooled modes; 0 = hardware concurrency.
  int threads = 0;
  /// Per-SPQ latency budget override for the Table II bench; <0 = default.
  double spq_budget_ms = -1.0;
  /// Soften inline perf gates to warnings (sanitizer builds, where wall
  /// times carry no information). Correctness gates stay fatal.
  bool relax_gates = false;
  /// Bench-specific parameters from an experiment cell (beta, city, ...).
  std::map<std::string, std::string> extra;

  /// Compiled defaults overlaid with the STAQ_BENCH_* environment.
  static BenchParams FromEnv() {
    BenchParams p;
    if (const char* env = std::getenv("STAQ_BENCH_SCALE")) {
      p.scale = std::atof(env);
    }
    if (const char* env = std::getenv("STAQ_BENCH_RATE")) {
      p.rate = std::atoi(env);
    }
    if (const char* env = std::getenv("STAQ_BENCH_SEED")) {
      p.seed = std::strtoull(env, nullptr, 10);
    }
    if (const char* env = std::getenv("STAQ_BENCH_OUT")) p.out_dir = env;
    if (const char* env = std::getenv("STAQ_BENCH_THREADS")) {
      p.threads = std::atoi(env);
    }
    if (const char* env = std::getenv("STAQ_BENCH_SPQ_MS")) {
      p.spq_budget_ms = std::atof(env);
    }
    if (const char* env = std::getenv("STAQ_BENCH_RELAX_GATES")) {
      p.relax_gates = std::atoi(env) != 0;
    }
    return p;
  }

  /// Overlays experiment-cell parameters. Reserved keys map onto the
  /// typed fields; anything else lands in `extra` for the bench to read.
  void Apply(const std::map<std::string, std::string>& cell) {
    for (const auto& [key, value] : cell) {
      if (key == "scale") {
        scale = std::atof(value.c_str());
      } else if (key == "rate") {
        rate = std::atoi(value.c_str());
      } else if (key == "seed") {
        seed = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "threads") {
        threads = std::atoi(value.c_str());
      } else if (key == "spq_budget_ms") {
        spq_budget_ms = std::atof(value.c_str());
      } else if (key == "relax_gates") {
        relax_gates = value == "1" || value == "true";
      } else {
        extra[key] = value;
      }
    }
  }

  /// An `extra` parameter, or `fallback` when the cell didn't set it.
  std::string Extra(const std::string& key, const std::string& fallback) const {
    auto it = extra.find(key);
    return it == extra.end() ? fallback : it->second;
  }
};

/// The process-wide bench parameters. Initialised from the environment on
/// first use; the experiment runner swaps them per cell.
inline BenchParams& Params() {
  static BenchParams params = BenchParams::FromEnv();
  return params;
}

/// RAII parameter swap for running a bench as an experiment cell.
class ScopedBenchParams {
 public:
  explicit ScopedBenchParams(BenchParams params) : saved_(Params()) {
    Params() = std::move(params);
  }
  ~ScopedBenchParams() { Params() = std::move(saved_); }
  ScopedBenchParams(const ScopedBenchParams&) = delete;
  ScopedBenchParams& operator=(const ScopedBenchParams&) = delete;

 private:
  BenchParams saved_;
};

inline double BenchScale() { return Params().scale; }
inline int BenchRate() { return Params().rate; }
inline uint64_t BenchSeed() { return Params().seed; }
inline std::string OutDir() { return Params().out_dir; }

/// The β grid of the paper's sweeps (Figs. 3-4, Table II).
inline std::vector<double> PaperBudgets() {
  return {0.03, 0.05, 0.07, 0.10, 0.20, 0.30};
}

/// The four POI categories in paper order.
inline std::vector<synth::PoiCategory> PaperCategories() {
  return {synth::PoiCategory::kSchool, synth::PoiCategory::kHospital,
          synth::PoiCategory::kVaxCenter, synth::PoiCategory::kJobCenter};
}

// ---------------------------------------------------------------------------
// Cities

/// One evaluation city on the paper harness (testing/ssr_harness.h), with
/// its calibrated gravity settings: a serve::ScenarioStore holds the city
/// and its offline phase, every SSR run is Scenario::AnswerSsr — the
/// server's SSR path — and the ground truth labels every zone through
/// Scenario::LabelZoneBlocks, on one SerialZoneLoop. What the harness keeps
/// of its own is the TODAM: §III's row-normalised gravity draw, keyed by
/// POI index. The harness lives behind a unique_ptr, so a BenchCity stays
/// valid when moved (e.g. into a vector).
struct BenchCity {
  std::string name;
  std::unique_ptr<testing::SsrHarness> harness;
  const synth::City* city = nullptr;  // the harness's
  core::GravityConfig gravity;
};

/// The share of `truth`'s trips that walk the whole way.
inline double WalkOnlyFraction(const std::vector<core::ZoneLabel>& truth) {
  uint64_t walk_only = 0, trips = 0;
  for (const core::ZoneLabel& label : truth) {
    walk_only += label.num_walk_only;
    trips += label.num_trips;
  }
  return trips > 0 ? static_cast<double>(walk_only) / static_cast<double>(trips)
                   : 0.0;
}

inline BenchCity MakeBenchCity(const synth::CitySpec& spec) {
  BenchCity bc;
  bc.name = spec.name;
  auto built = synth::BuildCity(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "city build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  bc.harness = std::make_unique<testing::SsrHarness>(std::move(built).value());
  bc.city = &bc.harness->city();
  bc.gravity = core::CalibratedGravityConfig(spec);
  bc.gravity.sample_rate_per_hour = BenchRate();
  return bc;
}

/// Both evaluation cities at the configured scale.
inline std::vector<BenchCity> MakeBothCities() {
  std::vector<BenchCity> cities;
  cities.push_back(
      MakeBenchCity(synth::CitySpec::Brindale(BenchScale(), BenchSeed())));
  cities.push_back(
      MakeBenchCity(synth::CitySpec::Covely(BenchScale(), BenchSeed() + 1)));
  return cities;
}

// ---------------------------------------------------------------------------
// Output

/// Writes a CSV next to printing it; failures are reported but non-fatal.
inline void EmitCsv(const util::CsvTable& table, const std::string& filename) {
  std::string path = OutDir() + "/" + filename;
  auto status = table.WriteFile(path);
  if (status.ok()) {
    std::printf("  -> wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "  (csv write failed: %s)\n",
                 status.ToString().c_str());
  }
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("  scale=%.2f  rate=%d/hr  seed=%llu\n", BenchScale(),
              BenchRate(), static_cast<unsigned long long>(BenchSeed()));
  std::printf("================================================================\n");
}

/// The one JSON emitter behind every BENCH_*.json document: stable
/// two-space indentation, printf fixed-precision floats, full string
/// escaping. Identical inputs produce identical bytes, which is what the
/// baseline diff and the resume byte-identity guarantee stand on.
class JsonWriter {
 public:
  JsonWriter& BeginObject(const char* key = nullptr) {
    Item(key);
    out_ += "{";
    scopes_.push_back('o');
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndObject() { return Close('}'); }

  JsonWriter& BeginArray(const char* key = nullptr) {
    Item(key);
    out_ += "[";
    scopes_.push_back('a');
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& String(const char* key, const std::string& value) {
    Item(key);
    out_ += '"';
    out_ += util::JsonEscape(value);
    out_ += '"';
    return *this;
  }
  /// Fixed-precision float — the precision is part of the output contract
  /// (baselines compare number tokens textually).
  JsonWriter& Fixed(const char* key, double value, int decimals) {
    Item(key);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    out_ += buffer;
    return *this;
  }
  JsonWriter& Int(const char* key, long long value) {
    Item(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Uint(const char* key, unsigned long long value) {
    Item(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Bool(const char* key, bool value) {
    Item(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  /// The finished document (with trailing newline). The writer is spent.
  std::string Take() {
    out_ += "\n";
    return std::move(out_);
  }

 private:
  void Item(const char* key) {
    if (!scopes_.empty()) {
      out_ += first_.back() ? "\n" : ",\n";
      first_.back() = false;
      out_.append(scopes_.size() * 2, ' ');
    }
    if (key != nullptr) {
      out_ += '"';
      out_ += util::JsonEscape(key);
      out_ += "\": ";
    }
  }

  JsonWriter& Close(char bracket) {
    bool empty = first_.back();
    scopes_.pop_back();
    first_.pop_back();
    if (!empty) {
      out_ += "\n";
      out_.append(scopes_.size() * 2, ' ');
    }
    out_.push_back(bracket);
    return *this;
  }

  std::string out_;
  std::vector<char> scopes_;  // 'o' object, 'a' array
  std::vector<bool> first_;
};

/// Writes a bench's BENCH_<name>.json to OutDir(). Non-fatal on IO error
/// (the document also travels back to the caller inside RunResult).
inline void EmitBenchJson(const std::string& bench, const std::string& json) {
  std::string path = OutDir() + "/BENCH_" + bench + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "  (json write failed: %s)\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("  -> wrote %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Latency summaries

/// Order-statistic summary with explicit provenance: `n` is the sample
/// count, and a quantile computed from fewer samples than its rank needs
/// (p99 of 7 requests *is* the max, not a p99) carries an approx flag so
/// the regression diff never gates on it.
struct LatencySummary {
  size_t n = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  bool p95_approx = true;
  bool p99_approx = true;
};

inline LatencySummary Summarise(std::vector<double> latencies_ms) {
  LatencySummary s;
  s.n = latencies_ms.size();
  if (s.n == 0) return s;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  double total = 0.0;
  for (double v : latencies_ms) total += v;
  s.mean_ms = total / static_cast<double>(s.n);
  auto quantile = [&](double q) {
    size_t index = static_cast<size_t>(q * static_cast<double>(s.n - 1));
    return latencies_ms[index];
  };
  s.p50_ms = quantile(0.50);
  s.p95_ms = quantile(0.95);
  s.p99_ms = quantile(0.99);
  // A p-quantile needs at least 1/(1-p) samples before it is a distinct
  // order statistic; below that it collapses onto the max.
  s.p95_approx = s.n < 20;
  s.p99_approx = s.n < 100;
  return s;
}

/// Emits one phase/summary latency block through the shared writer:
/// requests, qps, mean/p50/p95/p99 with approx flags.
inline void WriteLatency(JsonWriter& w, const LatencySummary& s,
                         double seconds) {
  w.Uint("requests", s.n);
  w.Fixed("seconds", seconds, 6);
  w.Fixed("qps", seconds > 0 ? static_cast<double>(s.n) / seconds : 0.0, 1);
  w.Fixed("mean_ms", s.mean_ms, 3);
  w.Fixed("p50_ms", s.p50_ms, 3);
  w.Fixed("p95_ms", s.p95_ms, 3);
  w.Bool("p95_approx", s.p95_approx);
  w.Fixed("p99_ms", s.p99_ms, 3);
  w.Bool("p99_approx", s.p99_approx);
}

}  // namespace staq::bench
