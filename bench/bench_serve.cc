// Serving throughput and latency of the staq::serve subsystem.
//
// The serve bench drives one AqServer through the three request mixes a
// deployed endpoint sees:
//   cold         — first query per distinct request on a fresh scenario:
//                  pays the full exact labeling (or SSR pipeline) once
//   cached       — concurrent clients repeating the same analytical
//                  queries: one sharded-LRU probe per request
//   incremental  — a POI edit lands between queries: the mutation patches
//                  the materialised label states (O(affected zones) SPQs)
//                  and the next query answers from the patched state
// plus the mutations themselves (latency, affected-zone counts, SPQ cost).
//
// Correctness gates run before any number is reported: every cached and
// every incremental answer is compared field-by-field against
// AqServer::QueryUncached(), which recomputes from scratch on the caller's
// thread bypassing the result cache, the label-state memo, and the
// incremental patches. Any mismatch aborts the bench with exit code 1.
//
// Output: paper-style tables on stdout and a machine-readable
// BENCH_serve.json in STAQ_BENCH_OUT.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_registry.h"
#include "router/connections.h"
#include "scenario/disruption.h"
#include "serve/server.h"
#include "util/stopwatch.h"

namespace staq::bench {
namespace {

/// Payload equality between two answers — everything except the cost
/// accounting fields (spqs/elapsed differ between cached, incremental, and
/// from-scratch paths by design).
bool SameAnswer(const core::AccessQueryResult& a,
                const core::AccessQueryResult& b) {
  return a.mac == b.mac && a.acsd == b.acsd && a.classes == b.classes &&
         a.mean_mac == b.mean_mac && a.mean_acsd == b.mean_acsd &&
         a.fairness == b.fairness &&
         a.population_fairness == b.population_fairness &&
         a.vulnerable_fairness == b.vulnerable_fairness &&
         a.gravity_trips == b.gravity_trips;
}

/// Hard gate: `result` must be OK and bit-identical to the from-scratch
/// golden for the same request on the current scenario.
bool GateAgainstGolden(serve::AqServer& server, const serve::AqRequest& request,
                       const util::Result<core::AccessQueryResult>& result,
                       const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "GATE FAILED (%s): query error: %s\n", what,
                 result.status().ToString().c_str());
    return false;
  }
  auto golden = server.QueryUncached(request);
  if (!golden.ok()) {
    std::fprintf(stderr, "GATE FAILED (%s): golden error: %s\n", what,
                 golden.status().ToString().c_str());
    return false;
  }
  if (!SameAnswer(result.value(), golden.value())) {
    std::fprintf(stderr,
                 "GATE FAILED (%s): answer differs from uncached golden\n",
                 what);
    return false;
  }
  return true;
}

void PrintPhase(const char* name, const LatencySummary& s, double seconds) {
  std::printf("  %-12s %6zu req %9.3f s %8.1f q/s   p50 %8.2f  p95 %8.2f  "
              "p99 %8.2f ms\n",
              name, s.n, seconds,
              seconds > 0 ? static_cast<double>(s.n) / seconds : 0.0, s.p50_ms,
              s.p95_ms, s.p99_ms);
}

}  // namespace

exp::RunResult RunServeBench() {
  PrintHeader("staq::serve — concurrent AQ serving (cold/cached/incremental)");

  const synth::CitySpec spec = synth::CitySpec::Brindale(BenchScale(), BenchSeed());
  auto built = synth::BuildCity(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "city build failed: %s\n",
                 built.status().ToString().c_str());
    return {1, ""};
  }
  synth::City city = std::move(built).value();
  const size_t num_zones = city.zones.size();

  core::GravityConfig gravity = core::CalibratedGravityConfig(spec);
  gravity.sample_rate_per_hour = BenchRate();

  serve::AqServer::Options options;
  options.num_threads =
      Params().threads > 0
          ? static_cast<unsigned>(Params().threads)
          : std::max(2u, std::thread::hardware_concurrency());
  serve::AqServer server(std::move(city), gtfs::WeekdayAmPeak(), options);
  const router::RouterOptions& router_opts = server.router_options();
  const double connections_build_s = router_opts.connections->build_seconds();
  std::printf("  city=%s  zones=%zu  pois=%zu  workers=%zu\n", spec.name.c_str(),
              num_zones, server.base_city().pois.size(), server.num_threads());
  std::printf("  engine=csa  connection array: %zu connections, built in "
              "%.3fs\n",
              router_opts.connections->num_connections(), connections_build_s);

  // The request mix: one exact query per category, exact re-samples of the
  // first two categories under a different TODAM seed (distinct label
  // states, so cold pays extra full labelings), and an SSR sweep — OLS
  // across the β grid for two categories plus one COREG and one MLP cell.
  // 20 distinct requests in total, so the cold phase's p95 is measured
  // from 20 samples rather than approximated, and the cached phase
  // round-robins a realistic dashboard workload.
  std::vector<serve::AqRequest> mix;
  for (synth::PoiCategory category : PaperCategories()) {
    serve::AqRequest request;
    request.category = category;
    request.options.exact = true;
    request.options.gravity = gravity;
    request.options.seed = BenchSeed();
    mix.push_back(request);
  }
  {
    serve::AqRequest reseed = mix[0];
    reseed.options.seed = BenchSeed() + 1;
    mix.push_back(reseed);
    reseed = mix[1];
    reseed.options.seed = BenchSeed() + 1;
    mix.push_back(reseed);
  }
  for (synth::PoiCategory category :
       {synth::PoiCategory::kSchool, synth::PoiCategory::kHospital}) {
    for (double beta : {0.03, 0.05, 0.07, 0.10, 0.15, 0.20}) {
      serve::AqRequest ssr = mix.front();
      ssr.category = category;
      ssr.options.exact = false;
      ssr.options.beta = beta;
      ssr.options.model = ml::ModelKind::kOls;
      mix.push_back(ssr);
    }
  }
  {
    serve::AqRequest ssr = mix.front();
    ssr.options.exact = false;
    ssr.options.beta = 0.10;
    ssr.options.model = ml::ModelKind::kCoreg;
    mix.push_back(ssr);
    ssr.options.beta = 0.07;
    ssr.options.model = ml::ModelKind::kMlp;
    mix.push_back(ssr);
  }

  // --- cold: first query per distinct request ---------------------------
  std::vector<double> cold_ms;
  std::vector<core::AccessQueryResult> cold_answers;
  util::Stopwatch cold_watch;
  for (const serve::AqRequest& request : mix) {
    util::Stopwatch watch;
    auto result = server.Query(request);
    cold_ms.push_back(watch.ElapsedMillis());
    if (!result.ok()) {
      std::fprintf(stderr, "cold query failed: %s\n",
                   result.status().ToString().c_str());
      return {1, ""};
    }
    cold_answers.push_back(std::move(result).value());
  }
  const double cold_seconds = cold_watch.ElapsedSeconds();
  LatencySummary cold = Summarise(cold_ms);

  // Gate the cold answers (they seed the cache every later phase reads).
  for (size_t i = 0; i < mix.size(); ++i) {
    util::Result<core::AccessQueryResult> answer = cold_answers[i];
    if (!GateAgainstGolden(server, mix[i], answer, "cold")) return {1, ""};
  }

  // --- cached: concurrent clients over a stable scenario ----------------
  const size_t kClients = server.num_threads();
  const size_t kQueriesPerClient = 40;
  std::vector<std::vector<double>> client_ms(kClients);
  std::atomic<bool> cached_ok{true};
  util::Stopwatch cached_watch;
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        client_ms[c].reserve(kQueriesPerClient);
        for (size_t q = 0; q < kQueriesPerClient; ++q) {
          const serve::AqRequest& request = mix[(c + q) % mix.size()];
          util::Stopwatch watch;
          auto result = server.Query(request);
          client_ms[c].push_back(watch.ElapsedMillis());
          if (!result.ok() ||
              !SameAnswer(result.value(), cold_answers[(c + q) % mix.size()])) {
            cached_ok.store(false);
          }
        }
      });
    }
    for (auto& client : clients) client.join();
  }
  double cached_seconds = cached_watch.ElapsedSeconds();
  if (!cached_ok.load()) {
    std::fprintf(stderr,
                 "GATE FAILED (cached): a concurrent answer differed from "
                 "the gated cold answer\n");
    return {1, ""};
  }
  std::vector<double> cached_ms;
  for (const auto& ms : client_ms) {
    cached_ms.insert(cached_ms.end(), ms.begin(), ms.end());
  }
  LatencySummary cached = Summarise(std::move(cached_ms));

  // --- incremental: POI edits between queries ---------------------------
  // Each mutation patches every materialised label state of its category
  // (here: all six exact mix entries' states exist), then the follow-up query
  // answers from the patched state and is gated against a from-scratch
  // rebuild of the mutated scenario.
  const geo::BBox& extent = server.base_city().extent;
  const geo::Point corner{extent.min_x, extent.min_y};
  const serve::AqRequest& mutated_request = mix.front();  // kSchool, exact
  const int kEdits = 4;  // add/remove round-trips

  std::vector<serve::ScenarioStore::MutationReport> reports;
  std::vector<double> incremental_ms;
  double incremental_query_seconds = 0.0;
  for (int edit = 0; edit < kEdits; ++edit) {
    auto add = server.AddPoi(synth::PoiCategory::kSchool, corner);
    if (!add.ok()) {
      std::fprintf(stderr, "add failed: %s\n",
                   add.status().ToString().c_str());
      return {1, ""};
    }
    reports.push_back(add.value());
    {
      util::Stopwatch watch;
      auto result = server.Query(mutated_request);
      incremental_ms.push_back(watch.ElapsedMillis());
      incremental_query_seconds += watch.ElapsedSeconds();
      if (!GateAgainstGolden(server, mutated_request, result,
                             "incremental/add")) {
        return {1, ""};
      }
    }
    auto removed = server.RemovePoi(add.value().poi_id);
    if (!removed.ok()) {
      std::fprintf(stderr, "remove failed: %s\n",
                   removed.status().ToString().c_str());
      return {1, ""};
    }
    reports.push_back(removed.value());
    {
      util::Stopwatch watch;
      auto result = server.Query(mutated_request);
      incremental_ms.push_back(watch.ElapsedMillis());
      incremental_query_seconds += watch.ElapsedSeconds();
      if (!GateAgainstGolden(server, mutated_request, result,
                             "incremental/remove")) {
        return {1, ""};
      }
    }
  }
  LatencySummary incremental = Summarise(incremental_ms);

  // After the add/remove round-trips the whole mix must still equal its
  // from-scratch golden on the final scenario (history independence).
  for (const serve::AqRequest& request : mix) {
    if (!GateAgainstGolden(server, request, server.Query(request), "final")) {
      return {1, ""};
    }
  }

  // --- disruptions: the scenario-pack mutation mix ----------------------
  // The same disruption grammar `staq_cli scenario run` executes, one of
  // each timetable-rewriting kind, selectors resolved against the live
  // feed just before each apply (client-side resolution, as the pack
  // runner does). Every apply patches all materialised label states
  // incrementally; the follow-up query is gated against a from-scratch
  // rebuild over the disrupted network.
  const char* const kDisruptionSpecs[] = {
      "close_stop:busiest", "suspend_route:busiest", "scale_headway:all:2",
      "set_fare:all:4.0",   "scale_walk:0.9",
  };
  std::vector<serve::ScenarioStore::MutationReport> disruption_reports;
  double disruption_mean_ms = 0.0, disruption_max_ms = 0.0;
  for (const char* spec_text : kDisruptionSpecs) {
    auto spec = scenario::ParseDisruptionSpec(spec_text);
    if (!spec.ok()) {
      std::fprintf(stderr, "disruption spec '%s' failed: %s\n", spec_text,
                   spec.status().ToString().c_str());
      return {1, ""};
    }
    auto record = scenario::ResolveDisruption(
        spec.value(), server.Snapshot()->base_city().feed);
    if (!record.ok()) {
      std::fprintf(stderr, "disruption '%s' did not resolve: %s\n", spec_text,
                   record.status().ToString().c_str());
      return {1, ""};
    }
    record.value().sequence = server.sequence() + 1;
    auto applied = server.ApplyMutation(record.value());
    if (!applied.ok()) {
      std::fprintf(stderr, "disruption '%s' failed: %s\n", spec_text,
                   applied.status().ToString().c_str());
      return {1, ""};
    }
    disruption_reports.push_back(applied.value());
    const double ms = applied.value().seconds * 1e3;
    disruption_mean_ms += ms;
    disruption_max_ms = std::max(disruption_max_ms, ms);
    if (!GateAgainstGolden(server, mutated_request, server.Query(mutated_request),
                           spec_text)) {
      return {1, ""};
    }
  }
  disruption_mean_ms /= static_cast<double>(disruption_reports.size());
  uint64_t disruption_spqs = 0;
  uint64_t disruption_zones = 0;
  for (const auto& report : disruption_reports) {
    disruption_spqs += report.spqs;
    disruption_zones += report.zones_relabeled;
  }

  // Every request of the mix answers bit-identically on the fully
  // disrupted network too.
  for (const serve::AqRequest& request : mix) {
    if (!GateAgainstGolden(server, request, server.Query(request),
                           "disrupted/final")) {
      return {1, ""};
    }
  }

  // Mutation cost summary. full-build SPQs = SPQs of one from-scratch
  // exact labeling, read off the cold exact answer.
  double mutation_mean_ms = 0.0, mutation_max_ms = 0.0;
  double mean_zones = 0.0;
  uint64_t mutation_spqs = 0;
  for (const auto& report : reports) {
    mutation_mean_ms += report.seconds * 1e3;
    mutation_max_ms = std::max(mutation_max_ms, report.seconds * 1e3);
    mean_zones += report.zones_relabeled;
    mutation_spqs += report.spqs;
  }
  mutation_mean_ms /= static_cast<double>(reports.size());
  mean_zones /= static_cast<double>(reports.size());
  const uint64_t full_build_spqs = cold_answers.front().spqs;
  const double mean_spqs =
      static_cast<double>(mutation_spqs) / static_cast<double>(reports.size());

  serve::ServerStats stats = server.stats();

  std::printf("\n  all cached and incremental answers bit-identical to "
              "QueryUncached goldens\n\n");
  PrintPhase("cold", cold, cold_seconds);
  PrintPhase("cached", cached, cached_seconds);
  PrintPhase("incremental", incremental, incremental_query_seconds);
  std::printf("\n  mutations: %zu edits  mean %.2f ms (max %.2f)  "
              "zones relabeled %.1f/%zu  SPQs %.0f vs %llu full build "
              "(%.1fx cheaper)\n",
              reports.size(), mutation_mean_ms, mutation_max_ms, mean_zones,
              num_zones, mean_spqs,
              static_cast<unsigned long long>(full_build_spqs),
              mean_spqs > 0.0 ? static_cast<double>(full_build_spqs) / mean_spqs
                              : 0.0);
  std::printf("  disruptions: %zu applied (network v%llu)  mean %.2f ms "
              "(max %.2f)  %llu zones relabeled, %llu SPQs\n",
              disruption_reports.size(),
              static_cast<unsigned long long>(
                  server.Snapshot()->network_version()),
              disruption_mean_ms, disruption_max_ms,
              static_cast<unsigned long long>(disruption_zones),
              static_cast<unsigned long long>(disruption_spqs));
  std::printf("  server: %llu submitted, %llu cache hits / %llu misses, "
              "%llu exact state builds, %llu SSR feature builds, %llu "
              "states patched across %llu mutations\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.exact_state_builds),
              static_cast<unsigned long long>(stats.ssr_feature_builds),
              static_cast<unsigned long long>(stats.states_patched),
              static_cast<unsigned long long>(stats.mutations));

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "serve");
  w.String("city", spec.name);
  w.Fixed("scale", BenchScale(), 4);
  w.Int("rate_per_hour", BenchRate());
  w.Uint("seed", BenchSeed());
  w.Uint("zones", num_zones);
  w.Uint("workers", server.num_threads());
  w.Uint("clients", kClients);
  w.String("engine", "csa");
  w.Uint("connections", router_opts.connections
                            ? router_opts.connections->num_connections()
                            : 0);
  w.Fixed("connections_build_seconds", connections_build_s, 6);
  w.Bool("bit_identical", true);
  w.BeginArray("phases");
  auto phase_json = [&w](const char* name, const LatencySummary& s,
                         double seconds) {
    w.BeginObject();
    w.String("name", name);
    WriteLatency(w, s, seconds);
    w.EndObject();
  };
  phase_json("cold", cold, cold_seconds);
  phase_json("cached", cached, cached_seconds);
  phase_json("incremental", incremental, incremental_query_seconds);
  w.EndArray();
  w.BeginObject("mutations");
  w.Uint("count", reports.size());
  w.Fixed("mean_ms", mutation_mean_ms, 4);
  w.Fixed("max_ms", mutation_max_ms, 4);
  w.Fixed("mean_zones_relabeled", mean_zones, 2);
  w.Uint("zones_total", num_zones);
  w.Fixed("mean_spqs", mean_spqs, 1);
  w.Uint("full_build_spqs", full_build_spqs);
  w.EndObject();
  w.BeginObject("disruptions");
  w.Uint("count", disruption_reports.size());
  w.Uint("network_version", server.Snapshot()->network_version());
  w.Fixed("mean_ms", disruption_mean_ms, 4);
  w.Fixed("max_ms", disruption_max_ms, 4);
  w.Uint("zones_relabeled", disruption_zones);
  w.Uint("spqs", disruption_spqs);
  w.EndObject();
  w.BeginObject("server_stats");
  w.Uint("submitted", stats.submitted);
  w.Uint("cache_hits", stats.cache_hits);
  w.Uint("cache_misses", stats.cache_misses);
  w.Uint("exact_state_builds", stats.exact_state_builds);
  w.Uint("ssr_feature_builds", stats.ssr_feature_builds);
  w.Uint("states_patched", stats.states_patched);
  w.Uint("mutations", stats.mutations);
  w.EndObject();
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("serve", json);
  return {0, std::move(json)};
}

}  // namespace staq::bench
