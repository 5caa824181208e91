// staq command-line tool.
//
//   staq_cli synth --city brindale --scale 0.25 --seed 42 --out DIR
//       Generate a synthetic city and save it (zones/pois/roads CSV +
//       GTFS timetable) for later queries.
//
//   staq_cli info --city-dir DIR
//       Summarise a saved city.
//
//   staq_cli query --city-dir DIR --poi school --interval am
//             [--beta 0.05] [--model MLP|OLS|COREG|MT|GNN] [--cost jt|gac]
//             [--label-seed N] [--exact] [--zones-out FILE]
//       Answer an access query through an AqServer (serve/server.h), as
//       the server answers it; optionally dump per-zone measures as CSV.
//
//   staq_cli snapshot save|load|inspect|verify ...
//       Persist a full serving snapshot (city + offline structures +
//       exact label states) in the staq::store container format, reload
//       it (warm start), or check a file's integrity.
//
//   staq_cli wal inspect|verify --dir DIR
//       Walk a mutation WAL directory: list segments and records, or
//       check every record checksum and the sequence chain.
//
//   staq_cli bench list|run|diff ...
//       The experiment harness: enumerate the linkable benches and their
//       baseline coverage, run a declarative sweep config (with per-cell
//       resume snapshots), or diff a run's BENCH_*.json documents against
//       the checked-in golden baselines under the tolerance policy.
//
//   staq_cli scenario list|run|report ...
//       Disruption scenarios: list a pack's scenarios, run a pack against
//       a city (each scenario applies its timetable disruptions to a live
//       server and reports the before/after equity impact), or re-render a
//       saved report JSON.
//
// Queries can also run directly on a synthetic spec without saving:
//   staq_cli query --synth covely --scale 0.1 --poi hospital
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>

#include "bench_registry.h"
#include "core/access_query.h"
#include "core/export.h"
#include "exp/config.h"
#include "exp/diff.h"
#include "exp/json.h"
#include "exp/runner.h"
#include "exp/text.h"
#include "gtfs/gtfs_csv.h"
#include "scenario/pack.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "serve/request.h"
#include "serve/scenario.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "synth/city_builder.h"
#include "synth/city_io.h"
#include "util/csv.h"
#include "util/strings.h"
#include "wal/wal.h"

namespace staq {
namespace {

/// Minimal --flag value parser; flags without a following value get "".
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoi(it->second.c_str());
  }

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

constexpr char kSynthUsage[] =
    "  synth --city brindale|covely [--scale S] [--seed N] --out DIR\n";
constexpr char kInfoUsage[] =
    "  info  (--city-dir DIR | --synth brindale|covely [--scale S] "
    "[--seed N])\n";
constexpr char kQueryUsage[] =
    "  query (--city-dir DIR | --synth brindale|covely [--scale S] "
    "[--seed N])\n"
    "        --poi school|hospital|vax_center|job_center\n"
    "        [--interval am|offpeak|pm|sunday] [--beta B]\n"
    "        [--model MLP|OLS|COREG|MT|GNN] [--cost jt|gac]\n"
    "        [--label-seed N] [--exact] [--zones-out FILE]\n"
    "        [--geojson FILE] [--report FILE]\n"
    "        [--batch [--batch-seeds N]]  (requires --exact: sweeps\n"
    "          jt+gac across N TODAM seeds from --label-seed, one\n"
    "          labeling pass per seed)\n";
constexpr char kSnapshotUsage[] =
    "  snapshot save (--city-dir DIR | --synth brindale|covely [--scale S] "
    "[--seed N])\n"
    "           [--interval am|offpeak|pm|sunday] [--poi CATEGORY]\n"
    "           [--cost jt|gac] [--label-seed N] --out FILE\n"
    "  snapshot load --in FILE\n"
    "  snapshot inspect --in FILE\n"
    "  snapshot verify --in FILE\n";
constexpr char kWalUsage[] =
    "  wal inspect --dir DIR [--records]\n"
    "  wal verify --dir DIR\n";
constexpr char kBenchUsage[] =
    "  bench list [--baselines DIR]\n"
    "  bench run --config FILE --out DIR [--state DIR] [--no-resume]\n"
    "        [--max-executed N] [--quiet]\n"
    "  bench diff --run DIR [--baselines DIR] [--policy FILE] "
    "[--relax-perf]\n";
constexpr char kScenarioUsage[] =
    "  scenario list --pack FILE\n"
    "  scenario run --pack FILE (--city-dir DIR | --synth brindale|covely "
    "[--scale S] [--seed N])\n"
    "           [--name SCENARIO] [--poi CATEGORY] "
    "[--interval am|offpeak|pm|sunday]\n"
    "           [--cost jt|gac] [--threads N] [--out DIR]\n"
    "  scenario report --in FILE\n";

int Usage() {
  std::fprintf(stderr,
               "usage: staq_cli <synth|info|query|snapshot|wal|bench|"
               "scenario> [flags]\n%s%s%s%s%s%s%s",
               kSynthUsage, kInfoUsage, kQueryUsage, kSnapshotUsage, kWalUsage,
               kBenchUsage, kScenarioUsage);
  return 2;
}

/// Per-subcommand usage, shown on bad flags or missing arguments.
int UsageFor(const std::string& command, const char* block) {
  std::fprintf(stderr, "usage: staq_cli %s [flags]\n%s", command.c_str(),
               block);
  return 2;
}

/// Rejects flags the subcommand does not understand. A silently ignored
/// flag (historically: any typo) is worse than an error — the caller
/// believes the flag took effect.
bool CheckFlags(const Args& args, const std::string& command,
                std::initializer_list<const char*> allowed) {
  bool ok = true;
  for (const auto& [key, value] : args.values()) {
    bool known = std::any_of(allowed.begin(), allowed.end(),
                             [&key](const char* a) { return key == a; });
    if (!known) {
      std::fprintf(stderr, "staq_cli %s: unknown flag --%s\n", command.c_str(),
                   key.c_str());
      ok = false;
    }
  }
  return ok;
}

/// The positional analogue of CheckFlags: rejects a command or verb the
/// tool does not understand, through the same complain-then-usage path a
/// typoed flag takes. `scope` is "" for top-level commands, the command
/// name for its verbs.
bool CheckCommand(const std::string& scope, const std::string& name,
                  std::initializer_list<const char*> allowed) {
  bool known = std::any_of(allowed.begin(), allowed.end(),
                           [&name](const char* a) { return name == a; });
  if (!known) {
    std::fprintf(stderr, "staq_cli%s%s: unknown %s '%s'\n",
                 scope.empty() ? "" : " ", scope.c_str(),
                 scope.empty() ? "command" : "verb", name.c_str());
  }
  return known;
}

util::Result<synth::CitySpec> SpecFor(const std::string& name, double scale,
                                      uint64_t seed) {
  if (name == "brindale") return synth::CitySpec::Brindale(scale, seed);
  if (name == "covely") return synth::CitySpec::Covely(scale, seed);
  return util::Status::InvalidArgument("unknown city: " + name);
}

util::Result<gtfs::TimeInterval> IntervalFor(const std::string& name) {
  if (name == "am") return gtfs::WeekdayAmPeak();
  if (name == "offpeak") return gtfs::WeekdayOffPeak();
  if (name == "pm") return gtfs::WeekdayPmPeak();
  if (name == "sunday") return gtfs::SundayMorning();
  return util::Status::InvalidArgument("unknown interval: " + name);
}

/// The projection used for GTFS export/import of saved cities.
geo::LocalProjection CliProjection() {
  return geo::LocalProjection(geo::LatLon{52.45, -1.7});
}

util::Result<synth::City> LoadOrSynth(const Args& args) {
  if (args.Has("city-dir")) {
    std::string dir = args.Get("city-dir", "");
    auto feed = gtfs::ReadFeedCsv(dir, CliProjection());
    if (!feed.ok()) return feed.status();
    return synth::LoadCityCsv(dir, std::move(feed).value());
  }
  if (args.Has("synth")) {
    auto spec = SpecFor(args.Get("synth", ""), args.GetDouble("scale", 0.1),
                        static_cast<uint64_t>(args.GetInt("seed", 42)));
    if (!spec.ok()) return spec.status();
    return synth::BuildCity(spec.value());
  }
  return util::Status::InvalidArgument("need --city-dir or --synth");
}

int RunSynth(const Args& args) {
  if (!CheckFlags(args, "synth", {"city", "scale", "seed", "out"})) {
    return UsageFor("synth", kSynthUsage);
  }
  if (!args.Has("out")) {
    std::fprintf(stderr, "synth: --out DIR is required\n");
    return UsageFor("synth", kSynthUsage);
  }
  auto spec = SpecFor(args.Get("city", "covely"), args.GetDouble("scale", 0.1),
                      static_cast<uint64_t>(args.GetInt("seed", 42)));
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  auto city = synth::BuildCity(spec.value());
  if (!city.ok()) {
    std::fprintf(stderr, "%s\n", city.status().ToString().c_str());
    return 1;
  }
  std::string out = args.Get("out", "");
  if (auto st = synth::SaveCityCsv(city.value(), out); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (auto st = gtfs::WriteFeedCsv(city.value().feed, CliProjection(), out);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu zones, %zu stops, %zu trips, %zu pois\n",
              out.c_str(), city.value().zones.size(),
              city.value().feed.num_stops(), city.value().feed.num_trips(),
              city.value().pois.size());
  return 0;
}

int RunInfo(const Args& args) {
  if (!CheckFlags(args, "info", {"city-dir", "synth", "scale", "seed"})) {
    return UsageFor("info", kInfoUsage);
  }
  auto city = LoadOrSynth(args);
  if (!city.ok()) {
    std::fprintf(stderr, "%s\n", city.status().ToString().c_str());
    return 1;
  }
  const synth::City& c = city.value();
  std::printf("zones        : %zu\n", c.zones.size());
  std::printf("population   : %.0f\n", c.TotalPopulation());
  std::printf("road nodes   : %zu (%zu arcs)\n", c.road.num_nodes(),
              c.road.num_arcs());
  std::printf("stops        : %zu\n", c.feed.num_stops());
  std::printf("routes       : %zu\n", c.feed.num_routes());
  std::printf("trips        : %zu\n", c.feed.num_trips());
  for (int cat = 0; cat < synth::kNumPoiCategories; ++cat) {
    auto category = static_cast<synth::PoiCategory>(cat);
    std::printf("%-13s: %zu\n", synth::PoiCategoryName(category),
                c.PoisOf(category).size());
  }
  return 0;
}

int RunQuery(const Args& args) {
  if (!CheckFlags(args, "query",
                  {"city-dir", "synth", "scale", "seed", "poi", "interval",
                   "beta", "model", "cost", "exact", "label-seed",
                   "zones-out", "geojson", "report", "batch",
                   "batch-seeds"})) {
    return UsageFor("query", kQueryUsage);
  }
  auto city = LoadOrSynth(args);
  if (!city.ok()) {
    std::fprintf(stderr, "%s\n", city.status().ToString().c_str());
    return 1;
  }
  auto category = synth::PoiCategoryFromName(args.Get("poi", "school"));
  auto interval = IntervalFor(args.Get("interval", "am"));
  auto model = ml::ModelKindFromName(args.Get("model", "MLP"));
  if (!category.ok() || !interval.ok() || !model.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!category.ok()   ? category.status()
                  : !interval.ok() ? interval.status()
                                   : model.status())
                     .ToString()
                     .c_str());
    return 1;
  }

  serve::AqServer server(std::move(city).value(), interval.value());
  serve::AqRequest request;
  request.category = category.value();
  core::AccessQueryOptions& options = request.options;
  options.exact = args.Has("exact");
  options.beta = args.GetDouble("beta", 0.05);
  options.model = model.value();
  options.seed = static_cast<uint64_t>(args.GetInt("label-seed", 1));
  std::string cost = args.Get("cost", "jt");
  if (cost == "gac") {
    options.cost = core::CostKind::kGeneralizedCost;
  } else if (cost != "jt") {
    std::fprintf(stderr, "unknown cost: %s\n", cost.c_str());
    return 1;
  }

  if (args.Has("batch")) {
    // One columnar labeling pass per seed answers the whole jt+gac sweep
    // (journeys do not depend on the cost definition); the per-row SPQ
    // column shows the shared pass every single query would pay in full.
    if (!options.exact) {
      std::fprintf(stderr,
                   "query --batch requires --exact: SSR members train "
                   "per-member models and share no labeling pass\n");
      return 1;
    }
    if (args.Has("zones-out") || args.Has("geojson") || args.Has("report")) {
      std::fprintf(stderr,
                   "query --batch: --zones-out/--geojson/--report export a "
                   "single result; drop --batch to use them\n");
      return 1;
    }
    int batch_seeds = args.GetInt("batch-seeds", 2);
    if (batch_seeds < 1) batch_seeds = 1;
    serve::AqBatchRequest batch;
    batch.request = request;
    for (int i = 0; i < batch_seeds; ++i) {
      batch.seeds.push_back(options.seed + static_cast<uint64_t>(i));
    }
    batch.cost_members.push_back({core::CostKind::kJourneyTime, {}});
    batch.cost_members.push_back(
        {core::CostKind::kGeneralizedCost, options.gac});
    auto answers = server.QueryBatch(batch);
    for (const auto& answer : answers) {
      if (!answer.ok()) {
        std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
        return 1;
      }
    }
    std::printf("poi=%s interval=%s (exact batch: %d seed%s x jt,gac)\n",
                synth::PoiCategoryName(category.value()),
                interval.value().label.c_str(), batch_seeds,
                batch_seeds == 1 ? "" : "s");
    std::printf("%-6s %-5s %10s %10s %8s %10s\n", "seed", "cost", "MAC(min)",
                "ACSD(min)", "Jain", "SPQs");
    size_t i = 0;
    for (uint64_t seed : batch.seeds) {
      for (const core::CostMember& member : batch.cost_members) {
        const core::AccessQueryResult& row = answers[i++].value();
        std::printf("%-6llu %-5s %10.1f %10.1f %8.3f %10llu\n",
                    static_cast<unsigned long long>(seed),
                    member.cost == core::CostKind::kJourneyTime ? "jt" : "gac",
                    row.mean_mac / 60, row.mean_acsd / 60, row.fairness,
                    static_cast<unsigned long long>(row.spqs));
      }
    }
    return 0;
  }

  auto result = server.Query(request);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const core::AccessQueryResult& r = result.value();
  std::printf("poi=%s interval=%s cost=%s %s\n",
              synth::PoiCategoryName(category.value()),
              interval.value().label.c_str(), cost.c_str(),
              options.exact
                  ? "(exact)"
                  : util::Format("(SSR beta=%.0f%% model=%s)",
                                 options.beta * 100,
                                 ml::ModelKindName(options.model))
                        .c_str());
  std::printf("mean MAC          : %.1f min\n", r.mean_mac / 60);
  std::printf("mean ACSD         : %.1f min\n", r.mean_acsd / 60);
  std::printf("fairness (Jain)   : %.3f\n", r.fairness);
  std::printf("pop fairness      : %.3f\n", r.population_fairness);
  std::printf("vulnerable        : %.3f\n", r.vulnerable_fairness);
  std::printf("SPQs / M_g trips  : %llu / %llu\n",
              static_cast<unsigned long long>(r.spqs),
              static_cast<unsigned long long>(r.gravity_trips));
  std::printf("answered in       : %.2f s\n", r.elapsed_s);

  if (args.Has("geojson")) {
    std::string path = args.Get("geojson", "access.geojson");
    auto pois = server.base_city().PoisOf(category.value());
    if (auto st = core::ExportAccessGeoJson(server.base_city(), CliProjection(),
                                            r, pois, path);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("GeoJSON           : %s\n", path.c_str());
  }

  if (args.Has("report")) {
    std::string path = args.Get("report", "access_report.md");
    std::string title = util::Format(
        "Access to %s (%s)", synth::PoiCategoryName(category.value()),
        interval.value().label.c_str());
    if (auto st = core::WriteAccessReport(server.base_city(), r, title, path);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("report            : %s\n", path.c_str());
  }

  if (args.Has("zones-out")) {
    util::CsvTable table({"zone", "mac_s", "acsd_s", "class"});
    for (size_t z = 0; z < r.mac.size(); ++z) {
      (void)table.AddRow(
          {util::CsvTable::Num(static_cast<int64_t>(z)),
           util::CsvTable::Num(r.mac[z], 1), util::CsvTable::Num(r.acsd[z], 1),
           core::AccessClassName(static_cast<core::AccessClass>(r.classes[z]))});
    }
    std::string path = args.Get("zones-out", "zones_out.csv");
    if (auto st = table.WriteFile(path); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("per-zone CSV      : %s\n", path.c_str());
  }
  return 0;
}

int RunSnapshotSave(const Args& args) {
  if (!CheckFlags(args, "snapshot save",
                  {"city-dir", "synth", "scale", "seed", "interval", "poi",
                   "cost", "label-seed", "out"})) {
    return UsageFor("snapshot save", kSnapshotUsage);
  }
  if (!args.Has("out")) {
    std::fprintf(stderr, "snapshot save: --out FILE is required\n");
    return UsageFor("snapshot save", kSnapshotUsage);
  }
  auto city = LoadOrSynth(args);
  auto interval = IntervalFor(args.Get("interval", "am"));
  if (!city.ok() || !interval.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!city.ok() ? city.status() : interval.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  serve::AqServer server(std::move(city).value(), interval.value());

  // Optionally materialise one exact label state so the snapshot carries a
  // warm labeling (the expensive part a warm start wants to skip): an exact
  // query builds it as the server builds every state.
  if (args.Has("poi")) {
    auto category = synth::PoiCategoryFromName(args.Get("poi", "school"));
    if (!category.ok()) {
      std::fprintf(stderr, "%s\n", category.status().ToString().c_str());
      return 1;
    }
    serve::AqRequest request;
    request.category = category.value();
    request.options.exact = true;
    request.options.seed = static_cast<uint64_t>(args.GetInt("label-seed", 1));
    std::string cost = args.Get("cost", "jt");
    if (cost == "gac") {
      request.options.cost = core::CostKind::kGeneralizedCost;
    } else if (cost != "jt") {
      std::fprintf(stderr, "unknown cost: %s\n", cost.c_str());
      return 1;
    }
    if (auto answer = server.Query(request); !answer.ok()) {
      std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
      return 1;
    }
  }

  std::string out = args.Get("out", "");
  if (auto st = server.ExportSnapshot(out); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto info = store::InspectSnapshot(out);
  if (!info.ok()) {
    std::fprintf(stderr, "wrote %s but it does not read back: %s\n",
                 out.c_str(), info.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %llu bytes, %zu sections, %llu label states\n",
              out.c_str(),
              static_cast<unsigned long long>(info.value().file_size),
              info.value().sections.size(),
              static_cast<unsigned long long>(info.value().num_label_states));
  return 0;
}

int RunSnapshotLoad(const Args& args) {
  if (!CheckFlags(args, "snapshot load", {"in"})) {
    return UsageFor("snapshot load", kSnapshotUsage);
  }
  if (!args.Has("in")) {
    std::fprintf(stderr, "snapshot load: --in FILE is required\n");
    return UsageFor("snapshot load", kSnapshotUsage);
  }
  auto restored = store::LoadSnapshot(args.Get("in", ""));
  if (!restored.ok()) {
    std::fprintf(stderr, "%s\n", restored.status().ToString().c_str());
    return 1;
  }
  // Stand the serving state up for real — the point of `load` is proving
  // the file warm-starts, not just that it parses. The store's loop labels
  // serially over the restored network, as the store derives it.
  uint64_t source_epoch = restored.value().source_epoch;
  serve::SerialZoneLoop loop;
  serve::ScenarioStore store(std::move(restored).value(), loop);
  auto scenario = store.Acquire();
  std::printf("loaded %s\n", args.Get("in", "").c_str());
  std::printf("city          : %s\n",
              scenario->base_city().spec.name.c_str());
  std::printf("zones         : %zu\n", scenario->base_city().zones.size());
  std::printf("interval      : %s\n", scenario->interval().label.c_str());
  std::printf("POIs          : %zu\n", scenario->pois().size());
  std::printf("label states  : %zu\n", scenario->MaterializedStates().size());
  std::printf("source epoch  : %llu (republished as 0)\n",
              static_cast<unsigned long long>(source_epoch));
  return 0;
}

int RunSnapshotInspect(const Args& args) {
  if (!CheckFlags(args, "snapshot inspect", {"in"})) {
    return UsageFor("snapshot inspect", kSnapshotUsage);
  }
  if (!args.Has("in")) {
    std::fprintf(stderr, "snapshot inspect: --in FILE is required\n");
    return UsageFor("snapshot inspect", kSnapshotUsage);
  }
  auto info = store::InspectSnapshot(args.Get("in", ""));
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  const store::SnapshotInfo& i = info.value();
  std::printf("format        : v%u, %llu bytes\n", i.format_version,
              static_cast<unsigned long long>(i.file_size));
  std::printf("city          : %s (epoch %llu, next POI id %u)\n",
              i.city_name.c_str(),
              static_cast<unsigned long long>(i.source_epoch), i.next_poi_id);
  std::printf("interval      : %s\n", i.interval_label.c_str());
  std::printf("zones/POIs    : %llu / %llu\n",
              static_cast<unsigned long long>(i.num_zones),
              static_cast<unsigned long long>(i.num_pois));
  std::printf("feed          : %llu stops, %llu trips, %llu stop_times\n",
              static_cast<unsigned long long>(i.num_stops),
              static_cast<unsigned long long>(i.num_trips),
              static_cast<unsigned long long>(i.num_stop_times));
  std::printf("label states  : %llu\n",
              static_cast<unsigned long long>(i.num_label_states));
  std::printf("%-20s %-8s %10s %10s %8s\n", "section", "encoding", "bytes",
              "elements", "blocks");
  for (const store::SectionEntry& s : i.sections) {
    std::printf("%-20s %-8s %10llu %10llu %8zu\n", s.name.c_str(),
                store::SectionEncodingName(s.encoding),
                static_cast<unsigned long long>(s.size),
                static_cast<unsigned long long>(s.element_count),
                s.block_checksums.size());
  }
  return 0;
}

int RunSnapshotVerify(const Args& args) {
  if (!CheckFlags(args, "snapshot verify", {"in"})) {
    return UsageFor("snapshot verify", kSnapshotUsage);
  }
  if (!args.Has("in")) {
    std::fprintf(stderr, "snapshot verify: --in FILE is required\n");
    return UsageFor("snapshot verify", kSnapshotUsage);
  }
  std::string path = args.Get("in", "");
  if (auto st = store::VerifySnapshot(path); !st.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
    return 1;
  }
  std::printf("%s: OK (all block checksums verified)\n", path.c_str());
  return 0;
}

int RunSnapshot(int argc, char** argv, const Args& args) {
  if (argc < 3) return UsageFor("snapshot", kSnapshotUsage);
  std::string verb = argv[2];
  if (!CheckCommand("snapshot", verb, {"save", "load", "inspect", "verify"})) {
    return UsageFor("snapshot", kSnapshotUsage);
  }
  if (verb == "save") return RunSnapshotSave(args);
  if (verb == "load") return RunSnapshotLoad(args);
  if (verb == "inspect") return RunSnapshotInspect(args);
  return RunSnapshotVerify(args);
}

int RunWalInspect(const Args& args) {
  if (!CheckFlags(args, "wal inspect", {"dir", "records"})) {
    return UsageFor("wal inspect", kWalUsage);
  }
  if (!args.Has("dir")) {
    std::fprintf(stderr, "wal inspect: --dir DIR is required\n");
    return UsageFor("wal inspect", kWalUsage);
  }
  std::string dir = args.Get("dir", "");
  auto contents = wal::ReadLog(dir);
  if (!contents.ok()) {
    std::fprintf(stderr, "%s: %s\n", dir.c_str(),
                 contents.status().ToString().c_str());
    return 1;
  }
  const wal::WalContents& log = contents.value();
  std::printf("segments      : %zu\n", log.segments.size());
  std::printf("records       : %zu\n", log.records.size());
  if (!log.records.empty()) {
    std::printf("sequences     : %llu .. %llu\n",
                static_cast<unsigned long long>(log.records.front().sequence),
                static_cast<unsigned long long>(log.records.back().sequence));
  }
  std::printf("%-32s %20s %10s %12s\n", "segment", "start_seq", "records",
              "bytes");
  for (const wal::WalSegmentInfo& s : log.segments) {
    std::printf("%-32s %20llu %10llu %12llu\n", s.path.c_str(),
                static_cast<unsigned long long>(s.start_sequence),
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.bytes));
  }
  if (log.torn_tail) {
    std::printf("torn tail     : %s at byte %llu (Open() will truncate)\n",
                log.torn_path.c_str(),
                static_cast<unsigned long long>(log.torn_offset));
  }
  if (args.Has("records")) {
    for (const wal::MutationRecord& record : log.records) {
      std::printf("%s\n", record.ToString().c_str());
    }
  }
  return 0;
}

int RunWalVerify(const Args& args) {
  if (!CheckFlags(args, "wal verify", {"dir"})) {
    return UsageFor("wal verify", kWalUsage);
  }
  if (!args.Has("dir")) {
    std::fprintf(stderr, "wal verify: --dir DIR is required\n");
    return UsageFor("wal verify", kWalUsage);
  }
  std::string dir = args.Get("dir", "");
  if (auto st = wal::VerifyLog(dir); !st.ok()) {
    std::fprintf(stderr, "%s: %s\n", dir.c_str(), st.ToString().c_str());
    return 1;
  }
  std::printf("%s: OK (checksums valid, sequence chain gap-free)\n",
              dir.c_str());
  return 0;
}

int RunWal(int argc, char** argv, const Args& args) {
  if (argc < 3) return UsageFor("wal", kWalUsage);
  std::string verb = argv[2];
  if (!CheckCommand("wal", verb, {"inspect", "verify"})) {
    return UsageFor("wal", kWalUsage);
  }
  if (verb == "inspect") return RunWalInspect(args);
  return RunWalVerify(args);
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "short write: %s\n", path.c_str());
  return ok;
}

std::string BaselinePath(const std::string& dir, const std::string& bench) {
  return dir + "/BENCH_" + bench + ".json";
}

int RunBenchList(const Args& args) {
  if (!CheckFlags(args, "bench list", {"baselines"})) {
    return UsageFor("bench list", kBenchUsage);
  }
  std::string dir = args.Get("baselines", "bench/baselines");
  // Policy coverage is advisory here: an unreadable policy file just means
  // every bench shows "-" in the rules column.
  std::map<std::string, size_t> rule_counts;
  if (auto policy = exp::TolerancePolicy::Load(dir + "/policy.rules");
      policy.ok()) {
    for (const exp::BenchPolicy& b : policy.value().benches()) {
      rule_counts[b.bench] = b.rules.size();
    }
  }
  std::printf("%-10s %-6s %-9s %-6s %s\n", "bench", "kind", "baseline",
              "rules", "title");
  for (const bench::BenchInfo& info : bench::BenchTable()) {
    std::error_code ec;
    bool has_baseline =
        std::filesystem::exists(BaselinePath(dir, info.name), ec);
    auto it = rule_counts.find(info.name);
    std::string rules =
        it == rule_counts.end() ? "-" : std::to_string(it->second);
    std::printf("%-10s %-6s %-9s %-6s %s\n", info.name, info.kind,
                has_baseline ? "yes" : "-", rules.c_str(), info.title);
  }
  return 0;
}

int RunBenchRun(const Args& args) {
  if (!CheckFlags(args, "bench run",
                  {"config", "out", "state", "no-resume", "max-executed",
                   "quiet"})) {
    return UsageFor("bench run", kBenchUsage);
  }
  if (!args.Has("config") || !args.Has("out")) {
    std::fprintf(stderr, "bench run: --config FILE and --out DIR are "
                         "required\n");
    return UsageFor("bench run", kBenchUsage);
  }
  auto config = exp::ExperimentConfig::Load(args.Get("config", ""));
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  std::string out = args.Get("out", "");
  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out.c_str(),
                 ec.message().c_str());
    return 1;
  }
  // Benches write their BENCH_<name>.json into STAQ_BENCH_OUT; pointing it
  // at the run directory is what makes the output diffable.
  ::setenv("STAQ_BENCH_OUT", out.c_str(), 1);

  exp::RunnerOptions options;
  options.state_dir = args.Get("state", out + "/state");
  options.resume = !args.Has("no-resume");
  options.max_executed =
      static_cast<size_t>(std::max(0, args.GetInt("max-executed", 0)));
  options.verbose = !args.Has("quiet");

  auto report = exp::RunSweep(config.value(), bench::MakeBenchRegistry(),
                              options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  const exp::SweepReport& r = report.value();
  std::printf("sweep %016llx: %zu cells (%zu executed, %zu cached, "
              "%zu failed)\n",
              static_cast<unsigned long long>(
                  exp::ConfigHash(config.value())),
              r.outcomes.size(), r.executed, r.cached, r.failures);
  if (!r.complete) {
    std::printf("interrupted after %zu executed cells; re-run with the same "
                "--state to resume\n", r.executed);
    return 3;
  }
  if (!WriteTextFile(out + "/sweep.json", r.final_json)) return 1;
  if (!WriteTextFile(out + "/tables.txt", r.tables)) return 1;
  if (!args.Has("quiet")) std::printf("%s", r.tables.c_str());
  std::printf("wrote %s/sweep.json and %s/tables.txt\n", out.c_str(),
              out.c_str());
  return r.failures == 0 ? 0 : 1;
}

int RunBenchDiff(const Args& args) {
  if (!CheckFlags(args, "bench diff",
                  {"run", "baselines", "policy", "relax-perf"})) {
    return UsageFor("bench diff", kBenchUsage);
  }
  if (!args.Has("run")) {
    std::fprintf(stderr, "bench diff: --run DIR is required\n");
    return UsageFor("bench diff", kBenchUsage);
  }
  std::string run_dir = args.Get("run", "");
  std::string baselines = args.Get("baselines", "bench/baselines");
  std::string policy_path = args.Get("policy", baselines + "/policy.rules");
  auto policy = exp::TolerancePolicy::Load(policy_path);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }
  exp::DiffOptions options;
  options.relax_perf = args.Has("relax-perf");

  size_t passed = 0, failed = 0, skipped = 0;
  bool ok = true;
  for (const exp::BenchPolicy& bench_policy : policy.value().benches()) {
    const std::string& name = bench_policy.bench;
    std::printf("== bench %s ==\n", name.c_str());
    auto run_doc = exp::LoadFile(BaselinePath(run_dir, name), "run document",
                                 &exp::JsonDoc::Parse);
    auto base_doc = exp::LoadFile(BaselinePath(baselines, name),
                                  "baseline document", &exp::JsonDoc::Parse);
    if (!run_doc.ok() || !base_doc.ok()) {
      std::fprintf(stderr, "  FAIL %s\n",
                   (!run_doc.ok() ? run_doc.status() : base_doc.status())
                       .ToString()
                       .c_str());
      ok = false;
      ++failed;
      continue;
    }
    exp::DiffReport report = exp::DiffDocuments(
        run_doc.value(), base_doc.value(), bench_policy, options);
    std::printf("%s", report.ToString().c_str());
    passed += report.passed;
    failed += report.failed;
    skipped += report.skipped;
    if (!report.ok()) ok = false;
  }

  // Baselines nobody polices are stale weight in the tree — flag them (not
  // fatally; deleting a policy block mid-investigation is legitimate).
  std::error_code ec;
  std::filesystem::directory_iterator it(baselines, ec);
  if (!ec) {
    for (const auto& entry : it) {
      std::string file = entry.path().filename().string();
      if (file.rfind("BENCH_", 0) != 0 || file.size() <= 11 ||
          file.substr(file.size() - 5) != ".json") {
        continue;
      }
      std::string name = file.substr(6, file.size() - 11);
      if (policy.value().Find(name) == nullptr) {
        std::printf("note: baseline %s has no policy block\n", file.c_str());
      }
    }
  }

  std::printf("%s: %zu passed, %zu failed, %zu skipped\n",
              ok ? "PASS" : "FAIL", passed, failed, skipped);
  return ok ? 0 : 1;
}

int RunScenarioList(const Args& args) {
  if (!CheckFlags(args, "scenario list", {"pack"})) {
    return UsageFor("scenario list", kScenarioUsage);
  }
  if (!args.Has("pack")) {
    std::fprintf(stderr, "scenario list: --pack FILE is required\n");
    return UsageFor("scenario list", kScenarioUsage);
  }
  auto pack = scenario::ScenarioPack::Load(args.Get("pack", ""));
  if (!pack.ok()) {
    std::fprintf(stderr, "%s\n", pack.status().ToString().c_str());
    return 1;
  }
  std::printf("%-24s %s\n", "scenario", "disruptions");
  for (const scenario::PackScenario& s : pack.value().scenarios) {
    std::string specs;
    for (const scenario::Disruption& d : s.disruptions) {
      if (!specs.empty()) specs += ", ";
      specs += d.spec;
    }
    std::printf("%-24s %s\n", s.name.c_str(), specs.c_str());
  }
  return 0;
}

int RunScenarioRun(const Args& args) {
  if (!CheckFlags(args, "scenario run",
                  {"pack", "city-dir", "synth", "scale", "seed", "name",
                   "poi", "interval", "cost", "threads", "out"})) {
    return UsageFor("scenario run", kScenarioUsage);
  }
  if (!args.Has("pack")) {
    std::fprintf(stderr, "scenario run: --pack FILE is required\n");
    return UsageFor("scenario run", kScenarioUsage);
  }
  auto pack = scenario::ScenarioPack::Load(args.Get("pack", ""));
  auto category = synth::PoiCategoryFromName(args.Get("poi", "school"));
  auto interval = IntervalFor(args.Get("interval", "am"));
  if (!pack.ok() || !category.ok() || !interval.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!pack.ok()       ? pack.status()
                  : !category.ok() ? category.status()
                                   : interval.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  // --name restricts the run to one scenario of the pack.
  scenario::ScenarioPack selected = std::move(pack).value();
  if (args.Has("name")) {
    const scenario::PackScenario* found =
        selected.Find(args.Get("name", ""));
    if (found == nullptr) {
      std::fprintf(stderr, "scenario run: no scenario '%s' in pack\n",
                   args.Get("name", "").c_str());
      return 1;
    }
    selected.scenarios = {*found};
  }

  scenario::RunOptions options;
  options.interval = interval.value();
  options.category = category.value();
  options.server.num_threads =
      static_cast<size_t>(std::max(0, args.GetInt("threads", 1)));
  std::string cost = args.Get("cost", "jt");
  if (cost == "gac") {
    options.cost = core::CostKind::kGeneralizedCost;
  } else if (cost != "jt") {
    std::fprintf(stderr, "unknown cost: %s\n", cost.c_str());
    return 1;
  }

  auto reports = scenario::RunPack([&args] { return LoadOrSynth(args); },
                                   selected, options);
  if (!reports.ok()) {
    std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
    return 1;
  }
  for (const scenario::EquityReport& report : reports.value()) {
    std::printf("%s", scenario::FormatEquityReport(report).c_str());
  }
  if (args.Has("out")) {
    std::string out = args.Get("out", "");
    if (auto st = scenario::WriteReports(reports.value(), out); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu reports to %s\n", reports.value().size(),
                out.c_str());
  }
  return 0;
}

int RunScenarioReport(const Args& args) {
  if (!CheckFlags(args, "scenario report", {"in"})) {
    return UsageFor("scenario report", kScenarioUsage);
  }
  if (!args.Has("in")) {
    std::fprintf(stderr, "scenario report: --in FILE is required\n");
    return UsageFor("scenario report", kScenarioUsage);
  }
  auto report = exp::LoadFile(args.Get("in", ""), "report",
                              &scenario::ParseEquityReportJson);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", scenario::FormatEquityReport(report.value()).c_str());
  return 0;
}

int RunScenario(int argc, char** argv, const Args& args) {
  if (argc < 3) return UsageFor("scenario", kScenarioUsage);
  std::string verb = argv[2];
  if (!CheckCommand("scenario", verb, {"list", "run", "report"})) {
    return UsageFor("scenario", kScenarioUsage);
  }
  if (verb == "list") return RunScenarioList(args);
  if (verb == "run") return RunScenarioRun(args);
  return RunScenarioReport(args);
}

int RunBench(int argc, char** argv, const Args& args) {
  if (argc < 3) return UsageFor("bench", kBenchUsage);
  std::string verb = argv[2];
  if (!CheckCommand("bench", verb, {"list", "run", "diff"})) {
    return UsageFor("bench", kBenchUsage);
  }
  if (verb == "list") return RunBenchList(args);
  if (verb == "run") return RunBenchRun(args);
  return RunBenchDiff(args);
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (!CheckCommand("", command, {"synth", "info", "query", "snapshot",
                                  "wal", "bench", "scenario"})) {
    return Usage();
  }
  Args args(argc, argv);
  if (command == "synth") return RunSynth(args);
  if (command == "info") return RunInfo(args);
  if (command == "query") return RunQuery(args);
  if (command == "snapshot") return RunSnapshot(argc, argv, args);
  if (command == "wal") return RunWal(argc, argv, args);
  if (command == "scenario") return RunScenario(argc, argv, args);
  return RunBench(argc, argv, args);
}

}  // namespace
}  // namespace staq

int main(int argc, char** argv) { return staq::Main(argc, argv); }
