// edit_replicate — a planner's edits beside routed reads over loopback TCP.
//
// One client thread drives one net::QueryRouter with three connections: a
// primary AqServer logging every mutation to a fsync-per-append
// wal::MutationWal, and two net::Replicas that bootstrap from a warm
// snapshot (the primary answers the read mix once, then exports) and tail
// the WAL. Each cycle routes one `school` POI add or remove at a seeded
// position to the primary (timed until the durable ack), then reads the
// read mix — JT for each of the 4 categories plus 4 GAC members on the
// three categories that are not edited — through the router, which raises
// its read-your-writes floor to the edit's sequence. Only the school JT
// state is patched per edit: a patch relabels about half the zones, so
// each extra school state would add a full ~130 ms relabel to every edit
// on the primary and on both replicas. At a fixed edit count one replica
// is stopped, restarted from the same snapshot and caught up from the WAL,
// so the replay length is the same in every run. This phase covers net,
// wal, store, the replica tail and serve patching, which the whatif_cold
// phase never touches.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "common.h"
#include "net/replica.h"
#include "net/router.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "util/stopwatch.h"
#include "wal/wal.h"
#include "workloads.h"

namespace staqbench {
namespace {

namespace fs = std::filesystem;

constexpr int kReplicas = 2;
/// POIs the plan keeps added at most; removals only take back added POIs,
/// so the scenario never drifts far from the base city.
constexpr size_t kMaxLiveAdds = 6;
/// A phase of s seconds makes this many edits per second of budget (a
/// cycle with its replica catch-up takes about 0.2 s); 15 s gives 60
/// edits and 480 reads.
constexpr double kEditsPerSecond = 4.0;
/// One replica recovers after this edit and so always replays this many
/// WAL records. Replay cost depends on where the seeded edits landed, so
/// a longer replay averages that out: at 24 records recover_s varies far
/// less between seeds than at 8.
constexpr size_t kRecoverAtEdit = 24;
/// GAC members of the read mix: (category, index into SweepMembers()).
constexpr std::pair<synth::PoiCategory, size_t> kReadGac[] = {
    {synth::PoiCategory::kHospital, 3},
    {synth::PoiCategory::kVaxCenter, 7},
    {synth::PoiCategory::kJobCenter, 10},
    {synth::PoiCategory::kHospital, 14}};
constexpr size_t kUncachedRechecks = 2;
/// Closure: p50 read overhead + p50 server execution must land within
/// this share of the p50 routed read.
constexpr double kClosureTolerance = 0.2;

struct EditOp {
  bool add = true;
  geo::Point position;     // add
  size_t remove_slot = 0;  // remove: index into the live added POIs
};

std::vector<EditOp> MakePlan(Rng* rng, const geo::BBox& extent,
                             size_t count) {
  std::vector<EditOp> plan;
  size_t live = 0;
  for (size_t i = 0; i < count; ++i) {
    EditOp op;
    op.add = live == 0 || (live < kMaxLiveAdds && rng->Uniform() < 0.5);
    if (op.add) {
      op.position =
          geo::Point{extent.min_x + rng->Uniform() * (extent.max_x -
                                                      extent.min_x),
                     extent.min_y + rng->Uniform() * (extent.max_y -
                                                      extent.min_y)};
      ++live;
    } else {
      op.remove_slot = rng->Below(live);
      --live;
    }
    plan.push_back(op);
  }
  return plan;
}

std::vector<serve::AqRequest> ReadMix(const core::GravityConfig& gravity,
                                      uint64_t seed) {
  serve::AqRequest request;
  request.options.exact = true;
  request.options.gravity = gravity;
  request.options.seed = seed;
  std::vector<serve::AqRequest> mix;
  for (synth::PoiCategory category : Categories()) {
    request.category = category;
    mix.push_back(request);
  }
  const std::vector<core::CostMember> members = SweepMembers();
  for (const auto& [category, member] : kReadGac) {
    request.category = category;
    request.options.cost = members[member].cost;
    request.options.gac = members[member].gac;
    mix.push_back(request);
  }
  return mix;
}

/// Primary + WAL + TCP front end + replicas + router. Members are declared
/// in dependency order so destruction runs router -> replicas -> TCP ->
/// primary -> WAL: the WAL must outlive the primary that logs to it.
struct Topology {
  std::string dir, wal_dir, snapshot_path;
  std::unique_ptr<wal::MutationWal> wal;
  std::unique_ptr<serve::AqServer> primary;
  std::unique_ptr<net::AqTcpServer> primary_tcp;
  std::vector<std::unique_ptr<net::Replica>> replicas;
  std::unique_ptr<net::QueryRouter> router;

  double seconds = 0.0;
  double build_city_ms = 0.0;
  double snapshot_save_ms = 0.0;
  uint64_t snapshot_bytes = 0;
  std::vector<double> bootstrap_ms;
};

[[noreturn]] void Fatal(const std::string& what, const util::Status& status) {
  std::fprintf(stderr, "edit_replicate: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

util::Result<std::unique_ptr<net::Replica>> StartReplica(
    const Topology& topo, uint16_t port) {
  net::Replica::Options options;
  options.snapshot_path = topo.snapshot_path;
  options.wal_dir = topo.wal_dir;
  options.tcp.port = port;
  return net::Replica::Start(topo.primary->base_city(),
                             topo.primary->Snapshot()->interval(), options);
}

std::unique_ptr<Topology> SetUp(const std::string& dir,
                                const std::vector<serve::AqRequest>& mix,
                                const net::ShardKey& key,
                                const gtfs::TimeInterval& interval) {
  auto topo = std::make_unique<Topology>();
  topo->dir = dir;
  topo->wal_dir = dir + "/wal";
  topo->snapshot_path = dir + "/warm.staq";
  fs::remove_all(dir);
  fs::create_directories(dir);

  util::Stopwatch watch;
  synth::City city = BuildBenchCity();
  topo->build_city_ms = watch.ElapsedMillis();
  auto wal = wal::MutationWal::Open(topo->wal_dir);
  if (!wal.ok()) Fatal("wal open", wal.status());
  topo->wal = std::move(wal).value();
  topo->primary = std::make_unique<serve::AqServer>(
      std::move(city), interval, serve::AqServer::Options());
  if (auto s = topo->primary->AttachWal(topo->wal.get()); !s.ok()) {
    Fatal("attach wal", s);
  }
  topo->primary_tcp = std::make_unique<net::AqTcpServer>(
      topo->primary.get(), net::AqTcpServer::Options());
  if (auto s = topo->primary_tcp->Start(); !s.ok()) Fatal("primary tcp", s);

  // The primary answers the read mix once, so the snapshot is warm.
  std::vector<serve::AqTicket> tickets;
  for (const serve::AqRequest& request : mix) {
    tickets.push_back(topo->primary->Submit(request));
  }
  for (serve::AqTicket& ticket : tickets) {
    auto result = ticket.Get();
    if (!result.ok()) Fatal("warm read", result.status());
  }
  util::Stopwatch save_watch;
  if (auto s = topo->primary->ExportSnapshot(topo->snapshot_path); !s.ok()) {
    Fatal("snapshot export", s);
  }
  topo->snapshot_save_ms = save_watch.ElapsedMillis();
  topo->snapshot_bytes = fs::file_size(topo->snapshot_path);

  for (int r = 0; r < kReplicas; ++r) {
    util::Stopwatch boot_watch;
    auto replica = StartReplica(*topo, 0);
    if (!replica.ok()) Fatal("replica start", replica.status());
    topo->replicas.push_back(std::move(replica).value());
    topo->bootstrap_ms.push_back(boot_watch.ElapsedMillis());
  }

  std::vector<net::Backend> backends{
      net::Backend{"127.0.0.1", topo->primary_tcp->port()}};
  for (const auto& replica : topo->replicas) {
    backends.push_back(net::Backend{"127.0.0.1", replica->port()});
  }
  net::QueryRouter::Options router_options;
  router_options.max_attempts = static_cast<int>(backends.size());
  topo->router = std::make_unique<net::QueryRouter>(
      std::vector<std::vector<net::Backend>>{backends}, router_options);
  // One routed pass dials all three connections.
  for (const serve::AqRequest& request : mix) {
    auto routed = topo->router->Query(key, request);
    if (!routed.ok()) Fatal("warm routed read", routed.status());
  }
  topo->seconds = watch.ElapsedSeconds();
  return topo;
}

struct Samples {
  std::vector<double> edit_ms, read_ms;
  std::vector<double> patch_ms, zones_relabeled, patch_spqs;
  double recover_s = 0.0, catchup_ms = 0.0;
  std::vector<double> reply_bytes;
  uint64_t attempted = 0, failed = 0;
};

/// Runs plan[begin, end): each cycle one routed edit, then the read mix.
/// `live` holds the ids of POIs the plan added and has not removed yet.
void RunCycles(Topology* topo, const std::vector<EditOp>& plan, size_t begin,
               size_t end, bool recover,
               const std::vector<serve::AqRequest>& mix,
               const net::ShardKey& key, std::vector<uint32_t>* live,
               const std::vector<size_t>& recheck_at, Rng* rng,
               Tracer::Buffer* buffer, Samples* samples, Report* report) {
  std::vector<std::pair<std::shared_ptr<const serve::Scenario>,
                        std::pair<size_t, core::AccessQueryResult>>>
      retained;
  std::vector<core::AccessQueryResult> answers(mix.size());
  for (size_t e = begin; e < end; ++e) {
    const EditOp& op = plan[e];
    const uint64_t request = e + 1;
    const auto t0 = SteadyClock::now();
    util::Result<net::MutateResultMsg> mutated =
        op.add || live->empty()
            ? topo->router->AddPoi(key, synth::PoiCategory::kSchool,
                                   op.position)
            : topo->router->RemovePoi(
                  key, (*live)[op.remove_slot % live->size()]);
    const auto t1 = SteadyClock::now();
    ++samples->attempted;
    if (!mutated.ok()) {
      ++samples->failed;
      std::fprintf(stderr, "edit %zu failed: %s\n", e,
                   mutated.status().ToString().c_str());
      continue;
    }
    if (op.add || live->empty()) {
      live->push_back(mutated.value().report.poi_id);
    } else {
      live->erase(live->begin() +
                  static_cast<std::ptrdiff_t>(op.remove_slot % live->size()));
    }
    const uint64_t floor = mutated.value().sequence;
    const auto& mutation = mutated.value().report;
    samples->edit_ms.push_back(MillisBetween(t0, t1));
    samples->patch_ms.push_back(mutation.seconds * 1e3);
    samples->zones_relabeled.push_back(mutation.zones_relabeled);
    samples->patch_spqs.push_back(static_cast<double>(mutation.spqs));
    if (buffer != nullptr) {
      const uint64_t root = buffer->Record("net.edit", request, 0, t0, t1);
      buffer->Record("serve.mutation", request, root,
                     t1 - FromMillis(mutation.seconds * 1e3), t1);
    }

    if (recover && e + 1 == kRecoverAtEdit) {
      // Stop replica 1, restart it on the same port from the same
      // snapshot, and wait until it has replayed the WAL up to `floor`.
      const uint16_t port = topo->replicas[1]->port();
      const auto stop = SteadyClock::now();
      topo->replicas[1]->Stop();
      topo->replicas[1].reset();
      const auto restart = SteadyClock::now();
      auto replica = StartReplica(*topo, port);
      if (!replica.ok()) Fatal("replica restart", replica.status());
      topo->replicas[1] = std::move(replica).value();
      if (auto s = topo->replicas[1]->CatchUp(floor, 60.0); !s.ok()) {
        Fatal("replica catch-up", s);
      }
      const auto caught_up = SteadyClock::now();
      samples->recover_s = MillisBetween(stop, caught_up) / 1e3;
      samples->catchup_ms = MillisBetween(restart, caught_up);
    }

    for (size_t k = 0; k < mix.size(); ++k) {
      const auto r0 = SteadyClock::now();
      auto routed = topo->router->Query(key, mix[k]);
      const auto r1 = SteadyClock::now();
      ++samples->attempted;
      if (!routed.ok()) {
        ++samples->failed;
        std::fprintf(stderr, "read failed: %s\n",
                     routed.status().ToString().c_str());
        answers[k] = core::AccessQueryResult();
        continue;
      }
      samples->read_ms.push_back(MillisBetween(r0, r1));
      if (routed.value().sequence < floor) {
        report->Wrong("routed read answered at sequence " +
                      std::to_string(routed.value().sequence) +
                      " below the read-your-writes floor " +
                      std::to_string(floor));
      }
      if (buffer != nullptr) {
        const uint64_t root = buffer->Record("net.read", request, 0, r0, r1);
        buffer->Record("serve.execute", request, root,
                       r1 - FromMillis(routed.value().result.elapsed_s * 1e3),
                       r1);
        // Wire codec cost, timed on a copy of the reply.
        ScopedSpan codec(buffer, "net.codec", request);
        std::vector<uint8_t> bytes;
        net::EncodeQueryResultMsg(routed.value(), &bytes);
        store::ByteReader reader(bytes.data(), bytes.size());
        net::QueryResultMsg decoded;
        if (!net::DecodeQueryResultMsg(&reader, &decoded) ||
            !SameAnswer(decoded.result, routed.value().result)) {
          report->Wrong("reply does not survive a codec round trip");
        }
        samples->reply_bytes.push_back(static_cast<double>(bytes.size()));
      }
      answers[k] = std::move(routed).value().result;
    }

    // Every routed answer must equal the primary's own answer at this
    // sequence (no edit lands between the reads and this check).
    for (size_t k = 0; k < mix.size(); ++k) {
      if (answers[k].mac.empty()) continue;
      auto local = topo->primary->Query(mix[k]);
      if (!local.ok() || !SameAnswer(local.value(), answers[k])) {
        report->Wrong("routed read " + std::to_string(k) + " after edit " +
                      std::to_string(e) + " differs from the primary");
      }
    }
    if (std::find(recheck_at.begin(), recheck_at.end(), e) !=
        recheck_at.end()) {
      const size_t k = rng->Below(mix.size());
      retained.push_back({topo->primary->Snapshot(), {k, answers[k]}});
    }
    // Untimed: both replicas apply this edit before the next one is sent,
    // as between a planner's edits, so the primary's next patch does not
    // race the replicas' patches of this one for cores.
    for (const auto& replica : topo->replicas) {
      if (auto s = replica->CatchUp(floor, 60.0); !s.ok()) {
        Fatal("replica catch-up", s);
      }
    }
  }
  // Outside the timed cycles: re-check retained answers from scratch.
  for (const auto& [scenario, pick] : retained) {
    auto golden = topo->primary->QueryUncachedOn(*scenario, mix[pick.first]);
    if (!golden.ok() || !SameAnswer(golden.value(), pick.second)) {
      report->Wrong("routed read differs from its from-scratch "
                    "recomputation");
    }
  }
}

}  // namespace

PhaseResult RunEditReplicate(const Args& args, Report* report) {
  const core::GravityConfig gravity = BenchGravity();
  Rng rng(args.seed);
  const std::vector<serve::AqRequest> mix = ReadMix(gravity, rng.Next() >> 8);
  const net::ShardKey key{BenchSpec().name, args.interval.label};
  // A traced run fits its untraced and its traced pass into one budget.
  const double pass_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const size_t edits = std::max<size_t>(
      kRecoverAtEdit + 1,
      static_cast<size_t>(std::lround(kEditsPerSecond * pass_s)));
  // The traced run makes a second, untraced-pass-sized round of edits.
  const size_t total = args.trace ? 2 * edits : edits;

  PhaseResult phase;
  std::vector<double> setup_s;
  std::unique_ptr<Topology> topo;
  for (int r = 0; r < kSetupRepeats; ++r) {
    topo.reset();  // tear the previous set-up down first
    topo = SetUp(args.work_dir + "/edit-" + std::to_string(r), mix, key,
                 args.interval);
    setup_s.push_back(topo->seconds);
  }
  phase.setup_s = Quantile(setup_s, 0.5);
  const std::vector<EditOp> plan =
      MakePlan(&rng, topo->primary->base_city().extent, total);
  std::vector<size_t> recheck_at;
  for (size_t k = 0; k < kUncachedRechecks; ++k) {
    recheck_at.push_back(rng.Below(edits));
  }
  std::fprintf(stderr,
               "edit_replicate: %zu edits x %zu reads, primary + %d replicas "
               "over loopback\n",
               edits, mix.size(), kReplicas);

  std::vector<uint32_t> live;
  Samples pass;
  RunCycles(topo.get(), plan, 0, edits, /*recover=*/true, mix, key, &live,
            recheck_at, &rng, nullptr, &pass, report);
  report->attempted += pass.attempted;
  report->failed += pass.failed;

  if (!args.trace) {
    phase.metrics["edit_p50_ms"] = Quantile(pass.edit_ms, 0.5);
    phase.metrics["edit_p90_ms"] = Quantile(pass.edit_ms, 0.9);
    // The read tail is printed, not reported: it is set by reads that wait
    // for a core while both replicas patch the last edit, and between seeds
    // p90 swung 0.29-0.95 ms and p99 0.9-14 ms.
    phase.metrics["read_p50_ms"] = Quantile(pass.read_ms, 0.5);
    phase.metrics["recover_s"] = pass.recover_s;
    std::fprintf(stderr,
                 "samples: edit %zu, read %zu; read p90 %.3f p99 %.3f ms\n",
                 pass.edit_ms.size(), pass.read_ms.size(),
                 Quantile(pass.read_ms, 0.9), Quantile(pass.read_ms, 0.99));
  } else {
    Tracer tracer(true);
    Tracer::Buffer* buffer = tracer.NewBuffer();
    const wal::WalStats wal_before = topo->wal->stats();
    Samples traced;
    RunCycles(topo.get(), plan, edits, total, /*recover=*/false, mix, key,
              &live, {}, &rng, buffer, &traced, report);
    const wal::WalStats wal_after = topo->wal->stats();
    report->attempted += traced.attempted;
    report->failed += traced.failed;

    util::Stopwatch load_watch;
    auto loaded = store::LoadSnapshot(topo->snapshot_path);
    const double load_ms = load_watch.ElapsedMillis();
    if (!loaded.ok()) Fatal("snapshot load", loaded.status());

    const auto self = tracer.SelfTimesMs();
    const auto durations = tracer.DurationsMs();
    auto self_q = [&](const char* name, double q) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : Quantile(it->second, q);
    };
    auto duration_q = [&](const char* name, double q) {
      auto it = durations.find(name);
      return it == durations.end() ? 0.0 : Quantile(it->second, q);
    };
    const double edits_traced = static_cast<double>(traced.edit_ms.size());
    std::map<std::string, double>& layers = phase.metrics;
    layers["synth.build_city_ms"] = topo->build_city_ms;
    if (topo->primary->router_options().connections != nullptr) {
      layers["router.connections_build_ms"] =
          topo->primary->router_options().connections->build_seconds() * 1e3;
    }
    layers["serve.offline_build_ms"] =
        topo->primary->Snapshot()->offline().build_seconds * 1e3;
    layers["serve.patch_ms"] = Quantile(traced.patch_ms, 0.5);
    layers["serve.patch_p90_ms"] = Quantile(traced.patch_ms, 0.9);
    layers["serve.zones_relabeled_per_edit"] = Mean(traced.zones_relabeled);
    layers["serve.patch_spqs_per_edit"] = Mean(traced.patch_spqs);
    if (edits_traced > 0) {
      layers["wal.syncs_per_edit"] =
          static_cast<double>(wal_after.syncs - wal_before.syncs) /
          edits_traced;
      layers["wal.bytes_per_edit"] =
          static_cast<double>(wal_after.bytes_appended -
                              wal_before.bytes_appended) /
          edits_traced;
    }
    layers["wal.ack_overhead_ms"] = self_q("net.edit", 0.5);
    layers["net.read_overhead_ms"] = self_q("net.read", 0.5);
    layers["net.read_overhead_p99_ms"] = self_q("net.read", 0.99);
    layers["net.codec_us"] = duration_q("net.codec", 0.5) * 1e3;
    layers["net.reply_bytes"] = Quantile(traced.reply_bytes, 0.5);
    const net::QueryRouter::Stats router_stats = topo->router->stats();
    layers["net.failovers"] = static_cast<double>(router_stats.failovers);
    layers["net.redials"] = static_cast<double>(router_stats.redials);
    layers["store.snapshot_save_ms"] = topo->snapshot_save_ms;
    layers["store.snapshot_bytes"] = static_cast<double>(topo->snapshot_bytes);
    layers["store.snapshot_load_ms"] = load_ms;
    layers["replica.bootstrap_ms"] = Mean(topo->bootstrap_ms);
    layers["replica.catchup_ms"] = pass.catchup_ms;
    const double read_p50 = duration_q("net.read", 0.5);
    const double closure =
        read_p50 > 0.0 ? (self_q("net.read", 0.5) +
                          duration_q("serve.execute", 0.5)) /
                             read_p50
                       : 0.0;
    layers["closure.read_ratio"] = closure;
    layers["trace.edit_overhead_ms"] =
        Quantile(traced.edit_ms, 0.5) - Quantile(pass.edit_ms, 0.5);
    std::fprintf(stderr,
                 "closure: p50 read overhead + p50 server elapsed / p50 "
                 "routed read = %.3f (tolerance +-%.2f) %s\n",
                 closure, kClosureTolerance,
                 std::abs(closure - 1.0) <= kClosureTolerance ? "PASS"
                                                              : "FAIL");
    if (!args.trace_file.empty() && !tracer.WriteJsonLines(args.trace_file)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_file.c_str());
    }
  }
  const std::string dir = topo->dir;
  topo.reset();
  fs::remove_all(dir);
  return phase;
}

}  // namespace staqbench
