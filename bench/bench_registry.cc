#include "bench_registry.h"

#include <cstdio>

#include "bench_common.h"

namespace staq::bench {

const std::vector<BenchInfo>& BenchTable() {
  static const std::vector<BenchInfo> kTable = {
      {"labeling", "perf", "zone-labeling throughput + CSA speedup gate",
       &RunLabelingBench},
      {"ml", "perf", "SSR model fit/predict throughput + thread bit-identity",
       &RunMlBench},
      {"store", "perf", "snapshot warm-start vs cold rebuild gate",
       &RunStoreBench},
      {"serve", "perf", "serving tier end-to-end latency phases",
       &RunServeBench},
      {"load", "perf", "columnar batch speedup gate + open-loop SLO generator",
       &RunLoadBench},
      {"net", "perf", "TCP wire protocol / WAL / replication latency",
       &RunNetBench},
      {"quality", "perf", "SSR quality cell: error + SPQ reduction at one β",
       &RunQualityBench},
      {"table1", "paper", "Table I: city statistics", &RunTable1Bench},
      {"table2", "paper", "Table II: % SPQ reduction vs budget",
       &RunTable2Bench},
      {"fig3", "paper", "Fig. 3: error vs labeling budget", &RunFig3Bench},
      {"fig4", "paper", "Fig. 4: MAC rank correlation", &RunFig4Bench},
      {"fig5", "paper", "Fig. 5: dynamic re-labeling", &RunFig5Bench},
      {"ablation", "paper", "ablation: feature/co-training variants",
       &RunAblationBench},
      {"router", "micro", "google-benchmark: SPQ router kernels", nullptr},
      {"features", "micro", "google-benchmark: feature extraction", nullptr},
  };
  return kTable;
}

const BenchInfo* FindBench(const std::string& name) {
  for (const BenchInfo& info : BenchTable()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

exp::BenchRegistry MakeBenchRegistry() {
  exp::BenchRegistry registry;
  for (const BenchInfo& info : BenchTable()) {
    if (info.fn == nullptr) continue;
    exp::RunResult (*fn)() = info.fn;
    registry[info.name] = [fn](const exp::RunSpec& spec) {
      BenchParams params = BenchParams::FromEnv();
      params.Apply(spec.params);
      ScopedBenchParams scoped(std::move(params));
      return fn();
    };
  }
  return registry;
}

int RunBenchMain(const char* name) {
  const BenchInfo* info = FindBench(name);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown bench '%s'\n", name);
    return 2;
  }
  if (info->fn == nullptr) {
    std::fprintf(stderr, "'%s' is a micro bench; run its own binary\n", name);
    return 2;
  }
  return info->fn().exit_code;
}

}  // namespace staq::bench
