// The perf-regression diff layer: compares a bench run document against a
// checked-in golden baseline under a declarative tolerance policy.
//
// Policy files (bench/baselines/policy.rules) hold one block per bench:
//
//   # The library's CSA labeling must stay ahead of the batched
//   # label-correcting oracle (tests/testing)
//   bench labeling {
//     min csa_profile_speedup 1.0
//     ratio_floor modes[1].spqs_per_s 0.50
//     exact bit_identical
//   }
//
// Rule kinds:
//   min <metric> <value>          run metric must be >= value (absolute
//                                 floor — e.g. a speedup gate);
//   ceiling <metric> <value>      run metric must be <= value (absolute
//                                 ceiling — e.g. a p99 budget in ms);
//   ratio_floor <metric> <ratio>  run metric must be >= ratio * baseline
//                                 metric (relative floor — "no more than
//                                 2x slower than the golden run");
//   exact <metric>                run and baseline values must match
//                                 exactly (raw text — for bit_identical
//                                 flags, counts, config echoes).
//
// A metric missing from the run is always a failure (a bench silently
// dropping a gated metric must not pass). ratio_floor/exact additionally
// fail when the baseline lacks the metric. One exception: a quantile
// metric `X_ms` whose sibling `X_approx` is true (in run or baseline) is
// *skipped*, because it was computed from fewer samples than its rank —
// see bench_common.h Summarise().
//
// relax_perf (used under sanitizers, where timings are meaningless) skips
// every min/ceiling/ratio_floor rule and keeps only exact rules.
#pragma once

#include <string>
#include <vector>

#include "exp/json.h"
#include "util/status.h"

namespace staq::exp {

enum class RuleKind { kMin, kCeiling, kRatioFloor, kExact };

const char* RuleKindName(RuleKind kind);

struct Rule {
  RuleKind kind = RuleKind::kMin;
  std::string metric;  // flattened JSON path, e.g. "modes[2].spqs_per_s"
  double value = 0.0;  // threshold / ratio (unused for exact)
};

struct BenchPolicy {
  std::string bench;  // matches BENCH_<bench>.json
  std::vector<Rule> rules;
};

class TolerancePolicy {
 public:
  /// Parses policy text; errors carry "line L, column C".
  static util::Result<TolerancePolicy> Parse(const std::string& text);

  /// Reads and parses a policy file.
  static util::Result<TolerancePolicy> Load(const std::string& path);

  const std::vector<BenchPolicy>& benches() const { return benches_; }

  /// The policy block for a bench, or nullptr if the policy doesn't
  /// cover it.
  const BenchPolicy* Find(const std::string& bench) const;

 private:
  std::vector<BenchPolicy> benches_;
};

enum class CheckState { kPass, kFail, kSkipped };

struct CheckResult {
  Rule rule;
  CheckState state = CheckState::kFail;
  std::string detail;  // human-readable "metric=…, baseline=…, floor=…"
};

struct DiffReport {
  std::vector<CheckResult> checks;
  size_t passed = 0;
  size_t failed = 0;
  size_t skipped = 0;

  bool ok() const { return failed == 0; }

  /// One line per check, prefixed PASS/FAIL/SKIP.
  std::string ToString() const;
};

struct DiffOptions {
  /// Skip perf rules (min/ceiling/ratio_floor), keeping exact rules.
  /// For sanitizer builds, where timings carry no information.
  bool relax_perf = false;
};

/// Checks a run document against its baseline under one bench's rules.
DiffReport DiffDocuments(const JsonDoc& run, const JsonDoc& baseline,
                         const BenchPolicy& policy, const DiffOptions& options);

}  // namespace staq::exp
