// The tolerance policy + diff engine: every rule kind through its pass /
// fail / missing-metric paths, the approximate-quantile skip, the
// sanitizer relaxation, and a round trip over the checked-in baselines
// (each bench/baselines/BENCH_*.json must parse and self-diff clean under
// the checked-in policy — the perfgate contract, asserted in-process).
#include "exp/diff.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/json.h"

namespace staq::exp {
namespace {

JsonDoc ParseOrDie(const std::string& text) {
  auto doc = JsonDoc::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return doc.ok() ? std::move(doc).value() : JsonDoc();
}

BenchPolicy PolicyOrDie(const std::string& text) {
  auto policy = TolerancePolicy::Parse(text);
  EXPECT_TRUE(policy.ok()) << policy.status();
  EXPECT_EQ(policy.value().benches().size(), 1u);
  return policy.value().benches()[0];
}

TEST(TolerancePolicy, ParsesEveryRuleKind) {
  auto policy = TolerancePolicy::Parse(R"(# floors for the labeling bench
bench labeling {
  min csa_profile_speedup 3.0
  ceiling modes[4].seconds 2.5
  ratio_floor modes[4].spqs_per_s 0.50
  exact bit_identical
}

bench store {
  min speedup 10.0
}
)");
  ASSERT_TRUE(policy.ok()) << policy.status();
  ASSERT_EQ(policy.value().benches().size(), 2u);
  const BenchPolicy& labeling = policy.value().benches()[0];
  EXPECT_EQ(labeling.bench, "labeling");
  ASSERT_EQ(labeling.rules.size(), 4u);
  EXPECT_EQ(labeling.rules[0].kind, RuleKind::kMin);
  EXPECT_EQ(labeling.rules[0].metric, "csa_profile_speedup");
  EXPECT_EQ(labeling.rules[0].value, 3.0);
  EXPECT_EQ(labeling.rules[1].kind, RuleKind::kCeiling);
  EXPECT_EQ(labeling.rules[2].kind, RuleKind::kRatioFloor);
  EXPECT_EQ(labeling.rules[2].metric, "modes[4].spqs_per_s");
  EXPECT_EQ(labeling.rules[3].kind, RuleKind::kExact);
  ASSERT_NE(policy.value().Find("store"), nullptr);
  EXPECT_EQ(policy.value().Find("store")->rules.size(), 1u);
  EXPECT_EQ(policy.value().Find("absent"), nullptr);
}

TEST(TolerancePolicy, RejectsMalformedPoliciesWithPosition) {
  struct Case {
    const char* text;
    const char* wants;
  };
  const Case cases[] = {
      {"", "no bench blocks"},
      {"block labeling { min x 1 }", "expected 'bench', got 'block'"},
      {"bench { min x 1 }", "bench block needs a name"},
      {"bench a { min x 1 }\nbench a { min y 2 }",
       "duplicate bench block 'a'"},
      {"bench a { min x 1", "unterminated bench block"},
      {"bench a {\n  floor x 1\n}", "unknown rule kind 'floor'"},
      {"bench a {\n  min\n}", "rule 'min' needs a metric path"},
      {"bench a {\n  min x\n}", "needs a numeric threshold"},
      {"bench a {\n  min x lots\n}", "bad threshold 'lots'"},
      {"bench a {\n  exact x 1.0\n}", "unexpected trailing content"},
  };
  for (const Case& c : cases) {
    auto policy = TolerancePolicy::Parse(c.text);
    ASSERT_FALSE(policy.ok()) << c.text;
    EXPECT_NE(policy.status().message().find(c.wants), std::string::npos)
        << "policy: " << c.text << "\nerror: " << policy.status().message();
    EXPECT_NE(policy.status().message().find("policy parse error at line"),
              std::string::npos)
        << policy.status().message();
  }
}

TEST(DiffDocuments, MinRule) {
  BenchPolicy policy = PolicyOrDie("bench b { min speedup 3.0 }");
  JsonDoc baseline = ParseOrDie(R"({"speedup": 5.0})");

  DiffReport pass = DiffDocuments(ParseOrDie(R"({"speedup": 3.5})"), baseline,
                                  policy, {});
  EXPECT_TRUE(pass.ok());
  EXPECT_EQ(pass.passed, 1u);

  DiffReport fail = DiffDocuments(ParseOrDie(R"({"speedup": 2.9})"), baseline,
                                  policy, {});
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.failed, 1u);
  EXPECT_NE(fail.ToString().find("FAIL"), std::string::npos);

  // A bench silently dropping a gated metric must not pass.
  DiffReport missing = DiffDocuments(ParseOrDie(R"({"other": 1})"), baseline,
                                     policy, {});
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.checks[0].detail.find("missing from run"),
            std::string::npos);
}

TEST(DiffDocuments, CeilingRule) {
  BenchPolicy policy = PolicyOrDie("bench b { ceiling p99_total_ms 10.0 }");
  JsonDoc baseline = ParseOrDie(R"({"p99_total_ms": 4.0})");
  EXPECT_TRUE(DiffDocuments(ParseOrDie(R"({"p99_total_ms": 9.9})"), baseline,
                            policy, {})
                  .ok());
  EXPECT_FALSE(DiffDocuments(ParseOrDie(R"({"p99_total_ms": 10.1})"), baseline,
                             policy, {})
                   .ok());
}

TEST(DiffDocuments, RatioFloorRule) {
  BenchPolicy policy = PolicyOrDie("bench b { ratio_floor qps 0.5 }");
  JsonDoc baseline = ParseOrDie(R"({"qps": 1000.0})");
  EXPECT_TRUE(DiffDocuments(ParseOrDie(R"({"qps": 501.0})"), baseline, policy,
                            {})
                  .ok());
  EXPECT_FALSE(DiffDocuments(ParseOrDie(R"({"qps": 499.0})"), baseline, policy,
                             {})
                   .ok());
  // ratio_floor needs the baseline value; its absence is a failure too.
  DiffReport no_base = DiffDocuments(ParseOrDie(R"({"qps": 900.0})"),
                                     ParseOrDie(R"({"other": 1})"), policy, {});
  EXPECT_FALSE(no_base.ok());
  EXPECT_NE(no_base.checks[0].detail.find("missing from baseline"),
            std::string::npos);
}

TEST(DiffDocuments, ExactRule) {
  BenchPolicy policy = PolicyOrDie("bench b { exact bit_identical }");
  EXPECT_TRUE(DiffDocuments(ParseOrDie(R"({"bit_identical": true})"),
                            ParseOrDie(R"({"bit_identical": true})"), policy,
                            {})
                  .ok());
  EXPECT_FALSE(DiffDocuments(ParseOrDie(R"({"bit_identical": false})"),
                             ParseOrDie(R"({"bit_identical": true})"), policy,
                             {})
                   .ok());
  EXPECT_FALSE(DiffDocuments(ParseOrDie(R"({"bit_identical": true})"),
                             ParseOrDie(R"({"other": 1})"), policy, {})
                   .ok());
  // Numbers compare by raw text: a formatting change fails exact.
  BenchPolicy count = PolicyOrDie("bench b { exact zones }");
  EXPECT_FALSE(DiffDocuments(ParseOrDie(R"({"zones": 324.0})"),
                             ParseOrDie(R"({"zones": 324})"), count, {})
                   .ok());
}

TEST(DiffDocuments, ApproximateQuantilesAreSkipped) {
  // cold.p99_ms was computed from 7 samples — its *_approx sibling marks
  // it unusable for gating, whichever side carries the flag.
  BenchPolicy policy = PolicyOrDie("bench b { ceiling cold.p99_ms 5.0 }");
  JsonDoc run_approx = ParseOrDie(
      R"({"cold": {"p99_ms": 50.0, "p99_approx": true}})");
  JsonDoc base_exact = ParseOrDie(
      R"({"cold": {"p99_ms": 2.0, "p99_approx": false}})");
  DiffReport skipped = DiffDocuments(run_approx, base_exact, policy, {});
  EXPECT_TRUE(skipped.ok());
  EXPECT_EQ(skipped.skipped, 1u);
  EXPECT_EQ(skipped.checks[0].state, CheckState::kSkipped);

  // Baseline-side flag skips too (an old baseline from a short run must
  // not gate a new, well-sampled run).
  JsonDoc base_approx = ParseOrDie(
      R"({"cold": {"p99_ms": 1.0, "p99_approx": true}})");
  JsonDoc run_exact = ParseOrDie(
      R"({"cold": {"p99_ms": 50.0, "p99_approx": false}})");
  EXPECT_EQ(DiffDocuments(run_exact, base_approx, policy, {}).skipped, 1u);

  // Both flags false: the rule gates normally.
  EXPECT_FALSE(DiffDocuments(run_exact, base_exact, policy, {}).ok());
}

TEST(DiffDocuments, RelaxPerfKeepsOnlyExactRules) {
  auto policy = TolerancePolicy::Parse(R"(bench b {
    min speedup 10.0
    ceiling p99_total_ms 1.0
    ratio_floor qps 0.9
    exact bit_identical
  })");
  ASSERT_TRUE(policy.ok()) << policy.status();
  // Terrible timings, wrong bit_identical: under relax_perf only the
  // exact rule may fail.
  JsonDoc run = ParseOrDie(
      R"({"speedup": 0.1, "p99_total_ms": 99.0, "qps": 1.0,
          "bit_identical": false})");
  JsonDoc baseline = ParseOrDie(
      R"({"speedup": 20.0, "p99_total_ms": 0.5, "qps": 1000.0,
          "bit_identical": true})");
  DiffOptions relax;
  relax.relax_perf = true;
  DiffReport report =
      DiffDocuments(run, baseline, policy.value().benches()[0], relax);
  EXPECT_EQ(report.skipped, 3u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.checks[3].rule.kind, RuleKind::kExact);
  EXPECT_EQ(report.checks[3].state, CheckState::kFail);

  // With a matching exact field the relaxed diff is clean.
  JsonDoc fixed = ParseOrDie(
      R"({"speedup": 0.1, "p99_total_ms": 99.0, "qps": 1.0,
          "bit_identical": true})");
  EXPECT_TRUE(
      DiffDocuments(fixed, baseline, policy.value().benches()[0], relax).ok());
}

TEST(DiffDocuments, ReportCountsAndRendering) {
  auto policy = TolerancePolicy::Parse(R"(bench b {
    min a 1.0
    min b 1.0
    ceiling c_ms 1.0
  })");
  ASSERT_TRUE(policy.ok()) << policy.status();
  JsonDoc run = ParseOrDie(
      R"({"a": 2.0, "b": 0.5, "c_ms": 9.0, "c_approx": true})");
  JsonDoc baseline = ParseOrDie(R"({"a": 2.0, "b": 2.0, "c_ms": 0.5})");
  DiffReport report =
      DiffDocuments(run, baseline, policy.value().benches()[0], {});
  EXPECT_EQ(report.passed, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_FALSE(report.ok());
  std::string text = report.ToString();
  EXPECT_NE(text.find("PASS"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("SKIP"), std::string::npos);
}

// --- checked-in baseline round trip ----------------------------------------

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return text;
}

TEST(TolerancePolicy, LoadReportsADirectoryAsAnIoError) {
  auto policy = TolerancePolicy::Load(::testing::TempDir());
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), util::StatusCode::kIoError)
      << policy.status();
}

TEST(Baselines, EveryCheckedInBaselineParsesAndSelfDiffsClean) {
  const std::string dir = STAQ_BASELINES_DIR;
  auto policy = TolerancePolicy::Load(dir + "/policy.rules");
  ASSERT_TRUE(policy.ok()) << policy.status();
  ASSERT_FALSE(policy.value().benches().empty());
  for (const BenchPolicy& bench : policy.value().benches()) {
    const std::string path = dir + "/BENCH_" + bench.bench + ".json";
    std::string text = ReadFileOrEmpty(path);
    ASSERT_FALSE(text.empty()) << "policy names bench '" << bench.bench
                               << "' but " << path << " is missing";
    auto doc = JsonDoc::Parse(text);
    ASSERT_TRUE(doc.ok()) << path << ": " << doc.status();
    // A baseline must satisfy its own floors/ceilings — otherwise the
    // perfgate was checked in red.
    DiffReport report = DiffDocuments(doc.value(), doc.value(), bench, {});
    EXPECT_TRUE(report.ok())
        << path << " does not self-diff clean:\n" << report.ToString();
    EXPECT_EQ(report.failed, 0u);
  }
}

}  // namespace
}  // namespace staq::exp
