#include "exp/diff.h"

#include <cstdlib>

#include "exp/text.h"
#include "util/strings.h"

namespace staq::exp {

const char* RuleKindName(RuleKind kind) {
  switch (kind) {
    case RuleKind::kMin: return "min";
    case RuleKind::kCeiling: return "ceiling";
    case RuleKind::kRatioFloor: return "ratio_floor";
    case RuleKind::kExact: return "exact";
  }
  return "?";
}

namespace {

bool ParseRuleKind(const std::string& word, RuleKind* kind) {
  for (RuleKind k : {RuleKind::kMin, RuleKind::kCeiling, RuleKind::kRatioFloor,
                     RuleKind::kExact}) {
    if (word == RuleKindName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

/// Reads one `<kind> <metric> [<threshold>]` rule into `bench`.
util::Status ParseRule(TextCursor& cursor, BenchPolicy* bench) {
  Rule rule;
  std::string kind_word = cursor.Word();
  if (kind_word.empty()) return cursor.Error("expected a rule kind or '}'");
  if (!ParseRuleKind(kind_word, &rule.kind)) {
    return cursor.Error("unknown rule kind '" + kind_word +
                        "' (want min/ceiling/ratio_floor/exact)");
  }
  cursor.SkipInline();
  rule.metric = cursor.Word();
  if (rule.metric.empty()) {
    return cursor.Error("rule '" + kind_word + "' needs a metric path");
  }
  if (rule.kind != RuleKind::kExact) {
    cursor.SkipInline();
    std::string value_word = cursor.Word();
    if (value_word.empty()) {
      return cursor.Error("rule '" + kind_word + " " + rule.metric +
                          "' needs a numeric threshold");
    }
    char* end = nullptr;
    rule.value = std::strtod(value_word.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return cursor.Error("bad threshold '" + value_word + "' for '" +
                          rule.metric + "'");
    }
  }
  STAQ_RETURN_NOT_OK(
      EndEntry(cursor, "rule '" + kind_word + " " + rule.metric + "'"));
  bench->rules.push_back(std::move(rule));
  return util::Status::OK();
}

/// "phases[0].p99_ms" -> "phases[0].p99_approx"; "" when the metric isn't
/// a quantile-style *_ms path.
std::string ApproxSibling(const std::string& metric) {
  constexpr char kSuffix[] = "_ms";
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (metric.size() < kSuffixLen ||
      metric.compare(metric.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return "";
  }
  return metric.substr(0, metric.size() - kSuffixLen) + "_approx";
}

bool IsApprox(const JsonDoc& doc, const std::string& metric) {
  std::string sibling = ApproxSibling(metric);
  if (sibling.empty()) return false;
  const JsonScalar* s = doc.Find(sibling);
  return s != nullptr && s->kind == JsonKind::kBool && s->b;
}

}  // namespace

util::Result<TolerancePolicy> TolerancePolicy::Parse(const std::string& text) {
  TolerancePolicy policy;
  std::vector<BenchPolicy>& benches = policy.benches_;
  // Metric paths ("modes[2].spqs_per_s") are one word.
  TextCursor cursor(text, "policy", "_-.+[]");
  STAQ_RETURN_NOT_OK(ParseBlocks(
      cursor,
      {.keyword = "bench",
       .duplicate_noun = "block",
       .open = [&](const std::string& name) { benches.push_back({name, {}}); },
       .entry = [&](TextCursor& c) { return ParseRule(c, &benches.back()); }}));
  return policy;
}

util::Result<TolerancePolicy> TolerancePolicy::Load(const std::string& path) {
  return LoadFile(path, "policy", &Parse);
}

const BenchPolicy* TolerancePolicy::Find(const std::string& bench) const {
  for (const BenchPolicy& b : benches_) {
    if (b.bench == bench) return &b;
  }
  return nullptr;
}

std::string DiffReport::ToString() const {
  std::string out;
  for (const CheckResult& check : checks) {
    const char* state = check.state == CheckState::kPass   ? "PASS"
                        : check.state == CheckState::kFail ? "FAIL"
                                                           : "SKIP";
    out += util::Format("  %s %-11s %-32s %s\n", state,
                        RuleKindName(check.rule.kind),
                        check.rule.metric.c_str(), check.detail.c_str());
  }
  return out;
}

DiffReport DiffDocuments(const JsonDoc& run, const JsonDoc& baseline,
                         const BenchPolicy& policy,
                         const DiffOptions& options) {
  DiffReport report;
  for (const Rule& rule : policy.rules) {
    CheckResult check;
    check.rule = rule;

    const bool perf_rule = rule.kind != RuleKind::kExact;
    if (perf_rule && options.relax_perf) {
      check.state = CheckState::kSkipped;
      check.detail = "perf rule relaxed (sanitizer build)";
      ++report.skipped;
      report.checks.push_back(std::move(check));
      continue;
    }
    if (perf_rule && (IsApprox(run, rule.metric) ||
                      IsApprox(baseline, rule.metric))) {
      check.state = CheckState::kSkipped;
      check.detail = "quantile is approximate (fewer samples than rank)";
      ++report.skipped;
      report.checks.push_back(std::move(check));
      continue;
    }

    const JsonScalar* run_value = run.Find(rule.metric);
    if (run_value == nullptr) {
      check.state = CheckState::kFail;
      check.detail = "metric missing from run";
      ++report.failed;
      report.checks.push_back(std::move(check));
      continue;
    }

    switch (rule.kind) {
      case RuleKind::kMin: {
        bool ok = run_value->kind == JsonKind::kNumber &&
                  run_value->num >= rule.value;
        check.state = ok ? CheckState::kPass : CheckState::kFail;
        check.detail = util::Format("run=%s floor=%g", run_value->raw.c_str(),
                                    rule.value);
        break;
      }
      case RuleKind::kCeiling: {
        bool ok = run_value->kind == JsonKind::kNumber &&
                  run_value->num <= rule.value;
        check.state = ok ? CheckState::kPass : CheckState::kFail;
        check.detail = util::Format("run=%s ceiling=%g", run_value->raw.c_str(),
                                    rule.value);
        break;
      }
      case RuleKind::kRatioFloor: {
        const JsonScalar* base_value = baseline.Find(rule.metric);
        if (base_value == nullptr) {
          check.state = CheckState::kFail;
          check.detail = "metric missing from baseline";
          break;
        }
        bool ok = run_value->kind == JsonKind::kNumber &&
                  base_value->kind == JsonKind::kNumber &&
                  run_value->num >= rule.value * base_value->num;
        check.state = ok ? CheckState::kPass : CheckState::kFail;
        check.detail =
            util::Format("run=%s baseline=%s ratio_floor=%g",
                         run_value->raw.c_str(), base_value->raw.c_str(),
                         rule.value);
        break;
      }
      case RuleKind::kExact: {
        const JsonScalar* base_value = baseline.Find(rule.metric);
        if (base_value == nullptr) {
          check.state = CheckState::kFail;
          check.detail = "metric missing from baseline";
          break;
        }
        bool ok = run_value->SameAs(*base_value);
        check.state = ok ? CheckState::kPass : CheckState::kFail;
        check.detail =
            util::Format("run=%s baseline=%s", run_value->ToString().c_str(),
                         base_value->ToString().c_str());
        break;
      }
    }
    if (check.state == CheckState::kPass) {
      ++report.passed;
    } else {
      ++report.failed;
    }
    report.checks.push_back(std::move(check));
  }
  return report;
}

}  // namespace staq::exp
