// Deterministic mutation fuzzing of the text parsers (ctest -L fuzz): the
// scenario-pack grammar, the experiment-config grammar, the tolerance
// policy, one disruption spec word, JSON documents and equity reports. The
// first three and the JSON reader share one cursor (exp/text.h). Each
// target starts from valid seeds — the checked-in pack, configs, policy
// and baselines plus inline ones — and parses a fixed, seeded stream of
// mutants:
// bit flips, bytes overwritten with grammar punctuation, deletions,
// duplicated chunks, truncations and splices of two seeds. Every mutant
// must come back as a value or a non-OK status: no crash, no exception.
// No external fuzzing engine; the seed and iteration counts are fixed, so
// a failure reproduces by re-running the case, and each failure prints the
// mutant.
#include <cstdint>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/config.h"
#include "exp/diff.h"
#include "exp/json.h"
#include "scenario/disruption.h"
#include "scenario/pack.h"
#include "scenario/report.h"
#include "util/rng.h"

namespace staq {
namespace {

/// Bytes the grammars give meaning to, plus a few that they do not.
constexpr char kInteresting[] = {'\0', '\n', '\r', '\t', ' ', '#',  '{',
                                 '}',  '[',  ']',  '=',  ',', ':',  '.',
                                 '-',  '+',  'e',  '0',  '9', '"',  '\\',
                                 '\x7f', '\xff'};

/// A checked-in file's text ("" when it cannot be read).
std::string ReadSource(const std::string& relative) {
  std::ifstream in(std::string(STAQ_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A seeded stream of mutants of `seeds` (every seed non-empty).
class Mutator {
 public:
  Mutator(uint64_t seed, std::vector<std::string> seeds)
      : rng_(seed), seeds_(std::move(seeds)) {}

  std::string Next() {
    std::string text = Pick();
    const int edits = 1 + static_cast<int>(rng_.UniformU64(4));
    for (int e = 0; e < edits; ++e) Mutate(&text);
    return text;
  }

 private:
  const std::string& Pick() { return seeds_[rng_.UniformU64(seeds_.size())]; }

  size_t Pos(const std::string& text) {
    return text.empty() ? 0 : rng_.UniformU64(text.size());
  }

  void Mutate(std::string* text) {
    switch (rng_.UniformU64(6)) {
      case 0:  // flip one bit
        if (!text->empty()) {
          (*text)[Pos(*text)] ^= static_cast<char>(1u << rng_.UniformU64(8));
        }
        break;
      case 1:  // overwrite a byte with grammar punctuation
        if (!text->empty()) {
          (*text)[Pos(*text)] =
              kInteresting[rng_.UniformU64(sizeof(kInteresting))];
        }
        break;
      case 2: {  // delete a range
        const size_t at = Pos(*text);
        text->erase(at, rng_.UniformU64(16) + 1);
        break;
      }
      case 3: {  // duplicate a chunk in place
        const size_t at = Pos(*text);
        const std::string chunk = text->substr(at, rng_.UniformU64(24) + 1);
        text->insert(Pos(*text), chunk);
        break;
      }
      case 4:  // truncate
        text->resize(Pos(*text));
        break;
      default: {  // splice: this text's head onto another seed's tail
        const std::string& other = Pick();
        *text = text->substr(0, Pos(*text)) + other.substr(Pos(other));
        break;
      }
    }
  }

  util::Rng rng_;
  std::vector<std::string> seeds_;
};

/// Parses every seed (each must parse) and then `iterations` mutants of
/// them; `parse` returns whether the input parsed.
template <typename Parse>
void Fuzz(uint64_t seed, const std::vector<std::string>& seeds,
          int iterations, const Parse& parse) {
  for (const std::string& text : seeds) {
    ASSERT_FALSE(text.empty());
    ASSERT_TRUE(parse(text)) << "seed does not parse:\n" << text;
  }
  Mutator mutator(seed, seeds);
  int parsed = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::string text = mutator.Next();
    try {
      parsed += parse(text) ? 1 : 0;
    } catch (const std::exception& error) {
      FAIL() << "mutant " << i << " threw " << error.what() << ":\n" << text;
    } catch (...) {
      FAIL() << "mutant " << i << " threw:\n" << text;
    }
  }
  // The mutants reach both outcomes, so neither path goes unexercised.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, iterations);
}

bool ParsesAsPack(const std::string& text) {
  return scenario::ScenarioPack::Parse(text).ok();
}

bool ParsesAsConfig(const std::string& text) {
  return exp::ExperimentConfig::Parse(text).ok();
}

bool ParsesAsDisruption(const std::string& text) {
  return scenario::ParseDisruptionSpec(text).ok();
}

bool ParsesAsPolicy(const std::string& text) {
  return exp::TolerancePolicy::Parse(text).ok();
}

bool ParsesAsJson(const std::string& text) {
  return exp::JsonDoc::Parse(text).ok();
}

bool ParsesAsEquityReport(const std::string& text) {
  return scenario::ParseEquityReportJson(text).ok();
}

/// A small report in EquityReportJson's shape.
std::string EquityReportSeed() {
  scenario::EquityReport report;
  report.scenario = "snow_day";
  report.city = "brindale \"north\"";
  report.disruptions = {"scale_walk:0.5", "scale_headway:all:2"};
  report.zones = 3;
  report.before.mean_mac = 1200;
  report.after.mean_mac = 1500.5;
  report.before.class_counts = {1, 1, 1, 0};
  report.after.class_counts = {0, 1, 1, 1};
  report.mac_delta_s = {120, -30.25, 600};
  report.migration[0][1] = 1;
  report.migration[1][2] = 1;
  report.migration[2][3] = 1;
  report.worst = {2, 600};
  report.mutation_seconds = 0.012;
  report.mutation_spqs = 77;
  return scenario::EquityReportJson(report);
}

TEST(TextParserFuzzTest, ScenarioPack) {
  std::vector<std::string> seeds = {
      "scenario a {\n  disrupt = suspend_route:busiest\n}\n",
      "# comment\nscenario b { disrupt = close_stop:3, scale_headway:all:2 }\n"
      "scenario c {\n  disrupt = set_fare:1:2.5, scale_walk:0.5\n}\n"};
  const std::string standard = ReadSource("scenarios/standard.pack");
  if (!standard.empty()) seeds.push_back(standard);
  Fuzz(0x5ca7, seeds, 200000, ParsesAsPack);
}

TEST(TextParserFuzzTest, ExperimentConfig) {
  std::vector<std::string> seeds = {
      "matrix m {\n  bench = ml\n  scale = 0.1, 0.2\n  seed = 1\n}\n",
      "# two blocks\nmatrix a { bench = labeling, store\n threads = 2 }\n"
      "matrix b {\n  bench = quality\n  beta = 0.05\n  model = MLP, OLS\n}\n"};
  for (const char* path :
       {"bench/configs/perfgate.cfg", "bench/configs/fullscale.cfg"}) {
    const std::string config = ReadSource(path);
    if (!config.empty()) seeds.push_back(config);
  }
  Fuzz(0xc0f1, seeds, 200000, ParsesAsConfig);
}

TEST(TextParserFuzzTest, TolerancePolicy) {
  std::vector<std::string> seeds = {
      "bench a {\n  min speedup 3.0\n  exact bit_identical\n}\n",
      "# two blocks\nbench b { ceiling phases[0].p99_ms 250 }\n"
      "bench c {\n  ratio_floor modes[2].spqs_per_s 0.5  # note\n}\n"};
  const std::string policy = ReadSource("bench/baselines/policy.rules");
  if (!policy.empty()) seeds.push_back(policy);
  Fuzz(0x9011c, seeds, 100000, ParsesAsPolicy);
}

TEST(TextParserFuzzTest, JsonDocument) {
  std::vector<std::string> seeds = {
      R"({"a": 1, "b": [true, false, null], "c": {"d": "x\ny\u0041"}})",
      R"([{"p99_ms": -1.5e3, "p99_approx": true}, [], {}])",
      EquityReportSeed()};
  const std::string baseline =
      ReadSource("bench/baselines/BENCH_labeling.json");
  if (!baseline.empty()) seeds.push_back(baseline);
  Fuzz(0x750, seeds, 100000, ParsesAsJson);
}

TEST(TextParserFuzzTest, EquityReport) {
  Fuzz(0xe917, {EquityReportSeed()}, 100000, ParsesAsEquityReport);
}

TEST(TextParserFuzzTest, DisruptionSpec) {
  const std::vector<std::string> seeds = {
      "suspend_route:busiest", "suspend_route:12", "close_stop:busiest",
      "close_stop:7",          "scale_headway:all:2",
      "scale_headway:busiest:3", "scale_headway:4:2", "set_fare:all:4.0",
      "set_fare:2:0",          "scale_walk:0.5"};
  Fuzz(0xd15, seeds, 300000, ParsesAsDisruption);
}

}  // namespace
}  // namespace staq
