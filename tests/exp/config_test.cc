// The declarative sweep config: parse errors carry positions, expansion
// is a deterministic cartesian product, and the cell hash is independent
// of field declaration order (so reordering a config file invalidates
// neither resume snapshots nor baselines).
#include "exp/config.h"

#include <gtest/gtest.h>

#include <set>

namespace staq::exp {
namespace {

constexpr char kSweep[] = R"(# error-vs-budget sweep
matrix quality_sweep {
  bench = quality
  city = brindale, covely
  model = MLP, OLS
  beta = 0.03, 0.05, 0.10
  scale = 0.05
}

matrix gates {
  bench = labeling, store
  scale = 0.1
}
)";

TEST(ExperimentConfig, ParsesBlocksAndAxes) {
  auto config = ExperimentConfig::Parse(kSweep);
  ASSERT_TRUE(config.ok()) << config.status();
  const auto& blocks = config.value().blocks();
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].name, "quality_sweep");
  ASSERT_EQ(blocks[0].axes.size(), 5u);
  EXPECT_EQ(blocks[0].axes[1].first, "city");
  EXPECT_EQ(blocks[0].axes[1].second,
            (std::vector<std::string>{"brindale", "covely"}));
  EXPECT_EQ(blocks[1].name, "gates");
}

TEST(ExperimentConfig, ExpandsCartesianProduct) {
  auto config = ExperimentConfig::Parse(kSweep);
  ASSERT_TRUE(config.ok()) << config.status();
  std::vector<Cell> cells = config.value().Expand();
  // 1*2*2*3*1 + 2*1 = 12 + 2.
  ASSERT_EQ(cells.size(), 14u);
  // Blocks expand in file order; the odometer ticks the last-declared key
  // fastest, so beta varies first, then model, then city.
  EXPECT_EQ(cells[0].matrix, "quality_sweep");
  EXPECT_EQ(cells[0].bench, "quality");
  EXPECT_EQ(cells[0].params.at("city"), "brindale");
  EXPECT_EQ(cells[0].params.at("model"), "MLP");
  EXPECT_EQ(cells[0].params.at("beta"), "0.03");
  EXPECT_EQ(cells[1].params.at("beta"), "0.05");
  EXPECT_EQ(cells[3].params.at("model"), "OLS");
  EXPECT_EQ(cells[3].params.at("beta"), "0.03");
  EXPECT_EQ(cells[6].params.at("city"), "covely");
  EXPECT_EQ(cells[12].bench, "labeling");
  EXPECT_EQ(cells[13].bench, "store");
  // "bench" never leaks into the parameter map.
  EXPECT_EQ(cells[0].params.count("bench"), 0u);
  // All 14 cells are distinct experiments.
  std::set<uint64_t> hashes;
  for (const Cell& cell : cells) hashes.insert(cell.Hash());
  EXPECT_EQ(hashes.size(), cells.size());
}

TEST(ExperimentConfig, CellHashIgnoresDeclarationOrder) {
  auto a = ExperimentConfig::Parse(
      "matrix m { bench = quality\n  city = covely\n  beta = 0.05 }");
  auto b = ExperimentConfig::Parse(
      "matrix m { beta = 0.05\n  city = covely\n  bench = quality }");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  std::vector<Cell> ca = a.value().Expand();
  std::vector<Cell> cb = b.value().Expand();
  ASSERT_EQ(ca.size(), 1u);
  ASSERT_EQ(cb.size(), 1u);
  EXPECT_EQ(ca[0].CanonicalKey(), cb[0].CanonicalKey());
  EXPECT_EQ(ca[0].Hash(), cb[0].Hash());
  EXPECT_EQ(ca[0].HashHex(), cb[0].HashHex());
  EXPECT_EQ(ca[0].HashHex().size(), 16u);
}

TEST(ExperimentConfig, CanonicalKeyShape) {
  auto config = ExperimentConfig::Parse(
      "matrix m { bench = store\n  scale = 0.1\n  engine = csa }");
  ASSERT_TRUE(config.ok()) << config.status();
  std::vector<Cell> cells = config.value().Expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].CanonicalKey(), "bench=store\nengine=csa\nscale=0.1\n");
  EXPECT_EQ(cells[0].ParamSummary(), "engine=csa scale=0.1");
}

struct BadConfigCase {
  const char* text;
  const char* wants;  // substring of the error, position included
};

TEST(ExperimentConfig, RejectsMalformedConfigsWithPosition) {
  const BadConfigCase cases[] = {
      {"", "line 1, column 1: no matrix blocks"},
      {"grid m { bench = a }", "expected 'matrix', got 'grid'"},
      {"matrix { bench = a }", "matrix block needs a name"},
      {"matrix m { bench = a }\nmatrix m { bench = b }",
       "at line 2"},
      {"matrix m { bench = a }\nmatrix n { bench = b }\nmatrix m { bench = c }",
       "duplicate matrix name 'm'"},
      {"matrix m { bench = a", "unterminated matrix block"},
      {"matrix m { bench = a\n  bench = b }", "duplicate key 'bench'"},
      {"matrix m { bench a }", "expected '=' after key 'bench'"},
      {"matrix m { bench = }", "expected a value for key 'bench'"},
      {"matrix m { scale = 0.1 }", "matrix 'm' has no 'bench' key"},
      {"matrix m { bench = a } trailing", "expected 'matrix', got 'trailing'"},
  };
  for (const BadConfigCase& c : cases) {
    auto config = ExperimentConfig::Parse(c.text);
    ASSERT_FALSE(config.ok()) << c.text;
    EXPECT_NE(config.status().message().find(c.wants), std::string::npos)
        << "config: " << c.text << "\nerror: " << config.status().message();
    EXPECT_NE(config.status().message().find("config parse error at line"),
              std::string::npos)
        << config.status().message();
  }
}

TEST(ExperimentConfig, LoadReportsMissingFile) {
  auto config = ExperimentConfig::Load("/nonexistent/sweep.cfg");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("cannot open config"),
            std::string::npos);
}

TEST(ExperimentConfig, LoadReportsADirectoryAsAnIoError) {
  // A directory opens but does not read: that is an I/O error, not an
  // empty config.
  auto config = ExperimentConfig::Load(::testing::TempDir());
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), util::StatusCode::kIoError)
      << config.status();
}

}  // namespace
}  // namespace staq::exp
