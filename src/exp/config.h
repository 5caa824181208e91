// Declarative experiment configs: the LibCity-style sweep description.
//
// A config is a list of named matrix blocks; each block names a bench (or
// several) and a set of axes, and expands to the cartesian product of its
// axis values:
//
//   # error-vs-budget sweep, both cities, two models
//   matrix quality_sweep {
//     bench = quality
//     city = brindale, covely
//     model = MLP, OLS
//     beta = 0.03, 0.05, 0.10
//     scale = 0.05
//     seed = 42
//   }
//
// Grammar: the block grammar of exp/text.h under the `matrix` keyword,
// one `<key> = <value>[, <value>...]` entry per line. Every parse error
// names its line:column. Keys are free-form ([a-z0-9_]); the bench side decides
// which it understands ("bench" is required, "scale"/"rate"/"seed"/
// "threads"/"spq_budget_ms"/"relax_gates" configure the shared bench
// parameters, anything else reaches the bench as an extra parameter).
//
// Expansion order is deterministic (blocks in file order; within a block
// the odometer ticks the last-declared key fastest), so two runs of the
// same config produce the same cell sequence. The cell *hash* is
// independent of declaration order: it digests the sorted key=value pairs,
// so reordering fields in the config file neither invalidates resume
// snapshots nor changes baselines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/text.h"
#include "util/status.h"

namespace staq::exp {

/// One block of the config: a bench list plus axes.
struct MatrixBlock {
  std::string name;
  /// Axes in declaration order: (key, values). Includes "bench".
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
};

/// One fully-instantiated run: a bench name plus concrete parameters.
struct Cell {
  std::string matrix;  // owning block name
  std::string bench;
  std::map<std::string, std::string> params;  // excludes "bench"

  /// Canonical serialisation: "bench=<b>" then sorted "key=value" lines.
  /// Two cells with equal canonical strings are the same experiment
  /// regardless of config field order.
  std::string CanonicalKey() const;

  /// XXH64 of CanonicalKey(); names the resume snapshot for this cell.
  uint64_t Hash() const;

  /// Hash() in fixed-width hex, for file names and reports.
  std::string HashHex() const;

  /// Compact human-readable "key=value key=value" (sorted) for tables.
  std::string ParamSummary() const;
};

/// What a config word holds besides [A-Za-z0-9]; ':' joins the fields of
/// scenario-pack disruption specs ("scale_headway:all:2").
inline constexpr char kConfigWordChars[] = "_-.+:";

/// Reads one `key = value[, value...]` entry into `block`; a key the block
/// already has is an error. Scenario packs read their entries with it too.
util::Status ParseAxis(TextCursor& cursor, MatrixBlock* block);

class ExperimentConfig {
 public:
  /// Parses config text; errors carry "line L, column C".
  static util::Result<ExperimentConfig> Parse(const std::string& text);

  /// Reads and parses a config file.
  static util::Result<ExperimentConfig> Load(const std::string& path);

  const std::vector<MatrixBlock>& blocks() const { return blocks_; }

  /// Expands every block into its cartesian cell list, in deterministic
  /// order. Total size is the sum over blocks of the product of axis
  /// value counts.
  std::vector<Cell> Expand() const;

 private:
  std::vector<MatrixBlock> blocks_;
};

}  // namespace staq::exp
