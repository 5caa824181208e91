// Scenario packs — named disruption bundles in a declarative file.
//
// A pack is the block grammar of exp/text.h under the `scenario` keyword,
// its entries read as experiment-config entries (exp/config.h); each block
// is one named scenario whose `disrupt` key lists disruption specs
// (scenario/disruption.h) in application order:
//
//   # fleet breakdown on the trunk line, plus a snow day
//   scenario trunk_outage {
//     disrupt = suspend_route:busiest
//   }
//   scenario snow_day {
//     disrupt = scale_walk:0.5, scale_headway:all:2
//   }
//
// Ordering matters — disruptions apply sequentially against the live
// server, each building on the previous epoch — so `disrupt` keeps its
// declared order (the runner never expands a cartesian product here).
// Every spec is parsed at load time: a typo fails the whole pack with its
// block name attached, not the Nth scenario of a long run.
#pragma once

#include <string>
#include <vector>

#include "scenario/disruption.h"
#include "util/status.h"

namespace staq::scenario {

/// One named scenario: an ordered disruption list.
struct PackScenario {
  std::string name;
  std::vector<Disruption> disruptions;
};

/// A parsed pack file.
struct ScenarioPack {
  std::vector<PackScenario> scenarios;

  /// Parses pack text. kInvalidArgument on grammar errors, duplicate
  /// scenario names, a scenario without a `disrupt` key, keys other than
  /// `disrupt`, or a malformed spec; errors carry "line L, column C".
  static util::Result<ScenarioPack> Parse(const std::string& text);

  /// Reads and parses a pack file.
  static util::Result<ScenarioPack> Load(const std::string& path);

  /// The scenario named `name`, or nullptr.
  const PackScenario* Find(const std::string& name) const;
};

}  // namespace staq::scenario
