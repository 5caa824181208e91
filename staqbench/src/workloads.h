// The benchmark workloads and the two phases a gated workload runs.
//
// A gated workload (am_peak, off_peak) is a session: the whatif_cold phase
// and then the edit_replicate phase, each with its share of --seconds,
// every server answering for the workload's service interval. Each phase
// measures its own end-to-end metrics (untraced run) or per-layer metrics
// (traced run); the session reports the union, so every gated workload
// reports every metric BENCHMARK.json names.
#pragma once

#include <map>
#include <string>

#include "common.h"

namespace staqbench {

/// What one phase measured. Attempted/failed counts and wrong answers go
/// straight into the run's Report.
struct PhaseResult {
  /// Median of the phase's set-ups, s.
  double setup_s = 0.0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, double> metrics;
};

/// Cold exact, SSR and sweep what-ifs over one in-process AqServer.
PhaseResult RunWhatifCold(const Args& args, Report* report);
/// Routed POI edits and read-your-writes reads over loopback TCP, with a
/// WAL, two replicas and one replica restart.
PhaseResult RunEditReplicate(const Args& args, Report* report);

/// A gated workload: both phases back to back over `args.interval`.
void RunSession(const Args& args, Report* report);

/// Open-loop dashboard traffic; runs by hand, not gated (see README.md).
void RunDashboardMixed(const Args& args, Report* report);

}  // namespace staqbench
