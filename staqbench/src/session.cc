// A session — one gated workload: the whatif_cold phase, then the
// edit_replicate phase, each with its share of the run's budget and its
// own servers, all answering for the workload's service interval.
#include <filesystem>

#include "common.h"
#include "workloads.h"

namespace staqbench {

namespace {

/// The whatif_cold phase's share of --seconds. At 40 s it gets 25 s, two
/// blocks (100 exact AQs, the sample a steady p50 needs); the edit phase's
/// 15 s give 60 edits, on which edit p50/p90 already vary by under 7%.
constexpr double kWhatifShare = 0.625;

/// `path` with `tag` added to its stem: traces/x.jsonl -> traces/x-tag.jsonl.
std::string Tagged(const std::string& path, const std::string& tag) {
  if (path.empty()) return path;
  std::filesystem::path tagged(path);
  tagged.replace_filename(tagged.stem().string() + "-" + tag +
                          tagged.extension().string());
  return tagged.string();
}

}  // namespace

void RunSession(const Args& args, Report* report) {
  Args phase_args = args;
  phase_args.seconds = kWhatifShare * args.seconds;
  phase_args.trace_file = Tagged(args.trace_file, "whatif");
  const PhaseResult whatif = RunWhatifCold(phase_args, report);
  phase_args.seconds = args.seconds - phase_args.seconds;
  phase_args.trace_file = Tagged(args.trace_file, "edit");
  const PhaseResult edit = RunEditReplicate(phase_args, report);

  // Both phases build the same city and offline phase; the set-up layers
  // reported are the whatif_cold phase's (insert keeps existing keys).
  std::map<std::string, double> values = whatif.metrics;
  values.insert(edit.metrics.begin(), edit.metrics.end());
  if (args.trace) {
    AddMetrics(SessionLayerMetrics(), values, report);
    return;
  }
  values["setup_s"] = whatif.setup_s + edit.setup_s;
  // VmHWM: the larger of the two phases' peaks.
  values["peak_rss_mb"] = PeakRssMb();
  AddMetrics(SessionEndToEndMetrics(), values, report);
}

}  // namespace staqbench
