// staqbench — runs one workload of the staq benchmark.
//
//   staqbench --workload <am_peak|off_peak|dashboard_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-file <path>]
//
// am_peak and off_peak are the gated sessions (workloads.h), over the
// weekday 07-09 and 11-13 service intervals; dashboard_mixed runs by hand.
//
// Progress and a human summary go to stderr. The last stdout line is one
// JSON object with the keys correct, attempted, failed and metrics. The
// exit code is 1 when any answer was wrong, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "staqbench: %s\nusage: staqbench --workload <am_peak|"
               "off_peak|dashboard_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-file <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  staqbench::Args args;
  if (argc % 2 != 1) return Usage("every flag takes one value");
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
  if (args.work_dir.empty()) return Usage("--work-dir is required");
  std::error_code error;
  std::filesystem::create_directories(args.work_dir, error);
  if (error) return Usage(("cannot create " + args.work_dir).c_str());

  staqbench::Report report;
  if (args.workload == "am_peak") {
    args.interval = staq::gtfs::WeekdayAmPeak();
    staqbench::RunSession(args, &report);
  } else if (args.workload == "off_peak") {
    args.interval = staq::gtfs::WeekdayOffPeak();
    staqbench::RunSession(args, &report);
  } else if (args.workload == "dashboard_mixed") {
    staqbench::RunDashboardMixed(args, &report);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  std::fprintf(stderr, "\n%s: attempted %llu, failed %llu, %s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               report.correct ? "every answer checked correct"
                              : "WRONG ANSWERS");
  for (const auto& metric : report.metrics) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
