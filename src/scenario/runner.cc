#include "scenario/runner.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "util/failpoint.h"
#include "util/strings.h"

namespace staq::scenario {

namespace {

/// Human-readable "spec => resolved target" line for the report header.
std::string DescribeResolved(const Disruption& d,
                             const wal::MutationRecord& record) {
  if (d.kind == wal::MutationType::kScaleWalkSpeed) return d.spec;
  if (d.kind == wal::MutationType::kCloseStop) {
    return util::Format("%s => stop %u", d.spec.c_str(), record.target);
  }
  if (record.target == wal::kAllTargets) return d.spec + " => all routes";
  return util::Format("%s => route %u", d.spec.c_str(), record.target);
}

util::Status WriteFile(const std::string& path, const std::string& text) {
  // Failure site: report emission — a full disk or injected fault must
  // surface as a clean status, never lose the run itself.
  STAQ_FAILPOINT("scenario.pack.report_write");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return util::Status::IoError("cannot write: " + path);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) return util::Status::IoError("short write: " + path);
  return util::Status::OK();
}

}  // namespace

util::Result<EquityReport> RunScenario(const CityFactory& factory,
                                       const PackScenario& scenario,
                                       const RunOptions& options) {
  auto city = factory();
  if (!city.ok()) return city.status();
  const std::string city_name = city.value().spec.name;

  serve::AqServer server(std::move(city).value(), options.interval,
                         options.server);

  serve::AqRequest request;
  request.category = options.category;
  request.options.exact = true;
  request.options.cost = options.cost;
  request.options.seed = options.seed;

  auto before = server.Query(request);
  if (!before.ok()) return before.status();

  std::vector<std::string> described;
  double mutation_seconds = 0.0;
  uint64_t mutation_spqs = 0;
  for (const Disruption& d : scenario.disruptions) {
    // Resolve against the *current* network: a second disruption sees the
    // feed its predecessors produced (e.g. `busiest` after a suspension
    // picks the busiest surviving route).
    auto record = ResolveDisruption(d, server.Snapshot()->base_city().feed);
    if (!record.ok()) return record.status();

    auto applied = server.Mutate(record.value());
    if (!applied.ok()) {
      return util::Status::FromCode(
          applied.status().code(), "scenario '" + scenario.name + "', " +
                                       d.spec + ": " +
                                       applied.status().message());
    }
    described.push_back(DescribeResolved(d, record.value()));
    mutation_seconds += applied.value().seconds;
    mutation_spqs += applied.value().spqs;
  }

  auto after = server.Query(request);
  if (!after.ok()) return after.status();

  EquityReport report =
      CompareAccess(scenario.name, city_name, server.base_city().zones,
                    before.value(), after.value());
  report.disruptions = std::move(described);
  report.mutation_seconds = mutation_seconds;
  report.mutation_spqs = mutation_spqs;
  return report;
}

util::Result<std::vector<EquityReport>> RunPack(const CityFactory& factory,
                                                const ScenarioPack& pack,
                                                const RunOptions& options) {
  std::vector<EquityReport> reports;
  reports.reserve(pack.scenarios.size());
  for (const PackScenario& scenario : pack.scenarios) {
    auto report = RunScenario(factory, scenario, options);
    if (!report.ok()) return report.status();
    reports.push_back(std::move(report).value());
  }
  return reports;
}

util::Status WriteReports(const std::vector<EquityReport>& reports,
                          const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  try {
    std::string text;
    for (const EquityReport& report : reports) {
      auto st = WriteFile(dir + "/report_" + report.scenario + ".json",
                          EquityReportJson(report) + "\n");
      if (!st.ok()) return st;
      text += FormatEquityReport(report);
    }
    return WriteFile(dir + "/reports.txt", text);
  } catch (const util::FailPointError& e) {
    // Injected fault: degrade to the same surface a real IO failure has.
    return util::Status::IoError(e.what());
  }
}

}  // namespace staq::scenario
