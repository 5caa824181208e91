#include "exp/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "exp/json.h"
#include "store/coding.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/hash.h"
#include "util/strings.h"

namespace staq::exp {
namespace {

namespace fs = std::filesystem;

constexpr char kKeySection[] = "cell_key";
constexpr char kResultSection[] = "result_json";
constexpr char kExitSection[] = "exit_code";

std::string SnapshotPath(const std::string& state_dir, const Cell& cell) {
  return state_dir + "/cell_" + cell.HashHex() + ".staq";
}

/// Tries to reuse a completed cell from its resume snapshot. Any defect —
/// missing file, checksum mismatch, key collision, non-zero stored exit —
/// means "not reusable" and the cell re-executes.
bool LoadCellSnapshot(const std::string& state_dir, const Cell& cell,
                      std::string* json, int* exit_code) {
  store::Reader reader;
  if (!reader.Open(SnapshotPath(state_dir, cell)).ok()) return false;

  auto read_string = [&](const char* name, std::string* out) {
    auto section = reader.Section(name, store::SectionEncoding::kRaw);
    if (!section.ok()) return false;
    out->assign(reinterpret_cast<const char*>(section.value().cursor()),
                section.value().remaining());
    return true;
  };
  std::string stored_key;
  if (!read_string(kKeySection, &stored_key)) return false;
  if (stored_key != cell.CanonicalKey()) return false;  // hash collision
  if (!read_string(kResultSection, json)) return false;
  auto exit_section = reader.Section(kExitSection, store::SectionEncoding::kRaw);
  if (!exit_section.ok()) return false;
  int32_t stored = 1;
  if (!exit_section.value().ReadFixed(&stored)) return false;
  *exit_code = stored;
  return stored == 0;
}

util::Status SaveCellSnapshot(const std::string& state_dir, const Cell& cell,
                              const std::string& json, int exit_code) {
  store::Writer writer;
  const std::string path = SnapshotPath(state_dir, cell);
  STAQ_RETURN_NOT_OK(writer.Open(path));
  auto as_bytes = [](const std::string& s) {
    return std::vector<uint8_t>(s.begin(), s.end());
  };
  STAQ_RETURN_NOT_OK(writer.AddSection(kKeySection,
                                       store::SectionEncoding::kRaw,
                                       as_bytes(cell.CanonicalKey())));
  STAQ_RETURN_NOT_OK(writer.AddSection(kResultSection,
                                       store::SectionEncoding::kRaw,
                                       as_bytes(json)));
  std::vector<uint8_t> exit_bytes;
  store::PutFixed<int32_t>(&exit_bytes, static_cast<int32_t>(exit_code));
  STAQ_RETURN_NOT_OK(writer.AddSection(kExitSection,
                                       store::SectionEncoding::kRaw,
                                       std::move(exit_bytes)));
  return writer.Finish();
}

/// Re-indents an embedded JSON document by `indent` spaces so the sweep
/// file stays readable; byte-deterministic (pure text transform).
std::string Indent(const std::string& json, const std::string& indent) {
  std::string out;
  out.reserve(json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    out.push_back(json[i]);
    if (json[i] == '\n' && i + 1 < json.size()) out += indent;
  }
  // Trim one trailing newline so the closing brace sits inline.
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

std::string AssembleFinalJson(const ExperimentConfig& config,
                              const std::vector<CellOutcome>& outcomes) {
  std::string out;
  out += "{\n";
  out += util::Format("  \"config_hash\": \"%016llx\",\n",
                      static_cast<unsigned long long>(ConfigHash(config)));
  out += util::Format("  \"cells\": %zu,\n", outcomes.size());
  size_t failures = 0;
  for (const CellOutcome& o : outcomes) {
    if (o.exit_code != 0) ++failures;
  }
  out += util::Format("  \"failures\": %zu,\n", failures);
  out += "  \"results\": [\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const CellOutcome& o = outcomes[i];
    out += "    {\n";
    out += "      \"matrix\": \"" + util::JsonEscape(o.cell.matrix) +
           "\",\n";
    out += "      \"bench\": \"" + util::JsonEscape(o.cell.bench) +
           "\",\n";
    out += "      \"cell_hash\": \"" + o.cell.HashHex() + "\",\n";
    out += "      \"params\": {";
    bool first = true;
    for (const auto& [k, v] : o.cell.params) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + util::JsonEscape(k) + "\": \"" + util::JsonEscape(v) +
             "\"";
    }
    out += "},\n";
    out += util::Format("      \"exit_code\": %d,\n", o.exit_code);
    if (o.json.empty()) {
      out += "      \"result\": null\n";
    } else {
      out += "      \"result\": " + Indent(o.json, "      ") + "\n";
    }
    out += i + 1 < outcomes.size() ? "    },\n" : "    }\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

/// The paper-style pivots: any cell whose result carries quality metrics
/// ("jt_mae_min", "spq_reduction_pct") and a "beta" parameter lands in an
/// error-vs-budget grid and a %-SPQ-reduction grid; one row per setting of
/// the remaining parameters.
struct PivotTables {
  std::string text;
};

std::string RowLabel(const Cell& cell) {
  std::string label = cell.bench;
  for (const auto& [k, v] : cell.params) {
    if (k == "beta" || k == "scale" || k == "rate" || k == "seed" ||
        k == "threads") {
      continue;
    }
    label += " " + k + "=" + v;
  }
  return label;
}

std::string BuildTables(const std::vector<CellOutcome>& outcomes) {
  std::string out;

  // --- per-cell summary ---------------------------------------------------
  out += util::Format("%-14s %-10s %5s %6s  %s\n", "matrix", "bench", "exit",
                      "cached", "params / headline");
  const char* headline_metrics[] = {"csa_profile_speedup", "speedup",
                                    "jt_mae_min"};
  for (const CellOutcome& o : outcomes) {
    std::string headline;
    if (!o.json.empty()) {
      auto doc = JsonDoc::Parse(o.json);
      if (doc.ok()) {
        for (const char* metric : headline_metrics) {
          if (const JsonScalar* s = doc.value().Find(metric)) {
            headline = util::Format("  [%s=%s]", metric, s->raw.c_str());
            break;
          }
        }
      }
    }
    out += util::Format("%-14s %-10s %5d %6s  %s%s\n", o.cell.matrix.c_str(),
                        o.cell.bench.c_str(), o.exit_code,
                        o.cached ? "yes" : "no", o.cell.ParamSummary().c_str(),
                        headline.c_str());
  }

  // --- quality pivots -----------------------------------------------------
  struct QualityCell {
    std::string row;
    double beta = 0.0;
    double mae = 0.0;
    double reduction = 0.0;
  };
  std::vector<QualityCell> quality;
  std::set<double> betas;
  for (const CellOutcome& o : outcomes) {
    if (o.exit_code != 0 || o.json.empty()) continue;
    auto it = o.cell.params.find("beta");
    if (it == o.cell.params.end()) continue;
    auto doc = JsonDoc::Parse(o.json);
    if (!doc.ok()) continue;
    const JsonScalar* mae = doc.value().Find("jt_mae_min");
    const JsonScalar* red = doc.value().Find("spq_reduction_pct");
    if (mae == nullptr || red == nullptr) continue;
    QualityCell q;
    q.row = RowLabel(o.cell);
    q.beta = std::atof(it->second.c_str());
    q.mae = mae->num;
    q.reduction = red->num;
    betas.insert(q.beta);
    quality.push_back(std::move(q));
  }
  if (!quality.empty()) {
    std::vector<std::string> rows;
    for (const QualityCell& q : quality) {
      if (std::find(rows.begin(), rows.end(), q.row) == rows.end()) {
        rows.push_back(q.row);
      }
    }
    // RowLabel strips the seed (with the other scale knobs), so cells that
    // differ only by seed land in one (row, beta) bucket: a single sample
    // prints plainly, replicated cells print mean±sd (sample sd, n-1).
    auto grid = [&](const char* title, double QualityCell::* field) {
      out += "\n" + std::string(title) + "\n";
      out += util::Format("%-44s", "setting");
      for (double beta : betas) {
        out += util::Format(" b=%-10.0f%%", beta * 100);
      }
      out += "\n";
      for (const std::string& row : rows) {
        out += util::Format("%-44s", row.c_str());
        for (double beta : betas) {
          std::vector<double> samples;
          for (const QualityCell& q : quality) {
            if (q.row == row && q.beta == beta) samples.push_back(q.*field);
          }
          if (samples.empty()) {
            out += util::Format(" %13s", "-");
            continue;
          }
          double sum = 0.0;
          for (double v : samples) sum += v;
          const double mean = sum / static_cast<double>(samples.size());
          if (samples.size() == 1) {
            out += util::Format(" %13.2f", mean);
          } else {
            double ss = 0.0;
            for (double v : samples) ss += (v - mean) * (v - mean);
            const double sd =
                std::sqrt(ss / static_cast<double>(samples.size() - 1));
            out += util::Format(" %13s",
                                util::Format("%.2f±%.2f", mean, sd).c_str());
          }
        }
        out += "\n";
      }
    };
    grid("JT MAE (minutes) vs labeling budget:", &QualityCell::mae);
    grid("SPQ reduction (%) vs labeling budget:", &QualityCell::reduction);
  }
  return out;
}

}  // namespace

uint64_t ConfigHash(const ExperimentConfig& config) {
  std::string all;
  for (const Cell& cell : config.Expand()) {
    all += cell.CanonicalKey();
    all += "\x1f";
  }
  return util::XxHash64(all.data(), all.size());
}

util::Result<SweepReport> RunSweep(const ExperimentConfig& config,
                                   const BenchRegistry& registry,
                                   const RunnerOptions& options) {
  SweepReport report;
  const std::vector<Cell> cells = config.Expand();

  if (!options.state_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options.state_dir, ec);
    if (ec) {
      return util::Status::IoError("cannot create state dir " +
                                   options.state_dir + ": " + ec.message());
    }
  }

  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];

    if (!options.state_dir.empty() && options.resume) {
      CellOutcome outcome;
      outcome.cell = cell;
      if (LoadCellSnapshot(options.state_dir, cell, &outcome.json,
                           &outcome.exit_code)) {
        outcome.cached = true;
        ++report.cached;
        if (options.verbose) {
          std::printf("[%zu/%zu] %s/%s %s — resumed from snapshot\n", i + 1,
                      cells.size(), cell.matrix.c_str(), cell.bench.c_str(),
                      cell.ParamSummary().c_str());
        }
        report.outcomes.push_back(std::move(outcome));
        continue;
      }
    }

    if (options.max_executed != 0 && report.executed >= options.max_executed) {
      // Interrupted: report what completed; no final assembly.
      report.complete = false;
      report.tables = BuildTables(report.outcomes);
      return report;
    }

    CellOutcome outcome;
    outcome.cell = cell;
    auto bench = registry.find(cell.bench);
    if (bench == registry.end()) {
      outcome.exit_code = 127;
      std::fprintf(stderr, "unknown bench '%s' (matrix '%s')\n",
                   cell.bench.c_str(), cell.matrix.c_str());
    } else {
      if (options.verbose) {
        std::printf("[%zu/%zu] %s/%s %s — running\n", i + 1, cells.size(),
                    cell.matrix.c_str(), cell.bench.c_str(),
                    cell.ParamSummary().c_str());
        std::fflush(stdout);
      }
      RunSpec spec;
      spec.bench = cell.bench;
      spec.params = cell.params;
      RunResult result = bench->second(spec);
      outcome.exit_code = result.exit_code;
      outcome.json = std::move(result.json);
      ++report.executed;
      if (outcome.exit_code == 0 && !options.state_dir.empty()) {
        auto saved = SaveCellSnapshot(options.state_dir, cell, outcome.json,
                                      outcome.exit_code);
        if (!saved.ok()) {
          std::fprintf(stderr, "warning: cell snapshot not saved: %s\n",
                       saved.ToString().c_str());
        }
      }
    }
    if (outcome.exit_code != 0) ++report.failures;
    report.outcomes.push_back(std::move(outcome));
  }

  report.complete = true;
  report.final_json = AssembleFinalJson(config, report.outcomes);
  report.tables = BuildTables(report.outcomes);
  return report;
}

}  // namespace staq::exp
