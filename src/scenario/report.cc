#include "scenario/report.h"

#include <cmath>
#include <limits>

#include "core/measures.h"
#include "exp/json.h"
#include "util/check.h"
#include "util/strings.h"

namespace staq::scenario {

namespace {

EquitySide SideOf(const core::AccessQueryResult& result) {
  EquitySide side;
  side.mean_mac = result.mean_mac;
  side.mean_acsd = result.mean_acsd;
  side.fairness = result.fairness;
  side.population_fairness = result.population_fairness;
  side.vulnerable_fairness = result.vulnerable_fairness;
  for (int c : result.classes) {
    side.class_counts[static_cast<size_t>(c)]++;
  }
  return side;
}

std::string JsonSide(const EquitySide& side) {
  return util::Format(
      "{\"class_counts\": [%u, %u, %u, %u], \"fairness\": %.6f, "
      "\"mean_acsd_s\": %.6f, \"mean_mac_s\": %.6f, "
      "\"population_fairness\": %.6f, \"vulnerable_fairness\": %.6f}",
      side.class_counts[0], side.class_counts[1], side.class_counts[2],
      side.class_counts[3], side.fairness, side.mean_acsd, side.mean_mac,
      side.population_fairness, side.vulnerable_fairness);
}

}  // namespace

EquityReport CompareAccess(const std::string& scenario_name,
                           const std::string& city_name,
                           const std::vector<synth::Zone>& zones,
                           const core::AccessQueryResult& before,
                           const core::AccessQueryResult& after) {
  STAQ_CHECK(before.mac.size() == zones.size() &&
                 after.mac.size() == zones.size() &&
                 before.classes.size() == zones.size() &&
                 after.classes.size() == zones.size(),
             "before/after answers must cover every zone");
  EquityReport report;
  report.scenario = scenario_name;
  report.city = city_name;
  report.zones = static_cast<uint32_t>(zones.size());
  report.before = SideOf(before);
  report.after = SideOf(after);

  report.mac_delta_s.resize(zones.size());
  for (size_t z = 0; z < zones.size(); ++z) {
    report.mac_delta_s[z] = after.mac[z] - before.mac[z];
    report.migration[static_cast<size_t>(before.classes[z])]
                    [static_cast<size_t>(after.classes[z])]++;
    // Worst = largest access loss; ties keep the lowest zone id.
    if (report.mac_delta_s[z] > report.worst.mac_delta_s) {
      report.worst.zone = static_cast<uint32_t>(z);
      report.worst.mac_delta_s = report.mac_delta_s[z];
    }
  }
  return report;
}

std::string FormatEquityReport(const EquityReport& report) {
  std::string out;
  out += util::Format("scenario %s (city %s, %u zones)\n",
                      report.scenario.c_str(), report.city.c_str(),
                      report.zones);
  for (const std::string& d : report.disruptions) {
    out += "  disrupt: " + d + "\n";
  }
  out += util::Format("  applied in %.3f s (%llu patch SPQs)\n",
                      report.mutation_seconds,
                      static_cast<unsigned long long>(report.mutation_spqs));

  out += util::Format("  %-18s %10s %10s %10s\n", "measure", "before",
                      "after", "delta");
  auto row = [&out](const char* label, double b, double a, double scale) {
    out += util::Format("  %-18s %10.3f %10.3f %+10.3f\n", label, b * scale,
                        a * scale, (a - b) * scale);
  };
  row("mean MAC (min)", report.before.mean_mac, report.after.mean_mac,
      1.0 / 60);
  row("mean ACSD (min)", report.before.mean_acsd, report.after.mean_acsd,
      1.0 / 60);
  row("fairness (Jain)", report.before.fairness, report.after.fairness, 1.0);
  row("pop fairness", report.before.population_fairness,
      report.after.population_fairness, 1.0);
  row("vulnerable", report.before.vulnerable_fairness,
      report.after.vulnerable_fairness, 1.0);

  out += util::Format("  %-18s", "classes");
  for (size_t c = 0; c < 4; ++c) {
    out += util::Format(" %s %u->%u",
                        core::AccessClassName(static_cast<core::AccessClass>(
                            static_cast<int>(c))),
                        report.before.class_counts[c],
                        report.after.class_counts[c]);
  }
  out += "\n  class migration (before -> after):\n";
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      if (i == j || report.migration[i][j] == 0) continue;
      out += util::Format(
          "    %-11s -> %-11s : %u zones\n",
          core::AccessClassName(static_cast<core::AccessClass>(
              static_cast<int>(i))),
          core::AccessClassName(static_cast<core::AccessClass>(
              static_cast<int>(j))),
          report.migration[i][j]);
    }
  }
  out += util::Format("  worst zone: %u (MAC %+.1f min)\n", report.worst.zone,
                      report.worst.mac_delta_s / 60);
  return out;
}

std::string EquityReportJson(const EquityReport& report) {
  std::string out = "{\"scenario\": \"";
  out += util::JsonEscape(report.scenario);
  out += "\", \"city\": \"";
  out += util::JsonEscape(report.city);
  out += "\", \"zones\": " + std::to_string(report.zones);

  out += ", \"disruptions\": [";
  for (size_t i = 0; i < report.disruptions.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"";
    out += util::JsonEscape(report.disruptions[i]);
    out += "\"";
  }
  out += "]";

  out += ", \"before\": " + JsonSide(report.before);
  out += ", \"after\": " + JsonSide(report.after);

  out += ", \"migration\": [";
  for (size_t i = 0; i < 4; ++i) {
    if (i > 0) out += ", ";
    out += "[";
    for (size_t j = 0; j < 4; ++j) {
      if (j > 0) out += ", ";
      out += std::to_string(report.migration[i][j]);
    }
    out += "]";
  }
  out += "]";

  out += ", \"mac_delta_s\": [";
  for (size_t z = 0; z < report.mac_delta_s.size(); ++z) {
    if (z > 0) out += ", ";
    out += util::Format("%.6f", report.mac_delta_s[z]);
  }
  out += "]";

  out += util::Format(
      ", \"worst_zone\": %u, \"worst_mac_delta_s\": %.6f, "
      "\"mutation_seconds\": %.6f, \"mutation_spqs\": %llu}",
      report.worst.zone, report.worst.mac_delta_s, report.mutation_seconds,
      static_cast<unsigned long long>(report.mutation_spqs));
  return out;
}

namespace {

util::Status MissingField(const std::string& path) {
  return util::Status::InvalidArgument("equity report JSON: missing or "
                                       "non-numeric field '" +
                                       path + "'");
}

util::Status ReadNumber(const exp::JsonDoc& doc, const std::string& path,
                        double* out) {
  const exp::JsonScalar* scalar = doc.Find(path);
  if (scalar == nullptr || scalar->kind != exp::JsonKind::kNumber) {
    return MissingField(path);
  }
  *out = scalar->num;
  return util::Status::OK();
}

/// Reads the count at `path`: kInvalidArgument unless it is a whole number
/// that `T` holds (converting any other double to `T` is undefined).
template <typename T>
util::Status ReadCount(const exp::JsonDoc& doc, const std::string& path,
                       T* out) {
  double number = 0;
  if (auto st = ReadNumber(doc, path, &number); !st.ok()) return st;
  // 2^digits, the first whole number T cannot hold; exact as a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(number >= 0.0 && number < limit && number == std::floor(number))) {
    return util::Status::InvalidArgument(
        "equity report JSON: field '" + path +
        "' is not a count (a whole number in [0, 2^" +
        std::to_string(std::numeric_limits<T>::digits) + "))");
  }
  *out = static_cast<T>(number);
  return util::Status::OK();
}

util::Status ReadSide(const exp::JsonDoc& doc, const std::string& prefix,
                      EquitySide* side) {
  struct {
    const char* key;
    double* field;
  } numbers[] = {
      {"fairness", &side->fairness},
      {"mean_acsd_s", &side->mean_acsd},
      {"mean_mac_s", &side->mean_mac},
      {"population_fairness", &side->population_fairness},
      {"vulnerable_fairness", &side->vulnerable_fairness},
  };
  for (auto& n : numbers) {
    auto st = ReadNumber(doc, prefix + "." + n.key, n.field);
    if (!st.ok()) return st;
  }
  for (size_t c = 0; c < 4; ++c) {
    auto st = ReadCount(doc, prefix + util::Format(".class_counts[%zu]", c),
                        &side->class_counts[c]);
    if (!st.ok()) return st;
  }
  return util::Status::OK();
}

}  // namespace

util::Result<EquityReport> ParseEquityReportJson(const std::string& text) {
  auto doc = exp::JsonDoc::Parse(text);
  if (!doc.ok()) return doc.status();
  const exp::JsonDoc& d = doc.value();

  EquityReport report;
  const exp::JsonScalar* scenario = d.Find("scenario");
  const exp::JsonScalar* city = d.Find("city");
  if (scenario == nullptr || scenario->kind != exp::JsonKind::kString ||
      city == nullptr || city->kind != exp::JsonKind::kString) {
    return util::Status::InvalidArgument(
        "equity report JSON: missing scenario/city");
  }
  report.scenario = scenario->str;
  report.city = city->str;

  if (auto st = ReadCount(d, "zones", &report.zones); !st.ok()) return st;

  for (size_t i = 0;; ++i) {
    const exp::JsonScalar* spec = d.Find(util::Format("disruptions[%zu]", i));
    if (spec == nullptr) break;
    report.disruptions.push_back(spec->str);
  }

  if (auto st = ReadSide(d, "before", &report.before); !st.ok()) return st;
  if (auto st = ReadSide(d, "after", &report.after); !st.ok()) return st;

  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      // A migration cell may legitimately be absent only if the whole row
      // flattened away; require every cell (the writer always emits 16).
      auto st = ReadCount(d, util::Format("migration[%zu][%zu]", i, j),
                          &report.migration[i][j]);
      if (!st.ok()) return st;
    }
  }

  // Grown entry by entry: a corrupt `zones` count must not size a buffer.
  for (size_t z = 0; z < report.zones; ++z) {
    double delta = 0;
    auto st = ReadNumber(d, util::Format("mac_delta_s[%zu]", z), &delta);
    if (!st.ok()) return st;
    report.mac_delta_s.push_back(delta);
  }

  if (auto st = ReadCount(d, "worst_zone", &report.worst.zone); !st.ok()) {
    return st;
  }
  if (auto st = ReadNumber(d, "worst_mac_delta_s", &report.worst.mac_delta_s);
      !st.ok()) {
    return st;
  }
  if (auto st = ReadNumber(d, "mutation_seconds", &report.mutation_seconds);
      !st.ok()) {
    return st;
  }
  if (auto st = ReadCount(d, "mutation_spqs", &report.mutation_spqs);
      !st.ok()) {
    return st;
  }
  return report;
}

}  // namespace staq::scenario
