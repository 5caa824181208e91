#include "core/export.h"

#include <algorithm>
#include <fstream>
#include <vector>

#include "util/strings.h"

namespace staq::core {

namespace {

std::string PointGeometry(const geo::LocalProjection& projection,
                          const geo::Point& p) {
  geo::LatLon ll = projection.Unproject(p);
  return util::Format(
      "{\"type\":\"Point\",\"coordinates\":[%.7f,%.7f]}", ll.lon, ll.lat);
}

}  // namespace

util::Status ExportAccessGeoJson(const synth::City& city,
                                 const geo::LocalProjection& projection,
                                 const AccessQueryResult& result,
                                 const std::vector<synth::Poi>& pois,
                                 const std::string& path) {
  if (result.mac.size() != city.zones.size()) {
    return util::Status::InvalidArgument(
        "result does not cover the city's zones");
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return util::Status::IoError("cannot open " + path);

  out << "{\"type\":\"FeatureCollection\",\"features\":[\n";
  bool first = true;
  for (const synth::Zone& z : city.zones) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"type\":\"Feature\",\"geometry\":"
        << PointGeometry(projection, z.centroid) << ",\"properties\":{"
        << "\"kind\":\"zone\",\"zone_id\":" << z.id
        << util::Format(",\"mac_s\":%.1f", result.mac[z.id])
        << util::Format(",\"acsd_s\":%.1f", result.acsd[z.id])
        << ",\"class\":\""
        << util::JsonEscape(AccessClassName(
               static_cast<AccessClass>(result.classes[z.id])))
        << "\"" << util::Format(",\"population\":%.0f", z.population)
        << util::Format(",\"vulnerability\":%.3f", z.vulnerability) << "}}";
  }
  for (const synth::Poi& p : pois) {
    out << ",\n{\"type\":\"Feature\",\"geometry\":"
        << PointGeometry(projection, p.position) << ",\"properties\":{"
        << "\"kind\":\"poi\",\"poi_id\":" << p.id << ",\"category\":\""
        << util::JsonEscape(synth::PoiCategoryName(p.category)) << "\"}}";
  }
  out << "\n]}\n";
  if (!out) return util::Status::IoError("write failed for " + path);
  return util::Status::OK();
}

std::string RenderAccessReport(const synth::City& city,
                               const AccessQueryResult& result,
                               const std::string& title) {
  std::string md;
  md += "# " + title + "\n\n";
  md += util::Format("Zones analysed: %zu; population %.0f.\n\n",
                     city.zones.size(), city.TotalPopulation());

  md += "## Headline measures\n\n";
  md += util::Format("| measure | value |\n|---|---|\n");
  md += util::Format("| mean access cost (MAC) | %.1f min |\n",
                     result.mean_mac / 60);
  md += util::Format("| mean temporal variation (ACSD) | %.1f min |\n",
                     result.mean_acsd / 60);
  md += util::Format("| fairness (Jain) | %.3f |\n", result.fairness);
  md += util::Format("| population-weighted fairness | %.3f |\n",
                     result.population_fairness);
  md += util::Format("| vulnerability-weighted fairness | %.3f |\n",
                     result.vulnerable_fairness);
  md += util::Format("| SPQs issued | %llu of %llu gravity trips |\n",
                     static_cast<unsigned long long>(result.spqs),
                     static_cast<unsigned long long>(result.gravity_trips));
  md += util::Format("| answered in | %.2f s |\n\n", result.elapsed_s);

  md += "## Accessibility classes\n\n| class | zones |\n|---|---|\n";
  int histogram[4] = {0, 0, 0, 0};
  for (int c : result.classes) ++histogram[c];
  for (int c = 0; c < 4; ++c) {
    md += util::Format("| %s | %d |\n",
                       AccessClassName(static_cast<AccessClass>(c)),
                       histogram[c]);
  }

  md += "\n## Worst-served zones\n\n";
  md += "| zone | MAC (min) | ACSD (min) | population | vulnerability |\n";
  md += "|---|---|---|---|---|\n";
  std::vector<uint32_t> order(city.zones.size());
  for (uint32_t z = 0; z < order.size(); ++z) order[z] = z;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return result.mac[a] > result.mac[b];
  });
  for (size_t i = 0; i < std::min<size_t>(10, order.size()); ++i) {
    uint32_t z = order[i];
    md += util::Format("| %u | %.1f | %.1f | %.0f | %.2f |\n", z,
                       result.mac[z] / 60, result.acsd[z] / 60,
                       city.zones[z].population, city.zones[z].vulnerability);
  }
  return md;
}

util::Status WriteAccessReport(const synth::City& city,
                               const AccessQueryResult& result,
                               const std::string& title,
                               const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return util::Status::IoError("cannot open " + path);
  out << RenderAccessReport(city, result, title);
  if (!out) return util::Status::IoError("write failed for " + path);
  return util::Status::OK();
}

}  // namespace staq::core
