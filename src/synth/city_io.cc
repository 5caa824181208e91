#include "synth/city_io.h"

#include <filesystem>

#include "geo/kdtree.h"
#include "util/csv.h"
#include "util/strings.h"

namespace staq::synth {

namespace fs = std::filesystem;

util::Status SaveCityCsv(const City& city, const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return util::Status::IoError("cannot create " + directory + ": " +
                                 ec.message());
  }

  {
    util::CsvTable table({"zone_id", "x_m", "y_m", "population",
                          "vulnerability"});
    for (const Zone& z : city.zones) {
      STAQ_RETURN_NOT_OK(table.AddRow(
          {util::CsvTable::Num(static_cast<int64_t>(z.id)),
           util::CsvTable::Num(z.centroid.x, 3),
           util::CsvTable::Num(z.centroid.y, 3),
           util::CsvTable::Num(z.population, 3),
           util::CsvTable::Num(z.vulnerability, 6)}));
    }
    STAQ_RETURN_NOT_OK(table.WriteFile(directory + "/zones.csv"));
  }

  {
    util::CsvTable table({"poi_id", "category", "x_m", "y_m"});
    for (const Poi& p : city.pois) {
      STAQ_RETURN_NOT_OK(table.AddRow(
          {util::CsvTable::Num(static_cast<int64_t>(p.id)),
           PoiCategoryName(p.category), util::CsvTable::Num(p.position.x, 3),
           util::CsvTable::Num(p.position.y, 3)}));
    }
    STAQ_RETURN_NOT_OK(table.WriteFile(directory + "/pois.csv"));
  }

  {
    util::CsvTable table({"kind", "a", "b", "c"});
    for (graph::NodeId n = 0; n < city.road.num_nodes(); ++n) {
      STAQ_RETURN_NOT_OK(table.AddRow(
          {"N", util::CsvTable::Num(static_cast<int64_t>(n)),
           util::CsvTable::Num(city.road.position(n).x, 3),
           util::CsvTable::Num(city.road.position(n).y, 3)}));
    }
    // Each undirected edge appears as two arcs; write only tail < head
    // and re-add bidirectionally on load.
    for (graph::NodeId n = 0; n < city.road.num_nodes(); ++n) {
      for (const graph::Arc* arc = city.road.arcs_begin(n);
           arc != city.road.arcs_end(n); ++arc) {
        if (n < arc->head) {
          STAQ_RETURN_NOT_OK(table.AddRow(
              {"E", util::CsvTable::Num(static_cast<int64_t>(n)),
               util::CsvTable::Num(static_cast<int64_t>(arc->head)),
               util::CsvTable::Num(arc->length_m, 3)}));
        }
      }
    }
    STAQ_RETURN_NOT_OK(table.WriteFile(directory + "/roads.csv"));
  }
  return util::Status::OK();
}

util::Result<City> LoadCityCsv(const std::string& directory,
                               gtfs::Feed feed) {
  City city;
  city.feed = std::move(feed);

  // --- zones -----------------------------------------------------------
  {
    auto rows = util::ReadCsvFile(directory + "/zones.csv");
    if (!rows.ok()) return rows.status();
    if (rows.value().size() < 2) {
      return util::Status::InvalidArgument("zones.csv has no zones");
    }
    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      if (row.size() < 5) {
        return util::Status::InvalidArgument("zones.csv row too short");
      }
      Zone z;
      auto id = util::ParseDouble(row[0], "zone_id");
      auto x = util::ParseDouble(row[1], "zone x");
      auto y = util::ParseDouble(row[2], "zone y");
      auto pop = util::ParseDouble(row[3], "population");
      auto vuln = util::ParseDouble(row[4], "vulnerability");
      for (const auto* v :
           {&id, &x, &y, &pop, &vuln}) {
        if (!v->ok()) return v->status();
      }
      z.id = static_cast<uint32_t>(id.value());
      if (z.id != city.zones.size()) {
        return util::Status::InvalidArgument(
            "zone ids must be dense and ascending");
      }
      z.centroid = {x.value(), y.value()};
      z.population = pop.value();
      z.vulnerability = vuln.value();
      city.zones.push_back(z);
    }
  }

  // --- POIs -------------------------------------------------------------
  {
    auto rows = util::ReadCsvFile(directory + "/pois.csv");
    if (!rows.ok()) return rows.status();
    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      if (row.size() < 4) {
        return util::Status::InvalidArgument("pois.csv row too short");
      }
      Poi p;
      auto id = util::ParseDouble(row[0], "poi_id");
      auto category = PoiCategoryFromName(util::Trim(row[1]));
      auto x = util::ParseDouble(row[2], "poi x");
      auto y = util::ParseDouble(row[3], "poi y");
      if (!id.ok()) return id.status();
      if (!category.ok()) return category.status();
      if (!x.ok()) return x.status();
      if (!y.ok()) return y.status();
      p.id = static_cast<uint32_t>(id.value());
      if (p.id != city.pois.size()) {
        return util::Status::InvalidArgument(
            "poi ids must be dense and ascending");
      }
      p.category = category.value();
      p.position = {x.value(), y.value()};
      city.pois.push_back(p);
    }
  }

  // --- road graph ---------------------------------------------------------
  {
    auto rows = util::ReadCsvFile(directory + "/roads.csv");
    if (!rows.ok()) return rows.status();
    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      if (row.size() < 4) {
        return util::Status::InvalidArgument("roads.csv row too short");
      }
      std::string kind = util::Trim(row[0]);
      auto a = util::ParseDouble(row[1], "roads a");
      auto b = util::ParseDouble(row[2], "roads b");
      auto c = util::ParseDouble(row[3], "roads c");
      if (!a.ok()) return a.status();
      if (!b.ok()) return b.status();
      if (!c.ok()) return c.status();
      if (kind == "N") {
        graph::NodeId id = city.road.AddNode({b.value(), c.value()});
        if (id != static_cast<graph::NodeId>(a.value())) {
          return util::Status::InvalidArgument(
              "road node ids must be dense and ascending");
        }
      } else if (kind == "E") {
        STAQ_RETURN_NOT_OK(city.road.AddEdge(
            static_cast<graph::NodeId>(a.value()),
            static_cast<graph::NodeId>(b.value()), c.value()));
      } else {
        return util::Status::InvalidArgument("unknown roads.csv kind " + kind);
      }
    }
    city.road.Finalize();
    if (city.road.num_nodes() == 0) {
      return util::Status::InvalidArgument("roads.csv has no nodes");
    }
  }

  // --- derived fields ---------------------------------------------------
  geo::BBox extent{city.zones[0].centroid.x, city.zones[0].centroid.y,
                   city.zones[0].centroid.x, city.zones[0].centroid.y};
  for (const Zone& z : city.zones) {
    extent.min_x = std::min(extent.min_x, z.centroid.x);
    extent.min_y = std::min(extent.min_y, z.centroid.y);
    extent.max_x = std::max(extent.max_x, z.centroid.x);
    extent.max_y = std::max(extent.max_y, z.centroid.y);
  }
  city.extent = extent;

  std::vector<geo::IndexedPoint> nodes;
  nodes.reserve(city.road.num_nodes());
  for (graph::NodeId n = 0; n < city.road.num_nodes(); ++n) {
    nodes.push_back(geo::IndexedPoint{city.road.position(n), n});
  }
  geo::KdTree tree(std::move(nodes));
  city.zone_node.reserve(city.zones.size());
  for (const Zone& z : city.zones) {
    city.zone_node.push_back(tree.Nearest(z.centroid).id);
  }

  // spec stays defaulted except the lattice dims, which downstream
  // consumers (Fig. 5 choropleth) treat as unknown for loaded cities.
  city.spec.name = "loaded";
  city.spec.zones_x = static_cast<int>(city.zones.size());
  city.spec.zones_y = 1;
  return city;
}

}  // namespace staq::synth
