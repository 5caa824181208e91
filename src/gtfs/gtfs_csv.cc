#include "gtfs/gtfs_csv.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <unordered_map>

#include "gtfs/feed_builder.h"
#include "util/csv.h"
#include "util/strings.h"

namespace staq::gtfs {

namespace {

namespace fs = std::filesystem;

using Rows = std::vector<std::vector<std::string>>;

/// Column lookup over a parsed header row.
class Header {
 public:
  explicit Header(const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      index_[util::Trim(row[i])] = i;
    }
  }

  /// Index of a required column.
  util::Result<size_t> Require(const std::string& name) const {
    auto it = index_.find(name);
    if (it == index_.end()) {
      return util::Status::InvalidArgument("missing column: " + name);
    }
    return it->second;
  }

  /// Index of an optional column, or SIZE_MAX.
  size_t Optional(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? SIZE_MAX : it->second;
  }

 private:
  std::unordered_map<std::string, size_t> index_;
};

util::Result<Rows> LoadTable(const std::string& directory,
                             const std::string& filename) {
  auto rows = util::ReadCsvFile(directory + "/" + filename);
  if (!rows.ok()) return rows.status();
  if (rows.value().empty()) {
    return util::Status::InvalidArgument(filename + " is empty");
  }
  return rows;
}

std::string DayFlag(DayMask mask, Day day) {
  return RunsOn(mask, day) ? "1" : "0";
}

}  // namespace

util::Result<Day> WeekdayOf(uint32_t date) {
  const uint32_t y = date / 10000;
  const uint32_t m = (date / 100) % 100;
  const uint32_t d = date % 100;
  static constexpr uint32_t kDaysInMonth[12] = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  const bool leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
  if (y < 1000 || y > 9999 || m < 1 || m > 12 || d < 1 ||
      d > kDaysInMonth[m - 1] + (m == 2 && leap ? 1u : 0u)) {
    return util::Status::InvalidArgument(
        util::Format("bad YYYYMMDD date %u", date));
  }
  // days_from_civil (Gregorian), then anchor on 1970-01-01 = Thursday and
  // rotate to Monday = 0 to match the Day enum.
  const int32_t yy = static_cast<int32_t>(y) - (m <= 2);
  const int32_t era = (yy >= 0 ? yy : yy - 399) / 400;
  const uint32_t yoe = static_cast<uint32_t>(yy - era * 400);
  const uint32_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const uint32_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  const int64_t days =
      static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) - 719468;
  return static_cast<Day>(((days % 7) + 7 + 3) % 7);
}

util::Status WriteFeedCsv(const Feed& feed,
                          const geo::LocalProjection& projection,
                          const std::string& directory) {
  return WriteFeedCsv(feed, projection, directory, {});
}

util::Status WriteFeedCsv(const Feed& feed,
                          const geo::LocalProjection& projection,
                          const std::string& directory,
                          const std::vector<CalendarDateException>& exceptions) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return util::Status::IoError("cannot create " + directory + ": " +
                                 ec.message());
  }

  // stops.txt
  {
    util::CsvTable table({"stop_id", "stop_name", "stop_lat", "stop_lon"});
    for (const Stop& stop : feed.stops()) {
      geo::LatLon ll = projection.Unproject(stop.position);
      STAQ_RETURN_NOT_OK(table.AddRow(
          {util::Format("S%u", stop.id), stop.name,
           util::CsvTable::Num(ll.lat, 7), util::CsvTable::Num(ll.lon, 7)}));
    }
    STAQ_RETURN_NOT_OK(table.WriteFile(directory + "/stops.txt"));
  }

  // routes.txt (+ flat fares via fare_attributes / fare_rules).
  {
    util::CsvTable routes({"route_id", "route_short_name", "route_type"});
    util::CsvTable fares({"fare_id", "price", "currency_type",
                          "payment_method", "transfers"});
    util::CsvTable rules({"fare_id", "route_id"});
    for (const Route& route : feed.routes()) {
      std::string route_id = util::Format("R%u", route.id);
      STAQ_RETURN_NOT_OK(routes.AddRow({route_id, route.name, "3"}));
      std::string fare_id = util::Format("F%u", route.id);
      STAQ_RETURN_NOT_OK(fares.AddRow(
          {fare_id, util::CsvTable::Num(route.flat_fare, 2), "GBP", "0", ""}));
      STAQ_RETURN_NOT_OK(rules.AddRow({fare_id, route_id}));
    }
    STAQ_RETURN_NOT_OK(routes.WriteFile(directory + "/routes.txt"));
    STAQ_RETURN_NOT_OK(fares.WriteFile(directory + "/fare_attributes.txt"));
    STAQ_RETURN_NOT_OK(rules.WriteFile(directory + "/fare_rules.txt"));
  }

  // calendar.txt: one service per distinct day mask actually used.
  std::map<DayMask, std::string> services;
  for (const Trip& trip : feed.trips()) {
    if (!services.count(trip.days)) {
      services[trip.days] = util::Format("C%zu", services.size());
    }
  }
  {
    util::CsvTable table({"service_id", "monday", "tuesday", "wednesday",
                          "thursday", "friday", "saturday", "sunday",
                          "start_date", "end_date"});
    for (const auto& [mask, service_id] : services) {
      STAQ_RETURN_NOT_OK(table.AddRow(
          {service_id, DayFlag(mask, Day::kMonday),
           DayFlag(mask, Day::kTuesday), DayFlag(mask, Day::kWednesday),
           DayFlag(mask, Day::kThursday), DayFlag(mask, Day::kFriday),
           DayFlag(mask, Day::kSaturday), DayFlag(mask, Day::kSunday),
           "20240101", "20991231"}));
    }
    STAQ_RETURN_NOT_OK(table.WriteFile(directory + "/calendar.txt"));
  }

  // calendar_dates.txt: explicit service exceptions, validated before any
  // byte is written so a bad date never leaves a half-useful file behind.
  if (!exceptions.empty()) {
    util::CsvTable table({"service_id", "date", "exception_type"});
    for (const CalendarDateException& e : exceptions) {
      auto weekday = WeekdayOf(e.date);
      if (!weekday.ok()) {
        return util::Status::InvalidArgument("calendar_dates exception: " +
                                             weekday.status().message());
      }
      STAQ_RETURN_NOT_OK(table.AddRow({e.service_id,
                                       util::Format("%08u", e.date),
                                       e.added ? "1" : "2"}));
    }
    STAQ_RETURN_NOT_OK(table.WriteFile(directory + "/calendar_dates.txt"));
  }

  // trips.txt
  {
    util::CsvTable table({"route_id", "service_id", "trip_id"});
    for (const Trip& trip : feed.trips()) {
      STAQ_RETURN_NOT_OK(table.AddRow({util::Format("R%u", trip.route),
                                       services[trip.days],
                                       util::Format("T%u", trip.id)}));
    }
    STAQ_RETURN_NOT_OK(table.WriteFile(directory + "/trips.txt"));
  }

  // stop_times.txt
  {
    util::CsvTable table({"trip_id", "arrival_time", "departure_time",
                          "stop_id", "stop_sequence"});
    for (TripId t = 0; t < feed.num_trips(); ++t) {
      uint32_t seq = 0;
      for (const StopTime* call = feed.trip_begin(t); call != feed.trip_end(t);
           ++call) {
        STAQ_RETURN_NOT_OK(table.AddRow(
            {util::Format("T%u", t), FormatTime(call->arrival),
             FormatTime(call->departure), util::Format("S%u", call->stop),
             util::CsvTable::Num(static_cast<int64_t>(seq++))}));
      }
    }
    STAQ_RETURN_NOT_OK(table.WriteFile(directory + "/stop_times.txt"));
  }
  return util::Status::OK();
}

util::Result<Feed> ReadFeedCsv(const std::string& directory,
                               const geo::LocalProjection& projection) {
  FeedBuilder builder;

  // --- stops ---------------------------------------------------------------
  std::unordered_map<std::string, StopId> stop_ids;
  {
    auto rows = LoadTable(directory, "stops.txt");
    if (!rows.ok()) return rows.status();
    Header header(rows.value()[0]);
    auto id_col = header.Require("stop_id");
    auto lat_col = header.Require("stop_lat");
    auto lon_col = header.Require("stop_lon");
    STAQ_RETURN_NOT_OK(id_col.status());
    STAQ_RETURN_NOT_OK(lat_col.status());
    STAQ_RETURN_NOT_OK(lon_col.status());
    size_t name_col = header.Optional("stop_name");

    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      if (row.size() <= std::max(lat_col.value(), lon_col.value())) {
        return util::Status::InvalidArgument(
            util::Format("stops.txt row %zu too short", r));
      }
      auto lat = util::ParseDouble(row[lat_col.value()], "stops.txt stop_lat");
      auto lon = util::ParseDouble(row[lon_col.value()], "stops.txt stop_lon");
      if (!lat.ok()) return lat.status();
      if (!lon.ok()) return lon.status();
      std::string external = util::Trim(row[id_col.value()]);
      if (stop_ids.count(external)) {
        return util::Status::InvalidArgument("duplicate stop_id " + external);
      }
      std::string name = name_col != SIZE_MAX && name_col < row.size()
                             ? row[name_col]
                             : external;
      stop_ids[external] = builder.AddStop(
          name, projection.Project(geo::LatLon{lat.value(), lon.value()}));
    }
  }

  // --- fares (optional) ------------------------------------------------------
  std::unordered_map<std::string, double> fare_price;     // fare_id -> price
  std::unordered_map<std::string, double> route_fare;     // route_id -> price
  if (fs::exists(directory + "/fare_attributes.txt") &&
      fs::exists(directory + "/fare_rules.txt")) {
    auto fares = LoadTable(directory, "fare_attributes.txt");
    if (!fares.ok()) return fares.status();
    Header fare_header(fares.value()[0]);
    auto fare_id_col = fare_header.Require("fare_id");
    auto price_col = fare_header.Require("price");
    STAQ_RETURN_NOT_OK(fare_id_col.status());
    STAQ_RETURN_NOT_OK(price_col.status());
    for (size_t r = 1; r < fares.value().size(); ++r) {
      const auto& row = fares.value()[r];
      auto price = util::ParseDouble(row[price_col.value()], "fare price");
      if (!price.ok()) return price.status();
      fare_price[util::Trim(row[fare_id_col.value()])] = price.value();
    }

    auto rules = LoadTable(directory, "fare_rules.txt");
    if (!rules.ok()) return rules.status();
    Header rule_header(rules.value()[0]);
    auto rule_fare_col = rule_header.Require("fare_id");
    auto rule_route_col = rule_header.Require("route_id");
    STAQ_RETURN_NOT_OK(rule_fare_col.status());
    STAQ_RETURN_NOT_OK(rule_route_col.status());
    for (size_t r = 1; r < rules.value().size(); ++r) {
      const auto& row = rules.value()[r];
      auto it = fare_price.find(util::Trim(row[rule_fare_col.value()]));
      if (it != fare_price.end()) {
        route_fare[util::Trim(row[rule_route_col.value()])] = it->second;
      }
    }
  }

  // --- routes ----------------------------------------------------------------
  std::unordered_map<std::string, RouteId> route_ids;
  {
    auto rows = LoadTable(directory, "routes.txt");
    if (!rows.ok()) return rows.status();
    Header header(rows.value()[0]);
    auto id_col = header.Require("route_id");
    STAQ_RETURN_NOT_OK(id_col.status());
    size_t name_col = header.Optional("route_short_name");

    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      std::string external = util::Trim(row[id_col.value()]);
      if (route_ids.count(external)) {
        return util::Status::InvalidArgument("duplicate route_id " + external);
      }
      std::string name = name_col != SIZE_MAX && name_col < row.size()
                             ? row[name_col]
                             : external;
      double fare = route_fare.count(external) ? route_fare[external] : 0.0;
      route_ids[external] = builder.AddRoute(name, fare);
    }
  }

  // --- calendar ---------------------------------------------------------------
  std::unordered_map<std::string, DayMask> service_days;
  {
    auto rows = LoadTable(directory, "calendar.txt");
    if (!rows.ok()) return rows.status();
    Header header(rows.value()[0]);
    auto id_col = header.Require("service_id");
    STAQ_RETURN_NOT_OK(id_col.status());
    const char* day_names[7] = {"monday",   "tuesday", "wednesday", "thursday",
                                "friday",   "saturday", "sunday"};
    size_t day_cols[7];
    for (int d = 0; d < 7; ++d) {
      auto col = header.Require(day_names[d]);
      STAQ_RETURN_NOT_OK(col.status());
      day_cols[d] = col.value();
    }
    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      DayMask mask = 0;
      for (int d = 0; d < 7; ++d) {
        if (day_cols[d] < row.size() && util::Trim(row[day_cols[d]]) == "1") {
          mask |= MaskOf(static_cast<Day>(d));
        }
      }
      service_days[util::Trim(row[id_col.value()])] = mask;
    }
  }

  // --- calendar_dates (optional) ---------------------------------------------
  // Exceptions fold into the weekly mask by weekday: type 1 (added) sets
  // the date's weekday bit, type 2 (removed) clears it. A service that
  // exists only through added dates is created here, mask 0 upward —
  // GTFS permits calendar_dates-only services.
  if (fs::exists(directory + "/calendar_dates.txt")) {
    auto rows = LoadTable(directory, "calendar_dates.txt");
    if (!rows.ok()) return rows.status();
    Header header(rows.value()[0]);
    auto id_col = header.Require("service_id");
    auto date_col = header.Require("date");
    auto type_col = header.Require("exception_type");
    STAQ_RETURN_NOT_OK(id_col.status());
    STAQ_RETURN_NOT_OK(date_col.status());
    STAQ_RETURN_NOT_OK(type_col.status());
    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      if (row.size() <= std::max({id_col.value(), date_col.value(),
                                  type_col.value()})) {
        return util::Status::InvalidArgument(
            util::Format("calendar_dates.txt row %zu too short", r));
      }
      const std::string date_text = util::Trim(row[date_col.value()]);
      uint32_t date = 0;
      bool digits = date_text.size() == 8;
      for (char c : date_text) {
        if (c < '0' || c > '9') digits = false;
        if (digits) date = date * 10 + static_cast<uint32_t>(c - '0');
      }
      if (!digits) {
        return util::Status::InvalidArgument(
            util::Format("calendar_dates.txt row %zu: date must be "
                         "YYYYMMDD, got '%s'",
                         r, date_text.c_str()));
      }
      auto weekday = WeekdayOf(date);
      if (!weekday.ok()) {
        return util::Status::InvalidArgument(
            util::Format("calendar_dates.txt row %zu: %s", r,
                         weekday.status().message().c_str()));
      }
      const std::string type = util::Trim(row[type_col.value()]);
      if (type != "1" && type != "2") {
        return util::Status::InvalidArgument(
            util::Format("calendar_dates.txt row %zu: exception_type must "
                         "be 1 or 2, got '%s'",
                         r, type.c_str()));
      }
      DayMask& mask = service_days[util::Trim(row[id_col.value()])];
      if (type == "1") {
        mask |= MaskOf(weekday.value());
      } else {
        mask &= static_cast<DayMask>(~MaskOf(weekday.value()));
      }
    }
  }

  // --- trips + stop_times -------------------------------------------------------
  // stop_times rows are grouped per trip and ordered by stop_sequence; the
  // builder needs calls appended per trip in order, so collect first.
  struct PendingCall {
    int sequence;
    StopId stop;
    TimeOfDay arrival;
    TimeOfDay departure;
  };
  std::unordered_map<std::string, std::pair<RouteId, DayMask>> trip_meta;
  std::vector<std::string> trip_order;  // preserve file order
  {
    auto rows = LoadTable(directory, "trips.txt");
    if (!rows.ok()) return rows.status();
    Header header(rows.value()[0]);
    auto route_col = header.Require("route_id");
    auto service_col = header.Require("service_id");
    auto trip_col = header.Require("trip_id");
    STAQ_RETURN_NOT_OK(route_col.status());
    STAQ_RETURN_NOT_OK(service_col.status());
    STAQ_RETURN_NOT_OK(trip_col.status());

    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      std::string trip_id = util::Trim(row[trip_col.value()]);
      auto route_it = route_ids.find(util::Trim(row[route_col.value()]));
      if (route_it == route_ids.end()) {
        return util::Status::InvalidArgument("trip references unknown route");
      }
      auto service_it = service_days.find(util::Trim(row[service_col.value()]));
      if (service_it == service_days.end()) {
        return util::Status::InvalidArgument(
            "trip references unknown service");
      }
      if (trip_meta.count(trip_id)) {
        return util::Status::InvalidArgument("duplicate trip_id " + trip_id);
      }
      trip_meta[trip_id] = {route_it->second, service_it->second};
      trip_order.push_back(trip_id);
    }
  }

  std::unordered_map<std::string, std::vector<PendingCall>> calls;
  {
    auto rows = LoadTable(directory, "stop_times.txt");
    if (!rows.ok()) return rows.status();
    Header header(rows.value()[0]);
    auto trip_col = header.Require("trip_id");
    auto arr_col = header.Require("arrival_time");
    auto dep_col = header.Require("departure_time");
    auto stop_col = header.Require("stop_id");
    auto seq_col = header.Require("stop_sequence");
    STAQ_RETURN_NOT_OK(trip_col.status());
    STAQ_RETURN_NOT_OK(arr_col.status());
    STAQ_RETURN_NOT_OK(dep_col.status());
    STAQ_RETURN_NOT_OK(stop_col.status());
    STAQ_RETURN_NOT_OK(seq_col.status());

    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      std::string trip_id = util::Trim(row[trip_col.value()]);
      if (!trip_meta.count(trip_id)) {
        return util::Status::InvalidArgument(
            "stop_time references unknown trip " + trip_id);
      }
      auto stop_it = stop_ids.find(util::Trim(row[stop_col.value()]));
      if (stop_it == stop_ids.end()) {
        return util::Status::InvalidArgument(
            "stop_time references unknown stop");
      }
      auto arrival = ParseTime(row[arr_col.value()]);
      auto departure = ParseTime(row[dep_col.value()]);
      if (!arrival.ok()) return arrival.status();
      if (!departure.ok()) return departure.status();
      auto sequence = util::ParseDouble(row[seq_col.value()], "stop_sequence");
      if (!sequence.ok()) return sequence.status();
      calls[trip_id].push_back(PendingCall{
          static_cast<int>(sequence.value()), stop_it->second,
          arrival.value(), departure.value()});
    }
  }

  // --- frequencies (optional): headway-based trip expansion ------------------
  // GTFS frequencies.txt turns a trip into a template repeated every
  // headway_secs across [start_time, end_time); its own stop_times provide
  // only the inter-call offsets.
  struct FrequencyWindow {
    TimeOfDay start, end;
    int headway_s;
  };
  std::unordered_map<std::string, std::vector<FrequencyWindow>> frequencies;
  if (fs::exists(directory + "/frequencies.txt")) {
    auto rows = LoadTable(directory, "frequencies.txt");
    if (!rows.ok()) return rows.status();
    Header header(rows.value()[0]);
    auto trip_col = header.Require("trip_id");
    auto start_col = header.Require("start_time");
    auto end_col = header.Require("end_time");
    auto headway_col = header.Require("headway_secs");
    STAQ_RETURN_NOT_OK(trip_col.status());
    STAQ_RETURN_NOT_OK(start_col.status());
    STAQ_RETURN_NOT_OK(end_col.status());
    STAQ_RETURN_NOT_OK(headway_col.status());
    for (size_t r = 1; r < rows.value().size(); ++r) {
      const auto& row = rows.value()[r];
      auto start = ParseTime(row[start_col.value()]);
      auto end = ParseTime(row[end_col.value()]);
      auto headway = util::ParseDouble(row[headway_col.value()], "headway_secs");
      if (!start.ok()) return start.status();
      if (!end.ok()) return end.status();
      if (!headway.ok()) return headway.status();
      if (headway.value() <= 0) {
        return util::Status::InvalidArgument("non-positive headway_secs");
      }
      frequencies[util::Trim(row[trip_col.value()])].push_back(
          FrequencyWindow{start.value(), end.value(),
                          static_cast<int>(headway.value())});
    }
  }

  for (const std::string& trip_id : trip_order) {
    auto it = calls.find(trip_id);
    if (it == calls.end()) {
      return util::Status::InvalidArgument("trip has no stop_times: " +
                                           trip_id);
    }
    std::sort(it->second.begin(), it->second.end(),
              [](const PendingCall& a, const PendingCall& b) {
                return a.sequence < b.sequence;
              });
    const auto& [route, days] = trip_meta[trip_id];

    auto freq_it = frequencies.find(trip_id);
    if (freq_it == frequencies.end()) {
      builder.BeginTrip(route, days);
      for (const PendingCall& call : it->second) {
        STAQ_RETURN_NOT_OK(builder.AddCall(call.stop, call.arrival,
                                           call.departure));
      }
      continue;
    }

    // Frequency expansion: shift the template's offsets to each start.
    if (it->second.empty()) {
      return util::Status::InvalidArgument("frequency trip has no calls: " +
                                           trip_id);
    }
    TimeOfDay base = it->second.front().arrival;
    for (const FrequencyWindow& window : freq_it->second) {
      for (TimeOfDay start = window.start; start < window.end;
           start += window.headway_s) {
        builder.BeginTrip(route, days);
        for (const PendingCall& call : it->second) {
          STAQ_RETURN_NOT_OK(builder.AddCall(call.stop,
                                             start + (call.arrival - base),
                                             start + (call.departure - base)));
        }
      }
    }
  }

  return builder.Build();
}

}  // namespace staq::gtfs
