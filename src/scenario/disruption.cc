#include "scenario/disruption.h"

#include <cctype>
#include <cstdlib>

#include "util/strings.h"

namespace staq::scenario {

namespace {

/// Strict non-negative integer parse: every character a digit, value fits
/// in uint32. The spec grammar has no signs, separators, or whitespace.
bool ParseU32(const std::string& text, uint32_t* out) {
  if (text.empty() || text.size() > 10) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value > 0xffffffffull) return false;
  *out = static_cast<uint32_t>(value);
  return true;
}

/// Strict double parse: the whole field must be consumed.
bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

util::Status Malformed(const std::string& spec, const std::string& why) {
  return util::Status::InvalidArgument("disruption spec '" + spec +
                                       "': " + why);
}

/// Parses the selector field shared by the route/stop-targeted kinds.
util::Status ParseSelector(const std::string& spec, const std::string& field,
                           bool allow_all, Disruption* d) {
  if (field == "busiest") {
    d->selector = TargetSelector::kBusiest;
    return util::Status::OK();
  }
  if (field == "all") {
    if (!allow_all) return Malformed(spec, "'all' is not valid here");
    d->selector = TargetSelector::kAll;
    return util::Status::OK();
  }
  if (ParseU32(field, &d->id)) {
    d->selector = TargetSelector::kId;
    return util::Status::OK();
  }
  return Malformed(spec, "bad selector '" + field +
                             "' (want an id, 'busiest'" +
                             (allow_all ? ", or 'all')" : ")"));
}

}  // namespace

util::Result<Disruption> ParseDisruptionSpec(const std::string& spec) {
  std::vector<std::string> fields = util::Split(spec, ':');
  Disruption d;
  d.spec = spec;
  const std::string& kind = fields[0];

  if (kind == "suspend_route" || kind == "close_stop") {
    if (fields.size() != 2) return Malformed(spec, "want <kind>:<selector>");
    d.kind = kind == "suspend_route" ? wal::MutationType::kSuspendRoute
                                     : wal::MutationType::kCloseStop;
    auto st = ParseSelector(spec, fields[1], /*allow_all=*/false, &d);
    if (!st.ok()) return st;
    return d;
  }

  if (kind == "scale_headway") {
    if (fields.size() != 3) {
      return Malformed(spec, "want scale_headway:<selector>:<factor>");
    }
    d.kind = wal::MutationType::kScaleHeadway;
    auto st = ParseSelector(spec, fields[1], /*allow_all=*/true, &d);
    if (!st.ok()) return st;
    if (!ParseU32(fields[2], &d.factor) || d.factor < 2) {
      return Malformed(spec, "factor must be an integer >= 2");
    }
    return d;
  }

  if (kind == "set_fare") {
    if (fields.size() != 3) {
      return Malformed(spec, "want set_fare:<selector>:<fare>");
    }
    d.kind = wal::MutationType::kSetFare;
    auto st = ParseSelector(spec, fields[1], /*allow_all=*/true, &d);
    if (!st.ok()) return st;
    if (!ParseDouble(fields[2], &d.value) || d.value < 0.0) {
      return Malformed(spec, "fare must be a non-negative number");
    }
    return d;
  }

  if (kind == "scale_walk") {
    if (fields.size() != 2) return Malformed(spec, "want scale_walk:<factor>");
    d.kind = wal::MutationType::kScaleWalkSpeed;
    d.selector = TargetSelector::kAll;  // walk speed has no target
    if (!ParseDouble(fields[1], &d.value) || !(d.value > 0.0)) {
      return Malformed(spec, "walk factor must be a positive number");
    }
    return d;
  }

  return Malformed(spec, "unknown kind '" + kind + "'");
}

util::Result<uint32_t> BusiestRoute(const gtfs::Feed& feed) {
  if (feed.num_routes() == 0) {
    return util::Status::FailedPrecondition("feed has no routes");
  }
  std::vector<uint32_t> trips(feed.num_routes(), 0);
  for (const gtfs::Trip& trip : feed.trips()) ++trips[trip.route];
  uint32_t best = 0;
  for (uint32_t r = 1; r < trips.size(); ++r) {
    if (trips[r] > trips[best]) best = r;
  }
  return best;
}

util::Result<uint32_t> BusiestStop(const gtfs::Feed& feed) {
  if (feed.num_stops() == 0) {
    return util::Status::FailedPrecondition("feed has no stops");
  }
  // Count departure events: every call except a trip's final one (the
  // router can board there; a terminus-only stop is not "busy").
  std::vector<uint32_t> departures(feed.num_stops(), 0);
  for (const gtfs::Trip& trip : feed.trips()) {
    const gtfs::StopTime* begin = feed.trip_begin(trip.id);
    for (uint32_t i = 0; i + 1 < trip.num_stop_times; ++i) {
      ++departures[begin[i].stop];
    }
  }
  uint32_t best = 0;
  for (uint32_t s = 1; s < departures.size(); ++s) {
    if (departures[s] > departures[best]) best = s;
  }
  return best;
}

util::Result<wal::MutationRecord> ResolveDisruption(const Disruption& d,
                                                    const gtfs::Feed& feed) {
  // Walk scaling has no target to resolve.
  if (d.kind == wal::MutationType::kScaleWalkSpeed) {
    return wal::MutationRecord::ScaleWalkSpeed(0, d.value);
  }

  const bool stop_target = d.kind == wal::MutationType::kCloseStop;
  uint32_t target = wal::kAllTargets;
  switch (d.selector) {
    case TargetSelector::kId: {
      const size_t limit = stop_target ? feed.num_stops() : feed.num_routes();
      if (d.id >= limit) {
        return util::Status::NotFound(
            util::Format("disruption spec '%s': %s %u not in feed (%zu %ss)",
                         d.spec.c_str(), stop_target ? "stop" : "route", d.id,
                         limit, stop_target ? "stop" : "route"));
      }
      target = d.id;
      break;
    }
    case TargetSelector::kBusiest: {
      auto resolved = stop_target ? BusiestStop(feed) : BusiestRoute(feed);
      if (!resolved.ok()) return resolved.status();
      target = resolved.value();
      break;
    }
    case TargetSelector::kAll:
      target = wal::kAllTargets;
      break;
  }

  // The spec carries only its kind's parameters (the rest stay zero), so
  // the record is the spec with its target resolved.
  wal::MutationRecord record;
  record.type = d.kind;
  record.target = target;
  record.factor = d.factor;
  record.value = d.value;
  return record;
}

}  // namespace staq::scenario
