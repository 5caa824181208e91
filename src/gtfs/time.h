// Time-of-day and time-interval types for timetable data (paper §III-A).
//
// All timetable times are integer seconds since local midnight of a service
// day. A TimeInterval v = [t_s, t_e, t_d] names a popular analysis window,
// e.g. {7:00, 9:00, Tuesday} is "weekday AM peak".
#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

namespace staq::gtfs {

/// Seconds since local midnight (0 .. 86399 for same-day times).
using TimeOfDay = int32_t;

inline constexpr TimeOfDay kSecondsPerDay = 86400;

enum class Day : uint8_t {
  kMonday = 0,
  kTuesday,
  kWednesday,
  kThursday,
  kFriday,
  kSaturday,
  kSunday,
};

/// Bitmask over days of the week; bit d set means the service runs on day d.
using DayMask = uint8_t;

inline constexpr DayMask kWeekdays = 0b0011111;
inline constexpr DayMask kWeekend = 0b1100000;
inline constexpr DayMask kEveryDay = 0b1111111;

inline DayMask MaskOf(Day d) {
  return static_cast<DayMask>(1u << static_cast<uint8_t>(d));
}

inline bool RunsOn(DayMask mask, Day d) { return (mask & MaskOf(d)) != 0; }

/// Builds a TimeOfDay from components. No range checks beyond debug asserts.
TimeOfDay MakeTime(int hours, int minutes, int seconds = 0);

/// Parses "HH:MM:SS" or "HH:MM". Hours up to 47 are accepted (GTFS allows
/// times past midnight for late-night services).
util::Result<TimeOfDay> ParseTime(const std::string& text);

/// Formats as "HH:MM:SS".
std::string FormatTime(TimeOfDay t);

/// The time interval v = [t_s, t_e, t_d] of the paper: a window on a day.
struct TimeInterval {
  TimeOfDay start = 0;
  TimeOfDay end = 0;
  Day day = Day::kTuesday;
  std::string label;  // e.g. "weekday-am-peak"

  bool Contains(TimeOfDay t) const { return t >= start && t < end; }
  double DurationHours() const { return (end - start) / 3600.0; }

  bool operator==(const TimeInterval&) const = default;
};

/// The weekday AM peak interval used throughout the paper's experiments.
TimeInterval WeekdayAmPeak();
/// Complementary intervals for temporal-variation studies.
TimeInterval WeekdayPmPeak();
TimeInterval WeekdayOffPeak();
TimeInterval SundayMorning();

}  // namespace staq::gtfs
