// Open-loop request generator.
//
// Sends follow a precomputed schedule whatever the target is doing, and
// each request is timed from its *scheduled* send time, so a stall shows up
// as latency of every request it delays instead of slowing the generator
// (no coordinated omission). The calling thread sends. Completions are
// harvested per request class — one thread for cache hits, two for cold
// requests — and stamped the moment the answer arrives: harvesting every
// ticket in submission order would charge a cache hit for the cold
// requests queued ahead of it (hit p90 read ~130 ms instead of ~0.25 ms).
// Hits finish in submission order in a FIFO pool, so one harvester stamps
// them exactly; two cold harvesters keep a slow cold ticket from delaying
// the stamp of a faster one behind it. Four threads in all.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common.h"

namespace staqbench {

enum class ArrivalClass : uint8_t { kHit, kCold };

struct Arrival {
  double at_s = 0.0;  // scheduled send, seconds after the phase start
  ArrivalClass cls = ArrivalClass::kHit;
};

/// Hits at `hit_rate`/s and cold requests at `cold_rate`/s over
/// [0, seconds), merged in time order. Each class is a Poisson process
/// conditioned on its count: exactly round(rate x seconds) arrivals placed
/// uniformly at random, so every run has the same sample counts.
inline std::vector<Arrival> PoissonSchedule(Rng* rng, double hit_rate,
                                            double cold_rate,
                                            double seconds) {
  std::vector<Arrival> schedule;
  for (const auto& [rate, cls] :
       {std::pair{hit_rate, ArrivalClass::kHit},
        std::pair{cold_rate, ArrivalClass::kCold}}) {
    const auto count = static_cast<size_t>(std::llround(rate * seconds));
    for (size_t i = 0; i < count; ++i) {
      schedule.push_back(Arrival{rng->Uniform() * seconds, cls});
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at_s < b.at_s;
                   });
  return schedule;
}

struct OpenLoopResult {
  SteadyClock::time_point start;   // time zero of the schedule
  std::vector<double> latency_ms;  // scheduled send -> answer stamped
  std::vector<double> lag_ms;      // actual send - scheduled send
  std::vector<uint8_t> ok;         // answer arrived and checked correct
  /// Last answer minus last scheduled send: how long the backlog took to
  /// drain after the schedule ended.
  double drain_ms = 0.0;

  double MaxLagMs() const {
    return lag_ms.empty() ? 0.0
                          : *std::max_element(lag_ms.begin(), lag_ms.end());
  }
  /// Share of sends more than 1 ms behind schedule.
  double LateShare() const {
    if (lag_ms.empty()) return 0.0;
    size_t late = 0;
    for (double lag : lag_ms) late += lag > 1.0 ? 1 : 0;
    return static_cast<double>(late) / static_cast<double>(lag_ms.size());
  }
  /// Latencies of the correctly answered arrivals of one class.
  std::vector<double> Latencies(const std::vector<Arrival>& schedule,
                                ArrivalClass cls) const {
    std::vector<double> out;
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (schedule[i].cls == cls && ok[i]) out.push_back(latency_ms[i]);
    }
    return out;
  }
};

/// Runs `schedule` against `target`, which provides
///   using Ticket = ...;                        // default-constructible
///   Ticket Submit(size_t i);                   // must not block
///   Answer Wait(size_t i, Ticket& ticket);     // blocks for the answer
///   bool Check(size_t i, const Answer& a);     // verifies it, untimed
/// The completion stamp is taken between Wait and Check.
template <typename Target>
OpenLoopResult RunOpenLoop(Target& target,
                           const std::vector<Arrival>& schedule) {
  const size_t n = schedule.size();
  OpenLoopResult result;
  result.latency_ms.assign(n, 0.0);
  result.lag_ms.assign(n, 0.0);
  result.ok.assign(n, 0);
  std::vector<SteadyClock::time_point> done(n);
  std::vector<typename Target::Ticket> tickets(n);
  std::vector<size_t> hits, colds;
  for (size_t i = 0; i < n; ++i) {
    (schedule[i].cls == ArrivalClass::kHit ? hits : colds).push_back(i);
  }

  result.start = SteadyClock::now() + std::chrono::milliseconds(5);
  auto due = [&](size_t i) {
    return result.start +
           std::chrono::duration_cast<SteadyClock::duration>(
               std::chrono::duration<double>(schedule[i].at_s));
  };
  std::atomic<size_t> submitted{0};

  auto harvest = [&](size_t i) {
    std::this_thread::sleep_until(due(i));
    while (submitted.load(std::memory_order_acquire) <= i) {
      std::this_thread::yield();
    }
    auto answer = target.Wait(i, tickets[i]);
    done[i] = SteadyClock::now();
    result.latency_ms[i] = MillisBetween(due(i), done[i]);
    result.ok[i] = target.Check(i, answer) ? 1 : 0;
  };
  std::atomic<size_t> next_cold{0};
  auto harvest_colds = [&] {
    for (;;) {
      const size_t k = next_cold.fetch_add(1, std::memory_order_relaxed);
      if (k >= colds.size()) return;
      harvest(colds[k]);
    }
  };
  std::thread hit_harvester([&] {
    for (size_t i : hits) harvest(i);
  });
  std::thread cold_harvester_a(harvest_colds);
  std::thread cold_harvester_b(harvest_colds);

  for (size_t i = 0; i < n; ++i) {
    const auto when = due(i);
    std::this_thread::sleep_until(when);
    result.lag_ms[i] = MillisBetween(when, SteadyClock::now());
    tickets[i] = target.Submit(i);
    submitted.store(i + 1, std::memory_order_release);
  }
  hit_harvester.join();
  cold_harvester_a.join();
  cold_harvester_b.join();
  if (n > 0) {
    result.drain_ms =
        MillisBetween(due(n - 1), *std::max_element(done.begin(), done.end()));
  }
  return result;
}

}  // namespace staqbench
