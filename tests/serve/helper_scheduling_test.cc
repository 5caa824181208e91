// Helped zone loops under CPU contention (DESIGN.md §16). With every core
// pinned by a normal-priority spinner, the idle-priority helpers barely
// run — a helper can stall for a second or more holding the zone it
// claimed. The owning thread must not wait for it: it takes over a stalled
// helper's zone, so a helped build stays within 2x the serial build timed
// under the same load. Runs alone (RUN_SERIAL): it pins every core.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/gravity.h"
#include "serve/server.h"
#include "util/stopwatch.h"

namespace staq::serve {
namespace {

/// One normal-priority busy loop per hardware thread until destroyed.
class Spinners {
 public:
  Spinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        uint64_t spins = 0;
        while (!stop_.load(std::memory_order_relaxed)) ++spins;
        sink_.fetch_add(spins, std::memory_order_relaxed);
      });
    }
  }
  ~Spinners() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> sink_{0};
  std::vector<std::thread> threads_;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

TEST(HelperSchedulingTest, HelpedBuildStaysWithinTwiceSerialOnPinnedCores) {
  // The bench city: a build long enough that one stalled zone per helper
  // would dominate it without takeover.
  const synth::CitySpec spec = synth::CitySpec::Brindale(0.1, 42);
  auto city = synth::BuildCity(spec);
  ASSERT_TRUE(city.ok());
  AqServer::Options options;
  options.num_threads = 4;
  AqServer server(std::move(city).value(), gtfs::WeekdayAmPeak(), options);

  AqRequest request;
  request.category = synth::PoiCategory::kSchool;
  request.options.exact = true;
  request.options.gravity = core::CalibratedGravityConfig(spec);
  request.options.seed = 1;
  ASSERT_TRUE(server.Query(request).ok());  // contexts exist before timing

  std::vector<double> serial_s, helped_s;
  {
    Spinners spinners;
    for (uint64_t rep = 0; rep < 5; ++rep) {
      // Fresh seeds: every build is cold.
      request.options.seed = 100 + rep;
      util::Stopwatch watch;
      ASSERT_TRUE(server.QueryUncached(request).ok());
      serial_s.push_back(watch.ElapsedSeconds());
      request.options.seed = 200 + rep;
      watch.Reset();
      ASSERT_TRUE(server.Query(request).ok());
      helped_s.push_back(watch.ElapsedSeconds());
    }
  }
  const double serial = Median(serial_s);
  const double helped = Median(helped_s);
  std::printf("pinned cores: serial build %.3f s, helped build %.3f s\n",
              serial, helped);
  EXPECT_LE(helped, 2.0 * serial);
}

}  // namespace
}  // namespace staq::serve
