// The zone loop a bare ScenarioStore is given in tests. A store's patches
// label each new epoch over that epoch's network through the loop it was
// handed, and the loop is handed over before the store owns a city an
// engine could route over; so this fake builds its own engine on first use
// and rebuilds it whenever the scenario's network changes. It then runs
// the items serially, as serve::SerialZoneLoop does, and counts them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/labeling.h"
#include "router/router.h"
#include "serve/scenario.h"

namespace staq::testing {

/// Not thread-safe: one loop runs at a time.
class CountingZoneLoop : public serve::ZoneLoop {
 public:
  void Run(const serve::Scenario& scenario, size_t n,
           const serve::ZoneLoopBody& body) override {
    if (engine_ == nullptr || network_id_ != scenario.network_id()) {
      engine_.reset();  // built over the old router
      city_ = scenario.city_ptr();
      router_ = std::make_unique<router::Router>(&city_->feed,
                                                 scenario.router_options());
      engine_ = std::make_unique<core::LabelingEngine>(city_.get(),
                                                       router_.get());
      network_id_ = scenario.network_id();
    }
    items_ += n;
    serve::SerialZoneLoop(*engine_).Run(scenario, n, body);
  }

  /// Items run so far, over every loop.
  size_t items() const { return items_; }

 private:
  std::shared_ptr<const synth::City> city_;
  std::unique_ptr<router::Router> router_;
  std::unique_ptr<core::LabelingEngine> engine_;
  uint64_t network_id_ = 0;
  size_t items_ = 0;
};

}  // namespace staq::testing
