// The zone loop a bare ScenarioStore is given in tests: a
// serve::SerialZoneLoop on an engine of its own (rebuilt whenever the
// scenario's network changes) that counts the items it runs.
#pragma once

#include <cstddef>

#include "serve/scenario.h"

namespace staq::testing {

/// Not thread-safe: one loop runs at a time.
class CountingZoneLoop : public serve::ZoneLoop {
 public:
  void Run(const serve::Scenario& scenario, size_t n,
           const serve::ZoneLoopBody& body) override {
    items_ += n;
    serial_.Run(scenario, n, body);
  }

  /// Items run so far, over every loop.
  size_t items() const { return items_; }

 private:
  serve::SerialZoneLoop serial_;
  size_t items_ = 0;
};

}  // namespace staq::testing
