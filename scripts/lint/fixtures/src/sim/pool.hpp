#pragma once

// Seeded counter-example for naked-sync: a raw std::mutex member outside
// core/sync.hpp. The commented-out decoy below must NOT fire — the rule
// strips comments before matching.
#include <mutex>

namespace qmpi::sim {

class FixturePool {
 public:
  void poke() {
    const std::lock_guard lock(mu_);  // VIOLATION: naked-sync
  }

 private:
  // decoy in a comment: std::condition_variable cv_;
  std::mutex mu_;  // VIOLATION: naked-sync
};

}  // namespace qmpi::sim
