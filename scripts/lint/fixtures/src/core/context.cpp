// Seeded counter-example for env-chokepoint: the raw getenv below must be
// flagged (this is not src/core/env.cpp).
#include <cstdlib>

namespace qmpi {

const char* bad_raw_lookup() {
  return std::getenv("QMPI_SEED");  // VIOLATION: env-chokepoint
}

}  // namespace qmpi
