// Clean decoy for env-chokepoint: src/core/env.cpp is the one file allowed
// to call getenv. Seeded counter-example for env-docs: the settings table
// names QMPI_UNDOCUMENTED, which has no row in the fixture README.
#include <cstdlib>

namespace qmpi::env {

struct Setting {
  const char* name;
};

constexpr Setting kTable[] = {
    {.name = "QMPI_DOCUMENTED"},
    {.name = "QMPI_UNDOCUMENTED"},  // VIOLATION: env-docs
};

const char* get(const Setting& s) { return std::getenv(s.name); }

}  // namespace qmpi::env
