// Tests for the quantum-op wire protocol's executing side: a batch body
// may carry only reply-free ops, malformed bodies surface as errors, and
// the wire encoders must reject counts that would silently truncate to
// u32. The batched pipeline end to end (batched == unbatched, frame
// splitting, "op N of M" attribution, broken streams) is tested over real
// sim channels in test_distributed_backend.cpp (SimWireBatch).
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "classical/wire.hpp"
#include "core/sim_wire.hpp"
#include "sim/backend.hpp"

using namespace qmpi;
using classical::WireWriter;

// ---------------------------------------------------- decode guards ---

TEST(SimWireBatch, ReplyProducingOpcodeInsideABatchIsRejected) {
  auto backend = sim::make_backend(sim::BackendKind::kSerial, 1, 1);
  const auto ids = backend->allocate(1);
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kBatch));
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(SimOp::kMeasure));  // has a reply: invalid
  w.u64(ids[0]);
  try {
    (void)apply_sim_request(*backend, w.data());
    FAIL() << "a measurement inside a batch must be rejected";
  } catch (const sim::SimulatorError& e) {
    EXPECT_NE(std::string(e.what()).find("not batchable"), std::string::npos)
        << e.what();
  }
}

TEST(SimWireBatch, NestedBatchIsRejected) {
  auto backend = sim::make_backend(sim::BackendKind::kSerial, 1, 1);
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kBatch));
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(SimOp::kBatch));
  w.u32(0);
  EXPECT_THROW((void)apply_sim_request(*backend, w.data()),
               sim::SimulatorError);
}

TEST(SimWireBatch, TruncatedBatchBodySurfacesAsError) {
  auto backend = sim::make_backend(sim::BackendKind::kSerial, 1, 1);
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kBatch));
  w.u32(2);  // announces two ops, delivers half of one
  w.u8(static_cast<std::uint8_t>(SimOp::kCnot));
  w.u32(7);  // cnot wants two u64s; this is 4 stray bytes
  EXPECT_ANY_THROW((void)apply_sim_request(*backend, w.data()));
}

// ------------------------------------------------------ narrowing guards ---

TEST(SimWireCounts, CountsBeyondU32ThrowInsteadOfTruncating) {
  // A count above 2^32-1 silently cast to u32 would encode a *different*
  // (smaller) id list — e.g. deallocating the wrong qubits. The guard
  // must throw SimulatorError naming the field.
  const std::size_t too_big =
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max()) + 1;
  try {
    wire_detail::check_u32_count(too_big, "qubit id");
    FAIL() << "count beyond u32 must throw";
  } catch (const sim::SimulatorError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("qubit id"), std::string::npos) << what;
    EXPECT_NE(what.find("does not fit"), std::string::npos) << what;
  }
  // The boundary itself is representable and must pass.
  EXPECT_NO_THROW(wire_detail::check_u32_count(
      std::numeric_limits<std::uint32_t>::max(), "qubit id"));
  EXPECT_NO_THROW(wire_detail::check_u32_count(0, "qubit id"));
}
