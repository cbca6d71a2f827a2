#include "core/sim_wire.hpp"

#include <limits>
#include <string>
#include <utility>

namespace qmpi {

using classical::WireReader;
using classical::WireWriter;

namespace wire_detail {

void check_u32_count(std::size_t n, const char* what) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw sim::SimulatorError(
        std::string(what) + " count " + std::to_string(n) +
        " does not fit the wire format (max " +
        std::to_string(std::numeric_limits<std::uint32_t>::max()) + ")");
  }
}

}  // namespace wire_detail

namespace {

void put_gate(WireWriter& w, const sim::Gate1Q& gate) {
  for (const auto& amp : gate.m) {
    w.f64(amp.real());
    w.f64(amp.imag());
  }
  w.str(gate.name);
}

sim::Gate1Q get_gate(WireReader& r) {
  sim::Gate1Q gate;
  for (auto& amp : gate.m) {
    const double re = r.f64();
    const double im = r.f64();
    amp = sim::Complex(re, im);
  }
  gate.name = r.str();
  return gate;
}

void put_ids(WireWriter& w, std::span<const sim::QubitId> ids) {
  wire_detail::check_u32_count(ids.size(), "qubit id");
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const auto id : ids) w.u64(id);
}

std::vector<sim::QubitId> get_ids(WireReader& r) {
  const std::uint32_t n = r.u32();
  std::vector<sim::QubitId> ids(n);
  for (auto& id : ids) id = r.u64();
  return ids;
}

/// Executes one reply-free op (the only kind a batch may carry). Keeping
/// this separate from the reply-producing switch means the kBatch replay
/// loop and the one-op-per-frame path run the exact same decode + apply
/// code, so batching cannot drift semantically.
void apply_replyfree_op(sim::Backend& backend, SimOp op, WireReader& r) {
  switch (op) {
    case SimOp::kDeallocateClassical: {
      for (const auto id : get_ids(r)) backend.deallocate_classical(id);
      return;
    }
    case SimOp::kApply1: {
      const sim::QubitId qubit = r.u64();
      const sim::Gate1Q gate = get_gate(r);
      backend.apply(gate, qubit);
      return;
    }
    case SimOp::kCnot: {
      const sim::QubitId control = r.u64();
      const sim::QubitId target = r.u64();
      backend.cnot(control, target);
      return;
    }
    case SimOp::kCz: {
      const sim::QubitId control = r.u64();
      const sim::QubitId target = r.u64();
      backend.cz(control, target);
      return;
    }
    case SimOp::kToffoli: {
      const sim::QubitId c0 = r.u64();
      const sim::QubitId c1 = r.u64();
      const sim::QubitId target = r.u64();
      backend.toffoli(c0, c1, target);
      return;
    }
    default:
      // A reply-producing (or unknown) opcode inside a batch is a protocol
      // bug: its reply would have nowhere to go, so reject it loudly.
      throw sim::SimulatorError("opcode " +
                                std::to_string(static_cast<int>(op)) +
                                " is not batchable");
  }
}

}  // namespace

// --------------------------------------------------------- batching base ---

BatchingSimClient::BatchingSimClient(std::size_t max_batch_ops)
    : max_batch_ops_(max_batch_ops) {}

std::vector<std::byte> BatchingSimClient::call(const WireWriter& w) {
  flush();
  return ship_call(w.data());
}

void BatchingSimClient::submit_replyfree(const WireWriter& op) {
  if (max_batch_ops_ == 0) {
    (void)call(op);  // flush() inside is an immediate no-op return
    return;
  }
  const qmpi::LockGuard lock(batch_mu_);
  batch_.bytes(op.data());
  ++batch_count_;
  if (batch_count_ >= max_batch_ops_ ||
      batch_.data().size() >= kMaxSimBatchBytes) {
    flush_locked();
  }
}

void BatchingSimClient::flush() {
  if (max_batch_ops_ == 0) return;
  const qmpi::LockGuard lock(batch_mu_);
  flush_locked();
}

void BatchingSimClient::flush_locked() {
  if (batch_count_ == 0) return;
  WireWriter body;
  body.u8(static_cast<std::uint8_t>(SimOp::kBatch));
  body.u32(batch_count_);
  body.bytes(batch_.data());
  const std::uint32_t count = batch_count_;
  // Reset before the send: if the transport is dead these ops can never be
  // delivered, and retrying them on the next flush would be a lie.
  batch_ = WireWriter();
  batch_count_ = 0;
  ship_batch(body.data(), count);
  // Count only bodies that actually left: a dead-transport throw above
  // must not inflate the statistics tests and the bench assert on.
  ops_batched_ += count;
  ++batches_sent_;
}

std::uint64_t BatchingSimClient::batches_sent() const {
  const qmpi::LockGuard lock(batch_mu_);
  return batches_sent_;
}

std::uint64_t BatchingSimClient::ops_batched() const {
  const qmpi::LockGuard lock(batch_mu_);
  return ops_batched_;
}

std::vector<sim::QubitId> BatchingSimClient::allocate(std::size_t count) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kAllocate));
  w.u64(count);
  const auto reply_body = call(w);
  WireReader r(reply_body);
  return get_ids(r);
}

void BatchingSimClient::deallocate_classical(
    std::span<const sim::QubitId> ids) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kDeallocateClassical));
  put_ids(w, ids);
  submit_replyfree(w);
}

void BatchingSimClient::apply(const sim::Gate1Q& gate, sim::QubitId qubit) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kApply1));
  w.u64(qubit);
  put_gate(w, gate);
  submit_replyfree(w);
}

void BatchingSimClient::cnot(sim::QubitId control, sim::QubitId target) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kCnot));
  w.u64(control);
  w.u64(target);
  submit_replyfree(w);
}

void BatchingSimClient::cz(sim::QubitId control, sim::QubitId target) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kCz));
  w.u64(control);
  w.u64(target);
  submit_replyfree(w);
}

void BatchingSimClient::toffoli(sim::QubitId c0, sim::QubitId c1,
                                sim::QubitId target) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kToffoli));
  w.u64(c0);
  w.u64(c1);
  w.u64(target);
  submit_replyfree(w);
}

bool BatchingSimClient::measure(sim::QubitId qubit) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kMeasure));
  w.u64(qubit);
  const auto reply_body = call(w);
  WireReader r(reply_body);
  return r.u8() != 0;
}

bool BatchingSimClient::measure_x(sim::QubitId qubit) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kMeasureX));
  w.u64(qubit);
  const auto reply_body = call(w);
  WireReader r(reply_body);
  return r.u8() != 0;
}

bool BatchingSimClient::measure_parity(std::span<const sim::QubitId> qubits) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kMeasureParity));
  put_ids(w, qubits);
  const auto reply_body = call(w);
  WireReader r(reply_body);
  return r.u8() != 0;
}

double BatchingSimClient::probability_one(sim::QubitId qubit) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kProbabilityOne));
  w.u64(qubit);
  const auto reply_body = call(w);
  WireReader r(reply_body);
  return r.f64();
}

double BatchingSimClient::expectation(
    std::span<const std::pair<sim::QubitId, char>> paulis) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kExpectation));
  wire_detail::check_u32_count(paulis.size(), "Pauli term");
  w.u32(static_cast<std::uint32_t>(paulis.size()));
  for (const auto& [id, p] : paulis) {
    w.u64(id);
    w.u8(static_cast<std::uint8_t>(p));
  }
  const auto reply_body = call(w);
  WireReader r(reply_body);
  return r.f64();
}

std::size_t BatchingSimClient::num_qubits() {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(SimOp::kNumQubits));
  const auto reply_body = call(w);
  WireReader r(reply_body);
  return static_cast<std::size_t>(r.u64());
}

// ------------------------------------------------------------- executor ---

std::vector<std::byte> apply_sim_request(sim::Backend& backend,
                                         std::span<const std::byte> request) {
  WireReader r(request);
  const auto op = static_cast<SimOp>(r.u8());
  WireWriter reply;
  switch (op) {
    case SimOp::kAllocate: {
      const auto count = static_cast<std::size_t>(r.u64());
      put_ids(reply, backend.allocate(count));
      break;
    }
    case SimOp::kDeallocateClassical:
    case SimOp::kApply1:
    case SimOp::kCnot:
    case SimOp::kCz:
    case SimOp::kToffoli: {
      apply_replyfree_op(backend, op, r);
      break;
    }
    case SimOp::kMeasure: {
      reply.u8(backend.measure(r.u64()) ? 1 : 0);
      break;
    }
    case SimOp::kMeasureX: {
      reply.u8(backend.measure_x(r.u64()) ? 1 : 0);
      break;
    }
    case SimOp::kMeasureParity: {
      const auto ids = get_ids(r);
      reply.u8(backend.measure_parity(ids) ? 1 : 0);
      break;
    }
    case SimOp::kProbabilityOne: {
      reply.f64(backend.probability_one(r.u64()));
      break;
    }
    case SimOp::kExpectation: {
      const std::uint32_t n = r.u32();
      std::vector<std::pair<sim::QubitId, char>> paulis(n);
      for (auto& [id, p] : paulis) {
        id = r.u64();
        p = static_cast<char>(r.u8());
      }
      reply.f64(backend.expectation(paulis));
      break;
    }
    case SimOp::kNumQubits: {
      reply.u64(backend.num_qubits());
      break;
    }
    case SimOp::kBatch: {
      // Replay loop: sub-ops execute in encoding order against the same
      // backend, exactly as if each had arrived in its own frame. A
      // failure stops the batch (ops N+1..M never run, matching the
      // per-op path where the thrown error stops the rank's op stream)
      // and is re-raised with its position so "op 3 of 7" is debuggable
      // from the requesting process.
      const std::uint32_t count = r.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto sub = static_cast<SimOp>(r.u8());
        try {
          apply_replyfree_op(backend, sub, r);
        } catch (const sim::SimulatorError& e) {
          throw sim::SimulatorError("batched op " + std::to_string(i + 1) +
                                    " of " + std::to_string(count) + ": " +
                                    e.what());
        }
      }
      break;
    }
    default:
      throw sim::SimulatorError("unknown remote quantum opcode " +
                                std::to_string(static_cast<int>(op)));
  }
  return reply.take();
}

}  // namespace qmpi
