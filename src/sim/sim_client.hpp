#pragma once

/// \file sim_client.hpp
/// The typed quantum-operation surface of a rank, abstract over where
/// the state vector lives. See docs/ARCHITECTURE.md §4.


#include <span>
#include <utility>
#include <vector>

#include "sim/gates.hpp"
#include "sim/server.hpp"

namespace qmpi::sim {

/// The quantum operations a QMPI rank may perform, as an abstract typed
/// surface instead of raw closures over the Backend.
///
/// Implementations:
///   - LocalSimClient (below): calls into the in-process SimServer — the
///     path every threads-as-ranks job takes.
///   - BatchingSimClient subclasses (core/sim_wire.hpp) serialize each
///     call into a wire body: DistSimClient (core/sim_dist.hpp) ships it
///     to rank 0's process, which hosts the backend — the paper's
///     "forward quantum operations to rank 0" made literal across OS
///     processes — and service::SessionClient ships it to a qmpid
///     session.
///
/// Context is written entirely against this interface, so protocols,
/// collectives, and tests cannot tell (and must not care) where the state
/// vector actually lives. Anything added here needs a wire encoding in
/// core/sim_wire.hpp; keep the surface small and typed.
///
/// Pipelining contract: reply-free operations (gates, classical
/// deallocation) MAY be buffered by an implementation and shipped to the
/// backend later in issue order. Every operation that returns a value
/// (allocate, measure*, probability/expectation queries, num_qubits) is a
/// synchronization point: it observes all previously issued operations.
/// flush() forces buffered operations onto their way to the backend;
/// fence() additionally waits until they have executed, surfacing any
/// deferred error. For the in-process client both are free no-ops — every
/// call executes synchronously.
///
/// Error contract: misuse (bad handle, deallocating an entangled qubit)
/// throws SimulatorError from every implementation — remote failures are
/// marshalled back and rethrown as SimulatorError with the original text.
/// A buffered operation's error may surface at a later synchronization
/// point (the next reply op, flush(), or fence()) instead of at the call
/// that issued it; the message always identifies the failing operation.
class SimClient {
 public:
  virtual ~SimClient() = default;

  /// Allocates `count` fresh qubits in |0>; returns their global ids.
  virtual std::vector<QubitId> allocate(std::size_t count) = 0;
  /// Deallocates qubits that are in a classical basis state.
  virtual void deallocate_classical(std::span<const QubitId> ids) = 0;

  /// Applies a single-qubit gate.
  virtual void apply(const Gate1Q& gate, QubitId qubit) = 0;
  virtual void cnot(QubitId control, QubitId target) = 0;
  virtual void cz(QubitId control, QubitId target) = 0;
  virtual void toffoli(QubitId c0, QubitId c1, QubitId target) = 0;

  /// Projective Z measurement with collapse.
  virtual bool measure(QubitId qubit) = 0;
  /// X-basis measurement with collapse.
  virtual bool measure_x(QubitId qubit) = 0;
  /// Joint parity measurement (collapses only the parity observable).
  virtual bool measure_parity(std::span<const QubitId> qubits) = 0;

  /// Probability of measuring 1 (no collapse).
  virtual double probability_one(QubitId qubit) = 0;
  /// Expectation value of a Pauli string, e.g. {{q0,'Z'},{q1,'X'}}.
  virtual double expectation(
      std::span<const std::pair<QubitId, char>> paulis) = 0;
  /// Number of currently allocated qubits in the global state.
  virtual std::size_t num_qubits() = 0;

  /// Forces any locally buffered reply-free operations onto their way to
  /// the backend (asynchronously; see the pipelining contract above).
  /// No-op when nothing is buffered or nothing ever buffers.
  virtual void flush() {}

  /// flush(), then wait until every operation issued through this client
  /// has executed, rethrowing any deferred backend error as
  /// SimulatorError. The job harness fences at run end so a program that
  /// finishes with buffered gates still executes (and error-checks) them.
  virtual void fence() { flush(); }
};

/// Default number of reply-free ops a BatchingSimClient coalesces into one
/// batch before flushing on its own (QMPI_SIM_BATCH=on), and the
/// hard ceiling an explicit QMPI_SIM_BATCH=<n> may request.
inline constexpr std::size_t kDefaultSimBatchOps = 1024;
inline constexpr std::size_t kMaxSimBatchOps = 1u << 20;

/// SimClient over the in-process SimServer: each call runs on the calling
/// rank thread under the server's mutex, preserving the strict one-at-a-time
/// order the shared-state simulation depends on. Closures never outlive the
/// call, so span arguments are passed through without copying.
class LocalSimClient final : public SimClient {
 public:
  explicit LocalSimClient(SimServer& server) : server_(&server) {}

  std::vector<QubitId> allocate(std::size_t count) override {
    return server_->call(
        [count](Backend& sv) { return sv.allocate(count); });
  }

  void deallocate_classical(std::span<const QubitId> ids) override {
    server_->call([ids](Backend& sv) {
      for (const auto id : ids) sv.deallocate_classical(id);
      return 0;
    });
  }

  void apply(const Gate1Q& gate, QubitId qubit) override {
    server_->call([&gate, qubit](Backend& sv) {
      sv.apply(gate, qubit);
      return 0;
    });
  }

  void cnot(QubitId control, QubitId target) override {
    server_->call([control, target](Backend& sv) {
      sv.cnot(control, target);
      return 0;
    });
  }

  void cz(QubitId control, QubitId target) override {
    server_->call([control, target](Backend& sv) {
      sv.cz(control, target);
      return 0;
    });
  }

  void toffoli(QubitId c0, QubitId c1, QubitId target) override {
    server_->call([c0, c1, target](Backend& sv) {
      sv.toffoli(c0, c1, target);
      return 0;
    });
  }

  bool measure(QubitId qubit) override {
    return server_->call([qubit](Backend& sv) { return sv.measure(qubit); });
  }

  bool measure_x(QubitId qubit) override {
    return server_->call(
        [qubit](Backend& sv) { return sv.measure_x(qubit); });
  }

  bool measure_parity(std::span<const QubitId> qubits) override {
    return server_->call(
        [qubits](Backend& sv) { return sv.measure_parity(qubits); });
  }

  double probability_one(QubitId qubit) override {
    return server_->call(
        [qubit](Backend& sv) { return sv.probability_one(qubit); });
  }

  double expectation(
      std::span<const std::pair<QubitId, char>> paulis) override {
    return server_->call(
        [paulis](Backend& sv) { return sv.expectation(paulis); });
  }

  std::size_t num_qubits() override {
    return server_->call([](Backend& sv) { return sv.num_qubits(); });
  }

 private:
  SimServer* server_;
};

}  // namespace qmpi::sim
