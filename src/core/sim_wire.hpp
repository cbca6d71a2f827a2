#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "classical/wire.hpp"
#include "core/sync.hpp"
#include "sim/backend.hpp"
#include "sim/sim_client.hpp"

namespace qmpi {

/// Wire protocol for forwarding quantum operations to a remote backend.
///
/// Each SimClient call with a reply becomes one request whose body is
/// (u8 opcode, operands); the executing side runs it on its Backend under
/// a single serialization and replies with the result. Backend exceptions
/// travel back and are rethrown locally as sim::SimulatorError, so
/// protocol code behaves identically whether the state vector is
/// in-process or three processes away.
///
/// Reply-free operations (gates, classical deallocation) additionally
/// have a *batched* form: a kBatch body is (u8 kBatch, u32 count, then
/// `count` concatenated reply-free op encodings). The executor replays
/// the sub-ops in order against the same Backend; a sub-op failure is
/// rethrown as "batched op N of M: <original message>" and breaks the
/// rest of the sending process's op stream for the run, so a pipelined
/// stream attributes failures — and stops at them — exactly like the
/// one-op-per-frame path.
///
/// Two shippers implement the protocol. Under QMPI_TRANSPORT=tcp,
/// core/sim_dist.hpp's DistSimClient routes bodies over the sim channels
/// to the root-rank sequencer, which runs them on the backend rank 0's
/// process hosts (serial, sharded) or fans them out to a replica in every
/// rank process (distributed). Under QMPI_TRANSPORT=service,
/// service::SessionClient sends them to a qmpid session.
///
/// The opcode values are part of the wire format; append only.
enum class SimOp : std::uint8_t {
  kAllocate = 1,
  kDeallocateClassical = 2,
  kApply1 = 3,
  kCnot = 4,
  kCz = 5,
  kToffoli = 6,
  kMeasure = 7,
  kMeasureX = 8,
  kMeasureParity = 9,
  kProbabilityOne = 10,
  kExpectation = 11,
  kNumQubits = 12,
  kBatch = 13,
};

/// A batch auto-flushes once its encoded body reaches this size, so one
/// batch frame (body + epoch/frame overhead) stays far below the 64 MiB
/// classical::kMaxFrameBytes wire cap: an arbitrarily gate-dense stream
/// splits into more frames instead of ever tripping the cap.
inline constexpr std::size_t kMaxSimBatchBytes = 1u << 20;  // 1 MiB

namespace wire_detail {
/// Guards every count the sim-wire encoders narrow to u32: a count that
/// does not fit must throw (SimulatorError naming the field), never wrap
/// — a silently truncated id list would deallocate the wrong qubits.
void check_u32_count(std::size_t n, const char* what);
}  // namespace wire_detail

/// SimClient base that owns the op encodings and the pipelining batch
/// buffer, independent of where the bodies go. Subclasses provide the
/// shipping: ship_call() round-trips one reply-producing request body and
/// ship_batch() sends one one-way kBatch body. Thread-safe (all locally
/// hosted rank threads share one instance) because the batch buffer has
/// its own mutex; subclasses must make the ship hooks callable
/// concurrently.
///
/// With `max_batch_ops` > 0, reply-free operations are buffered and
/// shipped as one kBatch body — no per-gate round trip. The buffer
/// flushes at every synchronization point: any op with a reply,
/// flush()/fence(), `max_batch_ops` buffered ops, and a
/// kMaxSimBatchBytes-sized body; subclasses additionally hook their
/// transport so the buffer drains right before any classical message
/// leaves the process, which is what keeps cross-process happens-before
/// intact (see docs/ARCHITECTURE.md §4). With `max_batch_ops` == 0 every
/// call is a blocking round trip (the pre-batching behavior).
class BatchingSimClient : public sim::SimClient {
 public:
  explicit BatchingSimClient(std::size_t max_batch_ops);

  BatchingSimClient(const BatchingSimClient&) = delete;
  BatchingSimClient& operator=(const BatchingSimClient&) = delete;

  std::vector<sim::QubitId> allocate(std::size_t count) override;
  void deallocate_classical(std::span<const sim::QubitId> ids) override;
  void apply(const sim::Gate1Q& gate, sim::QubitId qubit) override;
  void cnot(sim::QubitId control, sim::QubitId target) override;
  void cz(sim::QubitId control, sim::QubitId target) override;
  void toffoli(sim::QubitId c0, sim::QubitId c1, sim::QubitId target) override;
  bool measure(sim::QubitId qubit) override;
  bool measure_x(sim::QubitId qubit) override;
  bool measure_parity(std::span<const sim::QubitId> qubits) override;
  double probability_one(sim::QubitId qubit) override;
  double expectation(
      std::span<const std::pair<sim::QubitId, char>> paulis) override;
  std::size_t num_qubits() override;

  void flush() override;

  /// Pipeline statistics (tests and the remote bench assert on these):
  /// how many batch bodies left, and how many ops they carried.
  std::uint64_t batches_sent() const;
  std::uint64_t ops_batched() const;

 protected:
  /// Ships one reply-producing request body and returns the reply body.
  /// Must throw sim::SimulatorError (or a subclass) on failure.
  virtual std::vector<std::byte> ship_call(
      std::span<const std::byte> request) = 0;

  /// Ships one kBatch body carrying `count` ops, one-way. Called with the
  /// batch mutex held, so bodies leave in buffer order. Locks a subclass
  /// takes inside therefore order AFTER batch_mu_ (e.g. batch_mu_ ->
  /// SessionClient::io_mu_ in the service client).
  virtual void ship_batch(std::span<const std::byte> body,
                          std::uint32_t count) QMPI_REQUIRES(batch_mu_) = 0;

  /// Flushes buffered ops then ships `w` as a reply-producing request.
  std::vector<std::byte> call(const classical::WireWriter& w);

  /// Buffers one encoded reply-free op (batching on) or round-trips it
  /// immediately (batching off).
  void submit_replyfree(const classical::WireWriter& op);
  void flush_locked() QMPI_REQUIRES(batch_mu_);

  std::size_t max_batch_ops_;

  mutable qmpi::Mutex batch_mu_{"BatchingSimClient::batch_mu"};
  /// Concatenated buffered op encodings.
  classical::WireWriter batch_ QMPI_GUARDED_BY(batch_mu_);
  std::uint32_t batch_count_ QMPI_GUARDED_BY(batch_mu_) = 0;
  std::uint64_t batches_sent_ QMPI_GUARDED_BY(batch_mu_) = 0;
  std::uint64_t ops_batched_ QMPI_GUARDED_BY(batch_mu_) = 0;
};

/// Executes one encoded SimOp against `backend` and returns the encoded
/// reply. This is the executing side of the protocol: the sim-channel
/// executor (core/sim_dist.hpp) and the job service both run bodies
/// through this one decoder, so there is no semantic drift. Throws
/// sim::SimulatorError on misuse.
std::vector<std::byte> apply_sim_request(sim::Backend& backend,
                                         std::span<const std::byte> request);

}  // namespace qmpi
