#pragma once

/// \file session_client.hpp
/// Client end of one qmpid session: a BatchingSimClient whose bodies
/// travel as kSvc* frames over the session's own TCP connection. The
/// constructor performs the open/admission handshake (throwing the typed
/// AdmissionError when the service's memory budget refuses the session),
/// after which the client is a drop-in sim::SimClient — protocol code
/// cannot tell a multi-tenant service session from a private backend.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sim_wire.hpp"
#include "core/sync.hpp"
#include "service/protocol.hpp"

namespace qmpi::service {

/// What a client asks the service for at kSvcOpen time. `max_qubits` is
/// the session's amplitude reservation (2^max_qubits) — the admission
/// predicate and the per-session allocation ceiling both derive from it.
struct SessionConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t seed = sim::kDefaultSeed;
  sim::BackendKind backend = sim::BackendKind::kSerial;
  unsigned num_shards = 1;
  unsigned sim_threads = 1;
  unsigned max_qubits = 20;
  std::size_t max_batch_ops = sim::kDefaultSimBatchOps;
  int connect_timeout_ms = 5000;
};

class SessionClient final : public BatchingSimClient {
 public:
  /// Dials the service and opens a session. Throws AdmissionError when the
  /// service rejects on memory budget, sim::SimulatorError on a protocol
  /// reject, and classical::QmpiError when the service is unreachable.
  /// Blocks while the open is queued behind earlier sessions (pool or
  /// memory exhaustion queues FIFO; it does not reject).
  explicit SessionClient(const SessionConfig& config);
  ~SessionClient() override;

  SessionClient(const SessionClient&) = delete;
  SessionClient& operator=(const SessionClient&) = delete;

  /// Flushes the batch buffer and round-trips once, proving every earlier
  /// one-way batch on this session has executed.
  void fence() override;

  /// The (session id, epoch) pair the service issued at admission; every
  /// frame this client sends is stamped with it.
  std::uint64_t session_id() const { return session_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Orderly close: flush, kSvcClose, await kSvcClosed. Returns the
  /// service-side count of ops this session executed. Idempotent (returns
  /// the remembered count on repeat calls); the destructor calls it
  /// best-effort.
  std::uint64_t close();

  /// Abrupt disconnect WITHOUT the close handshake — the client simply
  /// vanishes, as a crashed process would. Test hook for the
  /// teardown-releases-capacity regression test.
  void abandon();

  /// Test hook: sends a kSvcBatch frame stamped with an arbitrary
  /// (session, epoch) — NOT this session's — carrying `batch_body` (a
  /// kBatch encoding). Used to prove the service drops forged
  /// cross-session frames instead of executing them.
  void send_raw_batch(std::uint64_t session, std::uint64_t epoch,
                      std::span<const std::byte> batch_body);

  /// Test hook: round-trips `request` verbatim as one kSvcCall body, so a
  /// test can send an op encoding no encoder would produce. Throws
  /// sim::SimulatorError on the service's kSvcError reply.
  std::vector<std::byte> send_raw_call(std::span<const std::byte> request) {
    return ship_call(request);
  }

 private:
  std::vector<std::byte> ship_call(std::span<const std::byte> request) override;
  void ship_batch(std::span<const std::byte> body,
                  std::uint32_t count) override;

  /// Reads frames until the reply for `req_id` arrives. A req-id-0
  /// kSvcError (deferred batch failure) throws immediately — the caller
  /// is by definition at a synchronization point.
  std::vector<std::byte> await_reply(std::uint64_t req_id)
      QMPI_REQUIRES(io_mu_);

  /// Serializes request/reply cycles on the socket. Taken while the base
  /// batch buffer ships, hence ordered after it (batch_mu_ -> io_mu_).
  qmpi::Mutex io_mu_{"SessionClient::io_mu"};
  int fd_ QMPI_GUARDED_BY(io_mu_) = -1;
  std::uint64_t session_ = 0;  ///< immutable after the open handshake
  std::uint64_t epoch_ = 0;    ///< immutable after the open handshake
  std::uint64_t next_req_ QMPI_GUARDED_BY(io_mu_) = 1;
  bool closed_ QMPI_GUARDED_BY(io_mu_) = false;
  std::uint64_t closed_op_count_ QMPI_GUARDED_BY(io_mu_) = 0;
};

}  // namespace qmpi::service
