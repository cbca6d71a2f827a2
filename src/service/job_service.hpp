#pragma once

/// \file job_service.hpp
/// The multi-tenant job service behind qmpid: one resident process hosts
/// many concurrent quantum sessions, each with its own Backend (own seeded
/// RNG, own qubit namespace, own epoch), admitted against a shared memory
/// budget. Each connection's reader thread runs its own session's commands
/// under a FIFO cap on how many sessions execute at once.
///
/// Layering: protocol constants live in service/protocol.hpp, the frame
/// grammar in classical/wire.hpp, and op execution is delegated to
/// core/sim_wire.hpp's apply_sim_request — the service adds tenancy
/// (admission, isolation, fairness, teardown) around the existing
/// single-tenant execution path rather than re-encoding any op.
/// See docs/ARCHITECTURE.md §9.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "classical/wire.hpp"
#include "core/sync.hpp"
#include "service/protocol.hpp"
#include "sim/backend.hpp"
#include "sim/circuit_cache.hpp"

namespace qmpi::service {

/// Service-wide knobs. Defaults are deliberately small-machine-safe;
/// from_env() overlays the QMPI_* environment contract used by qmpid.
struct ServiceConfig {
  /// TCP port to listen on; 0 picks an ephemeral port (tests).
  std::uint16_t port = 0;

  /// Concurrent-session cap (QMPI_MAX_SESSIONS). Opens beyond it queue
  /// FIFO — slot exhaustion is a wait, not a failure.
  std::size_t max_sessions = 8;

  /// Total amplitude memory across all resident sessions, in bytes
  /// (QMPI_MEM_BUDGET). A session with max_qubits = n reserves exactly
  /// 2^n amplitudes (16 bytes each) for its lifetime; an open whose
  /// reservation can never fit is rejected with AdmissionError, one that
  /// merely doesn't fit *now* queues until memory frees.
  std::uint64_t mem_budget_bytes = 1ull << 30;

  /// Entry cap of the shared compiled-cluster cache (QMPI_CIRCUIT_CACHE);
  /// 0 disables caching. All sessions share one cache: compilation is a
  /// pure function of circuit content, so a hit from another tenant's
  /// identical cluster is always a correct replay.
  std::size_t circuit_cache_entries = sim::kDefaultCircuitCacheEntries;

  /// Sessions executing a command at once (QMPI_SERVICE_EXECUTORS): the
  /// cap on concurrent O(2^n) sweeps. 0 = one per hardware thread (capped
  /// at 8).
  unsigned executors = 0;

  /// Reads QMPI_MAX_SESSIONS / QMPI_MEM_BUDGET / QMPI_CIRCUIT_CACHE /
  /// QMPI_SERVICE_EXECUTORS over the defaults above. Malformed values
  /// throw classical::QmpiError naming the variable.
  static ServiceConfig from_env();
};

/// Monotonic counters for tests, the qmpid status line, and the bench.
struct ServiceStats {
  std::uint64_t admitted = 0;         ///< sessions accepted
  std::uint64_t rejected = 0;         ///< opens refused (admission+protocol)
  std::uint64_t queued_admissions = 0;///< opens that had to wait for capacity
  std::size_t active_sessions = 0;    ///< currently resident sessions
  std::uint64_t reserved_amps = 0;    ///< amplitudes reserved right now
  std::uint64_t forged_dropped = 0;   ///< frames with a foreign (session,
                                      ///< epoch) stamp, dropped on arrival
  std::uint64_t ops_executed = 0;     ///< quantum ops run across all sessions
  std::uint64_t cache_hits = 0;       ///< shared cluster-cache counters
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t connection_threads = 0;  ///< reader threads not yet joined
};

/// The resident job service. start() binds the port and spawns the accept
/// loop; stop() (or the destructor) tears every session down and joins all
/// threads. One connection == one session: admission happens at kSvcOpen,
/// and the connection's reader validates every subsequent frame's
/// (session id, epoch) stamp against the session it admitted — a frame
/// forged for another tenant is counted and dropped without ever touching
/// a backend.
///
/// Execution: the reader that decodes a frame also runs it. It takes one
/// of `executors` slots, applies the command (one kSvcCall op or one
/// kSvcBatch of gates) to the session's backend, releases the slot, and
/// only then writes the reply — so a client that stops reading stalls
/// its own session and nobody else's. One reader per session means each
/// Backend runs one operation at a time, exactly as SimServer guarantees
/// elsewhere.
///
/// Fairness: slots are handed out FIFO. A reader takes a free slot at once
/// only when nobody is waiting; otherwise it queues, so a session that has
/// just run a command goes behind every session already waiting — one
/// command per session per pass, and an op-dense tenant cannot starve the
/// others between O(2^n) sweeps.
class JobService {
 public:
  explicit JobService(ServiceConfig config = {});
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Binds the listen port and starts serving. Throws classical::QmpiError
  /// if the port cannot be bound.
  void start();

  /// Stops accepting, severs every session connection, lets commands
  /// already running finish (queued ones never start), and joins all
  /// service threads. Idempotent.
  void stop();

  /// Bound port (valid after start(); with config.port == 0 this is the
  /// kernel-assigned ephemeral port).
  std::uint16_t port() const { return port_; }

  /// Total amplitude budget (mem_budget_bytes / 16).
  std::uint64_t budget_amps() const { return budget_amps_; }

  ServiceStats stats() const;

 private:
  /// One admitted session. Only its connection's reader thread touches
  /// the backend, the socket's write side and the fields below `fd`;
  /// stop() only shutdown()s the socket.
  struct Session {
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;
    int fd = -1;
    std::unique_ptr<sim::Backend> backend;
    unsigned max_qubits = 0;
    std::uint64_t reserved_amps = 0;
    bool broken = false;  ///< a batch op failed; error latched
    std::string broken_reason;
    std::uint64_t ops_executed = 0;
  };

  void accept_loop();
  void serve_connection(int fd);

  /// Admission control for one kSvcOpen. Returns the admitted session
  /// (already registered and kSvcAccept'ed), or null after sending the
  /// appropriate kSvcReject.
  std::shared_ptr<Session> admit(int fd, std::uint64_t req_id,
                                 std::uint64_t seed, std::uint8_t backend_kind,
                                 std::uint32_t num_shards,
                                 std::uint32_t sim_threads,
                                 std::uint32_t max_qubits);

  /// Releases a session's admission slot and memory reservation, then
  /// wakes queued admissions. Called by the session's own reader once it
  /// has stopped executing, so no command can be running.
  void teardown(const std::shared_ptr<Session>& session);

  /// Waits FIFO for one of `slots_` execution slots. Returns false, with
  /// no slot taken, once the service is stopping.
  bool acquire_slot();
  /// Frees a slot, crediting `ops` executed ops, and wakes the next waiter.
  void release_slot(std::uint64_t ops);

  /// Runs one kSvcCall op (or, with `is_batch`, one kSvcBatch body of
  /// `op_count` ops) on the session's backend. Writes the reply owed to
  /// the client into `reply` and returns its frame type, or nullopt when
  /// none is owed (a one-way batch that ran, or one after a latched
  /// failure). Any error, a malformed body included, becomes a typed
  /// kSvcError; a failed batch also latches.
  std::optional<classical::FrameType> execute(
      Session& session, std::uint64_t req_id, bool is_batch,
      std::uint32_t op_count, std::span<const std::byte> cmd,
      classical::WireWriter& reply);

  ServiceConfig config_;
  std::uint64_t budget_amps_ = 0;
  unsigned slots_ = 0;  ///< config_.executors with 0 resolved
  std::shared_ptr<sim::ClusterCache> cache_;  ///< null when caching is off

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  /// One reader thread per accepted connection. `done` (guarded by mu_,
  /// which a nested struct cannot spell) is set as serve_connection
  /// returns; accept_loop joins done slots before spawning the next
  /// reader, so finished sessions do not pile up unjoined threads.
  struct Connection {
    std::thread thread;
    bool done = false;
  };
  std::list<Connection> connections_ QMPI_GUARDED_BY(mu_);
  bool started_ = false;

  /// Guards all mutable session/queue state below. Top of the service
  /// hierarchy: ordered before ClusterCache::mu (stats() reads the cache
  /// counters under mu_; cross-class QMPI_ACQUIRED_BEFORE is not
  /// expressible, so the runtime lock-order validator enforces it), and
  /// never held while sending frames or sweeping a backend (ThreadPool
  /// locks).
  mutable qmpi::Mutex mu_{"JobService::mu"};
  qmpi::CondVar admit_cv_;  ///< capacity released / FIFO advances
  bool stopping_ QMPI_GUARDED_BY(mu_) = false;
  /// Admission order.
  std::vector<std::shared_ptr<Session>> sessions_ QMPI_GUARDED_BY(mu_);
  /// Execution slots in use, and the readers waiting for one in arrival
  /// order (each waits on its own condition variable, so a release wakes
  /// exactly the next in line).
  unsigned slots_busy_ QMPI_GUARDED_BY(mu_) = 0;
  std::deque<qmpi::CondVar*> slot_waiters_ QMPI_GUARDED_BY(mu_);
  /// FIFO tickets awaiting capacity.
  std::deque<std::uint64_t> admit_queue_ QMPI_GUARDED_BY(mu_);
  std::uint64_t next_ticket_ QMPI_GUARDED_BY(mu_) = 1;
  std::uint64_t next_session_ QMPI_GUARDED_BY(mu_) = 1;
  std::uint64_t next_epoch_ QMPI_GUARDED_BY(mu_) = 1;
  std::uint64_t reserved_amps_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t admitted_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t queued_admissions_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t forged_dropped_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t ops_executed_ QMPI_GUARDED_BY(mu_) = 0;
};

}  // namespace qmpi::service
