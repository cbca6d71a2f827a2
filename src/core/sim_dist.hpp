#pragma once

/// \file sim_dist.hpp
/// The quantum plane of tcp jobs: every process ships its op stream over
/// the transport's sim channels to the root process (world rank 0's),
/// which either runs it on the one backend it hosts (serial, sharded) or,
/// with QMPI_BACKEND=distributed, fans it out to a ShardedStateVector
/// replica in every rank process, relabel swaps moving amplitude slabs
/// rank-to-rank over the peer data plane. See docs/ARCHITECTURE.md §6a.
///
/// The distributed design in one paragraph: storage is replicated (every
/// process allocates all slices) but COMPUTE is partitioned — each process
/// sweeps only the slice block slice_block(world, rank, active) assigns
/// it, so non-resident slices go harmlessly stale. Register reshapes run
/// on the resident slices, reductions exchange per-chunk partial sums, and
/// only operations that read across slice blocks materialize a replica
/// first (sim/shard_exchange.hpp). Correctness then reduces to one
/// invariant: every replica replays the identical operation stream in the
/// identical order, so layout maps, op ticks, and the measurement RNG
/// advance in lockstep and measurement outcomes agree everywhere by
/// construction. The root process provides
/// that total order: all processes submit op bodies to it on the kSimCtl
/// channel (one FIFO route per origin), and it rebroadcasts them on
/// kSimExec to every process — itself included — in a single sequenced
/// stream.
///
/// Happens-before across the classical plane: before any classical message
/// leaves a process, the transport's sim-fence hook sequences that
/// process's pending ops through the root. Any op a receiver issues after
/// seeing the message therefore lands later in the total order than the
/// ops the message announced — on every replica. Same-process classical
/// sends need no fence because they share the origin's FIFO control
/// stream.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "classical/message.hpp"
#include "classical/socket_transport.hpp"
#include "core/sim_wire.hpp"
#include "core/sync.hpp"
#include "sim/shard_exchange.hpp"
#include "sim/sharded_statevector.hpp"

namespace qmpi {

/// ExchangeProvider over the peer data plane: slab posts addressed to a
/// slice are routed to the process owning it (direct peer link when the
/// mesh has one, hub kPost fallback otherwise — QMPI_P2P=off jobs stay
/// correct, just slower), and locally received slabs land in an internal
/// ShardMesh that provides the blocking matched take()s. Publish frames
/// (replica materialization) and every rank's reduction partials ride the
/// same kSimData channel.
///
/// Amplitude payloads travel as raw host-representation bytes, like every
/// other trivially-copyable classical payload in this prototype
/// (classical::to_bytes); a heterogeneous job would need an endian pass
/// here first. Slabs larger than kSlabChunkAmps are split into
/// offset-stamped chunks and reassembled at the receiver, so no payload
/// can hit the transport's frame limit (classical::kMaxFrameBytes).
class PeerExchange final : public sim::ExchangeProvider {
 public:
  PeerExchange(classical::SocketTransport& transport, int num_ranks,
               int nprocs, int proc_id, unsigned num_shards);

  unsigned world() const override { return static_cast<unsigned>(nprocs_); }
  unsigned rank() const override { return static_cast<unsigned>(proc_id_); }

  void post(unsigned dest, unsigned active, sim::ShardMessage msg) override;
  sim::ShardMessage take(unsigned dest, unsigned source,
                         std::uint64_t tag) override;
  void publish(unsigned slice, std::uint64_t tag,
               std::span<const sim::Complex> amps) override;
  std::vector<sim::Complex> take_published(unsigned slice,
                                           std::uint64_t tag) override;
  std::vector<std::vector<double>> allgather_partials(
      std::uint64_t tag, std::vector<double> mine) override;
  void fail(const std::string& reason) override;

  /// Decodes one received kSimData message and routes it to the matching
  /// inbox / partials waiter. Called from whatever thread the transport
  /// delivered on (receiver threads, or inline for self-posts).
  void deliver(classical::Message msg);

 private:
  int first_rank(int proc) const {
    return classical::rank_block(num_ranks_, nprocs_, proc).first;
  }

  /// A slab mid-reassembly: large amplitude payloads travel as multiple
  /// offset-stamped chunks so no single frame can exceed the transport's
  /// frame limit. Keyed by (sub-kind, dest slice, source, tag).
  struct PartialSlab {
    std::vector<sim::Complex> amplitudes;
    std::uint64_t received = 0;
  };
  using SlabKey = std::tuple<std::uint8_t, unsigned, unsigned, std::uint64_t>;

  void deliver_slab(std::uint8_t kind, unsigned dest, unsigned source,
                    std::uint64_t tag, classical::WireReader& r);

  classical::SocketTransport* transport_;
  int num_ranks_;
  int nprocs_;
  int proc_id_;
  sim::ShardMesh mesh_;  ///< inbox store for slabs and published slices

  /// Slab reassembly; ordered before the mesh inbox lock it posts into
  /// (partial_mu_ -> ShardMesh::Inbox::mutex in deliver_slab).
  qmpi::Mutex partial_mu_{"PeerExchange::partial_mu"};
  std::map<SlabKey, PartialSlab> partial_ QMPI_GUARDED_BY(partial_mu_);

  /// Reduction partials received from peers, keyed (tag, source process).
  qmpi::Mutex partials_mu_{"PeerExchange::partials_mu"};
  qmpi::CondVar partials_cv_;
  std::map<std::pair<std::uint64_t, unsigned>, std::vector<double>> partials_
      QMPI_GUARDED_BY(partials_mu_);
  std::string partials_fail_ QMPI_GUARDED_BY(partials_mu_);  ///< by fail()
};

/// BatchingSimClient over the sim channels of a tcp job, for every
/// backend kind. All locally hosted rank threads share one instance (one op
/// pipeline). Every process submits op bodies to the root process (world
/// rank 0's) on kSimCtl, one FIFO route per origin; the root sequences
/// them for one of two replica sets:
///
///   - distributed (QMPI_BACKEND=distributed): every process hosts a
///     ShardedStateVector replica. The root rebroadcasts each op on
///     kSimExec to every process, itself included, and an executor thread
///     replays that stream through apply_sim_request into the replica.
///     Reply-producing ops (allocate, measure, probabilities) execute on
///     EVERY replica — that keeps the RNG in lockstep — but only the
///     origin fulfills the caller's wait with the result.
///   - root-hosted (serial, sharded): only the root builds a backend
///     (sim::make_backend), the paper's §6 "all ranks forward quantum
///     operations to rank 0". The root runs each op as it is delivered and
///     sends call results and fence acknowledgements back to the origin
///     on kSimExec; nothing is rebroadcast.
///
/// A fence submits a marker the root answers to the origin alone, after
/// every earlier op from that origin; its arrival proves those ops
/// sequenced and executed. The transport's sim-fence hook calls fence(),
/// which skips the round trip entirely when nothing was submitted since
/// the last proof — the common measure-then-send pattern pays nothing
/// extra.
///
/// Error contract: a failed batched op latches its origin's op stream for
/// the rest of the run on every replica: later batches from that origin
/// are dropped, and its later calls and fences get the latched error
/// ("batched op N of M: ...") as SimulatorError. The failing sub-op is the
/// same on every replica, so the skip is deterministic. A transport-level
/// death (peer process gone, hub abort) wakes every blocked waiter with
/// ShutdownError so rank threads unwind instead of hanging, and the
/// job-level cause travels via the hub's abort reason.
class DistSimClient final : public BatchingSimClient {
 public:
  /// Builds this process's backend (distributed: a replica in every
  /// process; otherwise only on the root, with a per-run compiled-cluster
  /// cache of `circuit_cache` entries when nonzero) and registers the
  /// transport's sim hooks. Construct before the run-begin barrier
  /// completes (no sim traffic can arrive earlier, since peers learn our
  /// address at the barrier) and destroy before the transport. Requires
  /// nprocs <= num_ranks: processes are addressed through their first
  /// hosted world rank, so every process must host one.
  DistSimClient(classical::SocketTransport& transport, int num_ranks,
                int nprocs, int proc_id, sim::BackendKind kind,
                unsigned num_shards, std::uint64_t seed, unsigned sim_threads,
                std::size_t max_batch_ops = sim::kDefaultSimBatchOps,
                std::size_t circuit_cache = 0);
  ~DistSimClient() override;

  void fence() override;

 private:
  struct Pending {
    bool done = false;
    bool shutdown = false;  ///< woken by run death, not an op result
    std::vector<std::byte> result;
    std::string error;
  };

  std::vector<std::byte> ship_call(
      std::span<const std::byte> request) override;
  void ship_batch(std::span<const std::byte> body,
                  std::uint32_t count) override;

  void on_sim_message(classical::Message msg);
  void sequence(classical::Message msg);  ///< root process only
  void enqueue_exec(classical::Message msg);
  void exec_loop();
  /// Runs one sequenced op; returns false when it has no reply (a batch),
  /// otherwise fills the reply for the origin. Executor thread
  /// (distributed) or under seq_mu_ (root-hosted).
  bool execute(const classical::Message& m, std::vector<std::byte>& result,
               std::string& error);
  void fulfill(std::uint64_t req_id, std::vector<std::byte> result,
               std::string error);
  void fail_run(const std::string& reason);
  /// Posts one ctl message to the root under ctl_mu_, so the generation
  /// stamp order matches the wire order; returns the stamped generation.
  std::uint64_t post_ctl(int tag, std::uint64_t req,
                         std::span<const std::byte> body);
  /// Posts a request the root answers, and waits for the answer.
  std::vector<std::byte> round_trip(int tag, std::span<const std::byte> body);
  std::vector<std::byte> wait_request(std::uint64_t req_id,
                                      std::uint64_t gen);
  int first_rank(int proc) const {
    return classical::rank_block(num_ranks_, nprocs_, proc).first;
  }

  classical::SocketTransport* transport_;
  int num_ranks_;
  int nprocs_;
  int proc_id_;
  int my_first_rank_;
  bool hosted_;  ///< root-hosted backend rather than replicas

  /// Distributed only; declared before the replica using it.
  std::unique_ptr<PeerExchange> provider_;
  /// Every process's replica (distributed) or the root's backend
  /// (root-hosted; null elsewhere). Executor-thread only after the ctor
  /// (distributed), or under seq_mu_ (root-hosted).
  std::unique_ptr<sim::Backend> backend_;

  /// Orders generation stamping with ctl wire order: a completed request
  /// at generation g proves every generation <= g is sequenced.
  qmpi::Mutex ctl_mu_{"DistSimClient::ctl_mu"};
  std::uint64_t ctl_gen_ QMPI_GUARDED_BY(ctl_mu_) = 0;
  std::atomic<std::uint64_t> sequenced_gen_{0};
  std::atomic<std::uint64_t> next_req_{1};

  qmpi::Mutex pending_mu_{"DistSimClient::pending_mu"};
  qmpi::CondVar pending_cv_;
  std::unordered_map<std::uint64_t, Pending> pending_
      QMPI_GUARDED_BY(pending_mu_);
  /// Run-fatal transport reason, first cause wins.
  std::string failed_ QMPI_GUARDED_BY(pending_mu_);

  /// Per-origin broken-stream latch, keyed by the origin's first world
  /// rank: the first batched-op error of that origin's stream. Same
  /// access rule as backend_.
  std::unordered_map<int, std::string> broken_;

  /// Serializes the root's sequencing: the rebroadcast fan-out
  /// (distributed) or the op execution itself (root-hosted).
  qmpi::Mutex seq_mu_{"DistSimClient::seq_mu"};

  qmpi::Mutex exec_mu_{"DistSimClient::exec_mu"};
  qmpi::CondVar exec_cv_;
  std::deque<classical::Message> exec_q_ QMPI_GUARDED_BY(exec_mu_);
  bool stop_ QMPI_GUARDED_BY(exec_mu_) = false;
  std::thread executor_;  ///< distributed only
};

}  // namespace qmpi
