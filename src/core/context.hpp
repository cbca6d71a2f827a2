#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "classical/comm.hpp"
#include "classical/runtime.hpp"
#include "core/qubit.hpp"
#include "core/reduce_ops.hpp"
#include "core/resource_tracker.hpp"
#include "core/trace.hpp"
#include "sim/server.hpp"
#include "sim/sim_client.hpp"
#include "sim/simd.hpp"

namespace qmpi {

namespace algos {
class ContextOps;  // the collective algorithm layer's bridge into Context
}

// QmpiError (the error type raised on API misuse and transport failures)
// lives in classical/error.hpp so the socket transport can raise it; it is
// available here through the include chain as qmpi::QmpiError.

/// Algorithm selector for QMPI_Bcast (paper §7.1).
enum class BcastAlg {
  kBinomialTree,   ///< log-depth tree of Send/Recv; S=1 suffices.
  kCatState,       ///< constant quantum depth via a cat state (Fig. 4);
                   ///< needs S>=2 on interior nodes.
};

/// Schedule selector for QMPI_Reduce (paper §4.6): the linear chain uses
/// N-1 EPR pairs total and a single output register per node, with a
/// classical-only inverse; the binary tree halves the depth to O(log N)
/// rounds but its intermediate copies are uncomputed immediately and must
/// be *recomputed* during QMPI_Unreduce, doubling EPR usage — exactly the
/// trade-off the paper describes.
enum class ReduceAlg {
  kChain,
  kBinaryTree,
};

/// Opaque handle for an in-flight reversible reduction (or scan). QMPI
/// leaves memory management of the reduction scratch space to the user in
/// v1 (paper §4.5): the handle owns the per-node accumulator registers and
/// must be passed to the matching un-operation, which uncomputes and frees
/// them.
struct ReductionHandle {
  std::vector<Qubit> acc;     ///< this rank's accumulator register
  std::vector<Qubit> extra;   ///< auxiliary registers (allreduce copies)
  int root = -1;
  std::size_t width = 0;
  const ReduceOp* op = nullptr;
  int tag = 0;
  enum class Kind {
    kReduce,
    kReduceTree,
    kAllreduce,
    kScan,
    kExscan,
    kReduceScatter
  } kind = Kind::kReduce;
  bool active = false;
};

/// A nonblocking QMPI operation handle. The prototype transport is eager
/// and the simulator is sequential, so nonblocking calls are implemented as
/// deferred protocols: the communication runs when wait() is called (or
/// immediately at post time for operations that cannot block). This
/// preserves MPI completion semantics — a program is correct under this
/// implementation iff it is correct under a fully asynchronous one.
///
/// State machine (mirroring MPI request semantics and the paper's Table 2
/// note (b) on QMPI_Cancel):
///
///   pending --wait()--> completed        (the protocol ran)
///   pending --cancel()--> cancelled      (the protocol will never run)
///
/// Both completed and cancelled are terminal, and both report
/// is_complete() == true — a cancelled request *completes without
/// running*, exactly as MPI_Cancel + MPI_Wait completes the request. A
/// wait()-then-poll loop over a cancelled request therefore terminates
/// instead of spinning on a handle that can never make progress.
class QRequest {
 public:
  QRequest() = default;
  explicit QRequest(std::function<void()> run) : run_(std::move(run)) {}

  /// Completes the operation (runs the deferred protocol). On a cancelled
  /// request this is a no-op: the request is already complete-by-cancel.
  /// On a default-constructed (protocol-free) handle it completes without
  /// doing anything instead of invoking an empty std::function.
  void wait() {
    if (cancelled_ || complete_) return;
    if (run_) run_();
    complete_ = true;
  }

  /// True once the operation has completed — by running (wait) or by
  /// cancellation. Terminal either way.
  bool is_complete() const { return complete_ || cancelled_; }

  /// True iff the operation was cancelled before it ran.
  bool is_cancelled() const { return cancelled_; }

  /// QMPI_Cancel: abandons a not-yet-started operation. Per the paper's
  /// Table 2 note (b), resources may already have been used; the protocol
  /// itself never runs. Returns true while the request is cancelled
  /// (idempotent) and false when the operation already ran — a completed
  /// request cannot be cancelled.
  bool cancel() {
    if (complete_) return false;
    cancelled_ = true;
    return true;
  }

 private:
  std::function<void()> run_;
  bool complete_ = false;
  bool cancelled_ = false;
};

/// Persistent communication request (paper §4.7, "Future Extension").
///
/// init pre-establishes all EPR pairs (the slow quantum phase); start then
/// performs the transfer with *purely classical* communication — the
/// optimization the paper highlights as impossible classically. Owned EPR
/// halves are freed on destruction if never consumed.
struct PersistentHandle {
  std::vector<Qubit> epr_halves;
  int peer = -1;
  int tag = 0;
  bool armed = false;
};

/// Per-rank QMPI execution context: the C++ face of the QMPI standard.
///
/// A Context bundles (a) the classical communicator of this rank (paper
/// §4.1: "QMPI leverages MPI for classical communication"), (b) access to
/// the shared state-vector simulation server (§6), (c) local gate
/// operations, and (d) all QMPI point-to-point and collective primitives
/// with their inverses (§4.4, §4.5) plus resource accounting.
class Context {
 public:
  /// Quantum operations go wherever `sim` points: the in-process server
  /// (LocalSimClient), a backend in another process, or a distributed
  /// replica.
  Context(classical::Comm user_comm, std::shared_ptr<sim::SimClient> sim,
          Trace* trace);

  /// Splits this context into disjoint sub-contexts by `color`, ordered by
  /// (key, rank) — MPI_Comm_split lifted to QMPI. All QMPI operations of
  /// the returned context (EPR pairs, collectives, reductions) run over
  /// the subgroup only; qubits remain globally addressable, so quantum
  /// state may still span subgroups. Collective over this context.
  /// Resource counters are shared with the parent, so job reports stay
  /// complete. A negative color yields a null context (is_null()).
  Context split(int color, int key = 0);

  /// Duplicates this context with fresh communication contexts
  /// (MPI_Comm_dup): traffic on the duplicate cannot match traffic here.
  Context duplicate();

  /// True for contexts created with a negative split color.
  bool is_null() const { return sim_ == nullptr; }

  int rank() const { return user_comm_.rank(); }
  int size() const { return user_comm_.size(); }

  /// The classical communicator for user payload traffic (plain MPI in the
  /// paper's examples, e.g. the final MPI_Gather of Listing 1).
  classical::Comm& classical_comm() { return user_comm_; }

  ResourceTracker& tracker() { return *tracker_; }
  const ResourceTracker& tracker() const { return *tracker_; }

  /// Sums resource counters across all ranks (collective); the result is
  /// meaningful on every rank. Used by the Table 1-3 benchmarks.
  ResourceTracker::Counts aggregate_resources(OpCategory category);
  ResourceTracker::Counts aggregate_total();

  // --------------------------------------------------- qubit management ---

  /// QMPI_Alloc_qmem: allocates `count` fresh local qubits in |0>.
  QubitArray alloc_qmem(std::size_t count);

  /// QMPI_Free_qmem: frees `count` qubits starting at `qubits`. Qubits must
  /// be in a classical basis state (the paper's examples free qubits right
  /// after measuring them); throws QmpiError otherwise.
  void free_qmem(const Qubit* qubits, std::size_t count);

  // -------------------------------------------------------- local gates ---

  void x(Qubit q) { gate1("X", q, sim::gate_x()); }
  void y(Qubit q) { gate1("Y", q, sim::gate_y()); }
  void z(Qubit q) { gate1("Z", q, sim::gate_z()); }
  void h(Qubit q) { gate1("H", q, sim::gate_h()); }
  void s(Qubit q) { gate1("S", q, sim::gate_s()); }
  void sdg(Qubit q) { gate1("S^", q, sim::gate_sdg()); }
  void t(Qubit q) { rotation("T", q, sim::gate_t()); }
  void tdg(Qubit q) { rotation("T^", q, sim::gate_tdg()); }
  void rx(Qubit q, double theta) { rotation("Rx", q, sim::gate_rx(theta)); }
  void ry(Qubit q, double theta) { rotation("Ry", q, sim::gate_ry(theta)); }
  void rz(Qubit q, double theta) { rotation("Rz", q, sim::gate_rz(theta)); }
  void cnot(Qubit control, Qubit target);
  void cz(Qubit control, Qubit target);
  void toffoli(Qubit c0, Qubit c1, Qubit target);

  /// Projective Z measurement of a local qubit.
  bool measure(Qubit q);
  /// X-basis measurement (H + measure), the unfanout primitive.
  bool measure_x(Qubit q);
  /// Local two-or-more-qubit joint parity measurement (cat-state assembly).
  bool measure_parity(std::span<const Qubit> qubits);

  // ----------------------------------------------------------- EPR (4.3) ---

  /// QMPI_Prepare_EPR: turns `qubit` (fresh, |0>) and a matching fresh
  /// qubit passed by rank `peer` into a shared EPR pair.
  void prepare_epr(Qubit qubit, int peer, int tag);

  /// QMPI_Iprepare_EPR: nonblocking EPR establishment.
  QRequest iprepare_epr(Qubit qubit, int peer, int tag);

  // ----------------------------------------- point-to-point, copy (4.4) ---

  /// QMPI_Send: fans out (entangled-copies) `count` qubits to `dest`
  /// (Fig. 3a). The local qubits keep their value; dest's matching Recv
  /// qubits expose the same value. 1 EPR pair + 1 classical bit per qubit.
  void send(const Qubit* qubits, std::size_t count, int dest, int tag);
  /// QMPI_Recv: receives entangled copies into fresh |0> qubits.
  void recv(const Qubit* qubits, std::size_t count, int source, int tag);

  /// QMPI_Unsend: inverse of Send, called by the original sender after the
  /// peer calls Unrecv. Classical communication only (Fig. 3b).
  void unsend(const Qubit* qubits, std::size_t count, int dest, int tag);
  /// QMPI_Unrecv: inverse of Recv; uncomputes the local copies (which end
  /// in |0> and may be freed). Classical communication only.
  void unrecv(const Qubit* qubits, std::size_t count, int source, int tag);

  /// QMPI_Bsend / Ssend / Rsend (and the matching inverses): MPI's send
  /// modes collapse onto the eager Send in this prototype; the aliases
  /// exist for source compatibility with Table 2.
  void bsend(const Qubit* q, std::size_t n, int dest, int tag) {
    send(q, n, dest, tag);
  }
  void ssend(const Qubit* q, std::size_t n, int dest, int tag) {
    send(q, n, dest, tag);
  }
  void rsend(const Qubit* q, std::size_t n, int dest, int tag) {
    send(q, n, dest, tag);
  }
  void bunsend(const Qubit* q, std::size_t n, int dest, int tag) {
    unsend(q, n, dest, tag);
  }
  void sunsend(const Qubit* q, std::size_t n, int dest, int tag) {
    unsend(q, n, dest, tag);
  }
  void runsend(const Qubit* q, std::size_t n, int dest, int tag) {
    unsend(q, n, dest, tag);
  }
  /// QMPI_Mrecv / Munrecv: matched receives; equivalent to Recv here (the
  /// transport matches by (source, tag) envelope).
  void mrecv(const Qubit* q, std::size_t n, int source, int tag) {
    recv(q, n, source, tag);
  }
  void munrecv(const Qubit* q, std::size_t n, int source, int tag) {
    unrecv(q, n, source, tag);
  }

  /// QMPI_Sendrecv: simultaneous fanout to `dest` and receive from `source`.
  void sendrecv(const Qubit* send_qubits, std::size_t send_count, int dest,
                int send_tag, const Qubit* recv_qubits, std::size_t recv_count,
                int source, int recv_tag);
  /// QMPI_Unsendrecv: inverse of sendrecv.
  void unsendrecv(const Qubit* send_qubits, std::size_t send_count, int dest,
                  int send_tag, const Qubit* recv_qubits,
                  std::size_t recv_count, int source, int recv_tag);

  // ----------------------------------------- point-to-point, move (4.4) ---

  /// QMPI_Send_move: teleports `count` qubits to `dest` (appendix A.1).
  /// After completion the local handles are fresh |0> qubits (the quantum
  /// state has *moved*). 1 EPR pair + 2 classical bits per qubit.
  void send_move(const Qubit* qubits, std::size_t count, int dest, int tag);
  /// QMPI_Recv_move: receives teleported qubits into fresh |0> qubits.
  void recv_move(const Qubit* qubits, std::size_t count, int source, int tag);
  /// QMPI_Unsend_move: inverse of Send_move — teleports the qubits back to
  /// the original sender (same cost as a move).
  void unsend_move(const Qubit* qubits, std::size_t count, int dest, int tag);
  /// QMPI_Unrecv_move: inverse of Recv_move (peer of unsend_move).
  void unrecv_move(const Qubit* qubits, std::size_t count, int source,
                   int tag);

  /// QMPI_Sendrecv_replace: move semantics; the qubits' contents are
  /// teleported to `dest` and replaced by qubits teleported from `source`.
  void sendrecv_replace(Qubit* qubits, std::size_t count, int dest, int source,
                        int tag);
  /// QMPI_Unsendrecv_replace: inverse of sendrecv_replace.
  void unsendrecv_replace(Qubit* qubits, std::size_t count, int dest,
                          int source, int tag);

  // ----------------------------------------------- nonblocking variants ---

  QRequest isend(const Qubit* qubits, std::size_t count, int dest, int tag);
  QRequest irecv(const Qubit* qubits, std::size_t count, int source, int tag);
  QRequest isend_move(const Qubit* qubits, std::size_t count, int dest,
                      int tag);
  QRequest irecv_move(const Qubit* qubits, std::size_t count, int source,
                      int tag);

  // ------------------------------------------ persistent requests (4.7) ---

  /// Pre-establishes `count` EPR pairs toward `peer` so a later start_send /
  /// start_recv completes with purely classical communication.
  PersistentHandle persistent_init(std::size_t count, int peer, int tag);
  /// Consumes a persistent handle to fan out `qubits` using only classical
  /// communication (zero quantum communication depth, paper §4.7).
  void start_send(PersistentHandle& handle, const Qubit* qubits,
                  std::size_t count);
  /// Peer of start_send: fills `out` with the received copies (the
  /// pre-established EPR halves become the received qubits).
  void start_recv(PersistentHandle& handle, Qubit* out, std::size_t count);

  // ------------------------------------------------- collectives (4.5) ---

  /// Barrier on the classical layer (QMPI inherits MPI_Barrier).
  void barrier();

  /// QMPI_Bcast: exposes root's qubits on every rank as entangled copies.
  /// Non-root ranks pass fresh |0> qubits. Algorithm per §7.1.
  void bcast(const Qubit* qubits, std::size_t count, int root,
             BcastAlg alg = BcastAlg::kCatState);
  /// QMPI_Unbcast: uncomputes the copies (classical-only, Fig. 1b).
  void unbcast(const Qubit* qubits, std::size_t count, int root);

  /// QMPI_Gather: root receives entangled copies of every rank's qubits.
  /// At root, `recv_qubits` must hold size()*count fresh qubits (rank-major);
  /// elsewhere it is ignored.
  void gather(const Qubit* send_qubits, std::size_t count, Qubit* recv_qubits,
              int root);
  void ungather(const Qubit* send_qubits, std::size_t count,
                Qubit* recv_qubits, int root);

  /// QMPI_Gatherv: variable block sizes. `counts[r]` qubits come from rank
  /// r; every rank passes the same counts vector (as in MPI, where the
  /// root's recvcounts must match the senders' counts). At root,
  /// `recv_qubits` holds sum(counts) fresh qubits, blocks in rank order.
  void gatherv(const Qubit* send_qubits, std::span<const std::size_t> counts,
               Qubit* recv_qubits, int root);
  void ungatherv(const Qubit* send_qubits,
                 std::span<const std::size_t> counts, Qubit* recv_qubits,
                 int root);

  /// QMPI_Scatter: rank r receives an entangled copy of root's r-th block.
  void scatter(const Qubit* send_qubits, Qubit* recv_qubits, std::size_t count,
               int root);
  void unscatter(const Qubit* send_qubits, Qubit* recv_qubits,
                 std::size_t count, int root);

  /// QMPI_Scatterv: variable block sizes (see gatherv for conventions).
  void scatterv(const Qubit* send_qubits,
                std::span<const std::size_t> counts, Qubit* recv_qubits,
                int root);
  void unscatterv(const Qubit* send_qubits,
                  std::span<const std::size_t> counts, Qubit* recv_qubits,
                  int root);

  /// QMPI_Allgather: every rank receives copies of every rank's qubits.
  void allgather(const Qubit* send_qubits, std::size_t count,
                 Qubit* recv_qubits);
  void unallgather(const Qubit* send_qubits, std::size_t count,
                   Qubit* recv_qubits);

  /// QMPI_Alltoall: rank r's j-th block is copied to rank j's r-th slot.
  void alltoall(const Qubit* send_qubits, Qubit* recv_qubits,
                std::size_t count);
  void unalltoall(const Qubit* send_qubits, Qubit* recv_qubits,
                  std::size_t count);

  /// QMPI_Alltoallv: per-destination block sizes. `send_counts[j]` qubits
  /// go from this rank to rank j; symmetric exchange requires
  /// recv_counts[j] on this rank == send_counts[this] on rank j, which the
  /// caller provides as in MPI.
  void alltoallv(const Qubit* send_qubits,
                 std::span<const std::size_t> send_counts, Qubit* recv_qubits,
                 std::span<const std::size_t> recv_counts);
  void unalltoallv(const Qubit* send_qubits,
                   std::span<const std::size_t> send_counts,
                   Qubit* recv_qubits,
                   std::span<const std::size_t> recv_counts);

  /// QMPI_Gather_move / QMPI_Scatter_move / QMPI_Alltoall_move: as above
  /// with move semantics (paper's rotation-farm use case, §4.5).
  void gather_move(const Qubit* send_qubits, std::size_t count,
                   Qubit* recv_qubits, int root);
  void ungather_move(Qubit* send_qubits, std::size_t count,
                     const Qubit* recv_qubits, int root);
  void scatter_move(Qubit* send_qubits, Qubit* recv_qubits, std::size_t count,
                    int root);
  void unscatter_move(Qubit* send_qubits, Qubit* recv_qubits,
                      std::size_t count, int root);
  void alltoall_move(Qubit* send_qubits, Qubit* recv_qubits,
                     std::size_t count);

  /// QMPI_Reduce: reversible reduction of a `width`-qubit register per rank
  /// into a fresh accumulator at `root`. The default linear chain schedule
  /// (§4.6) uses N-1 EPR pairs and one extra output register per node;
  /// ReduceAlg::kBinaryTree trades 2x EPR usage (recompute on unreduce)
  /// for O(log N) communication depth. The returned handle owns the
  /// scratch registers and must be passed to unreduce. Root's result
  /// qubits are handle.acc.
  ReductionHandle reduce(const Qubit* qubits, std::size_t width,
                         const ReduceOp& op, int root, int tag = 0,
                         ReduceAlg alg = ReduceAlg::kChain);
  /// QMPI_Unreduce: uncomputes the reduction; classical-only communication.
  void unreduce(ReductionHandle& handle, const Qubit* qubits);

  /// QMPI_Allreduce: reduction whose result is copied to every rank
  /// (reduce + copy, Table 3). Every rank's result is handle.acc.
  ReductionHandle allreduce(const Qubit* qubits, std::size_t width,
                            const ReduceOp& op, int tag = 0);
  void unallreduce(ReductionHandle& handle, const Qubit* qubits);

  /// QMPI_Scan: inclusive reversible prefix reduction; rank r's handle.acc
  /// holds op-fold of ranks 0..r.
  ReductionHandle scan(const Qubit* qubits, std::size_t width,
                       const ReduceOp& op, int tag = 0);
  void unscan(ReductionHandle& handle, const Qubit* qubits);

  /// QMPI_Exscan: exclusive prefix reduction; rank 0's acc stays |0...0>.
  ReductionHandle exscan(const Qubit* qubits, std::size_t width,
                         const ReduceOp& op, int tag = 0);
  void unexscan(ReductionHandle& handle, const Qubit* qubits);

  /// QMPI_Reduce_scatter_block: element-wise reduction of size()*width
  /// qubits per rank; rank r ends up owning block r of the result
  /// (implemented as size() independent chain reductions, each rooted at
  /// its block owner — exactly "reduce" resources as in Table 3).
  std::vector<ReductionHandle> reduce_scatter_block(const Qubit* qubits,
                                                    std::size_t width);
  void unreduce_scatter_block(std::vector<ReductionHandle>& handles,
                              const Qubit* qubits);

  // ----------------------------------------------------- introspection ---

  /// The quantum operation surface of this rank. Typed and
  /// transport-agnostic: under QMPI_TRANSPORT=tcp the calls are forwarded
  /// to the backend rank 0's process hosts, so use this (never a raw
  /// SimServer) for state assertions in tests and examples.
  sim::SimClient& sim() { return *sim_; }

  /// Probability of measuring 1 (no collapse); test/debug helper.
  double probability_one(Qubit q);

 private:
  friend class JobHarness;
  /// The bcast and reduce schedules live in core/collective_algos.{hpp,cpp}
  /// as free functions; ContextOps is their narrow doorway to the per-qubit
  /// copy protocol.
  friend class algos::ContextOps;

  void gate1(const char* name, Qubit q, const sim::Gate1Q& gate);
  void rotation(const char* name, Qubit q, const sim::Gate1Q& gate);
  void trace_event(TraceEvent e);

  /// Raw EPR establishment with an exact (already sub-channeled) tag,
  /// split into an initiation phase (eager id post by the higher rank) and
  /// a completion phase (entangle + ack by the lower rank). Exchange
  /// operations run all begins before any complete so that cyclic
  /// communication patterns cannot deadlock in the rendezvous.
  void epr_begin(Qubit qubit, int peer, int ptag);
  void epr_complete(Qubit qubit, int peer, int ptag);
  void establish_epr(Qubit qubit, int peer, int ptag);

  /// The point-to-point transfer a collective is built from (Table 3).
  enum class Transfer { kCopy, kUncopy, kMove };
  /// Whether a rooted collective's blocks travel toward the root or away.
  enum class Flow { kToRoot, kFromRoot };

  /// Copy/move protocol phases (no scope push). send_begin allocates and
  /// initiates the EPR half; *_complete finish the EPR pair and run the
  /// data phase of Fig. 3 / appendix A.1; recv_fixup is the receiver's.
  Qubit send_begin(int dest, int ptag);
  void send_complete(Qubit q, Qubit epr_half, int dest, int ptag);
  void send_move_complete(Qubit q, Qubit epr_half, int dest, int ptag);
  void recv_fixup(Transfer verb, Qubit q, int source, int ptag);

  /// One peer's share of a split-phase exchange: `send_count` qubits of
  /// `out` go to `peer`, `recv_count` from it land in `in`. A leg to this
  /// rank itself is a local transfer from `out` into `in`.
  struct Leg {
    int peer;
    const Qubit* out;
    std::size_t send_count;
    const Qubit* in;
    std::size_t recv_count;
  };
  /// Split-phase copy or move over `legs` (no scope push): all send
  /// begins, all EPR begins, all send completions, all receive completions,
  /// so cyclic exchanges cannot deadlock in the EPR rendezvous.
  void exchange(Transfer verb, int send_tag, int recv_tag,
                std::span<const Leg> legs);
  /// Legs of an all-to-all with per-peer block sizes, blocks in rank order.
  std::vector<Leg> block_legs(const Qubit* out,
                              std::span<const std::size_t> send_counts,
                              const Qubit* in,
                              std::span<const std::size_t> recv_counts);

  /// The skeleton of gather, scatter and their v, move and inverse forms:
  /// `counts[r]` qubits pass between rank r's `mine` and the root's
  /// rank-major `root_blocks` by `verb`, in direction `flow`.
  void rooted(OpCategory category, Transfer verb, Flow flow,
              const Qubit* root_blocks, const Qubit* mine,
              std::span<const std::size_t> counts, int root);

  /// Inverse broadcast of one qubit (Fig. 1b generalized); `label` names
  /// the trace event of each non-root's outcome bit.
  void unbcast_one(Qubit q, int root, const char* label);

  /// Bidirectional teleport with handle replacement (sendrecv_replace and
  /// its inverse share this body).
  void exchange_move(Qubit* qubits, std::size_t count, int dest, int source,
                     int tag);

  /// One-qubit copy-send protocol body (no scope push).
  void send_one(Qubit q, int dest, int tag);
  void recv_one(Qubit q, int source, int tag);
  void unsend_one(Qubit q, int dest, int tag);
  void unrecv_one(Qubit q, int source, int tag);
  void send_move_one(Qubit q, int dest, int tag);
  void recv_move_one(Qubit q, int source, int tag);

  /// Sub-context constructor: shares the simulation client, trace, and
  /// resource tracker with the parent.
  Context(classical::Comm user_comm, classical::Comm protocol_comm,
          std::shared_ptr<sim::SimClient> sim, Trace* trace,
          std::shared_ptr<ResourceTracker> tracker)
      : user_comm_(std::move(user_comm)),
        protocol_comm_(std::move(protocol_comm)),
        sim_(std::move(sim)),
        trace_(trace),
        tracker_(std::move(tracker)) {}

  classical::Comm user_comm_;
  classical::Comm protocol_comm_;
  std::shared_ptr<sim::SimClient> sim_;
  Trace* trace_;
  std::shared_ptr<ResourceTracker> tracker_;
};

/// Which classical fabric connects the ranks of a job (see
/// classical/transport.hpp). kInproc runs ranks as threads of this
/// process; kTcp joins a multi-process job through the qmpirun hub named
/// by QMPI_TCP_HOST/QMPI_TCP_PORT; kService runs ranks as threads but
/// forwards quantum operations to a session opened on a resident qmpid
/// job service (QMPI_SERVICE_HOST/QMPI_SERVICE_PORT) shared with other
/// tenants.
enum class TransportKind {
  kInproc,
  kTcp,
  kService,
};

/// Options for a QMPI job.
struct JobOptions {
  int num_ranks = 2;
  /// Measurement-RNG seed; defaults to the one centralized constant
  /// (sim::kDefaultSeed) so every layer agrees on the reproducible default.
  std::uint64_t seed = sim::kDefaultSeed;
  bool enable_trace = false;
  /// Which simulation backend holds the job's state: in process, in the
  /// qmpid session, or in rank 0's process. kDistributed keeps one replica
  /// per rank process and so needs kTcp; elsewhere it runs as kSharded
  /// and the JobReport carries a notice.
  sim::BackendKind backend = sim::BackendKind::kSerial;
  /// Slice count for the sharded backend (power of two; ignored otherwise).
  unsigned num_shards = 1;
  /// Worker lanes for the backend's O(2^n) sweeps.
  unsigned sim_threads = 1;
  /// Classical fabric connecting the ranks
  /// (QMPI_TRANSPORT=inproc|tcp|service).
  TransportKind transport = TransportKind::kInproc;
  /// Max reply-free quantum ops the tcp and service transports coalesce
  /// into one batch frame (QMPI_SIM_BATCH: on/off/<n>); 0 disables
  /// batching and round-trips every op. Ignored by the in-process
  /// transport (its ops run on the calling thread), and
  /// deliberately not part of the hub's RunConfig barrier: batching is a
  /// per-process pipelining choice with bit-identical observable
  /// semantics, so processes may legally disagree on it.
  std::size_t sim_batch_ops = sim::kDefaultSimBatchOps;
  /// Whether the tcp transport may open direct rank-process <-> rank-process
  /// data-plane links (QMPI_P2P: on/off). Off forces every classical
  /// message through the hub — the pre-p2p star topology — which is the
  /// debugging/comparison baseline. Like sim_batch_ops this is a local
  /// routing choice with bit-identical observable semantics, so it is not
  /// part of the hub's RunConfig barrier and processes may disagree on it.
  /// Ignored by the in-process transport (always peer-to-peer).
  bool p2p = true;
  /// Address this process advertises for its peer data-plane listener
  /// (QMPI_P2P_HOST). The loopback default binds the listener to loopback
  /// only; any other value binds all interfaces and advertises the given
  /// address, which is what a multi-machine job must set per node. Like
  /// p2p, a local routing choice outside the RunConfig barrier.
  std::string p2p_host = "127.0.0.1";
  /// SIMD tier for the backend's sweep kernels
  /// (QMPI_SIMD=auto|scalar|avx2|avx512). kAuto picks the best tier this
  /// CPU supports; naming an unavailable ISA is not an error — the job
  /// falls back and records a notice in the JobReport, so the same job
  /// script runs on any node without silently lying about what executed.
  sim::simd::Request simd = sim::simd::Request::kAuto;
  /// Where the qmpid job service lives for TransportKind::kService
  /// (QMPI_SERVICE_HOST / QMPI_SERVICE_PORT). The port has no usable
  /// default — the service assigns it at startup — so it must be set
  /// whenever the service transport is selected.
  std::string service_host = "127.0.0.1";
  std::uint16_t service_port = 0;
  /// Qubit ceiling this job asks the service to admit (the session
  /// reserves 2^service_qubits amplitudes against QMPI_MEM_BUDGET;
  /// QMPI_SERVICE_QUBITS). Only meaningful under kService.
  unsigned service_qubits = 20;
  /// Entry cap for the compiled-cluster cache attached to the in-process
  /// backend (QMPI_CIRCUIT_CACHE: on/off/<n>); 0 disables it. Under
  /// kService the cache lives service-side (qmpid's own knob) and this
  /// field is ignored; under kTcp rank 0's process attaches the cache to
  /// the backend it hosts, and the distributed backend never attaches one. Replay through
  /// the cache is bit-identical to a cold compile, so like sim_batch_ops
  /// this never changes results.
  std::size_t circuit_cache = 0;

  /// Applies the QMPI_* overrides of the fields above (each parsed and
  /// bounded by the settings table, core/env.hpp) on top of `base`, so
  /// any benchmark or example binary is reproducible and
  /// backend/transport-selectable from the command line without
  /// recompiling.
  static JobOptions from_env();
  static JobOptions from_env(JobOptions base);
};

/// Result of a QMPI job: aggregated resources and (optionally) the trace.
struct JobReport {
  ResourceTracker::Counts totals_by_category[static_cast<std::size_t>(
      OpCategory::kCount_)];
  std::vector<TraceEvent> trace;
  /// Human-readable run notices — e.g. "QMPI_SIMD=avx512 is not available
  /// on this CPU; kernels fell back to avx2". Empty on a clean run; a perf
  /// harness should surface these so a record never claims hardware that
  /// never executed.
  std::vector<std::string> notices;

  ResourceTracker::Counts total() const {
    ResourceTracker::Counts t;
    for (const auto& c : totals_by_category) {
      t.epr_pairs += c.epr_pairs;
      t.classical_bits += c.classical_bits;
    }
    return t;
  }
  const ResourceTracker::Counts& operator[](OpCategory c) const {
    return totals_by_category[static_cast<std::size_t>(c)];
  }
};

/// Runs `fn` as a QMPI job on `options.num_ranks` ranks (>= 1; fewer
/// throws QmpiError) — the mpirun of this prototype. Every locally hosted
/// rank is a thread; `options.transport` decides where the rest live:
///   - kInproc (default): all ranks are threads of this process, sharing
///     one in-process simulation server.
///   - kService: all ranks are threads of this process; quantum operations
///     go to a session on the qmpid job service at service_host:port.
///   - kTcp: this process joins a qmpirun-launched multi-process job and
///     hosts its contiguous block of ranks. Quantum operations go to the
///     backend rank 0's process hosts, or with kDistributed to this
///     process's replica of a state exchanged rank to rank. Resource totals are world-summed, so
///     the JobReport totals are identical in every process; the trace,
///     when enabled, covers only the locally hosted ranks.
JobReport run(const JobOptions& options,
              const std::function<void(Context&)>& fn);

/// Convenience overload with default options.
JobReport run(int num_ranks, const std::function<void(Context&)>& fn);

}  // namespace qmpi
