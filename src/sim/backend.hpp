#pragma once

/// \file backend.hpp
/// The abstract simulation Backend: register/protocol bookkeeping shared
/// by every amplitude representation (serial and sharded), plus backend
/// construction and selection helpers. See docs/ARCHITECTURE.md §4.


#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/fusion.hpp"
#include "sim/gates.hpp"
#include "sim/kernels.hpp"

namespace qmpi::sim {

class ClusterCache;

/// Stable handle for a simulated qubit. Handles survive allocation and
/// deallocation of other qubits (the underlying state-vector position is an
/// implementation detail that shifts as qubits come and go).
using QubitId = std::uint64_t;

/// The one measurement-RNG seed every layer defaults to. Centralized here so
/// SimServer, JobOptions, and the benchmark drivers cannot drift apart; a
/// reproducible run only has to override this single constant.
inline constexpr std::uint64_t kDefaultSeed = 0x5EED5EED5EEDULL;

/// Error raised on misuse of the simulator (bad handle, dealloc of an
/// entangled qubit, etc.).
class SimulatorError : public std::runtime_error {
 public:
  explicit SimulatorError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Abstract state-vector backend: the register/protocol layer shared by the
/// serial StateVector and the ShardedStateVector.
///
/// Everything observable about a simulator that is *not* amplitude storage
/// lives here exactly once: qubit id <-> position bookkeeping, the lazy
/// cluster-fusion queue and its flush boundaries, the measurement RNG and
/// collapse/deallocation protocol, and Pauli-string parsing. Concrete
/// backends only implement the representation hooks (grow/remove/apply/
/// reduce over amplitudes), so every backend draws the same RNG sequence
/// and enforces the same invariants by construction — the property the
/// shard/serial bit-identity tests lean on.
///
/// Positions handed to the hooks are *logical*: position p is the p-th
/// oldest live qubit, exactly as in the serial amplitude indexing. A
/// backend may store amplitudes in any physical layout as long as the
/// hooks' observable results are bit-identical to the serial order.
///
/// Not thread-safe by itself; the SimServer serializes access, mirroring
/// the paper's design where all ranks forward operations to one server.
class Backend {
 public:
  explicit Backend(std::uint64_t seed) : rng_(seed) {}
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // ------------------------------------------------------------ qubits ---

  /// Allocates `count` fresh qubits in |0>; returns their ids (contiguous).
  std::vector<QubitId> allocate(std::size_t count);

  /// Deallocates a qubit that must be disentangled and in state |0>.
  /// Throws SimulatorError otherwise (catching uncomputation bugs early —
  /// the same discipline the paper's reversible primitives rely on).
  void deallocate(QubitId qubit);

  /// Measures then deallocates, returning the outcome. Safe on any state.
  bool release(QubitId qubit);

  /// Deallocates a qubit that is in a classical basis state (|0> or |1>,
  /// possibly after a measurement). Throws SimulatorError if the qubit is
  /// still in superposition or entangled. This is the semantics of
  /// QMPI_Free_qmem in the paper's prototype, whose examples free qubits
  /// immediately after measuring them.
  void deallocate_classical(QubitId qubit);

  std::size_t num_qubits() const { return positions_.size(); }
  bool is_valid(QubitId qubit) const { return index_.contains(qubit); }
  std::size_t position_of(QubitId qubit) const {
    return position_checked(qubit);
  }

  // ------------------------------------------------------------- gates ---

  /// Applies a single-qubit gate. With fusion enabled (the default) the
  /// gate is queued into the cluster-fusion queue and merged with later
  /// gates on overlapping qubit sets; the O(2^n) sweep happens at the next
  /// flush boundary (measurement, amplitude inspection, deallocation, or a
  /// gate too big to fuse).
  void apply(const Gate1Q& gate, QubitId target);

  /// Applies `gate` on `target` controlled on all `controls` being |1>.
  /// Gates spanning at most kMaxFusedQubits qubits join the fusion queue
  /// like 1Q gates (an entangling gate no longer forces a flush); bigger
  /// gates flush and apply eagerly.
  void apply_controlled(const Gate1Q& gate, std::span<const QubitId> controls,
                        QubitId target);

  /// Applies a dense 2^k x 2^k unitary (row-major; bit j of the matrix
  /// index is targets[j]) on up to kMaxFusedQubits target qubits,
  /// controlled on all `controls` being |1>. Flushes pending fused gates,
  /// then runs the generic k-qubit matrix kernel once — the API for
  /// callers that have already composed their own multi-qubit unitary.
  void apply_matrix(std::span<const Complex> matrix,
                    std::span<const QubitId> targets,
                    std::span<const QubitId> controls = {});

  void x(QubitId q) { apply(gate_x(), q); }
  void y(QubitId q) { apply(gate_y(), q); }
  void z(QubitId q) { apply(gate_z(), q); }
  void h(QubitId q) { apply(gate_h(), q); }
  void s(QubitId q) { apply(gate_s(), q); }
  void sdg(QubitId q) { apply(gate_sdg(), q); }
  void t(QubitId q) { apply(gate_t(), q); }
  void tdg(QubitId q) { apply(gate_tdg(), q); }
  void rx(QubitId q, double theta) { apply(gate_rx(theta), q); }
  void ry(QubitId q, double theta) { apply(gate_ry(theta), q); }
  void rz(QubitId q, double theta) { apply(gate_rz(theta), q); }

  void cnot(QubitId control, QubitId target) {
    const QubitId c[] = {control};
    apply_controlled(gate_x(), c, target);
  }
  void cz(QubitId control, QubitId target) {
    const QubitId c[] = {control};
    apply_controlled(gate_z(), c, target);
  }
  void toffoli(QubitId c0, QubitId c1, QubitId target) {
    const QubitId c[] = {c0, c1};
    apply_controlled(gate_x(), c, target);
  }
  void swap(QubitId a, QubitId b) {
    cnot(a, b);
    cnot(b, a);
    cnot(a, b);
  }

  // ------------------------------------------------------ measurements ---

  /// Projective Z-basis measurement with collapse.
  bool measure(QubitId qubit);

  /// X-basis measurement (H, then Z measurement) with collapse. This is the
  /// "measure after Hadamard" step of the paper's unfanout (Fig. 1b / 3b).
  bool measure_x(QubitId qubit);

  /// Joint parity measurement: projects onto the +1/-1 eigenspace of
  /// Z x Z x ... x Z over `qubits` and returns the parity bit (1 = odd).
  /// Unlike per-qubit measurement this does NOT collapse superpositions
  /// within an eigenspace — the primitive behind cat-state assembly (Fig. 4).
  bool measure_parity(std::span<const QubitId> qubits);

  // ------------------------------------------------------- inspection ---

  /// Probability that measuring `qubit` yields 1 (no collapse).
  double probability_one(QubitId qubit) const;

  /// Amplitude of the classical basis state given by `bits` (one bool per
  /// currently allocated qubit, ordered by the ids in `order`).
  Complex amplitude(std::span<const QubitId> order,
                    std::span<const bool> bits) const;

  /// <psi| P |psi> for a Pauli string P given as (qubit, 'X'/'Y'/'Z') pairs.
  double expectation(std::span<const std::pair<QubitId, char>> pauli) const;

  /// Applies exp(-i t P) for a Pauli string P directly (reference
  /// implementation for validating distributed Trotter circuits).
  void apply_pauli_rotation(std::span<const std::pair<QubitId, char>> pauli,
                            double t);

  /// Global L2 norm (should always be 1 within rounding).
  double norm() const;

  /// Full amplitude vector in canonical logical-position order (position
  /// bits of qubit q are position_of(q), like the serial raw array).
  /// Materializes a copy; use for tests, parity checks, and debugging.
  std::vector<Complex> snapshot() const;

  /// Reseeds the measurement RNG.
  void seed(std::uint64_t s) { rng_.seed(s); }

  /// Enables multi-threaded sweeps with `n` worker lanes. Threads kick in
  /// only for registers large enough to amortize the fork/join cost;
  /// results are bit-identical to the serial path. Default: 1 (serial).
  void set_num_threads(unsigned n) { num_threads_ = n == 0 ? 1 : n; }
  unsigned num_threads() const { return num_threads_; }

  /// Enables/disables lazy gate fusion (default: enabled). Disabling
  /// flushes anything still pending.
  void set_fusion_enabled(bool on);
  bool fusion_enabled() const { return fusion_enabled_; }

  /// Attaches a compiled-cluster cache (sim/circuit_cache.hpp): multi-op
  /// fused clusters look up their compiled block program by content key
  /// before compiling, so repeated circuit structure (Trotter steps,
  /// repeated jobs) skips compile_block_op entirely. The cache may be
  /// shared across backends — compilation is a pure function of the key.
  /// Null (the default) disables caching. Replay through the cache is
  /// bit-identical to a cold compile: both paths feed the same program to
  /// apply_cluster_at.
  void set_cluster_cache(std::shared_ptr<ClusterCache> cache) {
    cluster_cache_ = std::move(cache);
  }
  const std::shared_ptr<ClusterCache>& cluster_cache() const {
    return cluster_cache_;
  }

  /// Applies all pending fused clusters to the state vector. Called
  /// automatically at every boundary that observes the state; public so
  /// benchmarks can time gate application itself. Loops until the queue is
  /// quiescent, so a reentrant push can never be deferred past the flush.
  void flush_gates() const;

  /// Number of gates currently queued across all pending clusters
  /// (white-box for fusion tests; composed same-target runs count once).
  std::size_t pending_gates() const { return fusion_.size(); }

  /// Number of pending fused clusters (white-box for fusion tests).
  std::size_t pending_clusters() const { return fusion_.num_clusters(); }

  /// Short human-readable backend identifier ("serial", "sharded").
  virtual const char* name() const = 0;

 protected:
  /// P's per-basis-state action, shared by expectation() and
  /// apply_pauli_rotation(): X-type ops flip bits in `flip`, Z-type ops
  /// contribute signs via `z`, each Y adds a global factor i. Masks are in
  /// logical positions.
  struct PauliMasks {
    std::uint64_t flip = 0;
    std::uint64_t z = 0;
    int y_count = 0;
  };
  PauliMasks parse_pauli(
      std::span<const std::pair<QubitId, char>> pauli) const;

  std::size_t position_checked(QubitId qubit) const;

  /// Flushes, removes the (classical, = `bit`) qubit at logical `pos` from
  /// the state, and repairs the id <-> position maps.
  void remove_position(std::size_t pos, bool bit);

  /// Routes a fusible gate into the cluster queue and applies any clusters
  /// the push evicted to make room.
  void queue_gate(const Gate1Q& gate, std::span<const QubitId> controls,
                  QubitId target);

  /// Applies one fused cluster. Single-op clusters go through the
  /// specialized apply_at kernels — a lone CNOT/Toffoli costs exactly what
  /// it did before cluster fusion — and multi-op clusters take one
  /// apply_cluster_at block sweep.
  void apply_cluster(const GateCluster& cluster) const;

  // ---------------------------------------------- representation hooks ---
  // All positions/masks/indices below are logical. Hooks are called with
  // the fusion queue already flushed (except apply_at, which IS the flush
  // target) and must produce results bit-identical to the serial backend.

  /// Appends a |0> tensor factor (the new qubit's logical position is
  /// num_qubits() - 1; the bookkeeping is already updated when called).
  virtual void grow_state() = 0;

  /// Removes logical position `pos`, keeping the `bit` half. Called before
  /// the position maps are repaired, so num_qubits() is still the old n.
  virtual void remove_position_state(std::size_t pos, bool bit) = 0;

  /// Applies a (possibly controlled) 2x2 unitary at logical position `pos`
  /// with logical control mask `ctrl_mask`. Const because fusion makes gate
  /// application lazy: logically-const observers may have to materialize
  /// pending gates first (amplitude storage is mutable in backends).
  virtual void apply_at(const Gate1Q& gate, std::size_t pos,
                        std::uint64_t ctrl_mask) const = 0;

  /// Applies a fused k-qubit cluster whose bit j lives at logical position
  /// `pos[j]`, by replaying the compiled instructions over every 2^k block
  /// in one sweep. kernels::run_block_ops is arithmetic-identical to
  /// applying each gate in its own apply_at sweep, so fusion changes how
  /// often memory is walked, never what is computed.
  virtual void apply_cluster_at(
      std::span<const std::size_t> pos,
      std::span<const kernels::BlockOp> ops) const = 0;

  /// Applies a dense 2^k x 2^k unitary at logical positions `pos[0..k)`
  /// with logical control mask `ctrl_mask` (the apply_matrix hook).
  virtual void apply_matrix_at(std::span<const Complex> matrix,
                               std::span<const std::size_t> pos,
                               std::uint64_t ctrl_mask) const = 0;

  virtual double probability_one_at(std::size_t pos) const = 0;
  virtual void collapse_at(std::size_t pos, bool bit, double prob_bit) = 0;

  virtual double parity_odd_probability(std::uint64_t mask) const = 0;
  virtual void parity_collapse(std::uint64_t mask, bool outcome,
                               double prob) = 0;

  virtual Complex amplitude_at(std::uint64_t index) const = 0;
  virtual double expectation_masks(const PauliMasks& masks) const = 0;
  virtual void pauli_rotation_masks(const PauliMasks& masks, double t) = 0;

  virtual double norm_state() const = 0;
  virtual std::vector<Complex> snapshot_state() const = 0;

  /// fusion_ is mutable: logically-const observers flush pending gates.
  mutable FusionQueue fusion_;
  std::vector<QubitId> positions_;                  ///< logical pos -> id
  std::unordered_map<QubitId, std::size_t> index_;  ///< id -> logical pos
  QubitId next_id_ = 1;
  std::mt19937_64 rng_;
  unsigned num_threads_ = 1;
  bool fusion_enabled_ = true;
  std::shared_ptr<ClusterCache> cluster_cache_;
};

/// Which Backend implementation a SimServer (or a whole job) runs on.
/// The numeric values travel in RunConfig::backend; append only.
enum class BackendKind {
  kSerial,       ///< single flat amplitude array (the paper's §6 prototype)
  kSharded,      ///< amplitudes partitioned into per-worker slices
  kDistributed,  ///< sharded replica per rank process, slices partitioned
                 ///< across processes over the peer data plane (tcp only;
                 ///< constructed by core/sim_dist.hpp, not make_backend)
};

const char* to_string(BackendKind kind);

/// Constructs a backend of `kind`. `num_shards` (power of two) is only
/// meaningful for BackendKind::kSharded.
std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      std::uint64_t seed = kDefaultSeed,
                                      unsigned num_shards = 1);

}  // namespace qmpi::sim
