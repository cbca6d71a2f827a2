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
  /// flush boundary that reaches it (a measurement, marginal or
  /// deallocation of one of its qubits, amplitude inspection, or a gate
  /// too big to fuse).
  void apply(const Gate1Q& gate, QubitId target);

  /// Applies `gate` on `target` controlled on all `controls` being |1>.
  /// Gates spanning at most kMaxFusedQubits qubits join the fusion queue
  /// like 1Q gates (an entangling gate no longer forces a flush); bigger
  /// gates flush and apply eagerly.
  void apply_controlled(const Gate1Q& gate, std::span<const QubitId> controls,
                        QubitId target);

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
  /// A repeated qubit throws SimulatorError (Z·Z = I would silently drop
  /// it from the observable).
  bool measure_parity(std::span<const QubitId> qubits);

  // ------------------------------------------------------- inspection ---

  /// Probability that measuring `qubit` yields 1 (no collapse). A qubit
  /// known to be |0> (see basis_) answers 0.0 without touching the state.
  double probability_one(QubitId qubit) const;

  /// Amplitude of the classical basis state given by `bits` (one bool per
  /// currently allocated qubit, ordered by the ids in `order`, which must
  /// name every qubit exactly once).
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
  /// automatically at every boundary that observes the whole state; public
  /// so benchmarks can time gate application itself. Loops until the queue
  /// is quiescent, so a reentrant push can never be deferred past the flush.
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

  /// Applies the pending clusters that touch any of `qubits` — their light
  /// cone — and leaves the rest queued. Pending clusters are pairwise
  /// qubit-disjoint, so the ones left commute with any operation confined
  /// to `qubits` (a projector, a marginal, the removal of a classical
  /// qubit). Loops until none is left, like flush_gates().
  void flush_qubits(std::span<const QubitId> qubits) const;

  /// Records in basis_ what a gate on `target` does to the target's known
  /// basis value: diagonal gates keep it, an uncontrolled antidiagonal
  /// gate (X, Y) flips it, anything else clears it. Controls always keep
  /// theirs.
  void track_gate(const Gate1Q& gate, std::size_t target, bool controlled);

  /// Flushes the light cone of the qubit at logical `pos`, removes that
  /// (classical, = `bit`) qubit from the state, and repairs the
  /// id <-> position maps. Clusters on other qubits stay pending: they are
  /// keyed by id, not position.
  void remove_position(std::size_t pos, bool bit);

  /// Routes a fusible gate into the cluster queue and applies any clusters
  /// the push evicted to make room.
  void queue_gate(const Gate1Q& gate, std::span<const QubitId> controls,
                  QubitId target);

  /// Applies a lone gate: a one-op program on the 1-qubit block at logical
  /// `pos`, its controls the fixed bits `ctrl_mask` of the sweep.
  void apply_gate_at(const Gate1Q& gate, std::size_t pos,
                     std::uint64_t ctrl_mask) const;

  /// Applies one fused cluster: a single-op cluster as a lone gate (its
  /// controls enumerated, not replayed), a multi-op one as one block
  /// sweep over all its qubits.
  void apply_cluster(const GateCluster& cluster) const;

  // ---------------------------------------------- representation hooks ---
  // All positions/masks/indices below are logical. Hooks are called with
  // every pending cluster that touches the positions they read, collapse or
  // remove already applied; clusters on other qubits may still be pending
  // (they commute with the hook). Hooks over the whole state (amplitude_at,
  // expectation_masks, pauli_rotation_masks, norm_state, snapshot_state)
  // run with the queue fully flushed. apply_cluster_at IS the flush
  // target. Every hook must produce results bit-identical to the serial
  // backend.

  /// Appends a |0> tensor factor (the new qubit's logical position is
  /// num_qubits() - 1; the bookkeeping is already updated when called).
  virtual void grow_state() = 0;

  /// Removes logical position `pos`, keeping the `bit` half. Called before
  /// the position maps are repaired, so num_qubits() is still the old n.
  /// Only the clusters touching `pos` have been applied (see above).
  virtual void remove_position_state(std::size_t pos, bool bit) = 0;

  /// The one gate hook: replays the compiled program `ops` over every 2^k
  /// block whose bit j lives at logical position `pos[j]` and whose
  /// logical control bits `ctrl_mask` are all set. Per amplitude the op
  /// sequence and arithmetic are kernels::run_block_ops's on every path,
  /// so fusion changes how often memory is walked, never what is computed.
  /// Const because fusion makes gate application lazy: logically-const
  /// observers may have to materialize pending gates first (amplitude
  /// storage is mutable in backends).
  virtual void apply_cluster_at(
      std::span<const std::size_t> pos, std::uint64_t ctrl_mask,
      std::span<const kernels::BlockOp> ops) const = 0;

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

  /// basis_ value of a qubit whose basis state is not known.
  static constexpr std::uint8_t kUnknownBasis = 2;
  /// Per logical position: 0 or 1 if the qubit is known to be in that Z
  /// basis state (every amplitude with the other bit value is an exact
  /// zero), kUnknownBasis otherwise. Set by allocate and measure, updated
  /// in program order by track_gate, so it already accounts for gates
  /// still pending in fusion_. Lets probability_one and the deallocations
  /// skip a reduction whose answer is known.
  std::vector<std::uint8_t> basis_;
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
