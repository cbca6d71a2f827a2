#pragma once

/// \file fusion.hpp
/// Lazy cluster gate fusion: adjacent overlapping gates merge into
/// k-qubit units applied in one state-vector sweep. See
/// docs/ARCHITECTURE.md §5.


#include <cstdint>
#include <span>
#include <vector>

#include "sim/gates.hpp"

namespace qmpi::sim {

/// Maximum qubits a fused cluster may span: 4 qubits = a 16x16 composed
/// unitary, the qHiPSTER/ProjectQ sweet spot where the per-block working
/// set still fits in registers/L1 while one memory sweep replaces up to
/// kMaxFusedOps sweeps.
inline constexpr std::size_t kMaxFusedQubits = 4;

/// Maximum deferred gates per cluster before it is evicted and applied.
/// Bounds the per-block replay arithmetic so long circuits cannot turn a
/// memory-bound sweep into a compute-bound one.
inline constexpr std::size_t kMaxFusedOps = 16;

/// One deferred gate inside a GateCluster: a 2x2 unitary on cluster-local
/// bit `target`, controlled on the cluster-local bits of `ctrl_mask`.
/// Indices are into the owning cluster's qubit list, so a cluster is a
/// self-contained k-qubit unit that any backend layout can apply.
struct ClusterOp {
  Gate1Q gate;
  std::uint8_t target = 0;
  std::uint8_t ctrl_mask = 0;
};

/// A run of adjacent gates whose qubit sets overlap, fused into one
/// k-qubit unit (k <= kMaxFusedQubits). Qubits are stable ids, not
/// state-vector positions, so a cluster survives allocation/removal of
/// other qubits between push and flush; bit j of every op index refers to
/// qubits()[j].
class GateCluster {
 public:
  std::size_t num_qubits() const { return qubits_.size(); }
  std::size_t num_ops() const { return ops_.size(); }
  const std::vector<std::uint64_t>& qubits() const { return qubits_; }
  const std::vector<ClusterOp>& ops() const { return ops_; }

  bool touches(std::uint64_t qubit) const;
  bool touches_any(std::span<const std::uint64_t> qs,
                   std::uint64_t target) const;

  /// Appends `gate` (on `target`, controlled by `controls`) to the run.
  /// Consecutive ops with the same target and control set compose into one
  /// 2x2 product — the classic 1Q fusion — so unbounded same-qubit
  /// rotation runs stay a single op. The caller must ensure the qubit
  /// budget is not exceeded.
  void push_op(const Gate1Q& gate, std::span<const std::uint64_t> controls,
               std::uint64_t target);

  /// Absorbs `other` (which must be qubit-disjoint, i.e. an earlier-or-
  /// later commuting cluster): its qubits are remapped into this cluster's
  /// bit order and its ops appended in order.
  void merge(const GateCluster& other);

  /// Dense 2^k x 2^k row-major unitary of the whole run (ops applied in
  /// order). White-box view of the composed cluster; the flush path
  /// replays ops instead to keep the arithmetic identical to gate-by-gate
  /// execution.
  std::vector<Complex> matrix() const;

 private:
  /// Cluster-local bit of `qubit`, adding it if absent.
  std::uint8_t bit_of(std::uint64_t qubit);

  void append(ClusterOp op);

  std::vector<std::uint64_t> qubits_;
  std::vector<ClusterOp> ops_;
};

/// Lazy gate-fusion queue, generalized from per-qubit 2x2 composition to
/// cluster fusion: adjacent 1Q gates AND controlled/2Q gates acting on
/// overlapping qubit sets greedily merge into a single k-qubit unit
/// (k <= kMaxFusedQubits), so a CNOT·Rz·CNOT Trotter term — or a whole
/// brickwork patch — costs one O(2^n) sweep instead of one per gate. On
/// the sharded backend fewer sweeps also means fewer global-qubit passes,
/// the quantity the paper's distributed model charges communication for.
///
/// Pending clusters are pairwise qubit-disjoint by construction (a gate
/// overlapping several clusters merges them), so they commute and the
/// insertion-order flush is deterministic and mathematically equivalent to
/// program order. The queue is flushed in full before any operation that
/// reads the whole state or couples more qubits than a cluster can hold —
/// amplitudes, expectation values, snapshots, dense matrices, Pauli
/// rotations, oversized gates. Operations on a few qubits — measurement,
/// parity measurement, marginals, deallocation — take only the clusters
/// that touch those qubits (take_touching): a projector or marginal on q
/// commutes with any unitary on other qubits, so the rest keep fusing.
class FusionQueue {
 public:
  /// Queues `gate`. Overlapping pending clusters are merged when the
  /// union stays within kMaxFusedQubits/kMaxFusedOps; otherwise the
  /// overlapping clusters are moved to `evicted` — the caller must apply
  /// them, in the given order, before anything else — and a fresh cluster
  /// starts with this gate. `controls` plus `target` must fit a cluster
  /// (<= kMaxFusedQubits qubits); bigger gates bypass the queue entirely.
  void push(const Gate1Q& gate, std::span<const std::uint64_t> controls,
            std::uint64_t target, std::vector<GateCluster>& evicted);

  bool empty() const { return pending_.empty(); }

  /// Total pending ops across clusters (white-box for fusion tests).
  std::size_t size() const;
  std::size_t num_clusters() const { return pending_.size(); }

  /// Moves out all pending clusters in insertion order, leaving the queue
  /// empty. Callers flushing must loop until empty(): applying a cluster
  /// can in principle enqueue again, and a reentrant push must not be
  /// silently deferred past the flush boundary (the bug the old drain()
  /// had).
  std::vector<GateCluster> take();

  /// Moves out, in insertion order, only the pending clusters that touch
  /// any of `qubits`; the others stay queued in order. Callers loop until
  /// this returns empty, for the same reason they loop on take().
  std::vector<GateCluster> take_touching(std::span<const std::uint64_t> qubits);

  void clear() { pending_.clear(); }

 private:
  std::vector<GateCluster> pending_;
};

/// 2x2 matrix product a * b ("b first, then a" as operators).
Gate1Q compose(const Gate1Q& a, const Gate1Q& b);

}  // namespace qmpi::sim
