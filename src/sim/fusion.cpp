#include "sim/fusion.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "sim/kernels.hpp"

namespace qmpi::sim {

// A fused cluster must fit the block kernels' gather buffers.
static_assert(kMaxFusedQubits <= kernels::kMaxBlockQubits);

Gate1Q compose(const Gate1Q& a, const Gate1Q& b) {
  // Cap the label: long fusion runs would otherwise grow an O(k) string per
  // push (O(k^2) cumulative copying) on the very path fusion makes cheap.
  std::string name = a.name.size() + b.name.size() < 16
                         ? a.name + "*" + b.name
                         : "fused";
  return Gate1Q{{a.m[0] * b.m[0] + a.m[1] * b.m[2],
                 a.m[0] * b.m[1] + a.m[1] * b.m[3],
                 a.m[2] * b.m[0] + a.m[3] * b.m[2],
                 a.m[2] * b.m[1] + a.m[3] * b.m[3]},
                std::move(name)};
}

// ---------------------------------------------------------- GateCluster ---

bool GateCluster::touches(std::uint64_t qubit) const {
  return std::find(qubits_.begin(), qubits_.end(), qubit) != qubits_.end();
}

bool GateCluster::touches_any(std::span<const std::uint64_t> qs,
                              std::uint64_t target) const {
  if (touches(target)) return true;
  for (const std::uint64_t q : qs) {
    if (touches(q)) return true;
  }
  return false;
}

std::uint8_t GateCluster::bit_of(std::uint64_t qubit) {
  for (std::size_t j = 0; j < qubits_.size(); ++j) {
    if (qubits_[j] == qubit) return static_cast<std::uint8_t>(j);
  }
  qubits_.push_back(qubit);
  return static_cast<std::uint8_t>(qubits_.size() - 1);
}

void GateCluster::append(ClusterOp op) {
  if (!ops_.empty() && ops_.back().target == op.target &&
      ops_.back().ctrl_mask == op.ctrl_mask) {
    ops_.back().gate = compose(op.gate, ops_.back().gate);
    return;
  }
  ops_.push_back(std::move(op));
}

void GateCluster::push_op(const Gate1Q& gate,
                          std::span<const std::uint64_t> controls,
                          std::uint64_t target) {
  ClusterOp op;
  op.gate = gate;
  op.target = bit_of(target);
  for (const std::uint64_t c : controls) {
    op.ctrl_mask |= static_cast<std::uint8_t>(1U << bit_of(c));
  }
  append(std::move(op));
}

void GateCluster::merge(const GateCluster& other) {
  std::uint8_t remap[kMaxFusedQubits] = {};
  for (std::size_t j = 0; j < other.qubits_.size(); ++j) {
    remap[j] = bit_of(other.qubits_[j]);
  }
  for (const ClusterOp& op : other.ops_) {
    ClusterOp moved;
    moved.gate = op.gate;
    moved.target = remap[op.target];
    for (unsigned b = 0; b < kMaxFusedQubits; ++b) {
      if (op.ctrl_mask & (1U << b)) {
        moved.ctrl_mask |= static_cast<std::uint8_t>(1U << remap[b]);
      }
    }
    append(std::move(moved));
  }
}

std::vector<Complex> GateCluster::matrix() const {
  const std::size_t dim = 1ULL << qubits_.size();
  std::vector<Complex> m(dim * dim, Complex(0.0, 0.0));
  for (std::size_t j = 0; j < dim; ++j) m[j * dim + j] = Complex(1.0, 0.0);
  // Column c of the product is the run applied to |c>: replay the
  // compiled ops on each column exactly as the flush sweep replays them on
  // a block.
  std::vector<kernels::BlockOp> compiled;
  for (const ClusterOp& op : ops_) {
    kernels::compile_block_op(op.gate, op.target, op.ctrl_mask, dim,
                              compiled);
  }
  std::array<Complex, 1ULL << kernels::kMaxBlockQubits> col;
  for (std::size_t c = 0; c < dim; ++c) {
    for (std::size_t r = 0; r < dim; ++r) col[r] = m[r * dim + c];
    kernels::run_block_ops(col.data(), compiled);
    for (std::size_t r = 0; r < dim; ++r) m[r * dim + c] = col[r];
  }
  return m;
}

// ----------------------------------------------------------- FusionQueue ---

std::size_t FusionQueue::size() const {
  std::size_t total = 0;
  for (const GateCluster& c : pending_) total += c.num_ops();
  return total;
}

std::vector<GateCluster> FusionQueue::take() {
  // Plain move-out, no stale clear: the old drain() moved pending_ and then
  // cleared the (already empty) vector, while gates pushed by the apply
  // callback landed in the fresh pending_ and were silently deferred past
  // the flush boundary. Handing the batch to the caller and looping there
  // until empty() makes a reentrant push flush-correct by construction.
  return std::exchange(pending_, {});
}

std::vector<GateCluster> FusionQueue::take_touching(
    std::span<const std::uint64_t> qubits) {
  std::vector<GateCluster> taken;
  std::size_t kept = 0;
  for (GateCluster& c : pending_) {
    const bool hit = std::any_of(
        qubits.begin(), qubits.end(),
        [&c](std::uint64_t q) { return c.touches(q); });
    if (hit) {
      taken.push_back(std::move(c));
    } else {
      if (&pending_[kept] != &c) pending_[kept] = std::move(c);
      ++kept;
    }
  }
  pending_.resize(kept);
  return taken;
}

void FusionQueue::push(const Gate1Q& gate,
                       std::span<const std::uint64_t> controls,
                       std::uint64_t target,
                       std::vector<GateCluster>& evicted) {
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].touches_any(controls, target)) hits.push_back(i);
  }

  if (hits.empty()) {
    pending_.emplace_back().push_op(gate, controls, target);
    return;
  }

  // Size of the merged run if every overlapping cluster and this gate
  // fused. Registers are small, clusters tiny: linear scans suffice.
  std::vector<std::uint64_t> uni(controls.begin(), controls.end());
  uni.push_back(target);
  std::size_t union_ops = 1;
  for (const std::size_t i : hits) {
    union_ops += pending_[i].num_ops();
    for (const std::uint64_t q : pending_[i].qubits()) {
      if (std::find(uni.begin(), uni.end(), q) == uni.end()) uni.push_back(q);
    }
  }
  std::sort(uni.begin(), uni.end());
  uni.erase(std::unique(uni.begin(), uni.end()), uni.end());

  if (uni.size() <= kMaxFusedQubits && union_ops <= kMaxFusedOps) {
    // Merge into the earliest overlapping cluster, in insertion order —
    // clusters are pairwise disjoint, so this ordering is the one the
    // insertion-order flush would have produced anyway.
    GateCluster& dst = pending_[hits[0]];
    for (std::size_t h = 1; h < hits.size(); ++h) dst.merge(pending_[hits[h]]);
    for (std::size_t h = hits.size(); h-- > 1;) {
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(hits[h]));
    }
    dst.push_op(gate, controls, target);
    return;
  }

  // Overflow: evict every overlapping cluster (insertion order) for
  // immediate application and start fresh with this gate. Non-overlapping
  // clusters stay queued — they are disjoint from everything evicted and
  // from the new gate, so the partial flush commutes exactly.
  for (const std::size_t i : hits) evicted.push_back(std::move(pending_[i]));
  for (std::size_t h = hits.size(); h-- > 0;) {
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(hits[h]));
  }
  pending_.emplace_back().push_op(gate, controls, target);
}

}  // namespace qmpi::sim
