#include "sim/backend.hpp"

#include <string>

#include "sim/circuit_cache.hpp"
#include "sim/sharded_statevector.hpp"
#include "sim/statevector.hpp"

namespace qmpi::sim {

namespace {

constexpr double kEps = 1e-10;

/// Compiles `ops` (cluster-local targets and controls) into one block
/// program over a 2^k block: the one compile step of every gate sweep.
std::vector<kernels::BlockOp> compile_ops(std::span<const ClusterOp> ops,
                                          std::size_t k) {
  std::vector<kernels::BlockOp> compiled;
  compiled.reserve(ops.size());
  for (const ClusterOp& op : ops) {
    kernels::compile_block_op(op.gate, op.target, op.ctrl_mask, 1ULL << k,
                              compiled);
  }
  return compiled;
}

/// True for a one-qubit cluster holding exactly the X matrix: the only
/// pending work a free can fold into its choice of half.
bool is_lone_x(const GateCluster& cluster) {
  return cluster.num_qubits() == 1 && cluster.num_ops() == 1 &&
         cluster.ops().front().gate.m == gate_x().m;
}

}  // namespace

std::vector<QubitId> Backend::allocate(std::size_t count) {
  // No flush needed: pending 1Q gates commute with appending |0> factors
  // (their target positions are unchanged), and they are keyed by id.
  std::vector<QubitId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const QubitId id = next_id_++;
    index_[id] = positions_.size();
    positions_.push_back(id);
    basis_.push_back(0);
    grow_state();
    ids.push_back(id);
  }
  return ids;
}

std::size_t Backend::position_checked(QubitId qubit) const {
  const auto it = index_.find(qubit);
  if (it == index_.end()) {
    throw SimulatorError("unknown qubit id " + std::to_string(qubit));
  }
  return it->second;
}

void Backend::set_fusion_enabled(bool on) {
  if (!on) flush_gates();
  fusion_enabled_ = on;
}

void Backend::flush_gates() const {
  // Loop until quiescent: if applying a cluster ever re-enqueues (it does
  // not today, but the old single-pass drain silently deferred exactly
  // that case past the flush boundary), the fresh batch flushes too.
  while (!fusion_.empty()) {
    for (const GateCluster& cluster : fusion_.take()) apply_cluster(cluster);
  }
}

void Backend::flush_qubits(std::span<const QubitId> qubits) const {
  for (;;) {
    const std::vector<GateCluster> batch = fusion_.take_touching(qubits);
    if (batch.empty()) return;
    for (const GateCluster& cluster : batch) apply_cluster(cluster);
  }
}

void Backend::track_gate(const Gate1Q& gate, std::size_t target,
                         bool controlled) {
  std::uint8_t& b = basis_[target];
  const Complex zero(0.0, 0.0);
  if (gate.m[1] == zero && gate.m[2] == zero) return;  // diagonal
  if (b != kUnknownBasis && !controlled && gate.m[0] == zero &&
      gate.m[3] == zero) {
    b ^= 1U;  // antidiagonal: swaps the zero half with the other one
    return;
  }
  b = kUnknownBasis;
}

void Backend::apply_gate_at(const Gate1Q& gate, std::size_t pos,
                            std::uint64_t ctrl_mask) const {
  const ClusterOp op{gate};
  apply_cluster_at({&pos, 1}, ctrl_mask, compile_ops({&op, 1}, 1));
}

void Backend::apply_cluster(const GateCluster& cluster) const {
  ++applied_clusters_;
  // Ids were validated at push time and every deallocation path flushes
  // the clusters touching a qubit before removing it, so all entries must
  // still be live.
  const auto position = [this](QubitId q) { return index_.find(q)->second; };
  if (cluster.num_ops() == 1) {
    const ClusterOp& op = cluster.ops().front();
    std::uint64_t ctrl_mask = 0;
    for (unsigned b = 0; b < cluster.num_qubits(); ++b) {
      if (op.ctrl_mask & (1U << b)) {
        ctrl_mask |= 1ULL << position(cluster.qubits()[b]);
      }
    }
    apply_gate_at(op.gate, position(cluster.qubits()[op.target]), ctrl_mask);
    return;
  }
  std::vector<std::size_t> pos(cluster.num_qubits());
  for (std::size_t j = 0; j < pos.size(); ++j) {
    pos[j] = position(cluster.qubits()[j]);
  }
  // With a cluster cache attached, probe by content key first: a repeated
  // cluster (Trotter step, repeated job) replays the cached program, which
  // is the program a fresh compile would produce.
  if (!cluster_cache_) {
    apply_cluster_at(pos, /*ctrl_mask=*/0,
                     compile_ops(cluster.ops(), pos.size()));
    return;
  }
  const ClusterKey key = make_cluster_key(cluster);
  ClusterCache::Program program = cluster_cache_->lookup(key);
  if (!program) {
    program = std::make_shared<const std::vector<kernels::BlockOp>>(
        compile_ops(cluster.ops(), pos.size()));
    cluster_cache_->insert(key, program);
  }
  apply_cluster_at(pos, /*ctrl_mask=*/0, *program);
}

void Backend::queue_gate(const Gate1Q& gate,
                         std::span<const QubitId> controls, QubitId target) {
  std::vector<GateCluster> evicted;
  fusion_.push(gate, controls, target, evicted);
  for (const GateCluster& cluster : evicted) apply_cluster(cluster);
}

void Backend::remove_position(std::size_t pos, bool bit) {
  // A lone uncontrolled X pending on the freed qubit only swaps its halves:
  // keeping the other half of the unflipped state gives the same bytes
  // without the sweep (an outcome-1 EPR half reset just before its free).
  // Pending clusters are qubit-disjoint, so at most one touches the qubit,
  // and applying it queues nothing: one take empties the qubit's queue.
  const QubitId qubit = positions_[pos];
  const std::vector<GateCluster> batch = fusion_.take_touching({&qubit, 1});
  if (!batch.empty() && is_lone_x(batch.front())) {
    bit = !bit;
  } else {
    for (const GateCluster& cluster : batch) apply_cluster(cluster);
  }
  remove_position_state(pos, bit);
  // Fix the id<->position maps: qubits above `pos` shift down by one.
  index_.erase(positions_[pos]);
  positions_.erase(positions_.begin() + static_cast<std::ptrdiff_t>(pos));
  basis_.erase(basis_.begin() + static_cast<std::ptrdiff_t>(pos));
  for (std::size_t p = pos; p < positions_.size(); ++p) {
    index_[positions_[p]] = p;
  }
}

void Backend::deallocate(QubitId qubit) {
  const std::size_t pos = position_checked(qubit);
  if (basis_[pos] != 0) {  // a known |0> needs no check
    flush_qubits({&qubit, 1});
    const double p1 = probability_one_at(pos);
    if (p1 > kEps) {
      throw SimulatorError(
          "deallocating qubit " + std::to_string(qubit) +
          " that is not in |0> (P[1]=" + std::to_string(p1) +
          "); uncompute it first or use release()");
    }
  }
  remove_position(pos, /*bit=*/false);
}

void Backend::deallocate_classical(QubitId qubit) {
  const std::size_t pos = position_checked(qubit);
  bool bit = basis_[pos] == 1;
  if (basis_[pos] == kUnknownBasis) {
    flush_qubits({&qubit, 1});
    const double p1 = probability_one_at(pos);
    if (p1 > kEps && p1 < 1.0 - kEps) {
      throw SimulatorError("deallocating qubit " + std::to_string(qubit) +
                           " that is in superposition (P[1]=" +
                           std::to_string(p1) + ")");
    }
    bit = p1 >= 0.5;
  }
  remove_position(pos, bit);
}

bool Backend::release(QubitId qubit) {
  const bool outcome = measure(qubit);
  const std::size_t pos = position_checked(qubit);
  remove_position(pos, outcome);
  return outcome;
}

void Backend::apply(const Gate1Q& gate, QubitId target) {
  const std::size_t pos = position_checked(target);  // validate eagerly
  track_gate(gate, pos, /*controlled=*/false);
  if (fusion_enabled_) {
    queue_gate(gate, {}, target);
    return;
  }
  apply_gate_at(gate, pos, /*ctrl_mask=*/0);
}

void Backend::apply_controlled(const Gate1Q& gate,
                               std::span<const QubitId> controls,
                               QubitId target) {
  const std::size_t tpos = position_checked(target);
  std::uint64_t mask = 0;
  for (const QubitId c : controls) {
    const std::size_t cpos = position_checked(c);
    if (cpos == tpos) {
      throw SimulatorError("control qubit equals target qubit");
    }
    mask |= 1ULL << cpos;
  }
  track_gate(gate, tpos, !controls.empty());
  if (fusion_enabled_ && controls.size() + 1 <= kMaxFusedQubits) {
    queue_gate(gate, controls, target);
    return;
  }
  flush_gates();  // too many qubits to fuse (or fusion off): apply eagerly
  apply_gate_at(gate, tpos, mask);
}

bool Backend::measure(QubitId qubit) {
  const std::size_t pos = position_checked(qubit);
  flush_qubits({&qubit, 1});
  const double p1 = probability_one_at(pos);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  const bool outcome = dist(rng_) < p1;
  collapse_at(pos, outcome, outcome ? p1 : 1.0 - p1);
  basis_[pos] = outcome ? 1 : 0;
  return outcome;
}

bool Backend::measure_x(QubitId qubit) {
  h(qubit);
  const bool outcome = measure(qubit);
  h(qubit);  // map the collapsed |0>/|1> back to |+>/|->
  return outcome;
}

bool Backend::measure_parity(std::span<const QubitId> qubits) {
  std::uint64_t mask = 0;
  for (const QubitId q : qubits) {
    const std::uint64_t bit = 1ULL << position_checked(q);
    if (mask & bit) {
      throw SimulatorError("measure_parity: duplicate qubit " +
                           std::to_string(q));
    }
    mask |= bit;
  }
  // The parity projector is diagonal: known basis values survive it.
  flush_qubits(qubits);
  const double p_odd = parity_odd_probability(mask);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  const bool outcome = dist(rng_) < p_odd;
  parity_collapse(mask, outcome, outcome ? p_odd : 1.0 - p_odd);
  return outcome;
}

double Backend::probability_one(QubitId qubit) const {
  const std::size_t pos = position_checked(qubit);
  // Every bit-1 amplitude of a known |0> is an exact zero, so the sum the
  // hook would return is exactly 0.0 too.
  if (basis_[pos] == 0) return 0.0;
  flush_qubits({&qubit, 1});
  return probability_one_at(pos);
}

Complex Backend::amplitude(std::span<const QubitId> order,
                           std::span<const bool> bits) const {
  if (order.size() != bits.size() || order.size() != positions_.size()) {
    throw SimulatorError("amplitude() needs exactly one bit per qubit");
  }
  std::uint64_t idx = 0;
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::uint64_t bit = 1ULL << position_checked(order[k]);
    if (seen & bit) {
      throw SimulatorError("amplitude: duplicate qubit " +
                           std::to_string(order[k]));
    }
    seen |= bit;
    if (bits[k]) idx |= bit;
  }
  flush_gates();
  return amplitude_at(idx);
}

Backend::PauliMasks Backend::parse_pauli(
    std::span<const std::pair<QubitId, char>> pauli) const {
  // X flips a bit, Z adds a sign, Y does both with a factor i: the masks
  // encode P's action per basis state for both observables paths.
  PauliMasks masks;
  for (const auto& [qubit, op] : pauli) {
    const std::uint64_t bit = 1ULL << position_checked(qubit);
    switch (op) {
      case 'X':
        masks.flip |= bit;
        break;
      case 'Y':
        masks.flip |= bit;
        masks.z |= bit;
        ++masks.y_count;
        break;
      case 'Z':
        masks.z |= bit;
        break;
      default:
        throw SimulatorError(std::string("bad Pauli op '") + op + "'");
    }
  }
  return masks;
}

double Backend::expectation(
    std::span<const std::pair<QubitId, char>> pauli) const {
  const PauliMasks masks = parse_pauli(pauli);
  flush_gates();
  return expectation_masks(masks);
}

void Backend::apply_pauli_rotation(
    std::span<const std::pair<QubitId, char>> pauli, double t) {
  const PauliMasks masks = parse_pauli(pauli);
  // X/Y factors mix each basis state with its flip; Z factors are diagonal.
  for (std::size_t p = 0; p < basis_.size(); ++p) {
    if ((masks.flip >> p) & 1ULL) basis_[p] = kUnknownBasis;
  }
  flush_gates();
  pauli_rotation_masks(masks, t);
}

double Backend::norm() const {
  flush_gates();
  return norm_state();
}

std::vector<Complex> Backend::snapshot() const {
  flush_gates();
  return snapshot_state();
}

// ----------------------------------------------------------- selection ---

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSerial:
      return "serial";
    case BackendKind::kSharded:
      return "sharded";
    case BackendKind::kDistributed:
      return "distributed";
  }
  return "?";
}

std::unique_ptr<Backend> make_backend(BackendKind kind, std::uint64_t seed,
                                      unsigned num_shards) {
  switch (kind) {
    case BackendKind::kSerial:
      return std::make_unique<StateVector>(seed);
    case BackendKind::kSharded:
      return std::make_unique<ShardedStateVector>(num_shards, seed);
    case BackendKind::kDistributed:
      // No single process can host "the" distributed backend: each rank
      // process builds its replica through core/sim_dist.hpp, wired to the
      // transport. Reaching here means a layer tried to treat it like a
      // backend one process can host.
      throw SimulatorError(
          "the distributed backend spans rank processes and is constructed "
          "by the tcp transport layer (core/sim_dist.hpp), not "
          "make_backend()");
  }
  throw SimulatorError("unknown backend kind");
}

}  // namespace qmpi::sim
