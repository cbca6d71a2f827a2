#pragma once

#include <cstdint>
#include <vector>

#include "sim/backend.hpp"

namespace qmpi::sim {

/// Full state-vector quantum simulator over one flat amplitude array.
///
/// This is the substrate behind the QMPI prototype (paper §6): a single
/// global state vector that faithfully represents the quantum state of the
/// whole distributed machine. All register/protocol behavior (qubit ids,
/// fusion, measurement flow) lives in Backend; this class implements only
/// the flat-array representation hooks. Qubit allocation appends a |0>
/// tensor factor, deallocation removes a factor (requiring it to be
/// disentangled and in |0>, as in ProjectQ-style simulators).
class StateVector : public Backend {
 public:
  /// Creates an empty register. `seed` fixes the measurement RNG so tests
  /// and experiments are reproducible.
  explicit StateVector(std::uint64_t seed = kDefaultSeed);

  /// Raw amplitudes, indexed by position bits (position of qubit id q is
  /// position_of(q)). Exposed for white-box tests and benchmarks. Flushes
  /// pending fused gates so the returned vector is the true current state.
  const std::vector<Complex>& amplitudes() const {
    flush_gates();
    return amplitudes_;
  }

  const char* name() const override { return "serial"; }

 private:
  void grow_state() override;
  void remove_position_state(std::size_t pos, bool bit) override;
  void apply_cluster_at(std::span<const std::size_t> pos,
                        std::uint64_t ctrl_mask,
                        std::span<const kernels::BlockOp> ops) const override;
  void apply_matrix_at(std::span<const Complex> matrix,
                       std::span<const std::size_t> pos,
                       std::uint64_t ctrl_mask) const override;
  double probability_one_at(std::size_t pos) const override;
  void collapse_at(std::size_t pos, bool bit, double prob_bit) override;
  double parity_odd_probability(std::uint64_t mask) const override;
  void parity_collapse(std::uint64_t mask, bool outcome,
                       double prob) override;
  Complex amplitude_at(std::uint64_t index) const override;
  double expectation_masks(const PauliMasks& masks) const override;
  void pauli_rotation_masks(const PauliMasks& masks, double t) override;
  double norm_state() const override;
  std::vector<Complex> snapshot_state() const override;

  /// amplitudes_ is mutable: fusion makes gate application lazy, so
  /// logically-const observers may have to materialize pending gates first.
  /// The class was never thread-safe for concurrent use (see Backend).
  mutable std::vector<Complex> amplitudes_;
};

}  // namespace qmpi::sim
