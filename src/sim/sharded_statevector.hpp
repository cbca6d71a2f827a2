#pragma once

#include <cstdint>
#include <vector>

#include "sim/backend.hpp"
#include "sim/shard_exchange.hpp"

namespace qmpi::sim {

/// Hard cap on slices: shard indices must fit the global-bit budget and
/// nobody legitimately runs more in-process workers than this. Public so
/// the env-override parser can reject bad QMPI_SHARDS values up front.
inline constexpr unsigned kMaxShards = 256;

/// State-vector backend with the 2^n amplitudes partitioned into
/// per-worker slices — the standard global/local qubit split of distributed
/// quantum simulators, run in-process.
///
/// With S = 2^g shards, the top g *physical* bits of an amplitude index
/// select the shard and the remaining n-g bits index within its slice, so
/// every slice is a contiguous block of the flat state:
///
///   amplitude(i)  lives in  slice[i >> (n-g)]  at offset  i & (2^(n-g)-1)
///
/// Gates on *local* qubits (physical position < n-g) touch only intra-slice
/// pairs and run embarrassingly parallel, one shard per worker lane, using
/// the same block replay as the serial backend. A non-diagonal gate
/// on a *global* qubit first runs a qubit-relabeling swap: the global bit
/// trades places with the least-recently-used local bit via one pairwise
/// permutation exchange through the ShardMesh (the in-process stand-in for
/// the MPI exchange), after which the gate — and subsequent gates on the
/// same qubit — apply locally. Diagonal gates on global qubits need no
/// exchange at all — the shard index determines the factor. Only a block
/// with more qubits than there are local bits (every gate while n <= g, a
/// fused cluster wider than the slices) gathers across slices instead. The
/// logical position of a qubit (what Backend and all observers see) never
/// changes; the relabeling is purely a physical-layout concern tracked by
/// an internal permutation.
///
/// Every observable result is bit-identical to the serial StateVector:
/// elementwise sweeps perform the same arithmetic per logical basis state,
/// and reductions enumerate logical indices in serial order with the shared
/// chunked combine (sweep.hpp), so even measurement outcomes match draw for
/// draw.
///
/// Distributed over ranks, register reshapes and reductions stay on the
/// resident slices. Once all shards are active a new qubit takes a new top
/// local bit (each slice doubles in place) and a freed local bit compacts
/// each slice in place; a freed global bit is first swapped local. A
/// reduction first swaps local every bit that varies inside one of its
/// fixed 2^14-term chunks, so each chunk lies in one slice: every rank sums
/// its resident chunks, the ranks exchange those partials, and every rank
/// adds all of them in chunk order, exactly as the serial combine does.
class ShardedStateVector : public Backend {
 public:
  /// `num_shards` must be a power of two (1 degenerates to an unsharded
  /// slice). Registers smaller than the shard count keep only 2^n shards
  /// active until enough qubits exist to populate all slices.
  ///
  /// With `exchange == nullptr` (the in-process default) all slices are
  /// resident here and slabs move through the internal ShardMesh. A
  /// non-null provider distributes the slices: this instance sweeps only
  /// the contiguous slice block slice_block(world, rank, active) assigns
  /// it, relabel swaps route slabs through the provider, and reductions
  /// exchange per-chunk partials through it. Operations that read the
  /// whole state (snapshots, amplitudes, expectations, Pauli rotations
  /// with flips, blocks wider than the slices), reductions too small to
  /// split into chunks, and reshapes that change the active slice count
  /// first materialize every active slice via the provider's publish/take
  /// surface. The provider must outlive this backend. Every rank must
  /// replay the identical operation stream — the op tick, layout maps, and
  /// RNG advance in lockstep on all ranks.
  explicit ShardedStateVector(unsigned num_shards,
                              std::uint64_t seed = kDefaultSeed,
                              ExchangeProvider* exchange = nullptr);

  unsigned num_shards() const { return shards_; }

  /// Rank geometry as seen through the exchange provider (1/0 in-process).
  unsigned world() const { return world_; }
  unsigned rank() const { return rank_; }

  /// White-box counters for tests and benchmarks. `relabel_swaps` counts
  /// global<->local bit swaps, the only pairwise slab traffic.
  /// `cluster_sweeps` counts fused multi-op cluster and dense-matrix
  /// sweeps (a lone gate, a one-op program on a 1-qubit block, does not
  /// count); a block whose qubits fit the local budget is pulled local
  /// first and then sweeps slice by slice. `materializations` counts full-replica
  /// gathers (materialize calls that moved slices; always 0 in-process).
  /// Once all shards are active only whole-state inspection, single-chunk
  /// reductions and cross-slice clusters gather.
  std::uint64_t relabel_swaps() const { return relabel_swaps_; }
  std::uint64_t cluster_sweeps() const { return cluster_sweeps_; }
  std::uint64_t materializations() const { return materializations_; }

  /// Current number of local (intra-slice) qubit positions.
  std::size_t local_bits() const;

  const char* name() const override { return "sharded"; }

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

  /// log2 of the currently active shard count: min(gbits_, num_qubits()).
  unsigned active_log2() const;

  /// Contiguous [begin, end) of slices resident on this rank out of
  /// `active`. The whole range at world 1.
  std::pair<unsigned, unsigned> resident_range(unsigned active) const;

  /// Filters `parts` down to the slices resident on this rank.
  std::vector<unsigned> resident_parts(std::vector<unsigned> parts) const;

  /// Records that a sweep wrote resident slices only, so non-resident
  /// replicas went stale (world > 1 only; no-op in-process).
  void mark_partial_write() const;

  /// Ensures every one of the `active` slices is fresh on this rank:
  /// publishes the resident block, takes everything else. No-op at world 1
  /// or when the replica is already fresh (tracked deterministically, so
  /// all ranks skip or materialize together). Only operations that read
  /// across resident blocks call it (see the constructor).
  void materialize(unsigned active) const;
  void materialize_all() const;

  /// Logical index/mask -> physical via the relabeling permutation.
  std::uint64_t to_physical(std::uint64_t logical) const;
  std::uint64_t to_logical(std::uint64_t physical) const;

  /// Runs `fn(shard)` for each listed shard, one shard per worker lane —
  /// the "distributed sweep" dispatch.
  template <typename Fn>
  void for_shards(const std::vector<unsigned>& parts, Fn&& fn) const;

  /// Shards among the active ones that satisfy the global control bits.
  std::vector<unsigned> controlled_shards(unsigned shard_ctrl) const;

  /// Elementwise sweep `fn(physical_index, amplitude&)` over the state.
  template <typename Fn>
  void for_each_amp(Fn&& fn) const;

  /// Applies a 1-qubit block program of kScale ops whose block bit is
  /// the global physical bit `target_bit` (a shard-index bit): each slice
  /// scales by the factors of its block index, with no communication.
  void apply_global_diagonal(std::span<const kernels::BlockOp> ops,
                             unsigned target_bit, unsigned shard_ctrl,
                             std::uint64_t local_mask) const;

  /// Swaps physical global bit `pg` with physical local bit `pl` by
  /// permuting amplitudes between shard pairs, then updates the relabeling
  /// maps. Pure data movement: no arithmetic, so exactness is trivial.
  void relabel_swap(std::size_t pg, std::size_t pl) const;

  /// Least-recently-targeted physical local bit (the relabel victim),
  /// skipping bits set in `exclude` — a cluster must not evict one of its
  /// own qubits while pulling another one local. Bits carrying a logical
  /// position outside the low window reductions chunk over go first.
  std::size_t pick_victim(std::size_t nl, std::uint64_t exclude = 0) const;

  /// Sum of |amplitude|^2 over serial enumeration indices k in [0, count)
  /// with `keep(k)`, the logical index being k with a 1 spliced in at
  /// `pos` (or k itself when pos is kNoPos). Same enumeration and chunked
  /// combine as the serial reductions. Distributed over ranks with a stale
  /// replica, it sums resident chunks and exchanges partials (see the class
  /// comment); a single chunk, or fewer local bits than a chunk spans,
  /// gathers instead.
  template <typename Keep>
  double sum_norms(std::size_t count, std::size_t pos, Keep keep) const;

  /// Plans and runs one k-qubit block sweep — every non-diagonal sweep
  /// goes through here: when the block fits the local bits, its global
  /// bits are first swapped local (LRU victims outside the block) and the
  /// block then sweeps per slice with no further exchange; a bigger block
  /// falls back to a cross-slice gather that is still bit-identical to the
  /// serial enumeration.
  /// `lmask` is the logical control mask. The all-local hot path calls
  /// `local_fn(amp, m, pt, local_mask, pfor)` once per participating slice
  /// so backends can hand it the same streaming SIMD sweeps the serial
  /// StateVector uses; the cross-slice gather calls `block_fn(block)` with
  /// 2^k gathered amplitudes, block bit j at pos[j].
  template <typename LocalFn, typename BlockFn>
  void sweep_blocks_planned(std::span<const std::size_t> pos,
                            std::uint64_t lmask, LocalFn&& local_fn,
                            BlockFn&& block_fn) const;

  unsigned shards_;  ///< total slices (power of two)
  unsigned gbits_;   ///< log2(shards_)

  /// Slices are mutable for the same reason the serial amplitudes are:
  /// lazy fusion makes logically-const observers materialize gates. The
  /// layout/exchange bookkeeping below is mutable because the relabeling
  /// pass runs inside (const) gate application and changes only the
  /// physical layout, never the logical state.
  mutable std::vector<std::vector<Complex>> slices_;
  mutable std::vector<std::uint8_t> l2p_;  ///< logical pos -> physical bit
  mutable std::vector<std::uint8_t> p2l_;  ///< physical bit -> logical pos
  mutable bool identity_layout_ = true;
  mutable ShardMesh mesh_;  ///< in-process fabric (used when unprovided)
  ExchangeProvider* exchange_ = nullptr;  ///< &mesh_ or external, not owned
  unsigned world_ = 1;  ///< exchange_->world(), cached
  unsigned rank_ = 0;   ///< exchange_->rank(), cached
  /// True while every slice (not just the resident block) holds current
  /// amplitudes on this rank. Flips false on resident-only writes and back
  /// on materialize; always true at world 1. Mutable for the same reason
  /// the slices are.
  mutable bool replicated_fresh_ = true;
  mutable std::uint64_t op_tick_ = 0;  ///< message tags + LRU clock
  mutable std::vector<std::uint64_t> local_last_use_;  ///< per local bit
  mutable std::uint64_t relabel_swaps_ = 0;
  mutable std::uint64_t cluster_sweeps_ = 0;
  mutable std::uint64_t materializations_ = 0;
};

}  // namespace qmpi::sim
