#include "sim/sharded_statevector.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "sim/kernels.hpp"
#include "sim/simd.hpp"
#include "sim/sweep.hpp"

namespace qmpi::sim {

namespace {

/// Bits of the serial enumeration index that vary inside one reduction
/// chunk (chunked_reduce's kReduceChunk).
constexpr std::size_t kChunkBits =
    static_cast<std::size_t>(std::countr_zero(kReduceChunk));

/// Logical positions a reduction's chunk can span: the chunk bits, plus
/// the one probability_one_at splices its target into.
constexpr std::size_t kLowWindow = kChunkBits + 1;

/// sum_norms' "no spliced target position".
constexpr std::size_t kNoPos = ~std::size_t{0};

}  // namespace

ShardedStateVector::ShardedStateVector(unsigned num_shards,
                                       std::uint64_t seed,
                                       ExchangeProvider* exchange)
    : Backend(seed),
      shards_(num_shards == 0 ? 1 : num_shards),
      mesh_(num_shards == 0 ? 1 : num_shards) {
  if (!std::has_single_bit(shards_) || shards_ > kMaxShards) {
    throw SimulatorError("shard count must be a power of two <= " +
                         std::to_string(kMaxShards) + ", got " +
                         std::to_string(shards_));
  }
  gbits_ = static_cast<unsigned>(std::countr_zero(shards_));
  exchange_ = exchange != nullptr ? exchange : &mesh_;
  world_ = exchange_->world();
  rank_ = exchange_->rank();
  if (world_ == 0 || rank_ >= world_) {
    throw SimulatorError("exchange provider rank " + std::to_string(rank_) +
                         " outside world of " + std::to_string(world_));
  }
  slices_.resize(shards_);
  slices_[0] = {Complex(1.0, 0.0)};  // the empty register: a scalar 1
}

unsigned ShardedStateVector::active_log2() const {
  return std::min<unsigned>(gbits_,
                            static_cast<unsigned>(num_qubits()));
}

std::pair<unsigned, unsigned> ShardedStateVector::resident_range(
    unsigned active) const {
  if (world_ == 1) return {0U, active};
  return slice_block(world_, rank_, active);
}

std::vector<unsigned> ShardedStateVector::resident_parts(
    std::vector<unsigned> parts) const {
  if (world_ == 1) return parts;
  const auto [rb, re] = resident_range(1U << active_log2());
  std::erase_if(parts, [rb = rb, re = re](unsigned w) {
    return w < rb || w >= re;
  });
  return parts;
}

void ShardedStateVector::mark_partial_write() const {
  if (world_ > 1) replicated_fresh_ = false;
}

void ShardedStateVector::materialize(unsigned active) const {
  if (world_ == 1 || replicated_fresh_) return;
  ++materializations_;
  // One tick for the whole gather: ticks advance identically on every rank
  // (the op stream is replayed in lockstep), so (slice, tick) uniquely
  // names each published slab across the run.
  const std::uint64_t tag = ++op_tick_;
  const auto [rb, re] = resident_range(active);
  for (unsigned w = rb; w < re; ++w) {
    exchange_->publish(w, tag, std::span<const Complex>(slices_[w]));
  }
  for (unsigned w = 0; w < active; ++w) {
    if (w >= rb && w < re) continue;
    slices_[w] = exchange_->take_published(w, tag);
  }
  replicated_fresh_ = true;
}

void ShardedStateVector::materialize_all() const {
  materialize(1U << active_log2());
}

std::size_t ShardedStateVector::local_bits() const {
  return num_qubits() - active_log2();
}

std::uint64_t ShardedStateVector::to_physical(std::uint64_t logical) const {
  if (identity_layout_) return logical;
  std::uint64_t phys = 0;
  while (logical != 0) {
    const int b = std::countr_zero(logical);
    phys |= 1ULL << l2p_[static_cast<std::size_t>(b)];
    logical &= logical - 1;
  }
  return phys;
}

std::uint64_t ShardedStateVector::to_logical(std::uint64_t physical) const {
  if (identity_layout_) return physical;
  std::uint64_t logical = 0;
  while (physical != 0) {
    const int b = std::countr_zero(physical);
    logical |= 1ULL << p2l_[static_cast<std::size_t>(b)];
    physical &= physical - 1;
  }
  return logical;
}

template <typename Fn>
void ShardedStateVector::for_shards(const std::vector<unsigned>& parts,
                                    Fn&& fn) const {
  const std::size_t count = parts.size();
  if (count == 0) return;
  const unsigned lanes =
      std::min<unsigned>(num_threads_, static_cast<unsigned>(count));
  ThreadPool::instance().parallel_for(
      lanes, count, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(parts[i]);
      });
}

std::vector<unsigned> ShardedStateVector::controlled_shards(
    unsigned shard_ctrl) const {
  const unsigned active = 1U << active_log2();
  std::vector<unsigned> parts;
  parts.reserve(active);
  for (unsigned w = 0; w < active; ++w) {
    if ((w & shard_ctrl) == shard_ctrl) parts.push_back(w);
  }
  return parts;
}

template <typename Fn>
void ShardedStateVector::for_each_amp(Fn&& fn) const {
  // Flat sweep over this rank's resident stretch of the physical index
  // space (the whole space in-process), split across lanes regardless of
  // the shard count: elementwise ops don't need per-shard dispatch and
  // shouldn't cap parallelism at the number of slices. Only writers use
  // this sweep, so non-resident replicas go stale.
  const unsigned active = 1U << active_log2();
  const auto [rb, re] = resident_range(active);
  mark_partial_write();
  if (rb == re) return;
  const std::size_t nl = local_bits();
  const std::uint64_t mask = (1ULL << nl) - 1;
  std::vector<Complex*> ptr(active);
  for (unsigned w = rb; w < re; ++w) ptr[w] = slices_[w].data();
  const std::uint64_t base = static_cast<std::uint64_t>(rb) << nl;
  parallel_sweep(num_threads_,
                 static_cast<std::size_t>(re - rb) << nl,
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t k = begin; k < end; ++k) {
                     const std::uint64_t i = base + k;
                     fn(i, ptr[i >> nl][i & mask]);
                   }
                 });
}

// --------------------------------------------------------- allocation ---

void ShardedStateVector::grow_state() {
  const std::size_t n = num_qubits();  // already includes the new qubit
  const auto q = static_cast<std::uint8_t>(n - 1);
  if (n - 1 >= gbits_) {
    // All shards active: the new qubit takes a new top *local* bit and the
    // global bits move up one. Its value is 0 in every amplitude, so each
    // resident slice doubles in place with a zero upper half.
    const std::size_t nl_old = n - 1 - gbits_;
    for (auto& p : l2p_) {
      if (p >= nl_old) ++p;
    }
    l2p_.push_back(static_cast<std::uint8_t>(nl_old));
    p2l_.insert(p2l_.begin() + static_cast<std::ptrdiff_t>(nl_old), q);
    identity_layout_ = identity_layout_ && gbits_ == 0;
    const auto [rb, re] = resident_range(shards_);
    for (unsigned w = rb; w < re; ++w) slices_[w].resize(2 * slices_[w].size());
    mark_partial_write();
    // A fresh qubit is about to be used: not the next relabel victim.
    local_last_use_.insert(
        local_last_use_.begin() + static_cast<std::ptrdiff_t>(nl_old),
        op_tick_);
    return;
  }
  // Still growing into the shard budget: every bit is global (one amplitude
  // per slice), the active slice count doubles and the new top-half slices
  // are all |...0> = zero. Residency reshuffles with the active count, so
  // every rank first makes its replica fresh; all ranks then write every
  // slice identically, leaving it fresh.
  l2p_.push_back(q);
  p2l_.push_back(q);
  materialize(1U << (n - 1));
  for (unsigned w = 1U << (n - 1); w < (1U << n); ++w) {
    slices_[w].assign(1, Complex(0.0, 0.0));
  }
}

void ShardedStateVector::remove_position_state(std::size_t pos, bool bit) {
  const std::size_t n = num_qubits();  // still the old count here
  std::size_t pp = l2p_[pos];
  if (n - 1 >= gbits_) {
    // All shards stay active: compact each resident slice in place, as the
    // serial backend compacts its flat array. A global bit is first
    // swapped local, so the kept half never crosses a slice boundary.
    const std::size_t nl = n - gbits_;
    if (pp >= nl) {
      const std::size_t victim = pick_victim(nl);
      relabel_swap(pp, victim);
      pp = victim;
    }
    const auto [rb, re] = resident_range(shards_);
    for (unsigned w = rb; w < re; ++w) {
      std::vector<Complex>& s = slices_[w];
      kernels::remove_bit_in_place(s.data(), s.size(), pp, bit);
      s.resize(s.size() / 2);
    }
    mark_partial_write();
    local_last_use_.erase(local_last_use_.begin() +
                          static_cast<std::ptrdiff_t>(pp));
  } else {
    // The active slice count halves: every bit is global (one amplitude
    // per slice), so the kept slices move down in slice order, on a fresh
    // replica since residency reshuffles with the active count.
    materialize(1U << n);
    for (unsigned o = 0; o < (1U << (n - 1)); ++o) {
      slices_[o] = slices_[kernels::insert_bit(o, pp, bit)];
    }
  }

  // Repair the relabeling maps: logical positions above `pos` and physical
  // bits above `pp` both shift down by one.
  l2p_.erase(l2p_.begin() + static_cast<std::ptrdiff_t>(pos));
  for (auto& p : l2p_) {
    if (p > pp) --p;
  }
  p2l_.resize(n - 1);
  identity_layout_ = true;
  for (std::size_t q = 0; q < n - 1; ++q) {
    p2l_[l2p_[q]] = static_cast<std::uint8_t>(q);
    if (l2p_[q] != q) identity_layout_ = false;
  }
}

// -------------------------------------------------------------- gates ---

void ShardedStateVector::sweep_blocks_planned(
    std::span<const std::size_t> pos, std::uint64_t lmask,
    std::span<const kernels::BlockOp> ops) const {
  const std::size_t k = pos.size();
  const std::size_t nl = local_bits();
  const std::size_t m = 1ULL << nl;
  std::vector<std::size_t> pt(k);
  for (std::size_t j = 0; j < k; ++j) pt[j] = l2p_[pos[j]];

  if (k <= nl) {
    // Pull every global block bit local before the sweep. The LRU pass is
    // consulted up front — victims are the coldest local bits that are not
    // themselves part of the block — so hot block qubits end up local.
    std::uint64_t reserved = 0;
    for (const std::size_t p : pt) {
      if (p < nl) reserved |= 1ULL << p;
    }
    for (std::size_t& p : pt) {
      if (p < nl) continue;
      const std::size_t victim = pick_victim(nl, reserved);
      relabel_swap(p, victim);
      p = victim;
      reserved |= 1ULL << victim;
    }
    // Every block bit is intra-slice now: each slice sweeps independently
    // with the same per-block arithmetic as the serial backend, at no
    // further communication.
    const std::uint64_t pmask = to_physical(lmask);
    const unsigned shard_ctrl = static_cast<unsigned>(pmask >> nl);
    const std::uint64_t local_mask = pmask & (m - 1);
    const std::uint64_t tick = ++op_tick_;
    for (const std::size_t p : pt) local_last_use_[p] = tick;
    const std::vector<unsigned> parts =
        resident_parts(controlled_shards(shard_ctrl));
    mark_partial_write();
    if (parts.empty()) return;
    if (parts.size() == 1) {
      kernels::run_block_ops_sweep(slices_[parts[0]].data(), m, pt,
                                   local_mask, lanes_pfor(num_threads_), ops);
      return;
    }
    for_shards(parts, [&](unsigned w) {
      kernels::run_block_ops_sweep(slices_[w].data(), m, pt, local_mask,
                                   serial_pfor, ops);
    });
    return;
  }

  // More block bits than local bits: enumerate physical block bases over
  // the whole index space and gather through the slice pointers. Every
  // amplitude belongs to exactly one block, so lane splits stay race-free,
  // and the per-block arithmetic is the serial one — bit-identity is
  // preserved. Across ranks this pays a full materialize; every rank then
  // runs the identical full sweep, so the replica stays fresh.
  const std::uint64_t pmask = to_physical(lmask);
  materialize_all();
  const unsigned active = 1U << active_log2();
  std::vector<Complex*> ptr(active);
  for (unsigned w = 0; w < active; ++w) ptr[w] = slices_[w].data();
  const std::uint64_t lmask_local = m - 1;
  const std::size_t block_size = 1ULL << k;
  kernels::IndexExpander ex;
  for (const std::size_t p : pt) ex.add_position(p);
  ex.add_mask(pmask);
  ex.base = pmask;
  const auto offs = kernels::block_offsets(pt);
  const std::size_t blocks =
      (1ULL << num_qubits()) >>
      (k + static_cast<std::size_t>(std::popcount(pmask)));
  parallel_sweep(num_threads_, blocks, [&](std::size_t begin,
                                           std::size_t end) {
    std::array<Complex, 1ULL << kernels::kMaxBlockQubits> block;
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = ex(t);
      for (std::size_t b = 0; b < block_size; ++b) {
        const std::size_t i = base | offs[b];
        block[b] = ptr[i >> nl][i & lmask_local];
      }
      kernels::run_block_ops(block.data(), ops);
      for (std::size_t b = 0; b < block_size; ++b) {
        const std::size_t i = base | offs[b];
        ptr[i >> nl][i & lmask_local] = block[b];
      }
    }
  });
}

void ShardedStateVector::apply_cluster_at(
    std::span<const std::size_t> pos, std::uint64_t ctrl_mask,
    std::span<const kernels::BlockOp> ops) const {
  const std::size_t nl = local_bits();
  if (pos.size() == 1 && l2p_[pos[0]] >= nl &&
      std::all_of(ops.begin(), ops.end(), [](const kernels::BlockOp& op) {
        return op.kind == kernels::BlockOp::Kind::kScale;
      })) {
    // Diagonal on a global qubit: the shard index fixes the target bit, so
    // each slice just scales — no communication, no reason to relabel.
    const std::uint64_t pmask = to_physical(ctrl_mask);
    apply_global_diagonal(ops, 1U << (l2p_[pos[0]] - nl),
                          static_cast<unsigned>(pmask >> nl),
                          pmask & ((1ULL << nl) - 1));
    return;
  }
  if (pos.size() > 1) ++cluster_sweeps_;
  sweep_blocks_planned(pos, ctrl_mask, ops);
}

void ShardedStateVector::apply_global_diagonal(
    std::span<const kernels::BlockOp> ops, unsigned target_bit,
    unsigned shard_ctrl, std::uint64_t local_mask) const {
  // The slice index fixes the block index (the target bit) of all its
  // amplitudes; the kScale ops on that index are the slice's factors, in
  // program order.
  std::array<std::vector<Complex>, 2> factors;
  for (const kernels::BlockOp& op : ops) {
    for (unsigned j = 0; j < op.count; ++j) {
      factors[op.idx[j]].push_back(op.m00);
    }
  }
  const auto slice_factors = [&](unsigned w) -> const std::vector<Complex>& {
    return factors[(w & target_bit) != 0 ? 1 : 0];
  };
  const std::size_t m = 1ULL << local_bits();
  std::vector<unsigned> parts;
  for (const unsigned w : resident_parts(controlled_shards(shard_ctrl))) {
    // A phase gate has no op on the target-0 half: those slices stay
    // untouched, as the serial sweep leaves those amplitudes.
    if (!slice_factors(w).empty()) parts.push_back(w);
  }
  mark_partial_write();
  kernels::IndexExpander ex;
  ex.add_mask(local_mask);
  ex.base = local_mask;
  const std::size_t cnt = m >> std::popcount(local_mask);
  // One slice sweeping alone gets the worker lanes itself (like the
  // planner's all-local sweep); with several slices each one is a lane's
  // whole job.
  const simd::Ops& vo = simd::ops();
  const auto scale_slice = [&](unsigned w, std::size_t begin,
                               std::size_t end) {
    Complex* s = slices_[w].data();
    for (const Complex factor : slice_factors(w)) {
      if (local_mask != 0) {
        for (std::size_t k = begin; k < end; ++k) s[ex(k)] *= factor;
      } else if (vo.isa != simd::Isa::kScalar) {
        vo.scale(s + begin, end - begin, factor);
      } else {
        for (std::size_t i = begin; i < end; ++i) s[i] *= factor;
      }
    }
  };
  if (parts.size() == 1) {
    const unsigned w = parts[0];
    parallel_sweep(num_threads_, local_mask == 0 ? m : cnt,
                   [&](std::size_t begin, std::size_t end) {
                     scale_slice(w, begin, end);
                   });
    return;
  }
  for_shards(parts, [&](unsigned w) {
    scale_slice(w, 0, local_mask == 0 ? m : cnt);
  });
}

void ShardedStateVector::relabel_swap(std::size_t pg, std::size_t pl) const {
  ++relabel_swaps_;
  const std::uint64_t tag = ++op_tick_;
  const std::size_t nl = local_bits();
  const std::size_t m = 1ULL << nl;
  const unsigned gbit = 1U << (pg - nl);
  const std::size_t cnt = m / 2;
  const unsigned active = 1U << active_log2();
  const auto [rb, re] = resident_range(active);
  std::vector<unsigned> parts(re - rb);
  std::iota(parts.begin(), parts.end(), rb);
  mark_partial_write();

  // Swapping bit values: element (pg=0, pl=1, rest) trades places with
  // (pg=1, pl=0, rest). Each shard sends the slab that belongs to its
  // partner and overwrites the same slots with what it receives.
  for_shards(parts, [&](unsigned w) {
    const bool send_bit = (w & gbit) == 0;  // low shard sends its pl=1 slab
    ShardMessage msg;
    msg.source = w;
    msg.tag = tag;
    msg.amplitudes.resize(cnt);
    const Complex* s = slices_[w].data();
    for (std::size_t k = 0; k < cnt; ++k) {
      msg.amplitudes[k] = s[kernels::insert_bit(k, pl, send_bit)];
    }
    exchange_->post(w ^ gbit, active, std::move(msg));
  });
  for_shards(parts, [&](unsigned w) {
    const bool slot_bit = (w & gbit) == 0;
    ShardMessage msg = exchange_->take(w, w ^ gbit, tag);
    Complex* s = slices_[w].data();
    for (std::size_t k = 0; k < cnt; ++k) {
      s[kernels::insert_bit(k, pl, slot_bit)] = msg.amplitudes[k];
    }
  });

  // The two physical bits now carry each other's logical qubit.
  const std::uint8_t la = p2l_[pl];
  const std::uint8_t lg = p2l_[pg];
  std::swap(p2l_[pl], p2l_[pg]);
  l2p_[la] = static_cast<std::uint8_t>(pg);
  l2p_[lg] = static_cast<std::uint8_t>(pl);
  identity_layout_ = true;
  for (std::size_t q = 0; q < l2p_.size(); ++q) {
    if (l2p_[q] != q) {
      identity_layout_ = false;
      break;
    }
  }
  local_last_use_[pl] = op_tick_;
}

std::size_t ShardedStateVector::pick_victim(std::size_t nl,
                                            std::uint64_t exclude) const {
  // Least recently used, but a bit outside the low logical window first:
  // a reduction whose chunk window holds a global bit pays a swap.
  std::size_t victim = nl;  // sentinel; callers guarantee a candidate exists
  bool victim_low = true;
  for (std::size_t b = 0; b < nl; ++b) {
    if ((exclude >> b) & 1ULL) continue;
    const bool low = p2l_[b] < kLowWindow;
    if (victim == nl || (victim_low && !low) ||
        (low == victim_low && local_last_use_[b] < local_last_use_[victim])) {
      victim = b;
      victim_low = low;
    }
  }
  return victim;
}

// ------------------------------------------------------- measurements ---

template <typename Keep>
double ShardedStateVector::sum_norms(std::size_t count, std::size_t pos,
                                     Keep keep) const {
  // Serial enumeration bit j is logical bit j, or j + 1 at and above the
  // target position probability_one_at splices in (pos = kNoPos: none).
  const auto logical_bit = [pos](std::size_t j) { return j < pos ? j : j + 1; };
  const auto ebits = static_cast<std::size_t>(std::countr_zero(count));
  bool chunk_local = false;
  if (world_ > 1 && !replicated_fresh_ && count > kReduceChunk &&
      local_bits() >= kChunkBits) {
    // Make every bit that varies inside a chunk local, so each chunk lies
    // in one slice: swap each global window bit with a local bit outside
    // the window.
    const std::size_t nl = local_bits();
    std::uint64_t window = 0;
    for (std::size_t j = 0; j < kChunkBits; ++j) {
      const std::size_t p = l2p_[logical_bit(j)];
      if (p < nl) window |= 1ULL << p;
    }
    for (std::size_t j = 0; j < kChunkBits; ++j) {
      const std::size_t p = l2p_[logical_bit(j)];
      if (p < nl) continue;
      const std::size_t victim = pick_victim(nl, window);
      relabel_swap(p, victim);
      window |= 1ULL << victim;
    }
    chunk_local = true;
  } else {
    materialize_all();
  }

  // Enumeration index -> physical index: the bits of a chunk through two
  // lookup tables, the bits above it once per chunk.
  const std::size_t nl = local_bits();
  const std::uint64_t lmask = (1ULL << nl) - 1;
  constexpr std::size_t kTableBits = kChunkBits / 2;
  constexpr std::size_t kTableSize = std::size_t{1} << kTableBits;
  std::array<std::uint64_t, kTableSize> lo{};
  std::array<std::uint64_t, kTableSize> mid{};
  for (std::size_t j = 0; j < std::min(ebits, kChunkBits); ++j) {
    auto& table = j < kTableBits ? lo : mid;
    const std::size_t bit = std::size_t{1} << (j % kTableBits);
    const std::uint64_t phys = 1ULL << l2p_[logical_bit(j)];
    for (std::size_t v = 0; v < kTableSize; ++v) {
      if (v & bit) table[v] |= phys;
    }
  }
  const std::uint64_t fixed = pos == kNoPos ? 0 : 1ULL << l2p_[pos];
  const auto chunk_base = [&](std::size_t k) {
    std::uint64_t ph = fixed;
    for (std::size_t j = kChunkBits; j < ebits; ++j) {
      if ((k >> j) & 1U) ph |= 1ULL << l2p_[logical_bit(j)];
    }
    return ph;
  };
  std::vector<const Complex*> ptr(1U << active_log2());
  for (unsigned w = 0; w < ptr.size(); ++w) ptr[w] = slices_[w].data();
  // Same enumeration and per-chunk sum as the serial backend, so every
  // chunk partial is the serial one bit for bit.
  const auto chunk_sum = [&](std::size_t begin, std::size_t end) {
    const std::uint64_t base = chunk_base(begin);
    double p = 0.0;
    for (std::size_t k = begin; k < end; ++k) {
      if (!keep(k)) continue;
      const std::uint64_t ph = base | lo[k & (kTableSize - 1)] |
                               mid[(k >> kTableBits) & (kTableSize - 1)];
      p += std::norm(ptr[ph >> nl][ph & lmask]);
    }
    return p;
  };
  if (!chunk_local) {
    return chunked_reduce<double>(num_threads_, count, chunk_sum);
  }

  // Each rank sums the chunks of its resident slices; the ranks swap those
  // partials and every rank folds all of them in chunk order, exactly as
  // chunked_reduce does, so all ranks hold the serial value.
  const std::size_t nchunks = count / kReduceChunk;
  const unsigned active = 1U << active_log2();
  std::vector<unsigned> owner(nchunks);
  std::vector<std::size_t> mine;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const auto slice =
        static_cast<unsigned>(chunk_base(c * kReduceChunk) >> nl);
    owner[c] = slice_owner(world_, active, slice);
    if (owner[c] == rank_) mine.push_back(c);
  }
  std::vector<double> partials(mine.size());
  const unsigned lanes = count >= kMinParallel ? num_threads_ : 1;
  ThreadPool::instance().parallel_for(
      lanes, mine.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t lo_k = mine[i] * kReduceChunk;
          partials[i] = chunk_sum(lo_k, lo_k + kReduceChunk);
        }
      });
  const std::vector<std::vector<double>> all =
      exchange_->allgather_partials(++op_tick_, std::move(partials));
  std::vector<std::size_t> next(world_, 0);
  double total = 0.0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const unsigned r = owner[c];
    if (next[r] >= all[r].size()) {
      throw SimulatorError("shard exchange: rank " + std::to_string(r) +
                           " sent too few reduction partials");
    }
    total += all[r][next[r]++];
  }
  return total;
}

double ShardedStateVector::probability_one_at(std::size_t pos) const {
  return sum_norms((1ULL << num_qubits()) / 2, pos,
                   [](std::size_t) { return true; });
}

void ShardedStateVector::collapse_at(std::size_t pos, bool bit,
                                     double prob_bit) {
  const std::uint64_t stride = 1ULL << l2p_[pos];
  const double scale = 1.0 / std::sqrt(prob_bit);
  for_each_amp([stride, bit, scale](std::uint64_t i, Complex& a) {
    if (static_cast<bool>(i & stride) == bit) {
      a *= scale;
    } else {
      a = Complex(0.0, 0.0);
    }
  });
}

double ShardedStateVector::parity_odd_probability(std::uint64_t mask) const {
  return sum_norms(1ULL << num_qubits(), kNoPos, [mask](std::size_t i) {
    return (std::popcount(i & mask) & 1U) != 0;
  });
}

void ShardedStateVector::parity_collapse(std::uint64_t mask, bool outcome,
                                         double prob) {
  // A bit permutation preserves popcount, so the parity test can run on
  // physical indices with the physical mask.
  const std::uint64_t pmask = to_physical(mask);
  const double scale = 1.0 / std::sqrt(prob);
  for_each_amp([pmask, outcome, scale](std::uint64_t i, Complex& a) {
    const bool odd = std::popcount(i & pmask) & 1U;
    if (odd == outcome) {
      a *= scale;
    } else {
      a = Complex(0.0, 0.0);
    }
  });
}

// -------------------------------------------------------- inspection ---

Complex ShardedStateVector::amplitude_at(std::uint64_t index) const {
  materialize_all();  // the index may fall in any rank's slice block
  const std::size_t nl = local_bits();
  const std::uint64_t ph = to_physical(index);
  return slices_[ph >> nl][ph & ((1ULL << nl) - 1)];
}

double ShardedStateVector::expectation_masks(const PauliMasks& masks) const {
  materialize_all();  // i and i^flip may live in different slice blocks
  const std::uint64_t flip_mask = masks.flip;
  const std::uint64_t z_mask = masks.z;
  const Complex y_phase = kernels::i_power(masks.y_count);
  const std::size_t nl = local_bits();
  const std::uint64_t lmask_local = (1ULL << nl) - 1;
  std::vector<const Complex*> ptr(1U << active_log2());
  for (unsigned w = 0; w < ptr.size(); ++w) ptr[w] = slices_[w].data();
  const auto amp = [&](std::uint64_t logical) -> const Complex& {
    const std::uint64_t ph = to_physical(logical);
    return ptr[ph >> nl][ph & lmask_local];
  };
  const std::size_t n = 1ULL << num_qubits();
  const Complex acc = chunked_reduce<Complex>(
      num_threads_, n, [&](std::size_t begin, std::size_t end) {
        Complex partial(0.0, 0.0);
        for (std::size_t i = begin; i < end; ++i) {
          const Complex a = amp(i);
          if (a == Complex(0.0, 0.0)) continue;
          const std::size_t j = i ^ flip_mask;
          const int sign = (std::popcount(i & z_mask) & 1) ? -1 : 1;
          partial += std::conj(amp(j)) * a * double(sign) * y_phase;
        }
        return partial;
      });
  return acc.real();
}

void ShardedStateVector::pauli_rotation_masks(const PauliMasks& masks,
                                              double t) {
  const std::uint64_t flip_mask = masks.flip;
  const std::uint64_t z_mask = masks.z;
  const Complex y_phase = kernels::i_power(masks.y_count);
  const Complex c = std::cos(t);
  const Complex mis = Complex(0.0, -1.0) * std::sin(t);
  if (flip_mask == 0) {
    const Complex ph_even = c + mis;
    const Complex ph_odd = c - mis;
    const std::uint64_t z_pmask = to_physical(z_mask);
    for_each_amp([z_pmask, ph_even, ph_odd](std::uint64_t i, Complex& a) {
      a *= (std::popcount(i & z_pmask) & 1) ? ph_odd : ph_even;
    });
    return;
  }
  // Pair sweep over logical indices; pairs may straddle shards but every
  // pair is owned by exactly one loop iteration, so in-place updates stay
  // race-free under any lane split. Pairs may also straddle rank slice
  // blocks, so across ranks this materializes first and every rank runs
  // the identical full sweep (replica stays fresh).
  materialize_all();
  const std::size_t nl = local_bits();
  const std::uint64_t lmask_local = (1ULL << nl) - 1;
  std::vector<Complex*> ptr(1U << active_log2());
  for (unsigned w = 0; w < ptr.size(); ++w) ptr[w] = slices_[w].data();
  const auto amp = [&](std::uint64_t logical) -> Complex& {
    const std::uint64_t ph = to_physical(logical);
    return ptr[ph >> nl][ph & lmask_local];
  };
  const std::size_t top =
      static_cast<std::size_t>(std::bit_width(flip_mask) - 1);
  const std::size_t n = 1ULL << num_qubits();
  parallel_sweep(
      num_threads_, n / 2, [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          const std::size_t i = kernels::insert_bit(k, top, false);
          const std::size_t j = i ^ flip_mask;
          const Complex phase_i =
              y_phase * ((std::popcount(i & z_mask) & 1) ? -1.0 : 1.0);
          const Complex phase_j =
              y_phase * ((std::popcount(j & z_mask) & 1) ? -1.0 : 1.0);
          Complex& ai = amp(i);
          Complex& aj = amp(j);
          const Complex vi = ai;
          const Complex vj = aj;
          ai = c * vi + mis * phase_j * vj;
          aj = c * vj + mis * phase_i * vi;
        }
      });
}

double ShardedStateVector::norm_state() const {
  return std::sqrt(sum_norms(1ULL << num_qubits(), kNoPos,
                             [](std::size_t) { return true; }));
}

std::vector<Complex> ShardedStateVector::snapshot_state() const {
  materialize_all();
  const std::size_t nl = local_bits();
  const unsigned active = 1U << active_log2();
  const std::size_t m = 1ULL << nl;
  std::vector<Complex> out(1ULL << num_qubits());
  for (unsigned w = 0; w < active; ++w) {
    const Complex* s = slices_[w].data();
    const std::uint64_t base = static_cast<std::uint64_t>(w) << nl;
    for (std::size_t o = 0; o < m; ++o) {
      out[to_logical(base | o)] = s[o];
    }
  }
  return out;
}

}  // namespace qmpi::sim
