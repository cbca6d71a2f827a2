#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/gates.hpp"
#include "sim/simd.hpp"

namespace qmpi::sim::kernels {

/// Structural class of a 2x2 unitary, used to pick a specialized kernel.
enum class GateKind {
  kDiagonal,      ///< [a 0; 0 d] — Z, S, T, Rz, phase: one multiply per amp
  kAntiDiagonal,  ///< [0 b; c 0] — X, Y: a swap (with optional phases)
  kGeneral,       ///< dense 2x2 — H, Rx, Ry, fused products
};

inline GateKind classify(const Gate1Q& g) {
  const Complex zero(0.0, 0.0);
  if (g.m[1] == zero && g.m[2] == zero) return GateKind::kDiagonal;
  if (g.m[0] == zero && g.m[3] == zero) return GateKind::kAntiDiagonal;
  return GateKind::kGeneral;
}

/// Maps a compressed loop index to a full state index by splicing zero bits
/// into a set of fixed positions (sorted ascending) and OR-ing in `base`.
///
/// This is how controlled gates iterate only control-satisfying indices: fix
/// the control bits (and the target bit for pair loops), enumerate the free
/// bits densely, and expand. A k-controlled gate then costs 2^(n-1-k) pair
/// updates instead of branch-rejecting all 2^(n-1) pairs as the seed did.
struct IndexExpander {
  std::array<std::uint8_t, 64> pos{};  ///< fixed bit positions, ascending
  int npos = 0;
  std::uint64_t base = 0;  ///< bits OR-ed in after splicing (e.g. ctrl mask)

  void add_position(std::size_t p) {
    int i = npos++;
    while (i > 0 && pos[static_cast<std::size_t>(i - 1)] > p) {
      pos[static_cast<std::size_t>(i)] = pos[static_cast<std::size_t>(i - 1)];
      --i;
    }
    pos[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(p);
  }

  /// Adds every set bit of `mask` as a fixed position.
  void add_mask(std::uint64_t mask) {
    while (mask != 0) {
      add_position(static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
    }
  }

  std::size_t operator()(std::size_t k) const {
    std::uint64_t idx = k;
    for (int j = 0; j < npos; ++j) {
      const std::uint64_t p = pos[static_cast<std::size_t>(j)];
      idx = ((idx >> p) << (p + 1)) | (idx & ((1ULL << p) - 1));
    }
    return static_cast<std::size_t>(idx | base);
  }
};

/// Inserts bit `bit` at position `pos` of compressed index `k`.
inline std::size_t insert_bit(std::size_t k, std::size_t pos, bool bit) {
  const std::uint64_t low = k & ((1ULL << pos) - 1);
  const std::uint64_t high = (static_cast<std::uint64_t>(k) >> pos) << (pos + 1);
  return static_cast<std::size_t>(high | low |
                                  (bit ? (1ULL << pos) : 0ULL));
}

/// Removes state bit `pos` from `amp[0..n)` in place, keeping the half
/// where it equals `bit`: afterwards `amp[0..n/2)` holds kept amplitude o
/// at index o. It comes from insert_bit(o, pos, bit) >= o, so one forward
/// pass never overwrites an amplitude it has yet to read. The kept half is
/// runs of 2^pos contiguous amplitudes; long runs move as blocks, short
/// ones element by element.
inline void remove_bit_in_place(Complex* amp, std::size_t n, std::size_t pos,
                                bool bit) {
  constexpr std::size_t kMinBlockRun = 4;
  const std::size_t half = n / 2;
  const std::size_t run = 1ULL << pos;
  if (run < kMinBlockRun) {
    for (std::size_t o = 0; o < half; ++o) {
      amp[o] = amp[insert_bit(o, pos, bit)];
    }
    return;
  }
  const std::size_t skip = bit ? run : 0;
  for (std::size_t o = 0; o < half; o += run) {
    const Complex* src = amp + 2 * o + skip;
    if (src != amp + o) std::copy(src, src + run, amp + o);
  }
}

/// The run structure the SIMD sweeps exploit: an IndexExpander passes the
/// bits of `k` below its lowest fixed position straight through, so
/// compressed indices within an aligned window of this length map to
/// *contiguous* state addresses — ex(k) = ex(k0) + (k - k0). Every
/// vectorized sweep decomposes its compressed range into such runs and
/// hands each one to a simd primitive; below simd::kMinRun per run the
/// pointer-call overhead wins and the sweeps keep their scalar loops.
inline std::size_t contiguous_run(const IndexExpander& ex) {
  return ex.npos == 0 ? ~std::size_t{0} : std::size_t{1} << ex.pos[0];
}

/// Scales the contiguous amplitude run at `addr` (length `len`) by m00 or
/// m11 according to each address's target bit, splitting the run at
/// `stride` boundaries so every simd call covers one factor-constant
/// stretch. Elementwise, so any decomposition yields identical bits.
inline void scale_run_by_target(const simd::Ops& vo, Complex* amp,
                                std::size_t addr, std::size_t len,
                                std::uint64_t stride, Complex m00,
                                Complex m11) {
  while (len > 0) {
    const std::size_t upto = std::min<std::size_t>(
        len, stride - (addr & (stride - 1)));
    vo.scale(amp + addr, upto, (addr & stride) ? m11 : m00);
    addr += upto;
    len -= upto;
  }
}

/// Applies a (possibly controlled) single-qubit gate to `amp[0..n)`,
/// dispatching to a specialized kernel by gate structure. `pfor` is a
/// callable `pfor(count, fn)` running `fn(begin, end)` over [0, count),
/// possibly in parallel; every element is written by exactly one iteration,
/// so results are bit-identical regardless of how `pfor` splits the range.
template <typename PFor>
void apply_1q(Complex* amp, std::size_t n, std::size_t tpos,
              const Gate1Q& g, std::uint64_t ctrl_mask, PFor&& pfor) {
  const std::uint64_t stride = 1ULL << tpos;
  const int nctrl = std::popcount(ctrl_mask);
  const GateKind kind = classify(g);
  const Complex one(1.0, 0.0);
  const simd::Ops& vo = simd::ops();
  const bool vector = vo.isa != simd::Isa::kScalar;

  if (kind == GateKind::kDiagonal) {
    const Complex m00 = g.m[0], m11 = g.m[3];
    if (m00 == one) {
      // Phase-type (Z, S, T, phase): only amplitudes with target=1 (and all
      // controls set) change — an |n|/2^(k+1) sweep with one multiply each.
      IndexExpander ex;
      ex.add_mask(ctrl_mask);
      ex.add_position(tpos);
      ex.base = ctrl_mask | stride;
      const std::size_t run = contiguous_run(ex);
      if (vector && run >= simd::kMinRun) {
        pfor(n >> (nctrl + 1), [&](std::size_t begin, std::size_t end) {
          std::size_t k = begin;
          while (k < end) {
            const std::size_t rend = std::min(end, (k / run + 1) * run);
            vo.scale(amp + ex(k), rend - k, m11);
            k = rend;
          }
        });
      } else {
        pfor(n >> (nctrl + 1), [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) amp[ex(k)] *= m11;
        });
      }
    } else if (ctrl_mask == 0) {
      // General diagonal (Rz): one multiply per amplitude, no pairing.
      if (vector && stride >= simd::kMinRun) {
        pfor(n, [&](std::size_t begin, std::size_t end) {
          scale_run_by_target(vo, amp, begin, end - begin, stride, m00, m11);
        });
      } else {
        pfor(n, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            amp[i] *= (i & stride) ? m11 : m00;
          }
        });
      }
    } else {
      // Controlled diagonal: enumerate control-satisfying indices only.
      IndexExpander ex;
      ex.add_mask(ctrl_mask);
      ex.base = ctrl_mask;
      const std::size_t run = contiguous_run(ex);
      if (vector && run >= simd::kMinRun && stride >= simd::kMinRun) {
        pfor(n >> nctrl, [&](std::size_t begin, std::size_t end) {
          std::size_t k = begin;
          while (k < end) {
            const std::size_t rend = std::min(end, (k / run + 1) * run);
            scale_run_by_target(vo, amp, ex(k), rend - k, stride, m00, m11);
            k = rend;
          }
        });
      } else {
        pfor(n >> nctrl, [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            const std::size_t i = ex(k);
            amp[i] *= (i & stride) ? m11 : m00;
          }
        });
      }
    }
    return;
  }

  // Pair kernels: fixed bits are the target plus all controls. The i0
  // addresses of an aligned compressed-index run are contiguous, and
  // i1 = i0 + stride always (the target bit is fixed 0 in i0), so one run
  // is exactly two parallel amplitude spans — the simd pair primitives'
  // shape.
  IndexExpander ex;
  ex.add_mask(ctrl_mask);
  ex.add_position(tpos);
  ex.base = ctrl_mask;  // target bit stays 0 in i0
  const std::size_t pairs = n >> (nctrl + 1);
  const std::size_t run = contiguous_run(ex);
  const bool vrun = vector && run >= simd::kMinRun;

  if (kind == GateKind::kAntiDiagonal) {
    const Complex m01 = g.m[1], m10 = g.m[2];
    if (m01 == one && m10 == one) {
      // X / CNOT / Toffoli: a pure permutation — swap, no arithmetic.
      if (vrun) {
        pfor(pairs, [&](std::size_t begin, std::size_t end) {
          std::size_t k = begin;
          while (k < end) {
            const std::size_t rend = std::min(end, (k / run + 1) * run);
            const std::size_t i0 = ex(k);
            vo.swap_halves(amp + i0, amp + i0 + stride, rend - k);
            k = rend;
          }
        });
      } else {
        pfor(pairs, [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            const std::size_t i0 = ex(k);
            std::swap(amp[i0], amp[i0 | stride]);
          }
        });
      }
    } else if (vrun) {
      pfor(pairs, [&](std::size_t begin, std::size_t end) {
        std::size_t k = begin;
        while (k < end) {
          const std::size_t rend = std::min(end, (k / run + 1) * run);
          const std::size_t i0 = ex(k);
          vo.pair_antidiag(amp + i0, amp + i0 + stride, rend - k, m01, m10);
          k = rend;
        }
      });
    } else {
      pfor(pairs, [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          const std::size_t i0 = ex(k);
          const std::size_t i1 = i0 | stride;
          const Complex a0 = amp[i0];
          amp[i0] = m01 * amp[i1];
          amp[i1] = m10 * a0;
        }
      });
    }
    return;
  }

  const Complex m00 = g.m[0], m01 = g.m[1], m10 = g.m[2], m11 = g.m[3];
  if (vrun) {
    pfor(pairs, [&](std::size_t begin, std::size_t end) {
      std::size_t k = begin;
      while (k < end) {
        const std::size_t rend = std::min(end, (k / run + 1) * run);
        const std::size_t i0 = ex(k);
        vo.pair_dense(amp + i0, amp + i0 + stride, rend - k, m00, m01, m10,
                      m11);
        k = rend;
      }
    });
  } else {
    pfor(pairs, [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t i0 = ex(k);
        const std::size_t i1 = i0 | stride;
        const Complex a0 = amp[i0];
        const Complex a1 = amp[i1];
        amp[i0] = m00 * a0 + m01 * a1;
        amp[i1] = m10 * a0 + m11 * a1;
      }
    });
  }
}

/// Applies a (possibly controlled) 2x2 unitary to a gathered block of
/// 2^k amplitudes, where `target` and `ctrl_mask` are *block-local* bit
/// indices. The classification and multiply/add order mirror apply_1q
/// exactly, so replaying a fused cluster's gates block by block performs
/// the same arithmetic per amplitude as applying each gate in its own
/// full O(2^n) sweep — which is what makes cluster fusion bit-compatible
/// with gate-by-gate execution.
inline void apply_1q_in_block(Complex* block, std::size_t block_size,
                              unsigned target, unsigned ctrl_mask,
                              const Gate1Q& g) {
  const std::size_t stride = 1ULL << target;
  const GateKind kind = classify(g);
  const Complex one(1.0, 0.0);

  if (kind == GateKind::kDiagonal) {
    const Complex m00 = g.m[0], m11 = g.m[3];
    if (m00 == one) {
      // Phase-type: only control-satisfying amplitudes with target=1 move.
      for (std::size_t i = 0; i < block_size; ++i) {
        if ((i & ctrl_mask) == ctrl_mask && (i & stride) != 0) {
          block[i] *= m11;
        }
      }
    } else {
      for (std::size_t i = 0; i < block_size; ++i) {
        if ((i & ctrl_mask) == ctrl_mask) {
          block[i] *= (i & stride) ? m11 : m00;
        }
      }
    }
    return;
  }

  for (std::size_t i0 = 0; i0 < block_size; ++i0) {
    if ((i0 & stride) != 0 || (i0 & ctrl_mask) != ctrl_mask) continue;
    const std::size_t i1 = i0 | stride;
    if (kind == GateKind::kAntiDiagonal) {
      const Complex m01 = g.m[1], m10 = g.m[2];
      if (m01 == one && m10 == one) {
        std::swap(block[i0], block[i1]);
      } else {
        const Complex a0 = block[i0];
        block[i0] = m01 * block[i1];
        block[i1] = m10 * a0;
      }
    } else {
      const Complex a0 = block[i0];
      const Complex a1 = block[i1];
      block[i0] = g.m[0] * a0 + g.m[1] * a1;
      block[i1] = g.m[2] * a0 + g.m[3] * a1;
    }
  }
}

/// Upper bound on block qubits the k-qubit kernels accept (16x16 matrix).
inline constexpr std::size_t kMaxBlockQubits = 4;

/// One compiled per-block instruction of a fused cluster: the same
/// structural classification as apply_1q, with the control/target tests
/// hoisted into precomputed index lists so the per-block replay runs
/// branch-free, fixed-count inner loops. Compiled once per cluster flush,
/// executed once per 2^k block — the compile cost is O(ops * 2^k) against
/// an O(2^n) sweep.
struct BlockOp {
  enum class Kind : std::uint8_t {
    kScale,     ///< block[idx[j]] *= m00 (diagonal halves, phase gates)
    kSwap,      ///< swap(block[i0], block[i0|stride]) (X / CNOT / Toffoli)
    kAntiDiag,  ///< paired cross-multiply (Y-like)
    kDense,     ///< full 2x2 pair update (H, Rx, Ry, fused products)
  };
  Kind kind = Kind::kDense;
  std::uint8_t stride = 0;  ///< target bit stride within the block
  std::uint8_t count = 0;   ///< live entries in idx
  std::uint8_t idx[1ULL << kMaxBlockQubits] = {};  ///< singles or pair-lows
  Complex m00, m01, m10, m11;  ///< kScale keeps its factor in m00
};

/// Compiles one (gate, block-local target, block-local ctrl mask) into
/// block instructions — one for pair kernels, one or two for diagonals —
/// appending to `out`. The emitted arithmetic per amplitude is exactly
/// apply_1q's for the same gate, so a compiled replay is bit-identical to
/// gate-by-gate full sweeps.
inline void compile_block_op(const Gate1Q& g, unsigned target,
                             unsigned ctrl_mask, std::size_t block_size,
                             std::vector<BlockOp>& out) {
  const std::size_t stride = 1ULL << target;
  const GateKind kind = classify(g);
  const Complex one(1.0, 0.0);

  if (kind == GateKind::kDiagonal) {
    const Complex m00 = g.m[0], m11 = g.m[3];
    BlockOp hi;
    hi.kind = BlockOp::Kind::kScale;
    hi.m00 = m11;
    for (std::size_t i = 0; i < block_size; ++i) {
      if ((i & ctrl_mask) == ctrl_mask && (i & stride) != 0) {
        hi.idx[hi.count++] = static_cast<std::uint8_t>(i);
      }
    }
    if (hi.count > 0) out.push_back(hi);
    if (m00 != one) {
      BlockOp lo;
      lo.kind = BlockOp::Kind::kScale;
      lo.m00 = m00;
      for (std::size_t i = 0; i < block_size; ++i) {
        if ((i & ctrl_mask) == ctrl_mask && (i & stride) == 0) {
          lo.idx[lo.count++] = static_cast<std::uint8_t>(i);
        }
      }
      if (lo.count > 0) out.push_back(lo);
    }
    return;
  }

  BlockOp op;
  op.stride = static_cast<std::uint8_t>(stride);
  op.m00 = g.m[0];
  op.m01 = g.m[1];
  op.m10 = g.m[2];
  op.m11 = g.m[3];
  for (std::size_t i0 = 0; i0 < block_size; ++i0) {
    if ((i0 & stride) == 0 && (i0 & ctrl_mask) == ctrl_mask) {
      op.idx[op.count++] = static_cast<std::uint8_t>(i0);
    }
  }
  if (kind == GateKind::kAntiDiagonal) {
    op.kind = (op.m01 == one && op.m10 == one) ? BlockOp::Kind::kSwap
                                               : BlockOp::Kind::kAntiDiag;
  } else {
    op.kind = BlockOp::Kind::kDense;
  }
  if (op.count > 0) out.push_back(op);
}

/// Replays compiled instructions on one gathered 2^k block.
inline void run_block_ops(Complex* block, std::span<const BlockOp> ops) {
  for (const BlockOp& op : ops) {
    switch (op.kind) {
      case BlockOp::Kind::kScale:
        for (unsigned j = 0; j < op.count; ++j) block[op.idx[j]] *= op.m00;
        break;
      case BlockOp::Kind::kSwap:
        for (unsigned j = 0; j < op.count; ++j) {
          const std::size_t i0 = op.idx[j];
          std::swap(block[i0], block[i0 | op.stride]);
        }
        break;
      case BlockOp::Kind::kAntiDiag:
        for (unsigned j = 0; j < op.count; ++j) {
          const std::size_t i0 = op.idx[j];
          const std::size_t i1 = i0 | op.stride;
          const Complex a0 = block[i0];
          block[i0] = op.m01 * block[i1];
          block[i1] = op.m10 * a0;
        }
        break;
      case BlockOp::Kind::kDense:
        for (unsigned j = 0; j < op.count; ++j) {
          const std::size_t i0 = op.idx[j];
          const std::size_t i1 = i0 | op.stride;
          const Complex a0 = block[i0];
          const Complex a1 = block[i1];
          block[i0] = op.m00 * a0 + op.m01 * a1;
          block[i1] = op.m10 * a0 + op.m11 * a1;
        }
        break;
    }
  }
}

/// Gather offsets of a 2^k block spanned by the state bits `pos[0..k)`:
/// block-local index b -> OR of the state bits it sets.
inline std::array<std::size_t, 1ULL << kMaxBlockQubits> block_offsets(
    std::span<const std::size_t> pos) {
  std::array<std::size_t, 1ULL << kMaxBlockQubits> offs{};
  for (std::size_t b = 0; b < (1ULL << pos.size()); ++b) {
    for (std::size_t j = 0; j < pos.size(); ++j) {
      if ((b >> j) & 1ULL) offs[b] |= 1ULL << pos[j];
    }
  }
  return offs;
}

/// Enumerates every aligned 2^k-amplitude block spanned by the state-index
/// bits `pos[0..k)` (block-local bit j lives at state bit pos[j]; any
/// order, need not be sorted) whose fixed control bits `ctrl_mask` are all
/// set, gathers the block into a local buffer, runs `op(block)`, and
/// scatters it back. Blocks are cosets of the span of the block bits, so
/// every amplitude belongs to exactly one loop iteration and `pfor` may
/// split the range across lanes with bit-identical results.
///
/// This is the index machinery behind both the generic k-qubit matrix
/// kernel (apply_matrix_kq) and the fused-cluster replay sweep: a
/// k-controlled k-qubit operator costs 2^(n-k-c) block visits instead of a
/// branch-rejecting pass over all 2^n amplitudes.
template <typename PFor, typename BlockOp>
void sweep_kq(Complex* amp, std::size_t n, std::span<const std::size_t> pos,
              std::uint64_t ctrl_mask, PFor&& pfor, BlockOp&& op) {
  const std::size_t k = pos.size();
  const std::size_t block_size = 1ULL << k;
  IndexExpander ex;
  for (const std::size_t p : pos) ex.add_position(p);
  ex.add_mask(ctrl_mask);
  ex.base = ctrl_mask;
  const int nctrl = std::popcount(ctrl_mask);
  const std::size_t blocks = n >> (k + static_cast<std::size_t>(nctrl));

  const auto offs = block_offsets(pos);

  pfor(blocks, [&](std::size_t begin, std::size_t end) {
    std::array<Complex, 1ULL << kMaxBlockQubits> block;
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = ex(t);
      for (std::size_t b = 0; b < block_size; ++b) {
        block[b] = amp[base | offs[b]];
      }
      op(block.data());
      for (std::size_t b = 0; b < block_size; ++b) {
        amp[base | offs[b]] = block[b];
      }
    }
  });
}

/// Amplitudes per streaming chunk of the cache-blocked cluster replay: all
/// 2^k rows of one chunk total at most this many amplitudes (32 KiB), so
/// a chunk is loaded into L1 once and every replayed op hits cache instead
/// of re-streaming the state per op.
inline constexpr std::size_t kStreamAmps = 2048;

/// The lowest state bit fixed by a block sweep (block bits plus controls);
/// compressed block indices within an aligned window of 1 << that bit map
/// to contiguous addresses for *every* block-local offset — the property
/// the streaming replay below vectorizes across.
inline std::size_t block_sweep_run(std::span<const std::size_t> pos,
                                   std::uint64_t ctrl_mask) {
  std::uint64_t fixed = ctrl_mask;
  for (const std::size_t p : pos) fixed |= 1ULL << p;
  return std::size_t{1} << std::countr_zero(fixed);
}

/// Replays compiled cluster ops across `c` blocks at once. Block-local
/// offset b of all `c` blocks is the contiguous run `p + offs[b]`, so each
/// op costs one simd primitive call per index it touches instead of one
/// scalar update per block. Elementwise across the runs, so per amplitude
/// the op sequence and arithmetic are exactly run_block_ops's — the one
/// per-op dispatch of both vector replay paths below.
inline void run_block_ops_rows(const simd::Ops& vo,
                               std::span<const BlockOp> ops, Complex* p,
                               const std::size_t* offs, std::size_t c) {
  for (const BlockOp& op : ops) {
    switch (op.kind) {
      case BlockOp::Kind::kScale:
        for (unsigned j = 0; j < op.count; ++j) {
          vo.scale(p + offs[op.idx[j]], c, op.m00);
        }
        break;
      case BlockOp::Kind::kSwap:
        for (unsigned j = 0; j < op.count; ++j) {
          vo.swap_halves(p + offs[op.idx[j]], p + offs[op.idx[j] | op.stride],
                         c);
        }
        break;
      case BlockOp::Kind::kAntiDiag:
        for (unsigned j = 0; j < op.count; ++j) {
          vo.pair_antidiag(p + offs[op.idx[j]],
                           p + offs[op.idx[j] | op.stride], c, op.m01,
                           op.m10);
        }
        break;
      case BlockOp::Kind::kDense:
        for (unsigned j = 0; j < op.count; ++j) {
          vo.pair_dense(p + offs[op.idx[j]], p + offs[op.idx[j] | op.stride],
                        c, op.m00, op.m01, op.m10, op.m11);
        }
        break;
    }
  }
}

/// Blocks per row tile of the short-run cluster replay: 2^k rows of this
/// many amplitudes are at most 16 KiB of per-lane scratch.
inline constexpr std::size_t kTileBlocks = 64;

/// Fused-cluster replay over the whole state: semantically identical to
/// sweep_kq + run_block_ops per gathered block, which the scalar tier runs
/// as the reference. With a SIMD tier active it takes one of two
/// vectorized paths, both through run_block_ops_rows:
///  - *in-place streaming* (block_sweep_run >= simd::kMinRun): blocks come
///    in contiguous runs, so each op is applied in place across a
///    cache-blocked chunk of consecutive blocks — no copies;
///  - *row tile* (run < kMinRun, i.e. a cluster or control bit on state
///    position 0 or 1): a tile of kTileBlocks consecutive blocks is
///    gathered into 2^k rows, row b holding block-local offset b of every
///    block, replayed across the rows, and scattered back.
/// Per amplitude the op sequence and arithmetic are exactly the gather
/// path's, so fused-vs-unfused and shard-vs-serial contracts are unchanged.
template <typename PFor>
void run_block_ops_sweep(Complex* amp, std::size_t n,
                         std::span<const std::size_t> pos,
                         std::uint64_t ctrl_mask, PFor&& pfor,
                         std::span<const BlockOp> ops) {
  const simd::Ops& vo = simd::ops();
  if (vo.isa == simd::Isa::kScalar) {
    sweep_kq(amp, n, pos, ctrl_mask, std::forward<PFor>(pfor),
             [ops](Complex* block) { run_block_ops(block, ops); });
    return;
  }

  const std::size_t k = pos.size();
  IndexExpander ex;
  for (const std::size_t p : pos) ex.add_position(p);
  ex.add_mask(ctrl_mask);
  ex.base = ctrl_mask;
  const int nctrl = std::popcount(ctrl_mask);
  const std::size_t blocks = n >> (k + static_cast<std::size_t>(nctrl));
  const auto offs = block_offsets(pos);
  const std::size_t run = block_sweep_run(pos, ctrl_mask);

  if (run < simd::kMinRun) {
    std::array<std::size_t, 1ULL << kMaxBlockQubits> rows{};
    for (std::size_t b = 0; b < (1ULL << k); ++b) rows[b] = b * kTileBlocks;
    // ex(t + 1) from ex(t): set the fixed bits, carry +1 through them,
    // clear them again and restore the controls.
    std::uint64_t fixed = ctrl_mask;
    for (const std::size_t p : pos) fixed |= 1ULL << p;
    pfor(blocks, [&](std::size_t begin, std::size_t end) {
      std::array<Complex, kTileBlocks << kMaxBlockQubits> tile;
      std::array<std::size_t, kTileBlocks> bases;
      for (std::size_t t = begin; t < end; t += kTileBlocks) {
        const std::size_t c = std::min(kTileBlocks, end - t);
        std::size_t next = ex(t);
        for (std::size_t i = 0; i < c; ++i) {
          bases[i] = next;
          next = (((next | fixed) + 1) & ~fixed) | ctrl_mask;
          for (std::size_t b = 0; b < (1ULL << k); ++b) {
            tile[rows[b] + i] = amp[bases[i] | offs[b]];
          }
        }
        run_block_ops_rows(vo, ops, tile.data(), rows.data(), c);
        for (std::size_t i = 0; i < c; ++i) {
          for (std::size_t b = 0; b < (1ULL << k); ++b) {
            amp[bases[i] | offs[b]] = tile[rows[b] + i];
          }
        }
      }
    });
    return;
  }

  const std::size_t chunk =
      std::max<std::size_t>(simd::kMinRun, kStreamAmps >> k);
  pfor(blocks, [&](std::size_t begin, std::size_t end) {
    std::size_t t = begin;
    while (t < end) {
      const std::size_t rend = std::min(end, (t / run + 1) * run);
      const std::size_t base = ex(t);
      const std::size_t len = rend - t;
      for (std::size_t done = 0; done < len; done += chunk) {
        run_block_ops_rows(vo, ops, amp + base + done, offs.data(),
                           std::min(chunk, len - done));
      }
      t = rend;
    }
  });
}

/// Block functor multiplying each gathered 2^k block by a dense row-major
/// 2^k x 2^k matrix. The one definition of this arithmetic — serial and
/// sharded matrix paths must share it, or their results drift apart in
/// the last bit and break the paritycheck contract.
inline auto matrix_block_op(const Complex* matrix, std::size_t block_size) {
  return [matrix, block_size](Complex* block) {
    std::array<Complex, 1ULL << kMaxBlockQubits> out;
    for (std::size_t r = 0; r < block_size; ++r) {
      Complex acc(0.0, 0.0);
      for (std::size_t c = 0; c < block_size; ++c) {
        acc += matrix[r * block_size + c] * block[c];
      }
      out[r] = acc;
    }
    for (std::size_t r = 0; r < block_size; ++r) block[r] = out[r];
  };
}

/// Applies a dense 2^k x 2^k unitary (row-major) on the state bits
/// `pos[0..k)` of `amp[0..n)`, controlled on every bit of `ctrl_mask`
/// being set — the generic k-qubit gate kernel behind Backend::
/// apply_matrix and the composed-cluster white-box tests. Control-
/// satisfying indices are enumerated, never branch-rejected, and `pfor`
/// carries the ThreadPool chunking exactly as in apply_1q.
/// Streaming chunk (in amplitudes per block-local row) of the vectorized
/// dense-matrix path: 2^k rows of 64 amplitudes are 16 KiB of scratch,
/// small enough for a lane's stack and L1.
inline constexpr std::size_t kMatrixChunk = 64;

template <typename PFor>
void apply_matrix_kq(Complex* amp, std::size_t n,
                     std::span<const std::size_t> pos, const Complex* matrix,
                     std::uint64_t ctrl_mask, PFor&& pfor) {
  const simd::Ops& vo = simd::ops();
  const std::size_t run = block_sweep_run(pos, ctrl_mask);
  const std::size_t block_size = 1ULL << pos.size();
  if (vo.isa == simd::Isa::kScalar || run < simd::kMinRun) {
    sweep_kq(amp, n, pos, ctrl_mask, std::forward<PFor>(pfor),
             matrix_block_op(matrix, block_size));
    return;
  }

  // Streaming variant: gather a chunk of consecutive blocks row-major into
  // scratch (one contiguous copy per block-local index), then produce each
  // output row with a scale_copy + axpy sweep over the scratch rows — the
  // same column order and multiply/add sequence per amplitude as
  // matrix_block_op, vectorized across the chunk's blocks.
  const std::size_t k = pos.size();
  IndexExpander ex;
  for (const std::size_t p : pos) ex.add_position(p);
  ex.add_mask(ctrl_mask);
  ex.base = ctrl_mask;
  const int nctrl = std::popcount(ctrl_mask);
  const std::size_t blocks = n >> (k + static_cast<std::size_t>(nctrl));
  const auto offs = block_offsets(pos);

  pfor(blocks, [&](std::size_t begin, std::size_t end) {
    std::array<std::array<Complex, kMatrixChunk>, 1ULL << kMaxBlockQubits>
        rows;
    std::size_t t = begin;
    while (t < end) {
      const std::size_t rend = std::min(end, (t / run + 1) * run);
      const std::size_t base = ex(t);
      const std::size_t len = rend - t;
      for (std::size_t done = 0; done < len; done += kMatrixChunk) {
        Complex* p = amp + base + done;
        const std::size_t c = std::min(kMatrixChunk, len - done);
        for (std::size_t b = 0; b < block_size; ++b) {
          std::copy_n(p + offs[b], c, rows[b].data());
        }
        for (std::size_t r = 0; r < block_size; ++r) {
          Complex* out = p + offs[r];
          vo.scale_copy(out, rows[0].data(), c, matrix[r * block_size]);
          for (std::size_t col = 1; col < block_size; ++col) {
            vo.axpy(out, rows[col].data(), c, matrix[r * block_size + col]);
          }
        }
      }
      t = rend;
    }
  });
}

/// i^(k mod 4) without the slow, lossy std::pow on complex arguments.
inline Complex i_power(int k) {
  static constexpr std::array<Complex, 4> kTable = {
      Complex(1.0, 0.0), Complex(0.0, 1.0), Complex(-1.0, 0.0),
      Complex(0.0, -1.0)};
  return kTable[static_cast<std::size_t>(k) & 3U];
}

}  // namespace qmpi::sim::kernels
