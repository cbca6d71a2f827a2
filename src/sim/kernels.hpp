#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/gates.hpp"
#include "sim/simd.hpp"

namespace qmpi::sim::kernels {

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

/// Upper bound on block qubits the k-qubit kernels accept (16 amplitudes).
inline constexpr std::size_t kMaxBlockQubits = 4;

/// One compiled per-block instruction: a 2x2 gate's structural kind with
/// its control/target tests hoisted into precomputed index lists, so the
/// per-block replay runs branch-free, fixed-count inner loops. Every gate
/// sweep is a program of these — a fused cluster's ops over its 2^k block,
/// a lone gate as one op on a 1-qubit block — compiled once per flush and
/// executed once per block, an O(ops * 2^k) compile against an O(2^n)
/// sweep.
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
/// block instructions, appending to `out`: a diagonal gate scales the
/// target-1 half by m11 and, unless m00 is exactly 1 (Z, S, T, phase), the
/// target-0 half by m00; an antidiagonal one swaps (X) or cross-multiplies
/// (Y) the pairs; any other one is a dense pair update. Every path through
/// the replay below performs this same arithmetic per amplitude, which is
/// what makes fused, unfused, serial, sharded and every SIMD tier agree
/// bit for bit.
inline void compile_block_op(const Gate1Q& g, unsigned target,
                             unsigned ctrl_mask, std::size_t block_size,
                             std::vector<BlockOp>& out) {
  const std::size_t stride = 1ULL << target;
  const Complex zero(0.0, 0.0);
  const Complex one(1.0, 0.0);
  // Emits `op` over the control-satisfying indices whose target bit is
  // `bit` (0 or stride) — for pair kinds the pair-lows.
  const auto emit = [&](BlockOp op, std::size_t bit) {
    for (std::size_t i = 0; i < block_size; ++i) {
      if ((i & ctrl_mask) == ctrl_mask && (i & stride) == bit) {
        op.idx[op.count++] = static_cast<std::uint8_t>(i);
      }
    }
    if (op.count > 0) out.push_back(op);
  };
  BlockOp op;
  if (g.m[1] == zero && g.m[2] == zero) {
    op.kind = BlockOp::Kind::kScale;
    op.m00 = g.m[0];
    if (op.m00 != one) emit(op, 0);
    op.m00 = g.m[3];
    emit(op, stride);
    return;
  }
  op.stride = static_cast<std::uint8_t>(stride);
  op.m00 = g.m[0];
  op.m01 = g.m[1];
  op.m10 = g.m[2];
  op.m11 = g.m[3];
  if (op.m00 == zero && op.m11 == zero) {
    op.kind = op.m01 == one && op.m10 == one ? BlockOp::Kind::kSwap
                                             : BlockOp::Kind::kAntiDiag;
  }
  emit(op, 0);
}

/// Replays compiled instructions on one gathered 2^k block. Forced inline:
/// GCC 12 outlined it from the scalar tier's per-block loop in
/// run_block_ops_sweep, which cost that gather 1.35x (one call and a
/// reload of the op list per block).
[[gnu::always_inline]] inline void run_block_ops(Complex* block,
                                              std::span<const BlockOp> ops) {
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
/// This is the scalar tier of the block-program replay sweep
/// (run_block_ops_sweep): a c-controlled k-qubit operator costs
/// 2^(n-k-c) block visits instead of a branch-rejecting pass over all 2^n
/// amplitudes.
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

/// Replays compiled ops across `c` consecutive blocks at each segment
/// base in `segs`: block-local offset b of those blocks is the contiguous
/// run `p + seg + offs[b]`, so each op costs one simd primitive call per
/// index and segment instead of one scalar update per block. Elementwise
/// across the runs, so per amplitude the op sequence and arithmetic are
/// exactly run_block_ops's — the one per-op dispatch of both vector
/// replay paths below.
inline void run_block_ops_rows(const simd::Ops& vo,
                               std::span<const BlockOp> ops, Complex* p,
                               const std::size_t* offs, std::size_t c,
                               std::span<const std::size_t> segs) {
  for (const BlockOp& op : ops) {
    for (unsigned j = 0; j < op.count; ++j) {
      const std::size_t lo = offs[op.idx[j]];
      const std::size_t hi = offs[op.idx[j] | op.stride];
      switch (op.kind) {
        case BlockOp::Kind::kScale:
          for (const std::size_t s : segs) vo.scale(p + s + lo, c, op.m00);
          break;
        case BlockOp::Kind::kSwap:
          for (const std::size_t s : segs) {
            vo.swap_halves(p + s + lo, p + s + hi, c);
          }
          break;
        case BlockOp::Kind::kAntiDiag:
          for (const std::size_t s : segs) {
            vo.pair_antidiag(p + s + lo, p + s + hi, c, op.m01, op.m10);
          }
          break;
        case BlockOp::Kind::kDense:
          for (const std::size_t s : segs) {
            vo.pair_dense(p + s + lo, p + s + hi, c, op.m00, op.m01, op.m10,
                          op.m11);
          }
          break;
      }
    }
  }
}

/// Amplitudes per row tile of the short-run replay: 16 KiB of per-lane
/// scratch, 2^k rows of kTileAmps / 2^k blocks each.
inline constexpr std::size_t kTileAmps = 1024;

/// Most short runs one streaming replay call takes: enough to amortize the
/// op dispatch over many primitive calls, few enough that an op's pass
/// over them finds the lines the previous op touched still in L1.
inline constexpr std::size_t kMaxSegments = 32;

/// The single segment of a row-tile replay call.
inline constexpr std::size_t kNoSeg = 0;

/// Replays a compiled block program over the whole state — every gate
/// sweep runs here: a fused cluster's ops over its 2^k blocks, a lone gate
/// as one op on 1-qubit blocks with its controls in `ctrl_mask`.
/// Semantically identical to sweep_kq + run_block_ops per gathered block,
/// which the scalar tier runs as the reference. With a SIMD tier active it
/// takes one of two vectorized paths, both through run_block_ops_rows:
///  - *in-place streaming* (block_sweep_run >= simd::kMinRun): blocks come
///    in contiguous runs, so each op is applied in place across a
///    cache-blocked chunk of consecutive blocks — no copies;
///  - *row tile* (run < kMinRun, i.e. a block or control bit on state
///    position 0 or 1): a tile of kTileAmps >> k consecutive blocks is
///    gathered into 2^k rows, row b holding block-local offset b of every
///    block, replayed across the rows, and scattered back.
/// Which path runs depends only on the fixed bits, never on the gate.
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
  std::uint64_t fixed = ctrl_mask;
  for (const std::size_t p : pos) fixed |= 1ULL << p;
  const std::size_t run = std::size_t{1} << std::countr_zero(fixed);
  // Both paths step from block to block with the fixed bits held set:
  // adding d then advances d blocks, the carry passing through the fixed
  // bits, and `base_of` clears them and restores the controls.
  const auto base_of = [fixed, ctrl_mask](std::uint64_t next) {
    return static_cast<std::size_t>((next & ~fixed) | ctrl_mask);
  };

  if (run < simd::kMinRun) {
    // The block width is a template constant here, so the gather and
    // scatter loops unroll per row.
    const auto tile_sweep = [&](auto width) {
      constexpr std::size_t kRows = std::size_t{1} << decltype(width)::value;
      constexpr std::size_t kCols = kTileAmps / kRows;  // blocks per tile
      std::array<std::size_t, kRows> rows;
      for (std::size_t b = 0; b < kRows; ++b) rows[b] = b * kCols;
      pfor(blocks, [&](std::size_t begin, std::size_t end) {
        std::array<Complex, kTileAmps> tile;
        std::array<std::size_t, kCols> bases;
        std::uint64_t next = ex(begin) | fixed;
        for (std::size_t t = begin; t < end; t += kCols) {
          const std::size_t c = std::min(kCols, end - t);
          for (std::size_t i = 0; i < c; ++i) {
            bases[i] = base_of(next);
            next = (next + 1) | fixed;
            for (std::size_t b = 0; b < kRows; ++b) {
              tile[b * kCols + i] = amp[bases[i] | offs[b]];
            }
          }
          run_block_ops_rows(vo, ops, tile.data(), rows.data(), c,
                             {&kNoSeg, 1});
          for (std::size_t i = 0; i < c; ++i) {
            for (std::size_t b = 0; b < kRows; ++b) {
              amp[bases[i] | offs[b]] = tile[b * kCols + i];
            }
          }
        }
      });
    };
    switch (k) {
      case 1:
        tile_sweep(std::integral_constant<std::size_t, 1>{});
        break;
      case 2:
        tile_sweep(std::integral_constant<std::size_t, 2>{});
        break;
      case 3:
        tile_sweep(std::integral_constant<std::size_t, 3>{});
        break;
      default:
        tile_sweep(std::integral_constant<std::size_t, kMaxBlockQubits>{});
        break;
    }
    return;
  }

  // Runs are aligned windows of `run` consecutive blocks. A piece is a
  // whole run, or an L1-sized chunk of a long one when some amplitude is
  // touched by more than one op (a lone gate touches each once, so it
  // streams whole runs). One replay call covers up to `group` pieces, so
  // a short run costs one primitive call per op index, not a pass through
  // the whole dispatch.
  const std::size_t chunk =
      std::max<std::size_t>(simd::kMinRun, kStreamAmps >> k);
  std::uint32_t touched = 0;
  bool revisits = false;
  for (const BlockOp& op : ops) {
    for (unsigned j = 0; j < op.count; ++j) {
      const std::uint32_t idx =
          (1U << op.idx[j]) | (1U << (op.idx[j] | op.stride));
      revisits = revisits || (touched & idx) != 0;
      touched |= idx;
    }
  }
  const std::size_t piece = revisits ? std::min(run, chunk) : run;
  const std::size_t group =
      std::clamp<std::size_t>(chunk / piece, 1, kMaxSegments);
  pfor(blocks, [&](std::size_t begin, std::size_t end) {
    std::array<std::size_t, kMaxSegments> segs;
    std::uint64_t next = ex(begin) | fixed;
    for (std::size_t t = begin; t < end;) {
      // A lane may start or end mid-piece: such a partial piece is
      // replayed alone, whole pieces in groups.
      const std::size_t len = std::min(end, (t | (piece - 1)) + 1) - t;
      std::size_t g = 0;
      do {
        segs[g++] = base_of(next);
        next = (next + len) | fixed;
        t += len;
      } while (g < group && len == piece && end - t >= piece);
      run_block_ops_rows(vo, ops, amp, offs.data(), len, {segs.data(), g});
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
