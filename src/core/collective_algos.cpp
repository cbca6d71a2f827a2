#include "core/collective_algos.hpp"

#include <string>

#include "core/protocol_tags.hpp"

namespace qmpi::algos {

using detail::kCollTag;
using detail::kMaxReduceTag;
using detail::kReduceTagBase;

// ------------------------------------------------------------- broadcast ---

void bcast_binomial_tree(Context& ctx, const Qubit* qubits, std::size_t count,
                         int root) {
  // kCollTag lives above the user band, so the schedule speaks the
  // per-qubit protocol directly (the public send/recv reject reserved
  // tags by design).
  const int n = ctx.size();
  const int rel = (ctx.rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int src = (rel - mask + root) % n;
      for (std::size_t i = 0; i < count; ++i)
        ContextOps::recv_one(ctx, qubits[i], src, kCollTag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < n && (rel & (mask - 1)) == 0 && !(rel & mask)) {
      const int dst = (rel + mask + root) % n;
      for (std::size_t i = 0; i < count; ++i)
        ContextOps::send_one(ctx, qubits[i], dst, kCollTag);
    }
    mask >>= 1;
  }
}

void bcast_cat_state(Context& ctx, const Qubit* qubits, std::size_t count,
                     int root) {
  // Constant-quantum-depth broadcast (paper Fig. 4 and §7.1, after Watts et
  // al.): EPR pairs along the edges of a spanning chain (all creations are
  // independent => constant time 2E in SENDQ), local parity measurements,
  // then a classical exscan to compute each node's Pauli-X fix-up. Quantum
  // communication is O(1); the log factor is purely classical.
  const int n = ctx.size();
  // Work in root-relative position space: pos 0 = root.
  const int pos = (ctx.rank() - root + n) % n;
  const int left_peer = (ctx.rank() - 1 + n) % n;   // pos-1 neighbour
  const int right_peer = (ctx.rank() + 1) % n;      // pos+1 neighbour

  for (std::size_t i = 0; i < count; ++i) {
    // `incoming` is this node's cat qubit: the user-provided qubit on
    // non-root ranks. `outgoing` is the EPR half shared with pos+1.
    Qubit outgoing{};
    const bool has_right = pos < n - 1;
    QubitArray outgoing_store;
    if (has_right) {
      outgoing_store = ctx.alloc_qmem(1);
      outgoing = outgoing_store[0];
    }
    // EPR establishment on chain edges (even edges then odd edges would be
    // simultaneous on hardware; rendezvous order is irrelevant here).
    if (has_right) {
      ContextOps::establish_epr(ctx, outgoing, right_peer,
                                detail::encode_tag(kCollTag, 0));
    }
    if (pos > 0) {
      ContextOps::establish_epr(ctx, qubits[i], left_peer,
                                detail::encode_tag(kCollTag, 0));
    }

    // Local parity measurements.
    std::uint8_t m = 0;
    if (has_right) {
      const Qubit pair[] = {qubits[i], outgoing};
      m = ctx.measure_parity(pair) ? 1 : 0;
    }
    // Classical exscan of parity outcomes in position order gives each
    // node s_pos = m_0 xor ... xor m_{pos-1}.
    // (The protocol communicator's exscan runs in rank order; map via a
    // gather-based approach: ranks are a rotation of positions, so we use
    // allgather and fold locally — O(log N) classical time either way.)
    const auto all_m = ContextOps::protocol_comm(ctx).allgather(m);
    std::uint8_t prefix = 0;
    for (int p = 0; p < pos; ++p) {
      prefix ^= all_m[static_cast<std::size_t>((p + root) % n)];
    }
    if (has_right) {
      ctx.tracker().count_classical_bits(1);
      ContextOps::trace_event(
          ctx, {TraceEvent::Kind::kClassicalSend, ctx.rank(), root, 1, "cat"});
    }

    // Fix-ups: the incoming qubit carries correction s_pos, the outgoing
    // EPR half carries s_{pos+1} = s_pos xor m_pos.
    if (pos > 0 && (prefix & 1)) ctx.x(qubits[i]);
    if (has_right && ((prefix ^ m) & 1)) ctx.x(outgoing);

    // Cleanup: the outgoing half is now a redundant cat copy on this node;
    // fold it into the kept qubit (local CNOT, Fig. 1b applies locally).
    if (has_right) {
      ctx.cnot(qubits[i], outgoing);
      ctx.free_qmem(&outgoing, 1);
    }
  }
}

// ------------------------------------------------------------- reduction ---

int reduce_protocol_tag(int tag) {
  if (tag < 0 || tag > kMaxReduceTag) {
    throw QmpiError("reduction tag " + std::to_string(tag) +
                    " is outside [0, " + std::to_string(kMaxReduceTag) +
                    "] (the reduction band of the reserved tag space; see "
                    "core/protocol_tags.hpp)");
  }
  return kReduceTagBase + tag;
}

namespace {

/// This rank's neighbours on the linear reduction chain rooted at `root`
/// (paper §4.6): the chain runs root+1, root+2, ..., root (mod N), so the
/// result materializes in the root's accumulator while every node holds
/// exactly one extra output register. -1 marks an end of the chain.
struct ChainLinks {
  int prev;
  int next;
};
ChainLinks chain_links(const Context& ctx, int root) {
  const int n = ctx.size();
  const int r = ctx.rank();
  return {r == (root + 1) % n ? -1 : (r - 1 + n) % n,
          r == root ? -1 : (r + 1) % n};
}
}  // namespace

ReductionHandle open_handle(Context& ctx, std::size_t width,
                            const ReduceOp& op, int root, int tag,
                            ReductionHandle::Kind kind) {
  QubitArray acc = ctx.alloc_qmem(width);
  return ReductionHandle{.acc = {acc.begin(), acc.end()},
                         .extra = {},
                         .root = root,
                         .width = width,
                         .op = &op,
                         .tag = tag,
                         .kind = kind};
}

void close_handle(Context& ctx, ReductionHandle& handle) {
  ctx.free_qmem(handle.acc.data(), handle.acc.size());
  handle.acc.clear();
  handle.active = false;
}

ReductionHandle reduce_chain(Context& ctx, const Qubit* qubits,
                             std::size_t width, const ReduceOp& op, int root,
                             int tag) {
  const ResourceTracker::Scope scope(ctx.tracker(), OpCategory::kReduce);
  const ChainLinks link = chain_links(ctx, root);
  ReductionHandle handle = open_handle(ctx, width, op, root, tag,
                                       ReductionHandle::Kind::kReduce);

  const int rtag = reduce_protocol_tag(tag);
  if (link.prev >= 0) {
    // Receive the running prefix as an entangled copy.
    for (std::size_t i = 0; i < width; ++i)
      ContextOps::recv_one(ctx, handle.acc[i], link.prev, rtag);
  }
  // Fold this rank's data into the accumulator.
  op.apply(ctx, std::span<const Qubit>(qubits, width),
           std::span<Qubit>(handle.acc));
  if (link.next >= 0) {
    for (std::size_t i = 0; i < width; ++i)
      ContextOps::send_one(ctx, handle.acc[i], link.next, rtag);
  }
  handle.active = true;
  return handle;
}

void unreduce_chain(Context& ctx, ReductionHandle& handle,
                    const Qubit* qubits) {
  const ResourceTracker::Scope scope(ctx.tracker(), OpCategory::kUnreduce);
  const ChainLinks link = chain_links(ctx, handle.root);
  const int rtag = reduce_protocol_tag(handle.tag);

  if (link.next >= 0) {
    // Apply the Z fix-ups produced by the next node's X-basis measurement
    // while our accumulator still holds the value it copied.
    for (std::size_t i = 0; i < handle.width; ++i)
      ContextOps::unsend_one(ctx, handle.acc[i], link.next, rtag);
  }
  handle.op->unapply(ctx, std::span<const Qubit>(qubits, handle.width),
                     std::span<Qubit>(handle.acc));
  if (link.prev >= 0) {
    for (std::size_t i = 0; i < handle.width; ++i)
      ContextOps::unrecv_one(ctx, handle.acc[i], link.prev, rtag);
  }
  close_handle(ctx, handle);
}

ReductionHandle reduce_binary_tree(Context& ctx, const Qubit* qubits,
                                   std::size_t width, const ReduceOp& op,
                                   int root, int tag) {
  // Binary-tree schedule (§4.6's alternative): O(log N) communication
  // rounds. Intermediate copies are uncomputed immediately after folding
  // (one output register per node is still enough), at the price of
  // *recomputing* them during unreduce — doubling total EPR usage.
  const ResourceTracker::Scope scope(ctx.tracker(), OpCategory::kReduce);
  const int n = ctx.size();
  const int rel = (ctx.rank() - root + n) % n;

  ReductionHandle handle = open_handle(ctx, width, op, root, tag,
                                       ReductionHandle::Kind::kReduceTree);
  const int rtag = reduce_protocol_tag(tag);

  // Local fold: acc <- op(0, data).
  op.apply(ctx, std::span<const Qubit>(qubits, width),
           std::span<Qubit>(handle.acc));

  for (int dist = 1; dist < n; dist <<= 1) {
    if (rel % (2 * dist) == 0 && rel + dist < n) {
      // Survivor: fold the partner's accumulator in via an entangled copy
      // that is uncomputed right away (classical-only).
      const int partner = (rel + dist + root) % n;
      QubitArray tmp = ctx.alloc_qmem(width);
      for (std::size_t i = 0; i < width; ++i)
        ContextOps::recv_one(ctx, tmp[i], partner, rtag);
      op.apply(ctx, std::span<const Qubit>(tmp.data(), width),
               std::span<Qubit>(handle.acc));
      for (std::size_t i = 0; i < width; ++i)
        ContextOps::unrecv_one(ctx, tmp[i], partner, rtag);
      ctx.free_qmem(tmp, width);
    } else if (rel % (2 * dist) == dist) {
      const int partner = (rel - dist + root) % n;
      for (std::size_t i = 0; i < width; ++i)
        ContextOps::send_one(ctx, handle.acc[i], partner, rtag);
      for (std::size_t i = 0; i < width; ++i)
        ContextOps::unsend_one(ctx, handle.acc[i], partner, rtag);
    }
  }
  handle.active = true;
  return handle;
}

void unreduce_binary_tree(Context& ctx, ReductionHandle& handle,
                          const Qubit* qubits) {
  // Reverse rounds; every fold's copy must be re-established (recomputed),
  // hence the doubled EPR usage relative to the chain schedule.
  const ResourceTracker::Scope scope(ctx.tracker(), OpCategory::kUnreduce);
  const int n = ctx.size();
  const int root = handle.root;
  const int rel = (ctx.rank() - root + n) % n;
  const int rtag = reduce_protocol_tag(handle.tag);

  int start = 1;
  while (start < n) start <<= 1;
  for (int dist = start >> 1; dist >= 1; dist >>= 1) {
    if (rel % (2 * dist) == 0 && rel + dist < n) {
      const int partner = (rel + dist + root) % n;
      QubitArray tmp = ctx.alloc_qmem(handle.width);
      for (std::size_t i = 0; i < handle.width; ++i)
        ContextOps::recv_one(ctx, tmp[i], partner, rtag);
      handle.op->unapply(ctx,
                         std::span<const Qubit>(tmp.data(), handle.width),
                         std::span<Qubit>(handle.acc));
      for (std::size_t i = 0; i < handle.width; ++i)
        ContextOps::unrecv_one(ctx, tmp[i], partner, rtag);
      ctx.free_qmem(tmp, handle.width);
    } else if (rel % (2 * dist) == dist) {
      const int partner = (rel - dist + root) % n;
      for (std::size_t i = 0; i < handle.width; ++i)
        ContextOps::send_one(ctx, handle.acc[i], partner, rtag);
      for (std::size_t i = 0; i < handle.width; ++i)
        ContextOps::unsend_one(ctx, handle.acc[i], partner, rtag);
    }
  }
  handle.op->unapply(ctx, std::span<const Qubit>(qubits, handle.width),
                     std::span<Qubit>(handle.acc));
  close_handle(ctx, handle);
}

}  // namespace qmpi::algos
