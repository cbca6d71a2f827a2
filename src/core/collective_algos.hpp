#pragma once

#include <cstddef>

#include "core/context.hpp"

/// Collective algorithm layer: the broadcast and reduction schedules
/// behind the QMPI collectives (paper §4.6, §7.1), as free functions so
/// each schedule is testable and benchmarkable in isolation. Context::bcast
/// and Context::reduce pick one from the requested algorithm alone: the
/// quantum schedule never depends on the transport, so QMPI_P2P=on and
/// =off runs consume the measurement RNG identically.
namespace qmpi::algos {

/// Narrow bridge through which the algorithm layer reaches Context's
/// per-qubit copy protocol and protocol communicator. Everything else a
/// schedule needs (gates, measurement, qubit management, the resource
/// tracker) is public Context API; keeping this surface at six calls
/// documents exactly what a collective schedule may touch.
class ContextOps {
 public:
  static void send_one(Context& ctx, Qubit q, int dest, int tag) {
    ctx.send_one(q, dest, tag);
  }
  static void recv_one(Context& ctx, Qubit q, int source, int tag) {
    ctx.recv_one(q, source, tag);
  }
  static void unsend_one(Context& ctx, Qubit q, int dest, int tag) {
    ctx.unsend_one(q, dest, tag);
  }
  static void unrecv_one(Context& ctx, Qubit q, int source, int tag) {
    ctx.unrecv_one(q, source, tag);
  }
  /// EPR establishment under an exact protocol tag. The public
  /// prepare_epr rejects reserved tags (they are user-facing), so internal
  /// schedules come through here with their kCollTag-band tags.
  static void establish_epr(Context& ctx, Qubit q, int peer, int ptag) {
    ctx.establish_epr(q, peer, ptag);
  }
  static classical::Comm& protocol_comm(Context& ctx) {
    return ctx.protocol_comm_;
  }
  static void trace_event(Context& ctx, TraceEvent e) {
    ctx.trace_event(std::move(e));
  }
};

// ------------------------------------------------------------- broadcast ---

/// Binomial tree of Send/Recv (paper §7.1): in step k, 2^k ranks forward
/// the message; runtime E * ceil(log2 N) in the SENDQ model. S=1 suffices.
void bcast_binomial_tree(Context& ctx, const Qubit* qubits, std::size_t count,
                         int root);

/// Constant-quantum-depth broadcast via a cat state (paper Fig. 4, §7.1):
/// EPR pairs along a spanning chain, local parity measurements, classical
/// prefix fix-ups. Needs S>=2 on interior nodes.
void bcast_cat_state(Context& ctx, const Qubit* qubits, std::size_t count,
                     int root);

// ------------------------------------------------------------- reduction ---

/// The protocol tag of a reduction's traffic: the user tag, which must lie
/// in [0, detail::kMaxReduceTag] (else QmpiError), offset into the
/// reduction band of the reserved tag space (core/protocol_tags.hpp).
int reduce_protocol_tag(int tag);

/// A handle owning a fresh `width`-qubit accumulator on this rank, and its
/// release once the accumulator is back in |0>.
ReductionHandle open_handle(Context& ctx, std::size_t width,
                            const ReduceOp& op, int root, int tag,
                            ReductionHandle::Kind kind);
void close_handle(Context& ctx, ReductionHandle& handle);

/// Linear chain schedule (paper §4.6): N-1 EPR pairs per qubit, one output
/// register per node, classical-only inverse.
ReductionHandle reduce_chain(Context& ctx, const Qubit* qubits,
                             std::size_t width, const ReduceOp& op, int root,
                             int tag);
void unreduce_chain(Context& ctx, ReductionHandle& handle,
                    const Qubit* qubits);

/// Binary-tree schedule (§4.6's alternative): O(log N) communication
/// rounds, at the price of recomputing intermediate copies on the inverse
/// (doubling EPR usage).
ReductionHandle reduce_binary_tree(Context& ctx, const Qubit* qubits,
                                   std::size_t width, const ReduceOp& op,
                                   int root, int tag);
void unreduce_binary_tree(Context& ctx, ReductionHandle& handle,
                          const Qubit* qubits);

}  // namespace qmpi::algos
