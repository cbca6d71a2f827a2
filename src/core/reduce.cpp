#include "core/collective_algos.hpp"
#include "core/context.hpp"

namespace qmpi {

namespace {
/// acc ^= data, one CNOT per qubit: its own inverse.
void xor_fold(Context& ctx, std::span<const Qubit> data,
              std::span<Qubit> acc) {
  for (std::size_t i = 0; i < acc.size(); ++i) ctx.cnot(data[i], acc[i]);
}
}  // namespace

const ReduceOp& parity_op() {
  static const ReduceOp op("QMPI_PARITY", xor_fold, xor_fold);
  return op;
}

const ReduceOp& bxor_op() {
  // Same fold as parity but named per the MPI BXOR convention; kept as a
  // distinct object so user code reads naturally for multi-qubit registers.
  static const ReduceOp op("QMPI_BXOR", xor_fold, xor_fold);
  return op;
}

ReductionHandle Context::reduce(const Qubit* qubits, std::size_t width,
                                const ReduceOp& op, int root, int tag,
                                ReduceAlg alg) {
  // A single rank degenerates both schedules to a pure local fold; the
  // chain handles that with zero communication and no recompute debt.
  if (size() <= 1 || alg == ReduceAlg::kChain) {
    return algos::reduce_chain(*this, qubits, width, op, root, tag);
  }
  return algos::reduce_binary_tree(*this, qubits, width, op, root, tag);
}

void Context::unreduce(ReductionHandle& handle, const Qubit* qubits) {
  // The inverse is dictated by the handle's recorded schedule, not by a
  // fresh selection: the un-operation must retrace exactly the schedule
  // that built the handle.
  if (handle.active && handle.kind == ReductionHandle::Kind::kReduceTree) {
    algos::unreduce_binary_tree(*this, handle, qubits);
    return;
  }
  if (!handle.active || handle.kind != ReductionHandle::Kind::kReduce) {
    throw QmpiError("unreduce: handle is not an active reduce handle");
  }
  algos::unreduce_chain(*this, handle, qubits);
}

ReductionHandle Context::allreduce(const Qubit* qubits, std::size_t width,
                                   const ReduceOp& op, int tag) {
  // Table 3: allreduce = reduce + copy. Chain-reduce to rank 0, then
  // broadcast entangled copies of the result.
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kReduce);
  ReductionHandle handle = reduce(qubits, width, op, /*root=*/0, tag);
  handle.kind = ReductionHandle::Kind::kAllreduce;
  if (rank() != 0) {
    // The chain register moves to `extra`; `acc` becomes the broadcast
    // result copy.
    handle.extra = std::move(handle.acc);
    QubitArray result = alloc_qmem(width);
    handle.acc.assign(result.begin(), result.end());
  }
  bcast(handle.acc.data(), width, /*root=*/0, BcastAlg::kBinomialTree);
  return handle;
}

void Context::unallreduce(ReductionHandle& handle, const Qubit* qubits) {
  if (!handle.active || handle.kind != ReductionHandle::Kind::kAllreduce) {
    throw QmpiError("unallreduce: handle is not an active allreduce handle");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnreduce);
  unbcast(handle.acc.data(), handle.width, /*root=*/0);
  if (rank() != 0) {
    free_qmem(handle.acc.data(), handle.acc.size());
    handle.acc = std::move(handle.extra);
    handle.extra.clear();
  }
  handle.kind = ReductionHandle::Kind::kReduce;
  unreduce(handle, qubits);
}

ReductionHandle Context::scan(const Qubit* qubits, std::size_t width,
                              const ReduceOp& op, int tag) {
  // An inclusive scan is the chain reduction rooted at the last rank: the
  // chain runs 0 -> 1 -> ... -> N-1, and every rank's accumulator holds
  // the fold of the ranks before it and its own data.
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kScan);
  ReductionHandle handle =
      algos::reduce_chain(*this, qubits, width, op, size() - 1, tag);
  handle.kind = ReductionHandle::Kind::kScan;
  return handle;
}

void Context::unscan(ReductionHandle& handle, const Qubit* qubits) {
  if (!handle.active || handle.kind != ReductionHandle::Kind::kScan) {
    throw QmpiError("unscan: handle is not an active scan handle");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnscan);
  algos::unreduce_chain(*this, handle, qubits);
}

ReductionHandle Context::exscan(const Qubit* qubits, std::size_t width,
                                const ReduceOp& op, int tag) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kScan);
  const int n = size();
  const int r = rank();
  const int rtag = algos::reduce_protocol_tag(tag);
  ReductionHandle handle = algos::open_handle(
      *this, width, op, /*root=*/-1, tag, ReductionHandle::Kind::kExscan);

  if (r > 0) {
    // The received prefix over ranks 0..r-1 IS the exclusive-scan result.
    for (std::size_t i = 0; i < width; ++i)
      recv_one(handle.acc[i], r - 1, rtag);
  }
  if (r < n - 1) {
    // Fold own data only transiently, to forward the inclusive prefix.
    op.apply(*this, std::span<const Qubit>(qubits, width),
             std::span<Qubit>(handle.acc));
    for (std::size_t i = 0; i < width; ++i)
      send_one(handle.acc[i], r + 1, rtag);
    op.unapply(*this, std::span<const Qubit>(qubits, width),
               std::span<Qubit>(handle.acc));
  }
  handle.active = true;
  return handle;
}

void Context::unexscan(ReductionHandle& handle, const Qubit* qubits) {
  if (!handle.active || handle.kind != ReductionHandle::Kind::kExscan) {
    throw QmpiError("unexscan: handle is not an active exscan handle");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnscan);
  const int n = size();
  const int r = rank();
  const int rtag = algos::reduce_protocol_tag(handle.tag);

  if (r < n - 1) {
    // Re-fold own data so the register again matches the copy held by the
    // next rank, absorb that rank's Z fix-up, then unfold.
    handle.op->apply(*this, std::span<const Qubit>(qubits, handle.width),
                     std::span<Qubit>(handle.acc));
    for (std::size_t i = 0; i < handle.width; ++i)
      unsend_one(handle.acc[i], r + 1, rtag);
    handle.op->unapply(*this, std::span<const Qubit>(qubits, handle.width),
                       std::span<Qubit>(handle.acc));
  }
  if (r > 0) {
    for (std::size_t i = 0; i < handle.width; ++i)
      unrecv_one(handle.acc[i], r - 1, rtag);
  }
  algos::close_handle(*this, handle);
}

std::vector<ReductionHandle> Context::reduce_scatter_block(const Qubit* qubits,
                                                           std::size_t width) {
  // One chain reduction per block, rooted at the block's owner: exactly
  // "reduce" resources (Table 3), N-1 EPR pairs per qubit per block.
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kReduce);
  std::vector<ReductionHandle> handles;
  handles.reserve(static_cast<std::size_t>(size()));
  for (int b = 0; b < size(); ++b) {
    handles.push_back(reduce(qubits + static_cast<std::size_t>(b) * width,
                             width, parity_op(), /*root=*/b, /*tag=*/b + 1));
  }
  return handles;
}

void Context::unreduce_scatter_block(std::vector<ReductionHandle>& handles,
                                     const Qubit* qubits) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnreduce);
  for (int b = size() - 1; b >= 0; --b) {
    unreduce(handles[static_cast<std::size_t>(b)],
             qubits + static_cast<std::size_t>(b) *
                          handles[static_cast<std::size_t>(b)].width);
  }
}

}  // namespace qmpi
