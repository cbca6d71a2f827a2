#include <string>
#include <vector>

#include "core/collective_algos.hpp"
#include "core/context.hpp"
#include "core/protocol_tags.hpp"

// Every quantum collective is a schedule of point-to-point transfers (paper
// §4.5, Table 3): a copy, its classical-only uncopy, or a move. The rooted
// ones share Context::rooted, the all-to-all family and the point-to-point
// exchanges Context::exchange; the entry points pick transfer and category.

namespace qmpi {

using detail::encode_tag;
using detail::kCollTag;

namespace {

void check_counts(std::span<const std::size_t> counts, int size,
                  const char* what) {
  if (counts.size() != static_cast<std::size_t>(size)) {
    throw QmpiError(std::string(what) +
                    ": counts must have one entry per rank");
  }
}

/// `count` for each of `size` ranks: the counts of a uniform collective.
std::vector<std::size_t> uniform(int size, std::size_t count) {
  return std::vector<std::size_t>(static_cast<std::size_t>(size), count);
}

}  // namespace

void Context::barrier() { user_comm_.barrier(); }

// ------------------------------------------------------------- skeletons ---

void Context::rooted(OpCategory category, Transfer verb, Flow flow,
                     const Qubit* root_blocks, const Qubit* mine,
                     std::span<const std::size_t> counts, int root) {
  const ResourceTracker::Scope scope(*tracker_, category);
  const bool to_root = flow == Flow::kToRoot;
  // A non-root sends when the blocks flow toward the root, the root when
  // they flow away from it.
  const bool sends = to_root != (rank() == root);
  auto remote = [&](Qubit q, int peer) {
    switch (verb) {
      case Transfer::kCopy:
        return sends ? send_one(q, peer, kCollTag)
                     : recv_one(q, peer, kCollTag);
      case Transfer::kUncopy:
        return sends ? unsend_one(q, peer, kCollTag)
                     : unrecv_one(q, peer, kCollTag);
      case Transfer::kMove:
        return sends ? send_move_one(q, peer, kCollTag)
                     : recv_move_one(q, peer, kCollTag);
    }
  };
  if (rank() != root) {
    const std::size_t mine_count = counts[static_cast<std::size_t>(rank())];
    for (std::size_t i = 0; i < mine_count; ++i) remote(mine[i], root);
    return;
  }
  const Qubit* block = root_blocks;
  for (int r = 0; r < size(); ++r) {
    const std::size_t c = counts[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < c; ++i) {
      if (r != root) {
        remote(block[i], r);
        continue;
      }
      // The root's own block: a local CNOT fan-out (copy and uncopy) or a
      // CNOT swap (move) between its block and its own qubits.
      const Qubit from = to_root ? mine[i] : block[i];
      const Qubit to = to_root ? block[i] : mine[i];
      cnot(from, to);
      if (verb == Transfer::kMove) cnot(to, from);
    }
    block += c;
  }
}

void Context::exchange(Transfer verb, int send_tag, int recv_tag,
                       std::span<const Leg> legs) {
  auto stag = [&](int peer) {
    return encode_tag(send_tag, detail::direction_sub(rank(), peer));
  };
  auto rtag = [&](int peer) {
    return encode_tag(recv_tag, detail::direction_sub(peer, rank()));
  };
  std::vector<Qubit> halves;
  for (const Leg& leg : legs) {
    if (leg.peer == rank()) continue;
    for (std::size_t i = 0; i < leg.send_count; ++i)
      halves.push_back(send_begin(leg.peer, stag(leg.peer)));
  }
  for (const Leg& leg : legs) {
    if (leg.peer == rank()) continue;
    for (std::size_t i = 0; i < leg.recv_count; ++i)
      epr_begin(leg.in[i], leg.peer, rtag(leg.peer));
  }
  std::size_t next_half = 0;
  for (const Leg& leg : legs) {
    for (std::size_t i = 0; i < leg.send_count; ++i) {
      if (leg.peer == rank()) {
        cnot(leg.out[i], leg.in[i]);
        if (verb == Transfer::kMove) cnot(leg.in[i], leg.out[i]);
      } else if (verb == Transfer::kMove) {
        send_move_complete(leg.out[i], halves[next_half++], leg.peer,
                           stag(leg.peer));
      } else {
        send_complete(leg.out[i], halves[next_half++], leg.peer,
                      stag(leg.peer));
      }
    }
  }
  for (const Leg& leg : legs) {
    if (leg.peer == rank()) continue;
    // A higher-ranked sender posted all its EPR-half ids before its first
    // fix-up on this channel, so pair the whole leg before reading fix-ups;
    // a lower-ranked one interleaves each pair's ack with its fix-up.
    const bool pair_first = leg.peer > rank();
    for (std::size_t i = 0; i < leg.recv_count; ++i) {
      epr_complete(leg.in[i], leg.peer, rtag(leg.peer));
      if (!pair_first) recv_fixup(verb, leg.in[i], leg.peer, rtag(leg.peer));
    }
    if (!pair_first) continue;
    for (std::size_t i = 0; i < leg.recv_count; ++i)
      recv_fixup(verb, leg.in[i], leg.peer, rtag(leg.peer));
  }
}

std::vector<Context::Leg> Context::block_legs(
    const Qubit* out, std::span<const std::size_t> send_counts,
    const Qubit* in, std::span<const std::size_t> recv_counts) {
  std::vector<Leg> legs;
  for (int peer = 0; peer < size(); ++peer) {
    const auto p = static_cast<std::size_t>(peer);
    legs.push_back({peer, out, send_counts[p], in, recv_counts[p]});
    out += send_counts[p];
    in += recv_counts[p];
  }
  return legs;
}

// ------------------------------------------------------------------ bcast ---

void Context::bcast(const Qubit* qubits, std::size_t count, int root,
                    BcastAlg alg) {
  if (size() == 1) return;
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  if (alg == BcastAlg::kCatState) {
    algos::bcast_cat_state(*this, qubits, count, root);
  } else {
    algos::bcast_binomial_tree(*this, qubits, count, root);
  }
}

void Context::unbcast_one(Qubit q, int root, const char* label) {
  // Every non-root measures its copy in the X basis; the parity of all
  // outcomes determines root's Z fix-up.
  std::uint8_t m = 0;
  if (rank() != root) {
    h(q);
    const bool outcome = measure(q);
    if (outcome) x(q);  // reset copy to |0>
    m = outcome ? 1 : 0;
    tracker_->count_classical_bits(1);
    trace_event({TraceEvent::Kind::kClassicalSend, rank(), root, 1, label});
  }
  const auto parity = protocol_comm_.allreduce(
      m, [](std::uint8_t a, std::uint8_t b) -> std::uint8_t { return a ^ b; });
  if (rank() == root && (parity & 1)) z(q);
}

void Context::unbcast(const Qubit* qubits, std::size_t count, int root) {
  if (size() == 1) return;
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  // Classical communication only: one bit per non-root rank and qubit.
  for (std::size_t i = 0; i < count; ++i)
    unbcast_one(qubits[i], root, "unbcast");
}

// ---------------------------------------------------------- gather/scatter ---

void Context::gather(const Qubit* send_qubits, std::size_t count,
                     Qubit* recv_qubits, int root) {
  gatherv(send_qubits, uniform(size(), count), recv_qubits, root);
}

void Context::ungather(const Qubit* send_qubits, std::size_t count,
                       Qubit* recv_qubits, int root) {
  ungatherv(send_qubits, uniform(size(), count), recv_qubits, root);
}

void Context::gatherv(const Qubit* send_qubits,
                      std::span<const std::size_t> counts, Qubit* recv_qubits,
                      int root) {
  check_counts(counts, size(), "gatherv");
  rooted(OpCategory::kCopy, Transfer::kCopy, Flow::kToRoot, recv_qubits,
         send_qubits, counts, root);
}

void Context::ungatherv(const Qubit* send_qubits,
                        std::span<const std::size_t> counts,
                        Qubit* recv_qubits, int root) {
  check_counts(counts, size(), "ungatherv");
  rooted(OpCategory::kUncopy, Transfer::kUncopy, Flow::kToRoot, recv_qubits,
         send_qubits, counts, root);
}

void Context::scatter(const Qubit* send_qubits, Qubit* recv_qubits,
                      std::size_t count, int root) {
  scatterv(send_qubits, uniform(size(), count), recv_qubits, root);
}

void Context::unscatter(const Qubit* send_qubits, Qubit* recv_qubits,
                        std::size_t count, int root) {
  unscatterv(send_qubits, uniform(size(), count), recv_qubits, root);
}

void Context::scatterv(const Qubit* send_qubits,
                       std::span<const std::size_t> counts,
                       Qubit* recv_qubits, int root) {
  check_counts(counts, size(), "scatterv");
  rooted(OpCategory::kCopy, Transfer::kCopy, Flow::kFromRoot, send_qubits,
         recv_qubits, counts, root);
}

void Context::unscatterv(const Qubit* send_qubits,
                         std::span<const std::size_t> counts,
                         Qubit* recv_qubits, int root) {
  check_counts(counts, size(), "unscatterv");
  rooted(OpCategory::kUncopy, Transfer::kUncopy, Flow::kFromRoot, send_qubits,
         recv_qubits, counts, root);
}

void Context::allgather(const Qubit* send_qubits, std::size_t count,
                        Qubit* recv_qubits) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  // One binomial-tree broadcast per contributing rank; N(N-1) copies total.
  for (int r = 0; r < size(); ++r) {
    Qubit* slot = recv_qubits + static_cast<std::size_t>(r) * count;
    if (rank() == r) {
      for (std::size_t i = 0; i < count; ++i) cnot(send_qubits[i], slot[i]);
    }
    algos::bcast_binomial_tree(*this, slot, count, r);
  }
}

void Context::unallgather(const Qubit* send_qubits, std::size_t count,
                          Qubit* recv_qubits) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  for (int r = 0; r < size(); ++r) {
    Qubit* slot = recv_qubits + static_cast<std::size_t>(r) * count;
    // Inverse of bcast for root r, then undo the local fanout at r.
    for (std::size_t i = 0; i < count; ++i) {
      unbcast_one(slot[i], r, "unallg");
      if (rank() == r) cnot(send_qubits[i], slot[i]);
    }
  }
}

// -------------------------------------------------------------- alltoall ---

void Context::alltoall(const Qubit* send_qubits, Qubit* recv_qubits,
                       std::size_t count) {
  const auto counts = uniform(size(), count);
  alltoallv(send_qubits, counts, recv_qubits, counts);
}

void Context::unalltoall(const Qubit* send_qubits, Qubit* recv_qubits,
                         std::size_t count) {
  const auto counts = uniform(size(), count);
  unalltoallv(send_qubits, counts, recv_qubits, counts);
}

void Context::alltoallv(const Qubit* send_qubits,
                        std::span<const std::size_t> send_counts,
                        Qubit* recv_qubits,
                        std::span<const std::size_t> recv_counts) {
  check_counts(send_counts, size(), "alltoallv");
  check_counts(recv_counts, size(), "alltoallv");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  // Rank r's block j is copied into rank j's slot r.
  exchange(Transfer::kCopy, kCollTag, kCollTag,
           block_legs(send_qubits, send_counts, recv_qubits, recv_counts));
}

void Context::unalltoallv(const Qubit* send_qubits,
                          std::span<const std::size_t> send_counts,
                          Qubit* recv_qubits,
                          std::span<const std::size_t> recv_counts) {
  check_counts(send_counts, size(), "unalltoallv");
  check_counts(recv_counts, size(), "unalltoallv");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  // Classical-only: unrecv all received copies (posts bits eagerly), then
  // absorb the Z fix-ups for everything we sent.
  const auto legs =
      block_legs(send_qubits, send_counts, recv_qubits, recv_counts);
  for (const Leg& leg : legs) {
    for (std::size_t i = 0; i < leg.recv_count; ++i) {
      if (leg.peer == rank()) {
        cnot(leg.out[i], leg.in[i]);
      } else {
        unrecv_one(leg.in[i], leg.peer, kCollTag);
      }
    }
  }
  for (const Leg& leg : legs) {
    if (leg.peer == rank()) continue;
    for (std::size_t i = 0; i < leg.send_count; ++i)
      unsend_one(leg.out[i], leg.peer, kCollTag);
  }
}

// -------------------------------------------------------- move collectives ---

void Context::gather_move(const Qubit* send_qubits, std::size_t count,
                          Qubit* recv_qubits, int root) {
  rooted(OpCategory::kMove, Transfer::kMove, Flow::kToRoot, recv_qubits,
         send_qubits, uniform(size(), count), root);
}

void Context::ungather_move(Qubit* send_qubits, std::size_t count,
                            const Qubit* recv_qubits, int root) {
  // scatter_move's transfer pattern: the root's blocks travel back out.
  rooted(OpCategory::kUnmove, Transfer::kMove, Flow::kFromRoot, recv_qubits,
         send_qubits, uniform(size(), count), root);
}

void Context::scatter_move(Qubit* send_qubits, Qubit* recv_qubits,
                           std::size_t count, int root) {
  rooted(OpCategory::kMove, Transfer::kMove, Flow::kFromRoot, send_qubits,
         recv_qubits, uniform(size(), count), root);
}

void Context::unscatter_move(Qubit* send_qubits, Qubit* recv_qubits,
                             std::size_t count, int root) {
  // gather_move's transfer pattern: every block travels back to the root.
  rooted(OpCategory::kUnmove, Transfer::kMove, Flow::kToRoot, send_qubits,
         recv_qubits, uniform(size(), count), root);
}

void Context::alltoall_move(Qubit* send_qubits, Qubit* recv_qubits,
                            std::size_t count) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  const auto counts = uniform(size(), count);
  exchange(Transfer::kMove, kCollTag, kCollTag,
           block_legs(send_qubits, counts, recv_qubits, counts));
}

}  // namespace qmpi
