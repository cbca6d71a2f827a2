#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "classical/error.hpp"
#include "classical/message.hpp"
#include "classical/transport.hpp"

namespace qmpi::classical {

/// A communicator: an ordered group of ranks plus an isolated context.
///
/// Mirrors MPI_Comm semantics: point-to-point matching is scoped to the
/// context, collectives must be entered by all members in the same order,
/// and dup()/split() derive new, non-interfering communicators.
///
/// Each rank owns its own Comm instances (they are cheap handles over the
/// shared Transport); Comm itself is not shared across threads. Comm is
/// transport-agnostic: the same code drives the in-memory Universe and the
/// multi-process SocketTransport.
class Comm {
 public:
  /// Builds the world communicator for `world_rank` of `transport`.
  static Comm world(Transport& transport, int world_rank);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }
  std::uint64_t context() const { return context_; }

  // ---------------------------------------------------------------- p2p ---

  /// Sends raw bytes to `dest` with `tag` (eager, buffered; never blocks).
  void send_bytes(std::span<const std::byte> bytes, int dest, int tag);

  /// Receives a message from `source` (kAnySource allowed) with `tag`
  /// (kAnyTag allowed); blocks until one is available.
  Message recv_message(int source, int tag);

  /// Typed send of one trivially copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send(const T& value, int dest, int tag) {
    const auto bytes = to_bytes(value);
    send_bytes(bytes, dest, tag);
  }

  /// Typed send of a contiguous buffer.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send(std::span<const T> values, int dest, int tag) {
    const auto bytes = to_bytes(values);
    send_bytes(bytes, dest, tag);
  }

  /// Typed receive of one value; throws TruncationError on size mismatch.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T recv(int source, int tag, Status* status = nullptr) {
    Message msg = recv_message(source, tag);
    if (msg.payload.size() != sizeof(T)) {
      throw TruncationError(sizeof(T), msg.payload.size());
    }
    if (status != nullptr) {
      *status = Status{msg.source, msg.tag, msg.payload.size()};
    }
    return from_bytes<T>(msg.payload);
  }

  /// Typed receive into a caller-provided buffer of exact element count.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void recv(std::span<T> out, int source, int tag, Status* status = nullptr) {
    Message msg = recv_message(source, tag);
    if (msg.payload.size() != out.size_bytes()) {
      throw TruncationError(out.size_bytes(), msg.payload.size());
    }
    if (!out.empty()) {
      std::memcpy(out.data(), msg.payload.data(), msg.payload.size());
    }
    if (status != nullptr) {
      *status = Status{msg.source, msg.tag, msg.payload.size()};
    }
  }

  /// MPI_Iprobe equivalent on the point-to-point channel.
  bool iprobe(int source, int tag, Status* status = nullptr);

  // -------------------------------------------------------- collectives ---

  /// Synchronizes all ranks (dissemination barrier, O(log N) rounds).
  void barrier();

  /// Broadcasts `value` from `root` to all ranks (binomial tree).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T bcast(T value, int root);

  /// Broadcasts a buffer in place from `root`.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void bcast(std::span<T> buffer, int root);

  /// Gathers one value per rank to `root`; result is ordered by rank and
  /// only meaningful at the root (empty elsewhere).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> gather(const T& value, int root);

  /// Gathers variable-length buffers to `root` (MPI_Gatherv equivalent).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<std::vector<T>> gatherv(std::span<const T> values, int root);

  /// Scatters one value per rank from `root` (values ignored elsewhere).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T scatter(std::span<const T> values, int root);

  /// All-gathers one value per rank to every rank: a ring (N-1 neighbor
  /// exchanges, no rank hosts more than 2 messages per step) on every
  /// transport and routing.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> allgather(const T& value);

  /// Personalized all-to-all: element i of `values` goes to rank i.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> alltoall(std::span<const T> values);

  /// Reduces one value per rank to `root` with associative `op`
  /// (binomial-tree reduction). Result is meaningful only at the root.
  template <typename T, typename Op>
    requires std::is_trivially_copyable_v<T>
  T reduce(const T& value, Op op, int root);

  /// Reduction whose result is available on every rank, by recursive
  /// doubling (log N rounds of pairwise exchange, no root bottleneck) on
  /// every transport and routing. Operands fold in ascending-rank order,
  /// so non-commutative ops are safe, and floating-point results are
  /// bit-identical across transports and QMPI_P2P settings.
  template <typename T, typename Op>
    requires std::is_trivially_copyable_v<T>
  T allreduce(const T& value, Op op);

  /// Inclusive prefix reduction: rank i receives op(v_0, ..., v_i).
  template <typename T, typename Op>
    requires std::is_trivially_copyable_v<T>
  T scan(const T& value, Op op);

  /// Exclusive prefix reduction: rank i receives op(v_0, ..., v_{i-1});
  /// rank 0 receives `identity`. This is the classical MPI_Exscan the paper
  /// uses to compute cat-state fix-ups (Section 7.1).
  template <typename T, typename Op>
    requires std::is_trivially_copyable_v<T>
  T exscan(const T& value, Op op, T identity);

  // ----------------------------------------------- communicator algebra ---

  /// Duplicates this communicator with a fresh context (collective).
  Comm dup();

  /// Splits into disjoint sub-communicators by `color`, ordered by
  /// (key, rank) (collective). Negative color yields an invalid Comm that
  /// must not be used (mirrors MPI_COMM_NULL from MPI_UNDEFINED).
  Comm split(int color, int key);

  /// True for default-constructed / MPI_COMM_NULL-like handles.
  bool is_null() const { return transport_ == nullptr; }

  Comm() = default;

 private:
  Comm(Transport* transport, std::uint64_t context, std::vector<int> members,
       int rank)
      : transport_(transport),
        context_(context),
        members_(std::move(members)),
        rank_(rank) {}

  void check_rank(int rank) const {
    if (rank < 0 || rank >= size()) throw InvalidRankError(rank, size());
  }

  int world_rank_of(int comm_rank) const {
    return members_[static_cast<std::size_t>(comm_rank)];
  }

  /// Posts an internal collective-channel message to `dest`.
  void coll_send_bytes(std::span<const std::byte> bytes, int dest, int tag);
  /// Blocking receive on the collective channel (no wildcards).
  Message coll_recv_message(int source, int tag);

  template <typename T>
  void coll_send(const T& value, int dest, int tag) {
    const auto bytes = to_bytes(value);
    coll_send_bytes(bytes, dest, tag);
  }
  template <typename T>
  void coll_send(std::span<const T> values, int dest, int tag) {
    const auto bytes = to_bytes(values);
    coll_send_bytes(bytes, dest, tag);
  }
  template <typename T>
  T coll_recv(int source, int tag) {
    Message msg = coll_recv_message(source, tag);
    if (msg.payload.size() != sizeof(T)) {
      throw TruncationError(sizeof(T), msg.payload.size());
    }
    return from_bytes<T>(msg.payload);
  }
  template <typename T>
  std::vector<T> coll_recv_vector(int source, int tag) {
    Message msg = coll_recv_message(source, tag);
    if (msg.payload.size() % sizeof(T) != 0) {
      throw TruncationError(sizeof(T), msg.payload.size());
    }
    std::vector<T> out(msg.payload.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), msg.payload.data(), msg.payload.size());
    }
    return out;
  }

  /// Returns the base tag for the next collective on this communicator. All
  /// ranks enter collectives in the same order (an MPI correctness
  /// requirement), so a per-handle counter stays consistent across ranks.
  /// Each collective owns a block of kTagsPerCollective tags so multi-round
  /// algorithms (scan, barrier) can use distinct per-round tags without
  /// colliding with the next collective's traffic.
  static constexpr int kTagsPerCollective = 64;
  int next_collective_tag() {
    const int t = collective_seq_;
    collective_seq_ += kTagsPerCollective;
    return t;
  }

  Transport* transport_ = nullptr;
  std::uint64_t context_ = 0;
  std::vector<int> members_;  ///< comm rank -> world rank
  int rank_ = -1;
  int collective_seq_ = 0;
};

// ------------------------------------------------------------------------
// Template implementations
// ------------------------------------------------------------------------

template <typename T>
  requires std::is_trivially_copyable_v<T>
T Comm::bcast(T value, int root) {
  bcast(std::span<T>(&value, 1), root);
  return value;
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
void Comm::bcast(std::span<T> buffer, int root) {
  check_rank(root);
  const int tag = next_collective_tag();
  // Binomial tree rooted at `root`: relative rank r receives from
  // r - 2^k (highest set bit) and forwards to r + 2^k for growing k.
  const int n = size();
  const int rel = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int src = (rel - mask + root) % n;
      Message msg = coll_recv_message(src, tag);
      if (msg.payload.size() != buffer.size_bytes()) {
        throw TruncationError(buffer.size_bytes(), msg.payload.size());
      }
      if (!buffer.empty()) {
        std::memcpy(buffer.data(), msg.payload.data(), msg.payload.size());
      }
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < n && (rel & (mask - 1)) == 0 && !(rel & mask)) {
      const int dst = (rel + mask + root) % n;
      coll_send(std::span<const T>(buffer), dst, tag);
    }
    mask >>= 1;
  }
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<T> Comm::gather(const T& value, int root) {
  check_rank(root);
  const int tag = next_collective_tag();
  if (rank() == root) {
    std::vector<T> out(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(rank())] = value;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = coll_recv<T>(r, tag);
    }
    return out;
  }
  coll_send(value, root, tag);
  return {};
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<std::vector<T>> Comm::gatherv(std::span<const T> values,
                                          int root) {
  check_rank(root);
  const int tag = next_collective_tag();
  if (rank() == root) {
    std::vector<std::vector<T>> out(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(rank())].assign(values.begin(), values.end());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = coll_recv_vector<T>(r, tag);
    }
    return out;
  }
  coll_send(values, root, tag);
  return {};
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
T Comm::scatter(std::span<const T> values, int root) {
  check_rank(root);
  const int tag = next_collective_tag();
  if (rank() == root) {
    if (values.size() != static_cast<std::size_t>(size())) {
      throw CollectiveMismatchError("scatter root buffer size != comm size");
    }
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      coll_send(values[static_cast<std::size_t>(r)], r, tag);
    }
    return values[static_cast<std::size_t>(root)];
  }
  return coll_recv<T>(root, tag);
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<T> Comm::allgather(const T& value) {
  const int n = size();
  // Ring allgather: step k sends block (rank - k) to the right neighbor
  // and receives block (rank - k - 1) from the left one, so each block
  // travels one hop per step and no rank ever carries more than two
  // messages at once. Sends are eager (never block), which makes the ring
  // deadlock-free; a single tag suffices because per-source FIFO delivery
  // keeps the N-1 messages from `prev` in step order. Every rank runs this
  // one schedule whatever its routing, so processes that disagree on
  // QMPI_P2P still match message for message.
  const int tag = next_collective_tag();
  const int next = (rank() + 1) % n;
  const int prev = (rank() - 1 + n) % n;
  std::vector<T> out(static_cast<std::size_t>(n));
  out[static_cast<std::size_t>(rank())] = value;
  for (int k = 0; k < n - 1; ++k) {
    const auto send_idx = static_cast<std::size_t>((rank() - k + n) % n);
    const auto recv_idx = static_cast<std::size_t>((rank() - k - 1 + n) % n);
    coll_send(out[send_idx], next, tag);
    out[recv_idx] = coll_recv<T>(prev, tag);
  }
  return out;
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<T> Comm::alltoall(std::span<const T> values) {
  if (values.size() != static_cast<std::size_t>(size())) {
    throw CollectiveMismatchError("alltoall buffer size != comm size");
  }
  const int tag = next_collective_tag();
  std::vector<T> out(static_cast<std::size_t>(size()));
  out[static_cast<std::size_t>(rank())] =
      values[static_cast<std::size_t>(rank())];
  // Pairwise exchange: in round k, exchange with rank ^ k when that is a
  // valid member (power-of-two friendly; falls back to send-all otherwise).
  for (int r = 0; r < size(); ++r) {
    if (r == rank()) continue;
    coll_send(values[static_cast<std::size_t>(r)], r, tag);
  }
  for (int r = 0; r < size(); ++r) {
    if (r == rank()) continue;
    out[static_cast<std::size_t>(r)] = coll_recv<T>(r, tag);
  }
  return out;
}

template <typename T, typename Op>
  requires std::is_trivially_copyable_v<T>
T Comm::reduce(const T& value, Op op, int root) {
  check_rank(root);
  const int tag = next_collective_tag();
  // Binomial tree: children fold into parents. Combine order is fixed
  // (child op parent) so non-commutative-but-associative ops still see a
  // deterministic order.
  const int n = size();
  const int rel = (rank() - root + n) % n;
  T acc = value;
  int mask = 1;
  while (mask < n) {
    if ((rel & mask) == 0) {
      const int child = rel + mask;
      if (child < n) {
        const int src = (child + root) % n;
        T other = coll_recv<T>(src, tag);
        acc = op(acc, other);
      }
    } else {
      const int dst = (rel - mask + root) % n;
      coll_send(acc, dst, tag);
      break;
    }
    mask <<= 1;
  }
  return rank() == root ? acc : T{};
}

template <typename T, typename Op>
  requires std::is_trivially_copyable_v<T>
T Comm::allreduce(const T& value, Op op) {
  const int n = size();
  // Recursive doubling: round k exchanges partial results with the rank
  // whose k-th address bit differs, halving the remaining distance each
  // round. Both sides fold lower-rank-group op higher-rank-group; for
  // power-of-two worlds that is exactly the balanced association the
  // binomial reduce above uses, so allreduce and reduce agree bit for bit
  // even for floating-point ops.
  //
  // Other sizes use the classic remainder handling: with n = pof2 + rem,
  // the first 2*rem ranks pre-fold pairwise (odd rank into the even rank
  // below it) so exactly pof2 survivors run the doubling rounds, and the
  // folded-out odd ranks receive the total afterwards. The fold order is
  // fixed for a given world size and is the same under every routing, so
  // results are reproducible run to run and across QMPI_P2P settings.
  const int tag = next_collective_tag();
  const int pof2 = static_cast<int>(std::bit_floor(static_cast<unsigned>(n)));
  const int rem = n - pof2;
  T acc = value;
  int me = -1;  // this rank's index among the pof2 doubling participants
  if (rank() < 2 * rem) {
    if (rank() % 2 == 0) {
      T other = coll_recv<T>(rank() + 1, tag);
      acc = op(acc, other);
      me = rank() / 2;
    }  // odd: hand the value down, sit out the doubling rounds
    else {
      coll_send(acc, rank() - 1, tag);
    }
  } else {
    me = rank() - rem;
  }
  if (me >= 0) {
    // Participant index -> comm rank: the survivors of the pre-fold are
    // the even ranks below 2*rem followed by everything from 2*rem up.
    const auto participant_rank = [rem](int q) {
      return q < rem ? 2 * q : q + rem;
    };
    int round = 1;
    for (int dist = 1; dist < pof2; dist <<= 1, ++round) {
      const int peer = me ^ dist;
      const int partner = participant_rank(peer);
      coll_send(acc, partner, tag + round);
      T other = coll_recv<T>(partner, tag + round);
      acc = me < peer ? op(acc, other) : op(other, acc);
    }
  }
  if (rank() < 2 * rem) {
    if (rank() % 2 == 0) {
      coll_send(acc, rank() + 1, tag + kTagsPerCollective - 1);
    } else {
      acc = coll_recv<T>(rank() - 1, tag + kTagsPerCollective - 1);
    }
  }
  return acc;
}

template <typename T, typename Op>
  requires std::is_trivially_copyable_v<T>
T Comm::scan(const T& value, Op op) {
  // Hillis-Steele style log-round inclusive scan (Sanders & Träff's
  // doubling schedule): in round k, receive from rank - 2^k and fold.
  const int tag = next_collective_tag();
  T acc = value;
  int round = 0;
  for (int dist = 1; dist < size(); dist <<= 1, ++round) {
    T incoming{};
    const bool recv_from_left = rank() - dist >= 0;
    const bool send_to_right = rank() + dist < size();
    // Sends never block (eager transport), so post send before recv.
    if (send_to_right) coll_send(acc, rank() + dist, tag + round);
    if (recv_from_left) {
      incoming = coll_recv<T>(rank() - dist, tag + round);
      acc = op(incoming, acc);
    }
  }
  return acc;
}

template <typename T, typename Op>
  requires std::is_trivially_copyable_v<T>
T Comm::exscan(const T& value, Op op, T identity) {
  // Inclusive scan shifted right by one rank.
  const int tag = next_collective_tag();
  T inclusive = scan(value, op);
  if (rank() + 1 < size()) coll_send(inclusive, rank() + 1, tag);
  if (rank() == 0) return identity;
  return coll_recv<T>(rank() - 1, tag);
}

}  // namespace qmpi::classical
