#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/sync.hpp"
#include "sim/gates.hpp"

namespace qmpi::sim {

/// One amplitude-slab message between shard workers. `tag` is the global
/// operation tick it belongs to, so a late worker can never consume a slab
/// from the wrong sweep.
struct ShardMessage {
  unsigned source = 0;
  std::uint64_t tag = 0;
  std::vector<Complex> amplitudes;
};

/// Contiguous block of slices a rank owns when `active` slices are split
/// across `world` ranks: blocks differ by at most one, earlier ranks take
/// the remainder (same shape as classical::rank_block, duplicated here so
/// the sim layer stays free of transport headers). With `active < world`
/// the trailing ranks own an empty range — they still replay the op stream
/// (ticks, RNG) but move no amplitudes.
inline std::pair<unsigned, unsigned> slice_block(unsigned world,
                                                 unsigned rank,
                                                 unsigned active) {
  const unsigned base = active / world;
  const unsigned rem = active % world;
  const unsigned begin = rank * base + std::min(rank, rem);
  return {begin, begin + base + (rank < rem ? 1U : 0U)};
}

/// Inverse of slice_block: the rank that owns `slice` out of `active`.
inline unsigned slice_owner(unsigned world, unsigned active, unsigned slice) {
  const unsigned base = active / world;
  const unsigned rem = active % world;
  const unsigned fat = rem * (base + 1);  // slices held by the wider ranks
  if (slice < fat) return slice / (base + 1);
  return rem + (slice - fat) / base;
}

/// Exchange seam between the sharded state vector and whatever fabric moves
/// amplitude slabs — the scaleout-provider shape: one interface, an in-box
/// (in-process ShardMesh) implementation and an out-of-box (cross-rank peer
/// channel) implementation.
///
/// The pairwise surface (post/take) carries the slab exchange of relabel
/// swaps, the only pairwise traffic: post is eager and addressed to a
/// *slice* (the provider routes it to that slice's owning rank for the
/// given active count); take blocks until the matching (dest, source, tag)
/// slab arrives.
///
/// The collective surface exists for world > 1. allgather_partials()
/// swaps the per-chunk partial sums of a reduction: each rank sums the
/// fixed-size chunks that lie in its resident slices, and every rank adds
/// all partials in chunk order, the serial combine, so every rank gets the
/// serial value without a root or a gather. publish() hands a resident
/// slice to every other rank and take_published() collects one, which is
/// how operations that read across slice blocks (snapshots, amplitudes,
/// expectations, single-chunk reductions) materialize a full replica.
///
/// fail() wakes every blocked take with a SimulatorError so a dead peer
/// surfaces as a typed error instead of a hang.
class ExchangeProvider {
 public:
  virtual ~ExchangeProvider() = default;

  /// Number of ranks slices are partitioned across (1 = in-process).
  virtual unsigned world() const = 0;
  /// This rank's index in [0, world()).
  virtual unsigned rank() const = 0;

  /// Deposits `msg` for slice `dest` (owned by slice_owner(world, active,
  /// dest)) and returns without blocking.
  virtual void post(unsigned dest, unsigned active, ShardMessage msg) = 0;

  /// Blocks until a message for slice `dest` from slice `source` with `tag`
  /// is available and removes it. `dest` must be resident on this rank.
  virtual ShardMessage take(unsigned dest, unsigned source,
                            std::uint64_t tag) = 0;

  /// Sends resident slice `slice`'s amplitudes to every other rank.
  virtual void publish(unsigned slice, std::uint64_t tag,
                       std::span<const Complex> amps) = 0;

  /// Blocks until the owner's publish() of `slice` under `tag` arrives.
  virtual std::vector<Complex> take_published(unsigned slice,
                                              std::uint64_t tag) = 0;

  /// Sends this rank's reduction partials `mine` under `tag` to every
  /// other rank and blocks until theirs arrive; returns every rank's
  /// partials indexed by rank (entry rank() is `mine`).
  virtual std::vector<std::vector<double>> allgather_partials(
      std::uint64_t tag, std::vector<double> mine) = 0;

  /// Wakes all blocked take()/take_published()/allgather_partials()
  /// waiters with a SimulatorError carrying `reason`.
  virtual void fail(const std::string& reason) = 0;
};

/// In-process message fabric between shard workers, modeled on the rank
/// mailboxes in classical/mailbox.hpp: one inbox per shard, FIFO per
/// (source, tag), blocking matched receive. This is the in-box stand-in for
/// the cross-rank exchange a multi-rank sharded simulator performs when a
/// global qubit is swapped local — each shard posts the slab its partner
/// needs, then takes the partner's slab into the vacated slots.
///
/// post() never blocks (eager, buffered, like classical::Comm::send_bytes);
/// take() blocks until a matching message arrives. The sharded sweeps run
/// post-everything then take-everything phases, so takes cannot deadlock
/// regardless of how the ThreadPool schedules shard work onto lanes.
class ShardMesh final : public ExchangeProvider {
 public:
  explicit ShardMesh(unsigned shards);

  unsigned shards() const { return shards_; }

  unsigned world() const override { return 1; }
  unsigned rank() const override { return 0; }

  void post(unsigned dest, unsigned active, ShardMessage msg) override;
  ShardMessage take(unsigned dest, unsigned source,
                    std::uint64_t tag) override;

  /// At world 1 every slice is already resident: the collective surface
  /// degenerates to no-ops (publish; allgather_partials returns `mine`
  /// alone) and programming errors (take_published).
  void publish(unsigned slice, std::uint64_t tag,
               std::span<const Complex> amps) override;
  std::vector<Complex> take_published(unsigned slice,
                                      std::uint64_t tag) override;
  std::vector<std::vector<double>> allgather_partials(
      std::uint64_t tag, std::vector<double> mine) override;

  void fail(const std::string& reason) override;

 private:
  /// Per-shard inbox. Kept behind unique_ptr so the mesh stays movable
  /// (mutexes are not).
  struct Inbox {
    qmpi::Mutex mutex{"ShardMesh::Inbox::mutex"};
    qmpi::CondVar cv;
    std::deque<ShardMessage> queue QMPI_GUARDED_BY(mutex);
  };

  Inbox& inbox(unsigned shard);

  unsigned shards_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  /// Checked by a taker while its inbox mutex is held (Inbox::mutex is
  /// QMPI_ACQUIRED_BEFORE fail_mu_); fail() itself takes the two in
  /// separate scopes.
  qmpi::Mutex fail_mu_{"ShardMesh::fail_mu"};
  std::string fail_reason_ QMPI_GUARDED_BY(fail_mu_);  ///< set once by fail()
};

}  // namespace qmpi::sim
