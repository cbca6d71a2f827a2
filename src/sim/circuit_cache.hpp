#pragma once

/// \file circuit_cache.hpp
/// Compiled-cluster cache: cluster fusion's per-block instruction streams
/// keyed by the exact circuit content of the cluster, so repeated Trotter
/// steps (and repeated user jobs on a multi-tenant service) replay a
/// previously compiled program instead of re-running compile_block_op.
/// See docs/ARCHITECTURE.md §9.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"

namespace qmpi::sim {

/// Default entry cap when the cache is enabled without an explicit size
/// (QMPI_CIRCUIT_CACHE=on). One entry is at most kMaxFusedOps * 2 BlockOps
/// (~2 KiB), so the default caps the cache near half a megabyte.
inline constexpr std::size_t kDefaultCircuitCacheEntries = 256;
/// Largest explicit QMPI_CIRCUIT_CACHE=<n> entry cap accepted.
inline constexpr std::size_t kMaxCircuitCacheEntries = 1u << 24;

/// Content key of one fused cluster: the byte image of everything
/// compile_block_op's output depends on — qubit count (which fixes the
/// block size) and, per op, the block-local target, the block-local
/// control mask, and the bit patterns of the four matrix entries. The gate
/// *name* is deliberately excluded: two differently named gates with the
/// same matrix compile identically, so keying on content raises the hit
/// rate without risking a wrong replay. Bit patterns (not ==) keep the key
/// exact: -0.0 and 0.0 hash differently, which can only split entries,
/// never alias two clusters that compile differently.
struct ClusterKey {
  std::vector<std::uint64_t> words;
  std::uint64_t hash = 0;
  bool operator==(const ClusterKey& other) const {
    return hash == other.hash && words == other.words;
  }
};

/// Builds the content key for `cluster` (see ClusterKey).
ClusterKey make_cluster_key(const GateCluster& cluster);

/// Thread-safe LRU cache of compiled cluster programs, shared by any
/// number of backends (the job service hands one instance to every
/// session's backend — compilation is a pure function of the key, so
/// cross-session sharing can leak timing at most, never amplitudes).
/// Values are shared_ptr so an entry evicted mid-replay stays alive until
/// the sweep that borrowed it finishes.
class ClusterCache {
 public:
  /// `capacity` is the entry cap (>= 1); least-recently-used entries are
  /// evicted beyond it.
  explicit ClusterCache(std::size_t capacity);

  ClusterCache(const ClusterCache&) = delete;
  ClusterCache& operator=(const ClusterCache&) = delete;

  using Program = std::shared_ptr<const std::vector<kernels::BlockOp>>;

  /// Returns the cached program for `key` (bumping its recency), or null.
  Program lookup(const ClusterKey& key);

  /// Inserts `program` under `key`, evicting the LRU entry when full.
  /// A concurrent insert of the same key keeps the existing entry (both
  /// compiles produced identical programs, so either is correct).
  void insert(const ClusterKey& key, Program program);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Counters for tests, the service stats surface, and the bench record.
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  struct Entry {
    ClusterKey key;
    Program program;
  };
  struct KeyHash {
    std::size_t operator()(const ClusterKey& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };

  std::size_t capacity_;
  /// Leaf lock of the service hierarchy (JobService::mu_ -> mu_ via the
  /// stats surface); nothing is acquired while it is held.
  mutable qmpi::Mutex mu_{"ClusterCache::mu"};
  std::list<Entry> lru_ QMPI_GUARDED_BY(mu_);  ///< front = most recently used
  std::unordered_map<ClusterKey, std::list<Entry>::iterator, KeyHash> index_
      QMPI_GUARDED_BY(mu_);
  std::uint64_t hits_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ QMPI_GUARDED_BY(mu_) = 0;
};

}  // namespace qmpi::sim
