#pragma once

#include <memory>
#include <type_traits>
#include <utility>

#include "core/sync.hpp"
#include "sim/backend.hpp"

namespace qmpi::sim {

/// Serialized access to a shared simulation Backend. The paper's prototype
/// (§6) forwards every quantum operation to rank 0, where "a separate
/// thread ... waits to receive gate operations to execute". What that
/// design buys is one serialization point, not a thread, so it is modelled
/// here as a mutex-guarded monitor — the same serialization point rank 0's
/// process uses under tcp (DistSimClient::seq_mu): call() runs the closure
/// on the calling rank thread while holding SimServer::mutex. Backend calls never overlap, and
/// each sees every call that finished before it, so the global state stays
/// a faithful representation of the distributed machine at every step.
///
/// The hosted backend is chosen at construction: the serial StateVector
/// (the paper's rank-0 bottleneck) or the ShardedStateVector, whose
/// per-worker slices are the first step toward true multi-rank
/// distribution. Both produce bit-identical results, so callers never care
/// which one is behind the lock.
class SimServer {
 public:
  /// `num_threads` configures the backend's worker-lane count for its
  /// O(2^n) sweeps (see Backend::set_num_threads); the mutex still admits
  /// one operation at a time, so operations stay strictly ordered.
  /// `num_shards` is only meaningful for BackendKind::kSharded.
  explicit SimServer(std::uint64_t seed = kDefaultSeed,
                     unsigned num_threads = 1,
                     BackendKind backend = BackendKind::kSerial,
                     unsigned num_shards = 1)
      : state_(make_backend(backend, seed, num_shards)) {
    state_->set_num_threads(num_threads);
  }

  SimServer(const SimServer&) = delete;
  SimServer& operator=(const SimServer&) = delete;

  /// Runs `fn(state)` on the calling thread under the server mutex and
  /// returns its result; an exception from fn propagates to the caller
  /// and leaves the server serving.
  template <typename Fn>
  auto call(Fn&& fn) -> std::invoke_result_t<Fn, Backend&> {
    const qmpi::LockGuard lock(mutex_);
    return std::forward<Fn>(fn)(*state_);
  }

  /// Reconfigures the simulation lane count; serialized with gate traffic
  /// like any other call, so it never races an in-flight sweep.
  void set_num_threads(unsigned n) {
    call([n](Backend& sv) {
      sv.set_num_threads(n);
      return 0;
    });
  }

  /// Which backend implementation this server hosts ("serial"/"sharded").
  const char* backend_name() const { return state_->name(); }

 private:
  qmpi::Mutex mutex_{"SimServer::mutex"};
  /// The pointer is set once in the ctor; the Backend behind it is only
  /// touched inside call(), under mutex_.
  const std::unique_ptr<Backend> state_;
};

}  // namespace qmpi::sim
