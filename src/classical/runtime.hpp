#pragma once

#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "classical/comm.hpp"
#include "classical/transport.hpp"
#include "classical/universe.hpp"

namespace qmpi::classical {

/// Threads-as-ranks job harness.
///
/// `Runtime::run` plays the role of `mpirun -np n`: it spawns one thread
/// per locally hosted rank, hands each a world Comm, joins all threads, and
/// rethrows the first rank failure (after shutting the transport down so no
/// peer deadlocks waiting for the dead rank).
class Runtime {
 public:
  using RankFn = std::function<void(Comm&)>;

  /// Runs `fn` on `world_size` rank threads over a fresh Universe; blocks
  /// until all finish. Rethrows the first exception thrown by any rank.
  static void run(int world_size, const RankFn& fn) {
    Universe universe(world_size);
    run(universe, RankBlock{0, world_size}, fn);
  }

  /// Runs `fn` on one thread per rank of `ranks`, the block `transport`
  /// hosts in this process; blocks until all finish. A failing rank shuts
  /// the transport down with a reason naming it, which remote peers see.
  static void run(Transport& transport, RankBlock ranks, const RankFn& fn) {
    const auto count = static_cast<std::size_t>(ranks.count);
    std::vector<std::thread> threads;
    threads.reserve(count);
    std::vector<std::exception_ptr> errors(count);

    for (std::size_t i = 0; i < count; ++i) {
      const int rank = ranks.first + static_cast<int>(i);
      threads.emplace_back([&transport, &fn, &errors, i, rank]() {
        // On failure, fail fast: wake every rank blocked on this one.
        try {
          Comm comm = Comm::world(transport, rank);
          fn(comm);
        } catch (const std::exception& e) {
          errors[i] = std::current_exception();
          transport.shutdown("rank " + std::to_string(rank) +
                             " failed: " + e.what());
        } catch (...) {
          errors[i] = std::current_exception();
          transport.shutdown("rank " + std::to_string(rank) +
                             " failed with an unknown error");
        }
      });
    }
    for (auto& t : threads) t.join();
    // Prefer the root-cause exception: when one rank fails, peers blocked
    // in receives observe a secondary ShutdownError — rethrowing that
    // would mask the original error.
    std::exception_ptr first;
    std::exception_ptr first_shutdown;
    for (auto& e : errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const ShutdownError&) {
        if (!first_shutdown) first_shutdown = e;
      } catch (...) {
        if (!first) first = e;
      }
    }
    if (first) std::rethrow_exception(first);
    if (first_shutdown) std::rethrow_exception(first_shutdown);
  }
};

}  // namespace qmpi::classical
