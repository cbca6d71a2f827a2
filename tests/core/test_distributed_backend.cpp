// Multi-process tests for the sim-channel quantum plane of tcp jobs. Every
// "process" is a thread owning the exact per-process stack a qmpirun-forked
// rank process runs — HubClient, SocketTransport, DistSimClient — so the
// suite exercises, hermetically in one binary, both replica sets:
//   - distributed: root-sequenced op fan-out, slab exchange, measurement
//     consensus, rank-death teardown, and both routing modes (peer mesh
//     and QMPI_P2P=off hub fallback);
//   - root-hosted (serial backend in rank 0's process): the batched op
//     pipeline (SimWireBatch), with process 1 driving every op across a
//     real process hop.
//
// Parity contract (the seeded-RNG contract of the distributed design):
// with rank-serialized measurement order, the same program on the same
// seed must record identical outcomes on the serial in-process backend and
// on distributed replicas at 1, 2, and 4 processes. The hub hosts no
// quantum ops; it counts (and fails the run on) any op frame that reaches
// it, so every run here also proves "the hub moved zero amplitudes"
// structurally.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "classical/comm.hpp"
#include "classical/error.hpp"
#include "classical/socket_transport.hpp"
#include "core/qmpi.hpp"
#include "core/sim_dist.hpp"
#include "sim/gates.hpp"
#include "sim/shard_exchange.hpp"
#include "sim/sharded_statevector.hpp"

using namespace qmpi;
using namespace qmpi::classical;

namespace {

/// Hub served on its own thread.
struct TestHub {
  explicit TestHub(int nprocs) : hub(nprocs, 0) {
    server = std::thread([this] { hub.serve(); });
  }
  ~TestHub() {
    hub.stop();
    server.join();
  }
  Hub hub;
  std::thread server;
};

constexpr std::uint64_t kSeed = 424242;

/// The shape of one threads-as-processes job.
struct JobShape {
  int nprocs = 2;
  int num_ranks = 2;
  bool p2p = true;
  sim::BackendKind backend = sim::BackendKind::kDistributed;
  std::size_t batch_ops = sim::kDefaultSimBatchOps;
  int runs = 1;  ///< back-to-back runs over the same hub connections
};

/// One process's part of a run, between its begin and end barriers. `sim`
/// is null in a process that hosts no rank.
using ProcessBody =
    std::function<void(int proc, HubClient& client, SocketTransport& transport,
                       const std::shared_ptr<DistSimClient>& sim)>;

/// Runs `body` in shape.nprocs "processes" for shape.runs runs, and
/// returns the number of quantum-op frames that reached the hub (always
/// expected to be 0). A body that throws fails its run everywhere, as the
/// job harness does, and ends its process; the first process error is
/// rethrown.
std::uint64_t run_processes(const JobShape& shape, const ProcessBody& body) {
  TestHub th(shape.nprocs);
  const bool distributed = shape.backend == sim::BackendKind::kDistributed;
  const int sim_world = std::min(shape.nprocs, shape.num_ranks);
  const unsigned shards =
      distributed ? std::bit_ceil(static_cast<unsigned>(sim_world)) : 1;
  std::vector<std::thread> procs;
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(shape.nprocs));
  for (int p = 0; p < shape.nprocs; ++p) {
    procs.emplace_back([&, p] {
      try {
        HubClient client("127.0.0.1", th.hub.port(), p);
        for (int run = 0; run < shape.runs; ++run) {
          SocketTransport transport(client, shape.num_ranks, shape.p2p);
          std::shared_ptr<DistSimClient> sim;
          if (p < sim_world) {
            sim = std::make_shared<DistSimClient>(
                transport, shape.num_ranks, sim_world, p, shape.backend,
                shards, kSeed, /*sim_threads=*/1, shape.batch_ops);
          }
          RunConfig cfg;
          cfg.num_ranks = static_cast<std::uint32_t>(shape.num_ranks);
          cfg.seed = kSeed;
          cfg.backend = static_cast<std::uint8_t>(shape.backend);
          cfg.num_shards = shards;
          cfg.sim_threads = 1;
          client.begin_run(cfg);
          try {
            body(p, client, transport, sim);
          } catch (const std::exception& e) {
            transport.shutdown(e.what());
            throw;
          }
          client.end_run({});
        }
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
      }
    });
  }
  for (auto& t : procs) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return th.hub.retired_quantum_frames();
}

/// Runs `rank_fn` on every rank of a job, one thread per rank inside each
/// process, with the tcp job harness's run-end fence and barrier. Rethrows
/// the job's root-cause error the way the real tcp harness does: a
/// concrete rank failure wins over the secondary ShutdownErrors it causes,
/// and an all-secondary outcome becomes a QmpiError carrying the hub's
/// abort reason.
std::uint64_t run_distributed_job(
    const JobShape& shape, const std::function<void(Context&)>& rank_fn) {
  return run_processes(shape, [&](int, HubClient& client,
                                  SocketTransport& transport,
                                  const std::shared_ptr<DistSimClient>& sim) {
    const RankBlock block = transport.local_ranks();
    std::vector<std::thread> ranks;
    std::vector<std::exception_ptr> rank_errors(
        static_cast<std::size_t>(block.count));
    for (int i = 0; i < block.count; ++i) {
      ranks.emplace_back([&, i] {
        try {
          Comm world = Comm::world(transport, block.first + i);
          Context ctx(std::move(world), sim, nullptr);
          rank_fn(ctx);
          ctx.sim().fence();
          ctx.classical_comm().barrier();
        } catch (...) {
          rank_errors[static_cast<std::size_t>(i)] = std::current_exception();
          transport.shutdown("rank " + std::to_string(block.first + i) +
                             " failed");
        }
      });
    }
    for (auto& t : ranks) t.join();
    std::exception_ptr first;
    bool any_shutdown = false;
    for (auto& e : rank_errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const ShutdownError&) {
        any_shutdown = true;
      } catch (...) {
        if (!first) first = e;
      }
    }
    if (first) std::rethrow_exception(first);
    if (any_shutdown) {
      throw QmpiError("QMPI job aborted: " + client.dead_reason());
    }
  });
}

/// Runs `steps`, then opens `done` — also when a step fails the test early
/// or throws, so a "process" waiting on `done` can never hang.
void then_signal(std::promise<void>& done,
                 const std::function<void()>& steps) {
  try {
    steps();
  } catch (...) {
    done.set_value();
    throw;
  }
  done.set_value();
}

struct Observed {
  std::map<int, std::vector<int>> outcomes;  ///< measured bits, per rank
};

/// A 4-rank program crossing every distributed seam: local gate streams,
/// EPR establishment between neighbour ranks (slab exchange when the pair
/// spans processes), teleportation, and measurement + collapse + qubit
/// dealloc — with all RNG-consuming measurements serialized by rank via
/// barriers so the draw order (and thus every outcome) is deterministic
/// for a fixed seed on every backend and process count.
void parity_program(Context& ctx, Observed& obs, std::mutex& mu) {
  const int me = ctx.rank();
  const int n = ctx.size();
  std::vector<int> outs;

  QubitArray q = ctx.alloc_qmem(2);
  ctx.h(q[0]);
  ctx.rz(q[0], 0.3 * (me + 1));
  ctx.cnot(q[0], q[1]);
  ctx.ry(q[1], 0.15 * (me + 1));

  // Neighbour EPR ring: even ranks prepare toward the next rank. Both
  // halves measure equal bits (Bell pair), checked below cross-rank.
  QubitArray e = ctx.alloc_qmem(1);
  const int partner = me % 2 == 0 ? (me + 1) % n : (me + n - 1) % n;
  ctx.prepare_epr(e[0], partner, /*tag=*/7);

  // Rank-serialized measurement: one rank at a time consumes RNG draws.
  int epr_bit = -1;
  for (int r = 0; r < n; ++r) {
    if (r == me) {
      outs.push_back(ctx.measure(q[0]) ? 1 : 0);
      epr_bit = ctx.measure(e[0]) ? 1 : 0;
      outs.push_back(epr_bit);
      outs.push_back(ctx.measure(q[1]) ? 1 : 0);
    }
    ctx.barrier();
  }

  // Measurement consensus across the pair: both halves of an EPR pair
  // collapse to the same bit, even when the halves live in different
  // processes' replicas.
  ctx.classical_comm().send(epr_bit, partner, 21);
  const int partner_bit = ctx.classical_comm().recv<int>(partner, 21);
  EXPECT_EQ(partner_bit, epr_bit) << "rank " << me;

  ctx.free_qmem(e.data(), 1);
  ctx.free_qmem(q.data(), 2);

  const std::lock_guard<std::mutex> lock(mu);
  obs.outcomes[me] = std::move(outs);
}

Observed run_distributed_program(int nprocs, bool p2p,
                                 std::uint64_t* hub_ops = nullptr) {
  Observed obs;
  std::mutex mu;
  const std::uint64_t ops = run_distributed_job(
      {.nprocs = nprocs, .num_ranks = 4, .p2p = p2p},
      [&](Context& ctx) { parity_program(ctx, obs, mu); });
  if (hub_ops != nullptr) *hub_ops = ops;
  return obs;
}

Observed run_serial_reference() {
  Observed obs;
  std::mutex mu;
  JobOptions opts;
  opts.num_ranks = 4;
  opts.seed = kSeed;
  opts.backend = sim::BackendKind::kSerial;
  run(opts, [&](Context& ctx) { parity_program(ctx, obs, mu); });
  return obs;
}

}  // namespace

// ------------------------------------------------------ slice addressing ---

TEST(SliceAddressing, BlocksAreContiguousCompleteAndOwnerConsistent) {
  for (const unsigned world : {1u, 2u, 3u, 4u, 5u, 8u}) {
    for (const unsigned active : {1u, 2u, 4u, 8u, 16u}) {
      if (active < world) continue;  // fewer slices than owners never occurs
      unsigned covered = 0;
      for (unsigned r = 0; r < world; ++r) {
        const auto [begin, end] = sim::slice_block(world, r, active);
        EXPECT_EQ(begin, covered) << "world=" << world << " active=" << active;
        for (unsigned s = begin; s < end; ++s) {
          EXPECT_EQ(sim::slice_owner(world, active, s), r);
        }
        covered = end;
      }
      EXPECT_EQ(covered, active) << "world=" << world << " active=" << active;
    }
  }
}

TEST(SliceAddressing, SingleProcessOwnsEverySlice) {
  for (const unsigned active : {1u, 2u, 8u, 64u}) {
    const auto [begin, end] = sim::slice_block(1, 0, active);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, active);
  }
}

// ------------------------------------------------------ replica gathers ---

namespace {

/// An exchange fabric for `world` replicas in one process: the slab,
/// publish and partials surfaces of the peer plane over shared maps, so
/// ShardedStateVector replicas on threads behave like the replicas of a
/// distributed job, and their white-box counters can be read.
class ReplicaFabric {
 public:
  explicit ReplicaFabric(unsigned world) : world_(world) {}

  class Rank final : public sim::ExchangeProvider {
   public:
    Rank(ReplicaFabric& f, unsigned rank) : f_(f), rank_(rank) {}
    unsigned world() const override { return f_.world_; }
    unsigned rank() const override { return rank_; }
    void post(unsigned dest, unsigned, sim::ShardMessage msg) override {
      f_.put(f_.slabs_, {dest, msg.source, msg.tag},
             std::move(msg.amplitudes));
    }
    sim::ShardMessage take(unsigned dest, unsigned source,
                           std::uint64_t tag) override {
      return {source, tag, f_.get(f_.slabs_, {dest, source, tag})};
    }
    void publish(unsigned slice, std::uint64_t tag,
                 std::span<const sim::Complex> amps) override {
      for (unsigned r = 0; r < f_.world_; ++r) {
        if (r != rank_) {
          f_.put(f_.published_, {r, slice, tag}, {amps.begin(), amps.end()});
        }
      }
    }
    std::vector<sim::Complex> take_published(unsigned slice,
                                             std::uint64_t tag) override {
      return f_.get(f_.published_, {rank_, slice, tag});
    }
    std::vector<std::vector<double>> allgather_partials(
        std::uint64_t tag, std::vector<double> mine) override {
      for (unsigned r = 0; r < f_.world_; ++r) {
        if (r != rank_) f_.put(f_.partials_, {r, rank_, tag}, mine);
      }
      std::vector<std::vector<double>> all(f_.world_);
      for (unsigned r = 0; r < f_.world_; ++r) {
        all[r] = r == rank_ ? mine : f_.get(f_.partials_, {rank_, r, tag});
      }
      return all;
    }
    void fail(const std::string& reason) override { f_.fail(reason); }

   private:
    ReplicaFabric& f_;
    unsigned rank_;
  };

 private:
  using Key = std::tuple<unsigned, unsigned, std::uint64_t>;
  template <typename T>
  using Store = std::map<Key, std::vector<T>>;

  template <typename T>
  void put(Store<T>& store, Key key, std::vector<T> values) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      store[key] = std::move(values);
    }
    cv_.notify_all();
  }
  template <typename T>
  std::vector<T> get(Store<T>& store, Key key) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return store.contains(key) || !failed_.empty(); });
    if (!store.contains(key)) throw sim::SimulatorError(failed_);
    auto node = store.extract(key);
    return std::move(node.mapped());
  }
  void fail(const std::string& reason) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (failed_.empty()) failed_ = reason;
    }
    cv_.notify_all();
  }

  unsigned world_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string failed_;
  Store<sim::Complex> slabs_;      ///< (dest slice, source slice, tag)
  Store<sim::Complex> published_;  ///< (receiving rank, slice, tag)
  Store<double> partials_;         ///< (receiving rank, sending rank, tag)
};

/// Runs `program(sv, rank)` on `world` replicas of one distributed
/// `shards`-slice register, one thread each. A replica that throws fails
/// the fabric, so the others wake instead of waiting for it.
void run_replicas(
    unsigned world, unsigned shards,
    const std::function<void(sim::ShardedStateVector&, unsigned)>& program) {
  ReplicaFabric fabric(world);
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      ReplicaFabric::Rank exchange(fabric, r);
      try {
        sim::ShardedStateVector sv(shards, kSeed, &exchange);
        program(sv, r);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "replica " << r << ": " << e.what();
        exchange.fail(e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// What one run of tfim_shaped saw.
struct TfimRecord {
  std::vector<double> probs;  ///< probabilities and norms, in program order
  std::vector<bool> bits;     ///< measurement outcomes, in program order
  std::uint64_t gathers = 0;  ///< replica gathers while all shards active
};

/// A TFIM-ring-shaped program on 18 spins, the shape of a distributed TFIM
/// job: H on every spin, CNOT-Rz-CNOT chains, EPR-style cycles that grow
/// the register by a Bell pair, couple it to the spins and measure it out
/// again, then probability_one, measure and free of every spin. `sharded`
/// (null on the serial backend) is `sv` itself, for its gather counter.
TfimRecord tfim_shaped(sim::Backend& sv,
                       const sim::ShardedStateVector* sharded) {
  constexpr std::size_t kSpins = 18;
  TfimRecord rec;
  const auto q = sv.allocate(kSpins);
  const std::uint64_t gathers = sharded ? sharded->materializations() : 0;
  for (const auto s : q) sv.h(s);
  for (int step = 0; step < 2; ++step) {
    for (std::size_t i = 0; i + 1 < kSpins; ++i) {
      sv.cnot(q[i], q[i + 1]);
      sv.rz(q[i + 1], 0.2 + 0.01 * static_cast<double>(i + step));
      sv.cnot(q[i], q[i + 1]);
    }
    for (const std::size_t edge : {kSpins / 2 - 1, kSpins - 1}) {
      const auto pair = sv.allocate(2);
      sv.h(pair[0]);
      sv.cnot(pair[0], pair[1]);
      sv.cnot(q[(edge + 1) % kSpins], pair[0]);
      const bool copied = sv.release(pair[0]);
      rec.bits.push_back(copied);
      if (copied) sv.x(pair[1]);
      sv.cnot(q[edge], pair[1]);
      sv.rz(pair[1], 0.3);
      sv.cnot(q[edge], pair[1]);
      sv.h(pair[1]);
      const bool phase = sv.release(pair[1]);
      rec.bits.push_back(phase);
      if (phase) sv.z(q[(edge + 1) % kSpins]);
    }
    for (const auto s : q) sv.rx(s, -0.25);
  }
  rec.probs.push_back(sv.norm());
  for (const auto s : q) rec.probs.push_back(sv.probability_one(s));
  rec.bits.push_back(sv.measure_parity(std::vector{q[2], q[11]}));
  for (const auto s : q) {
    const bool bit = sv.measure(s);
    rec.bits.push_back(bit);
    if (bit) sv.x(s);
  }
  // Free every spin; the last log2(shards) frees shrink the active slice
  // count, which still gathers.
  const std::size_t gbits =
      sharded ? static_cast<std::size_t>(
                    std::countr_zero(sharded->num_shards()))
              : 0;
  for (std::size_t i = 0; i < kSpins; ++i) {
    if (i + gbits == kSpins && sharded) {
      rec.gathers = sharded->materializations() - gathers;
    }
    sv.deallocate(q[i]);
  }
  return rec;
}

}  // namespace

TEST(DistributedBackend, FreshQubitProbabilityAddsNoGather) {
  // Each replica writes only its resident slices on a local gate, so the
  // next whole-state reduction must gather. probability_one of a fresh
  // qubit needs no reduction at all: its answer (exactly 0.0) is known.
  ReplicaFabric fabric(2);
  std::uint64_t fresh_gathers[2] = {};
  std::uint64_t reduce_gathers[2] = {};
  double p_fresh[2] = {};
  auto replica = [&](unsigned r) {
    ReplicaFabric::Rank exchange(fabric, r);
    sim::ShardedStateVector sv(2, kSeed, &exchange);
    const auto q = sv.allocate(4);
    sv.h(q[0]);
    sv.cnot(q[0], q[2]);
    const sim::QubitId fresh = sv.allocate(1).front();
    sv.rz(q[1], 0.3);
    sv.flush_gates();  // resident-only write: the replica is now stale
    std::uint64_t before = sv.materializations();
    p_fresh[r] = sv.probability_one(fresh);
    fresh_gathers[r] = sv.materializations() - before;
    before = sv.materializations();
    (void)sv.probability_one(q[2]);
    reduce_gathers[r] = sv.materializations() - before;
  };
  std::thread peer(replica, 1U);
  replica(0);
  peer.join();
  for (unsigned r = 0; r < 2; ++r) {
    EXPECT_EQ(p_fresh[r], 0.0) << "rank " << r;
    EXPECT_EQ(fresh_gathers[r], 0u) << "rank " << r;
    // The counter does see a real reduction's gather.
    EXPECT_EQ(reduce_gathers[r], 1u) << "rank " << r;
  }
}

TEST(DistributedBackend, TfimShapedJobMatchesSerialWithoutGathers) {
  // Once all shards are active, grows and frees stay on the resident
  // slices and reductions exchange chunk partials: no replica gather, and
  // every probability, norm and outcome equals the serial run's exactly.
  sim::StateVector serial(kSeed);
  const TfimRecord want = tfim_shaped(serial, nullptr);
  for (const auto& [world, shards] :
       {std::pair{2U, 2U}, std::pair{4U, 4U}, std::pair{2U, 4U}}) {
    std::vector<TfimRecord> got(world);
    run_replicas(world, shards,
                 [&](sim::ShardedStateVector& sv, unsigned r) {
                   got[r] = tfim_shaped(sv, &sv);
                 });
    for (unsigned r = 0; r < world; ++r) {
      const std::string where = "world " + std::to_string(world) + ", " +
                                std::to_string(shards) + " shards, rank " +
                                std::to_string(r);
      EXPECT_EQ(got[r].gathers, 0u) << where;
      EXPECT_EQ(got[r].probs, want.probs) << where;
      EXPECT_EQ(got[r].bits, want.bits) << where;
    }
  }
}

TEST(DistributedBackend, GlobalWindowBitTakesOneSwapInsteadOfAGather) {
  // 16 qubits on 2 slices: every local bit carries a logical position a
  // reduction chunk spans, so the relabel of H on the global qubit 15
  // evicts the least recently used one, logical 0. The next reduction's
  // chunks then span a global bit: it swaps that bit back local (moving
  // half a slice) rather than gathering the state.
  constexpr std::size_t kQubits = 16;
  const auto program = [](sim::Backend& sv) {
    const auto q = sv.allocate(kQubits);
    sv.h(q[0]);
    sv.flush_gates();
    for (std::size_t i = 1; i + 1 < kQubits; ++i) sv.ry(q[i], 0.1 * i);
    sv.flush_gates();
    sv.h(q[kQubits - 1]);
    sv.flush_gates();
    return q;
  };
  sim::StateVector serial(kSeed);
  const double want = serial.probability_one(program(serial)[3]);
  double got[2] = {};
  std::uint64_t swaps[2] = {};
  std::uint64_t gathers[2] = {};
  run_replicas(2, 2, [&](sim::ShardedStateVector& sv, unsigned r) {
    const auto q = program(sv);
    const std::uint64_t swaps0 = sv.relabel_swaps();
    const std::uint64_t gathers0 = sv.materializations();
    got[r] = sv.probability_one(q[3]);
    swaps[r] = sv.relabel_swaps() - swaps0;
    gathers[r] = sv.materializations() - gathers0;
  });
  for (unsigned r = 0; r < 2; ++r) {
    EXPECT_EQ(swaps[r], 1u) << "rank " << r;
    EXPECT_EQ(gathers[r], 0u) << "rank " << r;
    EXPECT_EQ(got[r], want) << "rank " << r;
  }
}

TEST(DistributedBackend, SingleChunkReductionGathersOnce) {
  // A 12-qubit reduction is one chunk: its sum cannot be split across
  // ranks without re-associating it, so the replica gathers, once, and
  // stays fresh for the next reduction.
  constexpr std::size_t kQubits = 12;
  const auto program = [](sim::Backend& sv) {
    const auto q = sv.allocate(kQubits);
    for (std::size_t i = 0; i < kQubits; ++i) sv.ry(q[i], 0.2 + 0.1 * i);
    for (std::size_t i = 0; i + 1 < kQubits; ++i) sv.cnot(q[i], q[i + 1]);
    sv.flush_gates();
    return q;
  };
  sim::StateVector serial(kSeed);
  const auto qs = program(serial);
  const double want[2] = {serial.probability_one(qs[4]),
                          serial.probability_one(qs[kQubits - 1])};
  for (const unsigned world : {2U, 4U}) {
    std::vector<std::array<double, 2>> got(world);
    std::vector<std::uint64_t> gathers(world);
    run_replicas(world, world, [&](sim::ShardedStateVector& sv, unsigned r) {
      const auto q = program(sv);
      const std::uint64_t gathers0 = sv.materializations();
      got[r] = {sv.probability_one(q[4]), sv.probability_one(q[kQubits - 1])};
      gathers[r] = sv.materializations() - gathers0;
    });
    for (unsigned r = 0; r < world; ++r) {
      EXPECT_EQ(gathers[r], 1u) << "world " << world << ", rank " << r;
      EXPECT_EQ(got[r][0], want[0]) << "world " << world << ", rank " << r;
      EXPECT_EQ(got[r][1], want[1]) << "world " << world << ", rank " << r;
    }
  }
}

TEST(DistributedBackend, OversizedBlocksGatherAndMatchSerial) {
  // The two routes that still gather across slices: a non-diagonal gate
  // while every bit is global (no local bit to swap its target into),
  // with and without controls, and a 4-qubit cluster on a register whose
  // slices hold only three local bits.
  const auto program = [](sim::Backend& sv, std::size_t gbits,
                          std::uint64_t* cluster_swaps,
                          std::uint64_t* cluster_gathers) {
    auto* sharded = dynamic_cast<sim::ShardedStateVector*>(&sv);
    auto q = sv.allocate(gbits);
    sv.set_fusion_enabled(false);  // every gate down the 1Q route
    for (std::size_t i = 0; i < gbits; ++i) {
      sv.ry(q[i], 0.4 + 0.3 * static_cast<double>(i));
      sv.rx(q[i], -0.2 - 0.1 * static_cast<double>(i));
    }
    sv.h(q[0]);
    sv.y(q[gbits - 1]);
    sv.cnot(q[0], q[gbits - 1]);
    const sim::QubitId ctrl[] = {q[gbits - 1]};
    sv.apply_controlled(sim::gate_rx(0.77), ctrl, q[0]);
    sv.set_fusion_enabled(true);
    const auto more = sv.allocate(3);
    q.insert(q.end(), more.begin(), more.end());
    for (std::size_t i = 0; i < q.size(); ++i) {
      sv.rz(q[i], 0.2 + 0.1 * static_cast<double>(i));
    }
    sv.flush_gates();
    const std::uint64_t swaps0 = sharded ? sharded->relabel_swaps() : 0;
    const std::uint64_t gathers0 = sharded ? sharded->materializations() : 0;
    sv.h(q[0]);
    sv.cnot(q[0], q[1]);
    sv.ry(q[1], 0.61);
    sv.cnot(q[1], q[2]);
    sv.toffoli(q[0], q[2], q[3]);
    sv.y(q[3]);
    sv.cnot(q[3], q[0]);
    sv.flush_gates();
    if (sharded) {
      *cluster_swaps = sharded->relabel_swaps() - swaps0;
      *cluster_gathers = sharded->materializations() - gathers0;
    }
    return sv.snapshot();
  };
  for (const unsigned shards : {4U, 8U}) {
    const auto gbits = static_cast<std::size_t>(std::countr_zero(shards));
    sim::StateVector serial(kSeed);
    const auto want = program(serial, gbits, nullptr, nullptr);
    for (const unsigned world : {2U, 4U}) {
      std::vector<std::vector<sim::Complex>> got(world);
      std::vector<std::uint64_t> swaps(world), gathers(world);
      run_replicas(world, shards,
                   [&](sim::ShardedStateVector& sv, unsigned r) {
                     got[r] = program(sv, gbits, &swaps[r], &gathers[r]);
                   });
      for (unsigned r = 0; r < world; ++r) {
        const std::string where = "shards " + std::to_string(shards) +
                                  ", world " + std::to_string(world) +
                                  ", rank " + std::to_string(r);
        EXPECT_EQ(swaps[r], 0u) << where;
        EXPECT_EQ(gathers[r], 1u) << where;
        EXPECT_EQ(got[r], want) << where;
      }
    }
  }
}

// ------------------------------------------------------------- parity ------

TEST(DistributedBackend, MeasurementOrderingMatchesSerialAcrossWorldSizes) {
  const Observed serial = run_serial_reference();
  ASSERT_EQ(serial.outcomes.size(), 4u);
  for (const int nprocs : {1, 2, 4}) {
    std::uint64_t hub_ops = ~0ull;
    const Observed dist = run_distributed_program(nprocs, /*p2p=*/true,
                                                  &hub_ops);
    EXPECT_EQ(hub_ops, 0u) << "nprocs=" << nprocs;
    EXPECT_EQ(dist.outcomes, serial.outcomes) << "nprocs=" << nprocs;
  }
}

TEST(DistributedBackend, HubFallbackRoutingMatchesPeerMesh) {
  // QMPI_P2P=off equivalent: no peer mesh, every sim-plane message rides
  // the hub's classical kPost/kDeliver path — and still, zero quantum ops
  // may reach the hub.
  const Observed serial = run_serial_reference();
  for (const int nprocs : {2, 4}) {
    std::uint64_t hub_ops = ~0ull;
    const Observed dist = run_distributed_program(nprocs, /*p2p=*/false,
                                                  &hub_ops);
    EXPECT_EQ(hub_ops, 0u) << "nprocs=" << nprocs;
    EXPECT_EQ(dist.outcomes, serial.outcomes) << "nprocs=" << nprocs;
  }
}

TEST(DistributedBackend, DynamicAllocationKeepsReplicasConverged) {
  // Grow and shrink the register across a slab-exchange boundary: repeated
  // alloc/entangle/measure/dealloc cycles force the sharded layout through
  // different active-slice counts while replicas must stay in lockstep.
  for (const int nprocs : {2, 4}) {
    const std::uint64_t hub_ops = run_distributed_job(
        {.nprocs = nprocs}, [](Context& ctx) {
          std::vector<int> bits;
          for (int round = 0; round < 3; ++round) {
            QubitArray q = ctx.alloc_qmem(3);
            ctx.h(q[0]);
            ctx.cnot(q[0], q[1]);
            ctx.cnot(q[1], q[2]);
            for (int r = 0; r < ctx.size(); ++r) {
              if (r == ctx.rank()) {
                const bool a = ctx.measure(q[0]);
                const bool b = ctx.measure(q[1]);
                const bool c = ctx.measure(q[2]);
                EXPECT_EQ(a, b);  // GHZ collapse: all bits agree
                EXPECT_EQ(b, c);
                bits.push_back(a ? 1 : 0);
              }
              ctx.barrier();
            }
            ctx.free_qmem(q.data(), 3);
          }
        });
    EXPECT_EQ(hub_ops, 0u);
  }
}

// ------------------------------------------------------------- failure -----

TEST(DistributedBackend, MidRunRankDeathSurfacesTypedErrorWithoutHanging) {
  // Rank 1 dies after the job is warmed up (entangled state, pending ops
  // on every replica). Every process must unwind with a typed error — the
  // root cause on the failing process, a QmpiError carrying the abort
  // reason elsewhere — and nobody may hang in a slab take or a fence.
  try {
    run_distributed_job({}, [](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(2);
      ctx.h(q[0]);
      ctx.cnot(q[0], q[1]);
      ctx.sim().fence();
      if (ctx.rank() == 1) {
        throw QmpiError("rank 1 gives up deliberately");
      }
      // The surviving rank blocks on a message the dead rank never sends;
      // teardown must convert this wait into ShutdownError, not a hang.
      (void)ctx.classical_comm().recv<int>(1, 33);
    });
    FAIL() << "job with a dead rank completed";
  } catch (const QmpiError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

TEST(DistributedBackend, DeadPeerDuringPartialsExchangeRaisesTypedError) {
  // Process 0 waits in a reduction's partials exchange for process 1,
  // which dies right after process 0's partials reach it. The abort must
  // reach the waiter through the transport's fail hook (DistSimClient
  // wires it to its provider's fail) as a SimulatorError carrying the
  // reason, never a hang.
  std::promise<void> peer_hooked;
  std::promise<void> partials_arrived;
  std::atomic<bool> arrived{false};
  std::string error;
  try {
    run_processes({}, [&](int proc, HubClient&, SocketTransport& transport,
                          const std::shared_ptr<DistSimClient>&) {
      if (proc == 1) {
        transport.set_sim_hooks(
            {[&](Message) {
               if (!arrived.exchange(true)) partials_arrived.set_value();
             },
             [] {}, [](const std::string&) {}});
        peer_hooked.set_value();
        (void)partials_arrived.get_future().wait_for(
            std::chrono::seconds(20));
        transport.set_sim_hooks({});
        throw QmpiError("process 1 dies before sending its partials");
      }
      PeerExchange exchange(transport, /*num_ranks=*/2, /*nprocs=*/2,
                            /*proc_id=*/0, /*num_shards=*/2);
      peer_hooked.get_future().wait();
      transport.set_sim_hooks(
          {[&](Message m) { exchange.deliver(std::move(m)); }, [] {},
           [&](const std::string& reason) { exchange.fail(reason); }});
      try {
        (void)exchange.allgather_partials(/*tag=*/1, {0.5});
      } catch (const sim::SimulatorError& e) {
        error = e.what();
      } catch (const std::exception& e) {
        error = std::string("untyped: ") + e.what();
      }
      transport.set_sim_hooks({});
    });
  } catch (const std::exception&) {
    // The job itself fails; what matters is how process 0's wait ended.
  }
  EXPECT_NE(error.find("shard exchange failed"), std::string::npos) << error;
  EXPECT_NE(error.find("process 1 dies"), std::string::npos) << error;
}

TEST(DistributedBackend, BackendErrorsKeepJobAliveAndAttributed) {
  // A rejected op (freeing an entangled qubit) must surface as a typed
  // simulator error on the offending rank while every replica stays
  // consistent — the job itself is torn down by the harness, but the
  // message must carry the backend's own diagnosis.
  try {
    run_distributed_job({}, [](Context& ctx) {
      if (ctx.rank() == 0) {
        QubitArray q = ctx.alloc_qmem(2);
        ctx.h(q[0]);
        ctx.cnot(q[0], q[1]);
        ctx.free_qmem(q.data(), 2);  // entangled: the backend must refuse
      }
      ctx.barrier();
    });
    FAIL() << "freeing an entangled qubit did not raise";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deallocating qubit"), std::string::npos) << what;
  }
}

TEST(DistributedBackend, BrokenStreamIsSkippedOnEveryReplica) {
  // Process 1 breaks its op stream, then applies X to a qubit process 0
  // holds. The X rides a later batch of the broken stream, so no replica
  // may run it: process 1 sees the error at its fence, and process 0's
  // replica still reads the qubit in |0>.
  std::promise<void> held;
  std::promise<void> broken;
  sim::QubitId shared = 0;
  const std::uint64_t hub_ops = run_processes(
      {}, [&](int proc, HubClient&, SocketTransport&,
              const std::shared_ptr<DistSimClient>& sim) {
        if (proc == 0) {
          then_signal(held, [&] {
            shared = sim->allocate(1)[0];
            sim->fence();
          });
          broken.get_future().wait();
          EXPECT_NEAR(sim->probability_one(shared), 0.0, 1e-12);
          return;
        }
        held.get_future().wait();
        then_signal(broken, [&] {
          sim->apply(sim::gate_x(), 999999);  // unknown qubit: breaks
          sim->flush();
          sim->apply(sim::gate_x(), shared);  // later batch: never runs
          try {
            sim->fence();
            FAIL() << "the broken stream must surface at the fence";
          } catch (const sim::SimulatorError& e) {
            EXPECT_NE(std::string(e.what()).find("unknown qubit id"),
                      std::string::npos)
                << e.what();
          }
        });
      });
  EXPECT_EQ(hub_ops, 0u);
}

// ------------------------------------------- root-hosted op pipeline -------
//
// The batched op pipeline on the serial backend hosted by rank 0's
// process. Process 1 drives every circuit, so each op crosses a real
// process hop; process 0 reads values back through its own op stream
// where a test needs to look at the backend directly.

namespace {

/// Process 1 drives, process 0 hosts the serial backend.
JobShape hosted_job(std::size_t batch_ops = sim::kDefaultSimBatchOps) {
  return {.backend = sim::BackendKind::kSerial, .batch_ops = batch_ops};
}

/// Applies a deterministic little circuit and returns everything a program
/// could observe about it (measurements, probabilities, expectations).
std::vector<double> drive_circuit(sim::SimClient& sim) {
  std::vector<double> observed;
  const auto q = sim.allocate(3);
  sim.apply(sim::gate_h(), q[0]);
  sim.cnot(q[0], q[1]);
  sim.apply(sim::gate_ry(0.3), q[2]);
  sim.cz(q[1], q[2]);
  sim.toffoli(q[0], q[1], q[2]);
  observed.push_back(sim.probability_one(q[2]));
  const std::vector<std::pair<sim::QubitId, char>> zz = {{q[0], 'Z'},
                                                         {q[1], 'Z'}};
  observed.push_back(sim.expectation(zz));
  observed.push_back(sim.measure(q[0]) ? 1.0 : 0.0);
  observed.push_back(sim.measure(q[1]) ? 1.0 : 0.0);
  observed.push_back(sim.measure_x(q[2]) ? 1.0 : 0.0);
  sim.apply(sim::gate_h(), q[2]);  // undo any X-basis residue deterministically
  observed.push_back(static_cast<double>(sim.num_qubits()));
  return observed;
}

}  // namespace

TEST(SimWireBatch, BatchedStreamIsObservablyIdenticalToUnbatched) {
  std::vector<std::vector<double>> results;
  // 0 = pre-batching RPC-per-op; 1 = flush after every op; defaults.
  for (const std::size_t batch_ops : {std::size_t{0}, std::size_t{1},
                                      sim::kDefaultSimBatchOps}) {
    // A fresh job per size: a fresh backend, identical RNG each round.
    const std::uint64_t hub_ops = run_processes(
        hosted_job(batch_ops),
        [&](int proc, HubClient&, SocketTransport&,
            const std::shared_ptr<DistSimClient>& sim) {
          if (proc != 1) return;
          results.push_back(drive_circuit(*sim));
          sim->fence();
          if (batch_ops > 0) EXPECT_GT(sim->batches_sent(), 0u);
        });
    EXPECT_EQ(hub_ops, 0u);
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(SimWireBatch, OversizedStreamSplitsIntoMultipleFramesInsteadOfFailing) {
  run_processes(hosted_job(sim::kMaxSimBatchOps),
                [](int proc, HubClient&, SocketTransport&,
                   const std::shared_ptr<DistSimClient>& sim) {
    if (proc != 1) return;
    // An op cap high enough that only the byte cap can trigger a flush:
    // the stream below encodes to several times kMaxSimBatchBytes, which
    // must split into multiple batch bodies well under the 64 MiB wire
    // cap — never one frame that trips it.
    const auto q = sim->allocate(1);
    const std::size_t kOps = 40000;  // ~80 bytes each: > 3 MiB encoded
    for (std::size_t i = 0; i < kOps; ++i) sim->apply(sim::gate_x(), q[0]);
    sim->fence();
    EXPECT_GE(sim->batches_sent(), 3u);
    EXPECT_EQ(sim->ops_batched(), kOps);
    // Even op count: the qubit must be back in |0> — i.e. every one of
    // the split batches actually executed, in order.
    EXPECT_NEAR(sim->probability_one(q[0]), 0.0, 1e-12);
  });
}

TEST(SimWireBatch, MidBatchErrorIsAttributedAndStopsTheRestOfTheBatch) {
  std::promise<void> failed;
  sim::QubitId watched = 0;
  run_processes(hosted_job(), [&](int proc, HubClient&, SocketTransport&,
                                  const std::shared_ptr<DistSimClient>& sim) {
    if (proc == 0) {
      // The batch stopped at op 2: op 3's X never ran, so the qubit is
      // still |0> (read through this process's own, healthy stream).
      failed.get_future().wait();
      EXPECT_NEAR(sim->probability_one(watched), 0.0, 1e-12);
      return;
    }
    then_signal(failed, [&] {
      const auto q = sim->allocate(2);
      watched = q[1];
      sim->apply(sim::gate_h(), q[0]);  // op 1: fine
      sim->cnot(999999, q[1]);          // op 2: unknown qubit id
      sim->apply(sim::gate_x(), q[1]);  // op 3: must never execute
      try {
        sim->fence();
        FAIL() << "mid-batch error must surface at the fence";
      } catch (const sim::SimulatorError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("batched op 2 of 3"), std::string::npos) << what;
        EXPECT_NE(what.find("unknown qubit id"), std::string::npos) << what;
      }
      // The stream is broken for the rest of the run: further requests
      // from this process report the root cause instead of executing.
      try {
        (void)sim->probability_one(q[1]);
        FAIL() << "requests behind a failed batch must report the failure";
      } catch (const sim::SimulatorError& e) {
        EXPECT_NE(std::string(e.what()).find("batched op 2 of 3"),
                  std::string::npos)
            << e.what();
      }
    });
  });
}

TEST(SimWireBatch, BatchesAfterAFailedBatchAreDroppedNotExecuted) {
  std::promise<void> failed;
  sim::QubitId watched = 0;
  // Two-op batches: the failure lands in batch 1; batch 2 is posted
  // before the error can possibly come back and must be dropped by the
  // root, or its ops would execute "after" the failure.
  run_processes(hosted_job(2), [&](int proc, HubClient&, SocketTransport&,
                                   const std::shared_ptr<DistSimClient>& sim) {
    if (proc == 0) {
      // Batch 2's X never ran: the qubit is still |0> at the backend.
      failed.get_future().wait();
      EXPECT_NEAR(sim->probability_one(watched), 0.0, 1e-12);
      return;
    }
    then_signal(failed, [&] {
      const auto q = sim->allocate(1);
      watched = q[0];
      sim->apply(sim::gate_h(), 555555);  // batch 1 op 1: unknown qubit
      sim->apply(sim::gate_h(), 555555);  // batch 1 op 2 (never reached)
      sim->apply(sim::gate_x(), q[0]);    // batch 2: must be dropped
      try {
        (void)sim->measure(q[0]);
        FAIL() << "the stream is broken; the measure must not execute";
      } catch (const sim::SimulatorError& e) {
        EXPECT_NE(std::string(e.what()).find("batched op 1 of 2"),
                  std::string::npos)
            << e.what();
      }
    });
  });
}

TEST(SimWireBatch, NextRunStartsWithACleanStream) {
  // A broken stream is scoped to its run: after the failed run ends and a
  // new one begins over the same connections (fresh backend), ops from
  // the same process execute normally again.
  JobShape shape = hosted_job();
  shape.runs = 2;
  int run = 0;  // counted by process 1 only
  run_processes(shape, [&](int proc, HubClient&, SocketTransport&,
                           const std::shared_ptr<DistSimClient>& sim) {
    if (proc != 1) return;
    if (run++ == 0) {
      sim->apply(sim::gate_x(), 777777);  // breaks the stream
      EXPECT_THROW(sim->fence(), sim::SimulatorError);
      return;
    }
    const auto q = sim->allocate(1);
    sim->apply(sim::gate_x(), q[0]);
    EXPECT_NO_THROW(sim->fence());
    EXPECT_NEAR(sim->probability_one(q[0]), 1.0, 1e-12);
  });
  EXPECT_EQ(run, 2);
}

TEST(SimWireBatch, ErrorSurfacesAtNextReplyOpNotJustAtFence) {
  run_processes(hosted_job(), [](int proc, HubClient&, SocketTransport&,
                                 const std::shared_ptr<DistSimClient>& sim) {
    if (proc != 1) return;
    const auto q = sim->allocate(1);
    sim->apply(sim::gate_x(), 424242);  // buffered; fails at the root
    // The next reply op both flushes the batch and, by the origin's FIFO
    // route to the root, is answered after the failure: the measurement
    // computed on broken state must never be returned.
    EXPECT_THROW((void)sim->measure(q[0]), sim::SimulatorError);
  });
}
