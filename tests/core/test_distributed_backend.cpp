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

#include <atomic>
#include <bit>
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

/// A two-rank exchange fabric in one process: the slab, publish and
/// consensus surfaces of the peer plane over shared maps, so two
/// ShardedStateVector replicas on two threads behave like the replicas of
/// a two-process distributed job, and their white-box counters can be read.
class PairFabric {
 public:
  class Rank final : public sim::ExchangeProvider {
   public:
    Rank(PairFabric& f, unsigned rank) : f_(f), rank_(rank) {}
    unsigned world() const override { return 2; }
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
      f_.put(f_.published_, {1 - rank_, slice, tag},
             {amps.begin(), amps.end()});
    }
    std::vector<sim::Complex> take_published(unsigned slice,
                                             std::uint64_t tag) override {
      return f_.get(f_.published_, {rank_, slice, tag});
    }
    double scalar_consensus(std::uint64_t tag, double value) override {
      if (rank_ == 0) {
        f_.put(f_.scalars_, {0, 0, tag}, {sim::Complex(value, 0.0)});
        return value;
      }
      return f_.get(f_.scalars_, {0, 0, tag}).front().real();
    }
    void fail(const std::string&) override {}

   private:
    PairFabric& f_;
    unsigned rank_;
  };

 private:
  using Key = std::tuple<unsigned, unsigned, std::uint64_t>;
  using Store = std::map<Key, std::vector<sim::Complex>>;

  void put(Store& store, Key key, std::vector<sim::Complex> amps) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      store[key] = std::move(amps);
    }
    cv_.notify_all();
  }
  std::vector<sim::Complex> get(Store& store, Key key) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return store.contains(key); });
    auto node = store.extract(key);
    return std::move(node.mapped());
  }

  std::mutex mu_;
  std::condition_variable cv_;
  Store slabs_;      ///< (dest slice, source slice, tag)
  Store published_;  ///< (receiving rank, slice, tag)
  Store scalars_;    ///< (0, 0, tag)
};

}  // namespace

TEST(DistributedBackend, FreshQubitProbabilityAddsNoGather) {
  // Each replica writes only its resident slices on a local gate, so the
  // next whole-state reduction must gather. probability_one of a fresh
  // qubit needs no reduction at all: its answer (exactly 0.0) is known.
  PairFabric fabric;
  std::uint64_t fresh_gathers[2] = {};
  std::uint64_t reduce_gathers[2] = {};
  double p_fresh[2] = {};
  auto replica = [&](unsigned r) {
    PairFabric::Rank exchange(fabric, r);
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
