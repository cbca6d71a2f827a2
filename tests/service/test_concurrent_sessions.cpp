// Multi-tenant isolation contract of the qmpid job service: N sessions
// with distinct seeds running interleaved against ONE resident service
// produce outcomes bit-identical to the same circuit run alone — the
// measurement RNG, qubit namespace, and epoch of a session belong to that
// session only. Includes the forged-frame drop test: a kSvcBatch stamped
// with another session's (id, epoch) must be dropped on arrival, counted,
// and must not perturb the victim session's amplitudes — and the
// malformed-body test: a body that does not decode fails only the session
// that sent it, as a typed error, while other tenants run on untouched.
#include <gtest/gtest.h>

#include <barrier>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "classical/wire.hpp"
#include "core/qmpi.hpp"
#include "core/sim_wire.hpp"
#include "service/job_service.hpp"
#include "service/session_client.hpp"
#include "sim/gates.hpp"

namespace {

using qmpi::service::JobService;
using qmpi::service::ServiceConfig;
using qmpi::service::SessionClient;
using qmpi::service::SessionConfig;

constexpr int kQubits = 8;
constexpr int kRounds = 3;

/// Everything observable a session produced. Comparison is exact (==, not
/// near): the isolation claim is bit-identity, not statistical closeness.
struct Outcome {
  std::vector<double> probs;
  double expectation = 0.0;
  std::vector<bool> bits;

  bool operator==(const Outcome&) const = default;
};

/// A fixed entangling circuit whose rotation angles derive from `seed_mix`
/// so different sessions run *different* circuits (a cross-session leak
/// cannot cancel out), followed by no-collapse inspection and a full
/// measurement sweep that consumes the session's private RNG stream.
Outcome run_circuit(qmpi::sim::SimClient& sim, std::uint64_t seed_mix) {
  const std::vector<qmpi::sim::QubitId> q = sim.allocate(kQubits);
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kQubits; ++i) {
      sim.apply(qmpi::sim::gate_h(), q[static_cast<std::size_t>(i)]);
      const double theta =
          0.1 * static_cast<double>((seed_mix + static_cast<std::uint64_t>(
                                                    r * kQubits + i)) %
                                    97);
      sim.apply(qmpi::sim::gate_rz(theta), q[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i + 1 < kQubits; ++i) {
      sim.cnot(q[static_cast<std::size_t>(i)],
               q[static_cast<std::size_t>(i + 1)]);
    }
    sim.apply(qmpi::sim::gate_t(), q[0]);
  }
  Outcome out;
  out.probs.reserve(kQubits);
  for (int i = 0; i < kQubits; ++i) {
    out.probs.push_back(sim.probability_one(q[static_cast<std::size_t>(i)]));
  }
  const std::pair<qmpi::sim::QubitId, char> paulis[] = {{q[0], 'Z'},
                                                        {q[1], 'X'}};
  out.expectation = sim.expectation(paulis);
  out.bits.reserve(kQubits);
  for (int i = 0; i < kQubits; ++i) {
    out.bits.push_back(sim.measure(q[static_cast<std::size_t>(i)]));
  }
  sim.deallocate_classical(q);
  sim.flush();
  return out;
}

SessionConfig session_config(const JobService& service, std::uint64_t seed) {
  SessionConfig cfg;
  cfg.port = service.port();
  cfg.seed = seed;
  cfg.max_qubits = kQubits;
  // Small batches force genuine interleaving at the service: sessions take
  // turns at command granularity instead of shipping one giant batch each.
  cfg.max_batch_ops = 8;
  return cfg;
}

/// Bit-identity at `n` concurrent sessions: solo baselines first (one
/// session at a time), then all n interleaved through one service with
/// `executors` execution slots (0 = the default).
void expect_isolated(std::size_t n, unsigned executors = 0) {
  ServiceConfig cfg;
  cfg.max_sessions = n;
  cfg.executors = executors;
  JobService service(cfg);
  service.start();

  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = 0x5EED0000 + 17 * i;

  std::vector<Outcome> solo(n);
  for (std::size_t i = 0; i < n; ++i) {
    SessionClient session(session_config(service, seeds[i]));
    solo[i] = run_circuit(session, seeds[i]);
    session.close();
  }

  std::vector<Outcome> concurrent(n);
  std::barrier gate(static_cast<std::ptrdiff_t>(n));
  std::vector<std::thread> tenants;
  tenants.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tenants.emplace_back([&, i] {
      SessionClient session(session_config(service, seeds[i]));
      gate.arrive_and_wait();  // all sessions in flight before any op runs
      concurrent[i] = run_circuit(session, seeds[i]);
      session.close();
    });
  }
  for (auto& t : tenants) t.join();

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(concurrent[i], solo[i]) << "session " << i << " of " << n;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.admitted, 2 * n);  // n solo + n concurrent
  EXPECT_EQ(stats.forged_dropped, 0u);
  // Session erasure after a clean close is asynchronous (the reader sees
  // EOF after the kSvcClosed reply), so poll the slot release.
  bool drained = false;
  for (int i = 0; i < 500 && !drained; ++i) {
    drained = service.stats().active_sessions == 0;
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(drained);
  service.stop();
}

TEST(ConcurrentSessions, TwoSessionsBitIdenticalToSolo) {
  expect_isolated(2);
}

TEST(ConcurrentSessions, FourSessionsBitIdenticalToSolo) {
  expect_isolated(4);
}

TEST(ConcurrentSessions, EightSessionsBitIdenticalToSolo) {
  expect_isolated(8);
}

TEST(ConcurrentSessions, EightSessionsOneSlotBitIdenticalToSolo) {
  expect_isolated(8, /*executors=*/1);
}

TEST(ConcurrentSessions, DistinctSeedsDrawDistinctMeasurementStreams) {
  // Sanity check that the isolation assertions above are not vacuous: two
  // sessions with different seeds over the SAME circuit structure see the
  // same probabilities but (with these seeds) different measured bits.
  JobService service{ServiceConfig{}};
  service.start();
  SessionClient a(session_config(service, 1));
  SessionClient b(session_config(service, 2));
  const Outcome oa = run_circuit(a, 7);
  const Outcome ob = run_circuit(b, 7);
  EXPECT_EQ(oa.probs, ob.probs);  // same circuit, same amplitudes
  EXPECT_NE(oa.bits, ob.bits);    // different private RNG streams
  service.stop();
}

TEST(ConcurrentSessions, ForgedCrossSessionFrameIsDroppedNotExecuted) {
  JobService service{ServiceConfig{}};
  service.start();

  const std::uint64_t victim_seed = 0xB0B;
  Outcome solo;
  {
    SessionClient victim(session_config(service, victim_seed));
    solo = run_circuit(victim, victim_seed);
    victim.close();
  }

  SessionClient attacker(session_config(service, 1));
  SessionClient victim(session_config(service, victim_seed));

  // A valid kBatch body carrying one X gate on the victim's first qubit:
  // if the service ever executed it, the victim's outcome below would
  // diverge from the solo baseline.
  const std::vector<qmpi::sim::QubitId> aq = attacker.allocate(1);
  qmpi::classical::WireWriter forged;
  forged.u8(static_cast<std::uint8_t>(qmpi::SimOp::kBatch));
  forged.u32(1);
  forged.u8(static_cast<std::uint8_t>(qmpi::SimOp::kApply1));
  forged.u64(1);  // the victim's first qubit id
  const qmpi::sim::Gate1Q x = qmpi::sim::gate_x();
  for (const auto& amp : x.m) {
    forged.f64(amp.real());
    forged.f64(amp.imag());
  }
  forged.str(x.name);

  // Stamped with the victim's (session, epoch) but sent on the attacker's
  // connection — exactly what a confused or malicious tenant could forge.
  attacker.send_raw_batch(victim.session_id(), victim.epoch(),
                          forged.data());
  // Also try a stale/wrong epoch for the attacker's own session id.
  attacker.send_raw_batch(attacker.session_id(), attacker.epoch() + 1,
                          forged.data());
  // Fence the attacker's connection so both forged frames have been read
  // (frames on one connection are processed in order).
  attacker.fence();

  const auto stats = service.stats();
  EXPECT_EQ(stats.forged_dropped, 2u);

  const Outcome after = run_circuit(victim, victim_seed);
  EXPECT_EQ(after, solo);

  attacker.deallocate_classical(aq);
  attacker.close();
  victim.close();
  service.stop();
}

TEST(ConcurrentSessions, MalformedBodiesFailOnlyTheirOwnSession) {
  JobService service{ServiceConfig{}};
  service.start();

  const std::uint64_t seed = 0xB0B;
  Outcome solo;
  {
    SessionClient b(session_config(service, seed));
    solo = run_circuit(b, seed);
    b.close();
  }

  SessionClient a(session_config(service, 1));
  SessionClient b(session_config(service, seed));
  Outcome concurrent;
  std::thread tenant_b([&] { concurrent = run_circuit(b, seed); });

  // Calls whose bodies stop short: an empty one, and a bare opcode whose
  // operand never comes. Each fails as that call's typed error.
  EXPECT_THROW(a.send_raw_call({}), qmpi::sim::SimulatorError);
  const std::byte bare[] = {
      static_cast<std::byte>(qmpi::SimOp::kProbabilityOne)};
  EXPECT_THROW(a.send_raw_call(bare), qmpi::sim::SimulatorError);
  // A failed call does not latch: the session still answers.
  EXPECT_EQ(a.num_qubits(), 0u);

  // A batch that promises five ops and carries none fails, latches, and
  // surfaces at A's next sync call.
  qmpi::classical::WireWriter truncated;
  truncated.u8(static_cast<std::uint8_t>(qmpi::SimOp::kBatch));
  truncated.u32(5);
  a.send_raw_batch(a.session_id(), a.epoch(), truncated.data());
  EXPECT_THROW((void)a.num_qubits(), qmpi::sim::SimulatorError);

  tenant_b.join();
  EXPECT_EQ(concurrent, solo);
  b.close();
  a.abandon();
  service.stop();
}

/// What one seeded qmpi::run job observed: rank 0 inspects, then measures,
/// every qubit of the job after an EPR pair and a QMPI_Send copy.
struct JobOutcome {
  std::vector<double> probs;
  std::vector<bool> bits;
  /// [epr_pairs, classical_bits] per category.
  std::vector<std::uint64_t> totals;

  bool operator==(const JobOutcome&) const = default;
};

JobOutcome run_job(qmpi::JobOptions options, qmpi::JobReport& report) {
  options.num_ranks = 2;
  options.seed = 0x5EED0042;
  JobOutcome out;
  report = qmpi::run(options, [&out](qmpi::Context& ctx) {
    const int peer = 1 - ctx.rank();
    qmpi::QubitArray q = ctx.alloc_qmem(2);
    ctx.ry(q[1], 0.4 + 0.3 * ctx.rank());
    ctx.prepare_epr(q[0], peer, 0);
    ctx.cnot(q[1], q[0]);
    if (ctx.rank() == 1) {
      // The copy protocol measures on the sender only, and rank 0 measures
      // only after it completes: the draw order is fixed by the program.
      ctx.send(&q[1], 1, 0, 1);
      ctx.classical_comm().send(q[0], 0, 900);
      ctx.classical_comm().send(q[1], 0, 901);
    } else {
      qmpi::QubitArray copy = ctx.alloc_qmem(1);
      ctx.recv(&copy[0], 1, 1, 1);
      const qmpi::Qubit all[] = {
          q[0], q[1], copy[0], ctx.classical_comm().recv<qmpi::Qubit>(1, 900),
          ctx.classical_comm().recv<qmpi::Qubit>(1, 901)};
      for (const qmpi::Qubit& x : all) {
        out.probs.push_back(ctx.probability_one(x));
      }
      for (const qmpi::Qubit& x : all) out.bits.push_back(ctx.measure(x));
    }
    ctx.barrier();
  });
  for (const auto& c : report.totals_by_category) {
    out.totals.push_back(c.epr_pairs);
    out.totals.push_back(c.classical_bits);
  }
  return out;
}

TEST(ConcurrentSessions, ServiceTransportJobMatchesInProcess) {
  JobService service{ServiceConfig{}};
  service.start();

  qmpi::JobReport inproc_report;
  const JobOutcome inproc = run_job(qmpi::JobOptions{}, inproc_report);
  ASSERT_EQ(inproc.bits.size(), 5u);
  EXPECT_GT(inproc_report.total().epr_pairs, 0u);
  EXPECT_GT(inproc_report.total().classical_bits, 0u);

  qmpi::JobOptions options;
  options.transport = qmpi::TransportKind::kService;
  options.service_port = service.port();
  qmpi::JobReport report;
  EXPECT_EQ(run_job(options, report), inproc);
  EXPECT_TRUE(report.notices.empty());

  // The service hosts no rank processes: distributed degrades to sharded
  // with exactly one notice, and the job still runs.
  options.backend = qmpi::sim::BackendKind::kDistributed;
  EXPECT_EQ(run_job(options, report), inproc);
  ASSERT_EQ(report.notices.size(), 1u);
  EXPECT_NE(report.notices[0].find("sharded backend"), std::string::npos)
      << report.notices[0];
  service.stop();
}

}  // namespace
