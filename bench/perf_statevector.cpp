// Substrate microbenchmarks (google-benchmark): raw state-vector gate
// throughput as a function of register width and thread count, and the cost
// of the operations the QMPI protocols lean on (CNOT, multi-controlled
// gates, measurement, parity measurement, allocation). Not a paper figure —
// this characterizes the simulation substrate that stands in for the
// authors' testbed, and tracks the specialized-kernel + fusion + persistent
// thread-pool hot path.
//
// Gate benchmarks call flush_gates() inside the timed region so they
// measure the real O(2^n) sweep, not just queueing a 2x2 matrix into the
// fusion queue (BM_RotationFused measures the amortized fused cost).
//
// Run e.g.:
//   ./perf_statevector --benchmark_format=json
//   ./perf_statevector --benchmark_filter='Threaded'
//   ./perf_statevector --benchmark_filter='Sharded'   # shard scaling series
//   ./perf_statevector --seed=42 ...                  # reseed everything
//   ./perf_statevector --paritycheck=4                # sharded-vs-serial
//
// --paritycheck runs a random circuit on the serial StateVector and the
// ShardedStateVector and exits non-zero unless every amplitude matches
// with operator== on the raw doubles; CI uses it as the bench smoke gate.
// The circuit mixes gates, measurements and ancilla cycles (allocate,
// entangle, probability_one, measure, reset, deallocate_classical), so the
// qubit life cycle is gated too.
// The whole check repeats once per SIMD tier the host CPU supports
// (scalar, AVX2, AVX-512 forced via simd::set_active), and the serial
// snapshot must additionally be bit-identical *across* tiers — the
// vectorized kernels promise the same doubles as the scalar reference,
// not merely the same distribution.
//
// The per-ISA series (BM_*Isa/<tier>, registered at startup for each
// available tier) is the BENCH_statevector.json "simd_series" record:
// the same headline kernels with the dispatch pinned, so the recorded
// speedup is attributable to the vector width and nothing else.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "sim/sharded_statevector.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"

namespace sim = qmpi::sim;
namespace simd = qmpi::sim::simd;

namespace {

/// Overridable via --seed= or QMPI_SEED so runs are reproducible from the
/// command line; defaults to the one centralized constant.
std::uint64_t g_seed = sim::kDefaultSeed;

void BM_SingleQubitGate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    sv.h(q[i % n]);  // dense 2x2: the general pair kernel
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleQubitGate)->Arg(4)->Arg(10)->Arg(16)->Arg(20);

void BM_Rotation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    sv.rz(q[i % n], 0.1);  // diagonal kernel: one multiply per amplitude
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Rotation)->Arg(10)->Arg(16)->Arg(20);

void BM_PhaseGate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    sv.t(q[i % n]);  // phase kernel: touches only the target=1 half
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhaseGate)->Arg(10)->Arg(16)->Arg(20);

void BM_RotationFused(benchmark::State& state) {
  // Amortized per-gate cost of a run of 8 rotations on one qubit: the
  // fusion queue composes them into a single 2x2 before one memory sweep.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr int kRun = 8;
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    const sim::QubitId target = q[i % n];
    for (int g = 0; g < kRun; ++g) sv.rz(target, 0.1 + 0.01 * g);
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRun);
}
BENCHMARK(BM_RotationFused)->Arg(10)->Arg(16)->Arg(20);

void BM_Cnot(benchmark::State& state) {
  // Entangling gates are lazy since cluster fusion landed; flush inside
  // the timed region so this still measures the real sweep (a single
  // queued CNOT flushes through the same specialized kernel as before).
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    sv.cnot(q[i % n], q[(i + 1) % n]);  // permutation kernel: pure swaps
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Cnot)->Arg(4)->Arg(10)->Arg(16)->Arg(20);

void BM_MultiControlled(benchmark::State& state) {
  // k-controlled X: the kernel enumerates only control-satisfying indices,
  // so cost should *halve* per extra control instead of staying flat.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::vector<sim::QubitId> controls(q.begin(),
                                     q.begin() + static_cast<long>(k));
  for (auto _ : state) {
    sv.apply_controlled(sim::gate_x(), controls, q[n - 1]);
    sv.flush_gates();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MultiControlled)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 3})
    ->Args({20, 4});

void BM_ParityMeasurement(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(1);
  const auto q = sv.allocate(n);
  sv.h(q[0]);
  sv.cnot(q[0], q[1]);
  const sim::QubitId pair[] = {q[0], q[1]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv.measure_parity(pair));
  }
}
BENCHMARK(BM_ParityMeasurement)->Arg(10)->Arg(16)->Arg(20);

void BM_AllocateRelease(benchmark::State& state) {
  const auto base = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  (void)sv.allocate(base);
  for (auto _ : state) {
    const auto q = sv.allocate(1);
    sv.deallocate(q[0]);
  }
}
BENCHMARK(BM_AllocateRelease)->Arg(4)->Arg(12)->Arg(18);

void BM_PauliRotationDirect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::vector<std::pair<sim::QubitId, char>> zz;
  for (const auto id : q) zz.emplace_back(id, 'Z');
  for (auto _ : state) {
    sv.apply_pauli_rotation(zz, 0.05);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PauliRotationDirect)->Arg(10)->Arg(16)->Arg(20);

// ----------------------------------------------------------- threading ---
// Args are {qubits, threads}. With the persistent pool, scaling at 24
// qubits (256 MiB of amplitudes) should be near-linear in cores; run on a
// many-core box with --benchmark_filter='Threaded' to measure.

void BM_SingleQubitGateThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  sv.set_num_threads(static_cast<unsigned>(state.range(1)));
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    sv.h(q[i % n]);
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleQubitGateThreaded)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({22, 1})
    ->Args({22, 2})
    ->Args({22, 4})
    ->Args({24, 1})
    ->Args({24, 2})
    ->Args({24, 4})
    ->Args({24, 8});

void BM_RotationThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  sv.set_num_threads(static_cast<unsigned>(state.range(1)));
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    sv.rz(q[i % n], 0.1);
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RotationThreaded)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({24, 1})
    ->Args({24, 2})
    ->Args({24, 4})
    ->Args({24, 8});

// ------------------------------------------------------------- sharded ---
// Args are {qubits, shards}. One worker lane per shard (the distributed-
// sweep deployment model), so this series is the shard-count scaling
// record for BENCH JSON: local gates split embarrassingly across slices,
// a global gate pays a one-off relabel swap through the ShardMesh.

void BM_RotationSharded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<unsigned>(state.range(1));
  sim::ShardedStateVector sv(shards, g_seed);
  sv.set_num_threads(shards);
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    sv.rz(q[0], 0.1);  // local diagonal: pure per-slice sweep
    sv.flush_gates();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RotationSharded)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({22, 1})
    ->Args({22, 2})
    ->Args({22, 4});

void BM_LocalGateSharded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<unsigned>(state.range(1));
  sim::ShardedStateVector sv(shards, g_seed);
  sv.set_num_threads(shards);
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    sv.h(q[0]);  // dense 2x2 on a local qubit: intra-slice pairs only
    sv.flush_gates();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalGateSharded)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({22, 1})
    ->Args({22, 2})
    ->Args({22, 4});

void BM_GlobalGateShardedRelabel(benchmark::State& state) {
  // Every iteration is a dense gate on a global qubit: the first sweep
  // swaps the hot qubit local, every later sweep is communication-free.
  // The first qubit holds a global bit: every qubit allocated once all
  // slices are active takes a new local bit.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<unsigned>(state.range(1));
  sim::ShardedStateVector sv(shards, g_seed);
  sv.set_num_threads(shards);
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    sv.h(q[0]);
    sv.flush_gates();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GlobalGateShardedRelabel)
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({22, 2})
    ->Args({22, 4});

// ------------------------------------------------------ cluster fusion ---
// The fused series: a first-order Trotter step of a 1-D TFIM-style circuit
// (the examples/chemistry_trotter.cpp shape) — an Rx field layer plus a
// CNOT·Rz·CNOT ladder per bond. With cluster fusion every overlapping run
// of gates collapses into one k-qubit block sweep (k <= 4), so the step
// costs a fraction of the unfused per-gate memory passes. This is the
// BENCH_statevector.json "fused_series" record and the CI smoke series.

template <typename SV>
void trotter_step(SV& sv, const std::vector<sim::QubitId>& q, double dt) {
  const std::size_t n = q.size();
  for (std::size_t i = 0; i < n; ++i) sv.rx(q[i], 0.37 * dt);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    sv.cnot(q[i], q[i + 1]);
    sv.rz(q[i + 1], 0.81 * dt);
    sv.cnot(q[i], q[i + 1]);
  }
  sv.flush_gates();
}

void BM_TrotterStepFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    trotter_step(sv, q, 0.05);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n - 3));
}
BENCHMARK(BM_TrotterStepFused)->Arg(16)->Arg(20)->Arg(22);

void BM_TrotterStepUnfused(benchmark::State& state) {
  // PR 1's per-gate path: one O(2^n) sweep per gate.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  sv.set_fusion_enabled(false);
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    trotter_step(sv, q, 0.05);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n - 3));
}
BENCHMARK(BM_TrotterStepUnfused)->Arg(16)->Arg(20)->Arg(22);

void BM_TrotterStepFusedThreaded(benchmark::State& state) {
  // The lane-scaling series for CI's multicore runner: the fused step is
  // compute-dense enough (k-qubit block replay, not a bare memory sweep)
  // that it keeps scaling where single-gate sweeps hit bandwidth. Args are
  // {qubits, threads}; the 1-lane row is the scaling denominator.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(g_seed);
  sv.set_num_threads(static_cast<unsigned>(state.range(1)));
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    trotter_step(sv, q, 0.05);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n - 3));
}
BENCHMARK(BM_TrotterStepFusedThreaded)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({22, 1})
    ->Args({22, 2})
    ->Args({22, 4});

void BM_TrotterStepFusedSharded(benchmark::State& state) {
  // Fused clusters against the global/local split: all-local clusters
  // sweep per slice with zero exchanges; clusters touching global qubits
  // are pulled local by the LRU relabel pass before the sweep.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<unsigned>(state.range(1));
  sim::ShardedStateVector sv(shards, g_seed);
  sv.set_num_threads(shards);
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    trotter_step(sv, q, 0.05);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n - 3));
}
BENCHMARK(BM_TrotterStepFusedSharded)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({22, 2})
    ->Args({22, 4});

void BM_TrotterStepUnfusedSharded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<unsigned>(state.range(1));
  sim::ShardedStateVector sv(shards, g_seed);
  sv.set_fusion_enabled(false);
  sv.set_num_threads(shards);
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    trotter_step(sv, q, 0.05);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n - 3));
}
BENCHMARK(BM_TrotterStepUnfusedSharded)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({22, 2})
    ->Args({22, 4});

// ------------------------------------------------------- parity check ---

/// Runs one random circuit on both backends (both fused — entangling gates
/// exercise the cluster path) and compares every amplitude with operator==
/// (the shard/serial contract is bit-identity, not tolerance). A third,
/// fusion-disabled serial run gates the fused-vs-gate-by-gate drift within
/// 1e-9 — the cluster replay is designed to add no arithmetic of its own.
/// Returns false and prints the first divergence on mismatch.
///
/// cross_tier_ref carries the serial snapshot across SIMD tiers: the first
/// tier (always scalar) fills it, every later tier must reproduce it bit
/// for bit — the vectorized kernels' numerical contract.
bool parity_check(unsigned shards, std::uint64_t seed,
                  std::vector<sim::Complex>* cross_tier_ref = nullptr) {
  constexpr std::size_t kQubits = 12;
  sim::StateVector serial(seed);
  sim::StateVector unfused(seed);
  unfused.set_fusion_enabled(false);
  sim::ShardedStateVector sharded(shards, seed);
  sharded.set_num_threads(shards > 1 ? shards : 2);
  auto qs = serial.allocate(kQubits);
  auto qu = unfused.allocate(kQubits);
  auto qt = sharded.allocate(kQubits);
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  std::uniform_int_distribution<std::size_t> pick(0, kQubits - 1);
  std::uniform_int_distribution<int> choice(0, 6);
  for (int step = 0; step < 80; ++step) {
    const auto i = pick(rng);
    auto j = pick(rng);
    while (j == i) j = pick(rng);
    switch (choice(rng)) {
      case 0: {
        const double a = angle(rng);
        serial.ry(qs[i], a);
        unfused.ry(qu[i], a);
        sharded.ry(qt[i], a);
        break;
      }
      case 1: {
        const double a = angle(rng);
        serial.rz(qs[j], a);
        unfused.rz(qu[j], a);
        sharded.rz(qt[j], a);
        break;
      }
      case 2:
        serial.h(qs[i]);
        unfused.h(qu[i]);
        sharded.h(qt[i]);
        break;
      case 3:
        serial.t(qs[j]);
        unfused.t(qu[j]);
        sharded.t(qt[j]);
        break;
      case 4:
        serial.cnot(qs[i], qs[j]);
        unfused.cnot(qu[i], qu[j]);
        sharded.cnot(qt[i], qt[j]);
        break;
      case 5: {
        const bool ms = serial.measure(qs[i]);
        const bool mu = unfused.measure(qu[i]);
        if (ms != sharded.measure(qt[i]) || ms != mu) {
          std::cerr << "paritycheck: measurement diverged at step " << step
                    << " (shards=" << shards << ")\n";
          return false;
        }
        break;
      }
      default: {
        // Ancilla cycle, the shape of every EPR half: allocate, entangle
        // from a random qubit, probe, measure, reset, free. Probabilities
        // must match exactly across backends, within 1e-9 of unfused.
        const auto as = serial.allocate(1).front();
        const auto au = unfused.allocate(1).front();
        const auto at = sharded.allocate(1).front();
        double p[3][2];
        p[0][0] = serial.probability_one(as);
        p[1][0] = unfused.probability_one(au);
        p[2][0] = sharded.probability_one(at);
        serial.cnot(qs[i], as);
        unfused.cnot(qu[i], au);
        sharded.cnot(qt[i], at);
        p[0][1] = serial.probability_one(as);
        p[1][1] = unfused.probability_one(au);
        p[2][1] = sharded.probability_one(at);
        const bool ms = serial.measure(as);
        const bool mu = unfused.measure(au);
        const bool mt = sharded.measure(at);
        for (int k = 0; k < 2; ++k) {
          if (p[0][k] != p[2][k] || std::abs(p[0][k] - p[1][k]) > 1e-9) {
            std::cerr << "paritycheck: ancilla probability diverged at step "
                      << step << ": serial=" << p[0][k]
                      << " unfused=" << p[1][k] << " sharded=" << p[2][k]
                      << " (shards=" << shards << ")\n";
            return false;
          }
        }
        if (ms != mt || ms != mu) {
          std::cerr << "paritycheck: ancilla measurement diverged at step "
                    << step << " (shards=" << shards << ")\n";
          return false;
        }
        if (ms) {
          serial.x(as);
          unfused.x(au);
          sharded.x(at);
        }
        serial.deallocate_classical(as);
        unfused.deallocate_classical(au);
        sharded.deallocate_classical(at);
        break;
      }
    }
  }
  // Finish with a fused Trotter step so the cluster block sweep itself is
  // part of the gated circuit.
  trotter_step(serial, qs, 0.05);
  trotter_step(unfused, qu, 0.05);
  trotter_step(sharded, qt, 0.05);
  const auto a = serial.snapshot();
  const auto b = sharded.snapshot();
  const auto c = unfused.snapshot();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag()) {
      std::cerr << "paritycheck: amplitude " << i << " diverged: serial=("
                << a[i].real() << "," << a[i].imag() << ") sharded=("
                << b[i].real() << "," << b[i].imag() << ") shards=" << shards
                << "\n";
      return false;
    }
    if (std::abs(a[i] - c[i]) > 1e-9) {
      std::cerr << "paritycheck: fused amplitude " << i
                << " drifted from gate-by-gate execution by "
                << std::abs(a[i] - c[i]) << "\n";
      return false;
    }
  }
  const char* tier = simd::to_string(simd::active());
  if (cross_tier_ref != nullptr) {
    if (cross_tier_ref->empty()) {
      *cross_tier_ref = a;
    } else {
      for (std::size_t i = 0; i < a.size(); ++i) {
        const sim::Complex r = (*cross_tier_ref)[i];
        if (a[i].real() != r.real() || a[i].imag() != r.imag()) {
          std::cerr << "paritycheck: amplitude " << i << " diverged across "
                    << "SIMD tiers: scalar=(" << r.real() << "," << r.imag()
                    << ") " << tier << "=(" << a[i].real() << ","
                    << a[i].imag() << ") shards=" << shards << "\n";
          return false;
        }
      }
    }
  }
  std::cout << "paritycheck[" << tier << "]: " << a.size()
            << " amplitudes bit-identical at " << shards
            << " shard(s) and within 1e-9 of unfused, seed=" << seed << "\n";
  return true;
}

/// The full --paritycheck gate for one shard count: the circuit above, once
/// per SIMD tier this CPU can run. Scalar is always first (it seeds the
/// cross-tier reference); unavailable tiers are reported, never silently
/// skipped, so a CI log always shows which ISAs were actually exercised.
bool parity_check_tiers(unsigned shards, std::uint64_t seed) {
  std::vector<sim::Complex> cross_tier_ref;
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!simd::available(isa)) {
      std::cout << "paritycheck[" << simd::to_string(isa)
                << "]: not available on this CPU, skipped\n";
      continue;
    }
    simd::set_active(isa);
    if (!parity_check(shards, seed, &cross_tier_ref)) return false;
  }
  return true;
}

// ------------------------------------------------------ per-ISA series ---
// Forced-dispatch variants of the headline kernels, registered (in main,
// after the static BENCHMARK()s) once per tier the CPU supports. Each run
// pins the tier itself, so the series is self-contained under any
// --benchmark_filter. The ambient benchmarks above run first and keep the
// QMPI_SIMD / auto-dispatched tier.

void bench_isa_dense(benchmark::State& state, simd::Isa isa, std::size_t n) {
  simd::set_active(isa);
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    sv.h(q[i % n]);
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bench_isa_diagonal(benchmark::State& state, simd::Isa isa,
                        std::size_t n) {
  simd::set_active(isa);
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    sv.rz(q[i % n], 0.1);
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bench_isa_phase(benchmark::State& state, simd::Isa isa, std::size_t n) {
  simd::set_active(isa);
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  std::size_t i = 0;
  for (auto _ : state) {
    sv.t(q[i % n]);
    sv.flush_gates();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bench_isa_trotter(benchmark::State& state, simd::Isa isa,
                       std::size_t n) {
  simd::set_active(isa);
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    trotter_step(sv, q, 0.05);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n - 3));
}

/// One fused cluster on state positions 0..3: a CNOT·Rz·CNOT chain over
/// three bonds (9 gates, k = 4). Its lowest block bit is 0, so the replay
/// takes the short-run row tile rather than the in-place stream.
void bench_isa_low_cluster(benchmark::State& state, simd::Isa isa,
                           std::size_t n) {
  simd::set_active(isa);
  sim::StateVector sv(g_seed);
  const auto q = sv.allocate(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < 3; ++i) {
      sv.cnot(q[i], q[i + 1]);
      sv.rz(q[i + 1], 0.04);
      sv.cnot(q[i], q[i + 1]);
    }
    sv.flush_gates();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 9);
}

void register_isa_series() {
  constexpr std::size_t kIsaQubits = 20;
  constexpr std::size_t kLowClusterQubits = 14;  // 256 KiB: L2-resident
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!simd::available(isa)) continue;
    const std::string tag = simd::to_string(isa);
    benchmark::RegisterBenchmark(
        ("BM_SingleQubitGateIsa/" + tag).c_str(),
        [isa](benchmark::State& st) { bench_isa_dense(st, isa, kIsaQubits); });
    benchmark::RegisterBenchmark(
        ("BM_RotationIsa/" + tag).c_str(), [isa](benchmark::State& st) {
          bench_isa_diagonal(st, isa, kIsaQubits);
        });
    benchmark::RegisterBenchmark(
        ("BM_PhaseGateIsa/" + tag).c_str(),
        [isa](benchmark::State& st) { bench_isa_phase(st, isa, kIsaQubits); });
    benchmark::RegisterBenchmark(
        ("BM_TrotterStepFusedIsa/" + tag).c_str(),
        [isa](benchmark::State& st) {
          bench_isa_trotter(st, isa, kIsaQubits);
        });
    benchmark::RegisterBenchmark(
        ("BM_FusedClusterLowIsa/" + tag).c_str(),
        [isa](benchmark::State& st) {
          bench_isa_low_cluster(st, isa, kLowClusterQubits);
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  int parity_shards = -1;
  std::vector<char*> args;
  args.push_back(argv[0]);
  try {
    // QMPI_SEED and --seed= parse by the settings table's QMPI_SEED form.
    qmpi::env::assign(qmpi::env::Var::kSeed, g_seed);
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--seed=", 7) == 0) {
        g_seed = qmpi::env::parse(qmpi::env::Var::kSeed, argv[i] + 7,
                                  "--seed");
      } else if (std::strcmp(argv[i], "--paritycheck") == 0) {
        parity_shards = 0;  // the full default ladder
      } else if (std::strncmp(argv[i], "--paritycheck=", 14) == 0) {
        parity_shards = std::atoi(argv[i] + 14);
      } else {
        args.push_back(argv[i]);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perf_statevector: " << e.what() << "\n";
    return 2;
  }
  if (parity_shards == 0) {
    for (const unsigned s : {1U, 2U, 4U, 8U}) {
      if (!parity_check_tiers(s, g_seed)) return 1;
    }
    return 0;
  }
  if (parity_shards > 0) {
    return parity_check_tiers(static_cast<unsigned>(parity_shards), g_seed)
               ? 0
               : 1;
  }
  register_isa_series();
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
