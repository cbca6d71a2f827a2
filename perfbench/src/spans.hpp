#pragma once

/// \file spans.hpp
/// Span recording for traced runs. Spans are taken from the benchmark's
/// side of each layer boundary: app spans around apps::tfim_time_evolution,
/// client spans around each SimServer::call (the core -> sim.server hop),
/// and backend spans around the Backend call that hop runs.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common.hpp"
#include "sim/sim_client.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kApp, kClient, kBackend };
/// What a sim call does to the state: gate = apply/cnot/cz/toffoli,
/// observe = measurements and probability/expectation reads, reshape =
/// qubit allocation and deallocation.
enum class OpKind : std::uint8_t { kNone, kGate, kObserve, kReshape };

struct Span {
  const char* name;
  Layer layer;
  OpKind kind;
  std::int32_t parent;  ///< index in the same rank log, -1 for none
  std::uint32_t job;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The spans of one rank thread. Only that thread appends (backend spans
/// are timed on the server thread but handed back with the call result).
struct RankLog {
  std::vector<Span> spans;
  std::uint32_t job = 0;
  std::int32_t open_app = -1;

  std::int32_t add(const Span& s) {
    spans.push_back(s);
    return static_cast<std::int32_t>(spans.size() - 1);
  }
  /// Runs fn inside an app span.
  template <typename Fn>
  void app(const char* name, const Fn& fn) {
    const std::int64_t t0 = now_ns();
    const std::int32_t idx =
        add({name, Layer::kApp, OpKind::kNone, -1, job, t0, t0});
    open_app = idx;
    fn();
    spans[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_app = -1;
  }
};

/// A SimClient over an in-process SimServer that times every call twice:
/// the client span (submit, dispatch, wait for the reply) and, inside it,
/// the backend span (the Backend call on the server thread). Per rank.
class TimingSimClient final : public qmpi::sim::SimClient {
 public:
  TimingSimClient(qmpi::sim::SimServer& server, RankLog& log)
      : server_(&server), log_(&log) {}

  /// Largest state seen, in qubits (the amplitude count is 2^this).
  std::size_t peak_qubits() const { return peak_qubits_; }

  std::vector<qmpi::sim::QubitId> allocate(std::size_t count) override {
    return timed("allocate", OpKind::kReshape, [&](qmpi::sim::Backend& b) {
      auto ids = b.allocate(count);
      peak_qubits_ = std::max(peak_qubits_, b.num_qubits());
      return ids;
    });
  }
  void deallocate_classical(
      std::span<const qmpi::sim::QubitId> ids) override {
    timed("deallocate", OpKind::kReshape, [&](qmpi::sim::Backend& b) {
      for (const auto id : ids) b.deallocate_classical(id);
      return 0;
    });
  }
  void apply(const qmpi::sim::Gate1Q& gate,
             qmpi::sim::QubitId qubit) override {
    timed("apply", OpKind::kGate, [&](qmpi::sim::Backend& b) {
      b.apply(gate, qubit);
      return 0;
    });
  }
  void cnot(qmpi::sim::QubitId c, qmpi::sim::QubitId t) override {
    timed("cnot", OpKind::kGate, [&](qmpi::sim::Backend& b) {
      b.cnot(c, t);
      return 0;
    });
  }
  void cz(qmpi::sim::QubitId c, qmpi::sim::QubitId t) override {
    timed("cz", OpKind::kGate, [&](qmpi::sim::Backend& b) {
      b.cz(c, t);
      return 0;
    });
  }
  void toffoli(qmpi::sim::QubitId c0, qmpi::sim::QubitId c1,
               qmpi::sim::QubitId t) override {
    timed("toffoli", OpKind::kGate, [&](qmpi::sim::Backend& b) {
      b.toffoli(c0, c1, t);
      return 0;
    });
  }
  bool measure(qmpi::sim::QubitId q) override {
    return timed("measure", OpKind::kObserve,
                 [&](qmpi::sim::Backend& b) { return b.measure(q); });
  }
  bool measure_x(qmpi::sim::QubitId q) override {
    return timed("measure_x", OpKind::kObserve,
                 [&](qmpi::sim::Backend& b) { return b.measure_x(q); });
  }
  bool measure_parity(std::span<const qmpi::sim::QubitId> qs) override {
    return timed("measure_parity", OpKind::kObserve,
                 [&](qmpi::sim::Backend& b) { return b.measure_parity(qs); });
  }
  double probability_one(qmpi::sim::QubitId q) override {
    return timed("probability_one", OpKind::kObserve,
                 [&](qmpi::sim::Backend& b) { return b.probability_one(q); });
  }
  double expectation(
      std::span<const std::pair<qmpi::sim::QubitId, char>> p) override {
    return timed("expectation", OpKind::kObserve,
                 [&](qmpi::sim::Backend& b) { return b.expectation(p); });
  }
  std::size_t num_qubits() override {
    return timed("num_qubits", OpKind::kObserve,
                 [&](qmpi::sim::Backend& b) { return b.num_qubits(); });
  }

 private:
  /// The calling rank thread blocks in SimServer::call until the server
  /// thread has run `fn`, so capturing by reference is safe.
  template <typename Fn>
  std::invoke_result_t<Fn&, qmpi::sim::Backend&> timed(const char* name,
                                                       OpKind kind, Fn&& fn) {
    const std::int64_t c0 = now_ns();
    auto [result, b0, b1] = server_->call([&](qmpi::sim::Backend& b) {
      const std::int64_t t0 = now_ns();
      auto r = fn(b);
      return std::tuple{std::move(r), t0, now_ns()};
    });
    const std::int64_t c1 = now_ns();
    const std::int32_t client = log_->add(
        {name, Layer::kClient, kind, log_->open_app, log_->job, c0, c1});
    log_->add({name, Layer::kBackend, kind, client, log_->job, b0, b1});
    return result;
  }

  qmpi::sim::SimServer* server_;
  RankLog* log_;
  std::size_t peak_qubits_ = 0;  ///< written on the server thread only
};

// ------------------------------------------------------- interval math ---

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Sorted, disjoint union of `v`.
inline std::vector<Interval> merged(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const auto& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

inline std::int64_t length(const std::vector<Interval>& disjoint) {
  std::int64_t n = 0;
  for (const auto& [a, b] : disjoint) n += b - a;
  return n;
}

/// Length of the intersection of two sorted disjoint unions.
inline std::int64_t overlap(const std::vector<Interval>& a,
                            const std::vector<Interval>& b) {
  std::int64_t n = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].first, b[j].first);
    const std::int64_t hi = std::min(a[i].second, b[j].second);
    if (hi > lo) n += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

}  // namespace perfbench
