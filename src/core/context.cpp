#include "core/context.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <string>
#include <utility>

#include "classical/socket_transport.hpp"
#include "core/env.hpp"
#include "core/protocol_tags.hpp"
#include "core/sim_dist.hpp"
#include "service/session_client.hpp"
#include "sim/circuit_cache.hpp"
#include "sim/sharded_statevector.hpp"

namespace qmpi {

Context::Context(classical::Comm user_comm,
                 std::shared_ptr<sim::SimClient> sim, Trace* trace)
    : user_comm_(std::move(user_comm)),
      protocol_comm_(user_comm_.dup()),
      sim_(std::move(sim)),
      trace_(trace),
      tracker_(std::make_shared<ResourceTracker>()) {}

Context Context::split(int color, int key) {
  classical::Comm sub_user = user_comm_.split(color, key);
  if (sub_user.is_null()) {
    // Null context: the rank takes no part in the subgroup. (The protocol
    // dup below is collective over subgroup members only, so null ranks
    // must not join it.)
    return Context(classical::Comm(), classical::Comm(), nullptr, trace_,
                   tracker_);
  }
  classical::Comm sub_protocol = sub_user.dup();
  return Context(std::move(sub_user), std::move(sub_protocol), sim_,
                 trace_, tracker_);
}

Context Context::duplicate() {
  classical::Comm dup_user = user_comm_.dup();
  classical::Comm dup_protocol = dup_user.dup();
  return Context(std::move(dup_user), std::move(dup_protocol), sim_,
                 trace_, tracker_);
}

void Context::trace_event(TraceEvent e) {
  if (trace_ != nullptr) trace_->record(std::move(e));
}

// ---------------------------------------------------------------- qubits ---

QubitArray Context::alloc_qmem(std::size_t count) {
  auto ids = sim_->allocate(count);
  std::vector<Qubit> qubits;
  qubits.reserve(count);
  for (const auto id : ids) qubits.push_back(Qubit{id});
  return QubitArray(std::move(qubits));
}

void Context::free_qmem(const Qubit* qubits, std::size_t count) {
  std::vector<sim::QubitId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ids.push_back(qubits[i].id);
  try {
    sim_->deallocate_classical(ids);
  } catch (const sim::SimulatorError& e) {
    throw QmpiError(std::string("free_qmem: ") + e.what());
  }
}

// ----------------------------------------------------------------- gates ---

void Context::gate1(const char* name, Qubit q, const sim::Gate1Q& gate) {
  sim_->apply(gate, q.id);
  trace_event({TraceEvent::Kind::kLocalGate, rank(), -1, 0, name});
}

void Context::rotation(const char* name, Qubit q, const sim::Gate1Q& gate) {
  sim_->apply(gate, q.id);
  trace_event({TraceEvent::Kind::kRotation, rank(), -1, 0, name});
}

void Context::cnot(Qubit control, Qubit target) {
  sim_->cnot(control.id, target.id);
  trace_event({TraceEvent::Kind::kLocalGate, rank(), -1, 0, "CNOT"});
}

void Context::cz(Qubit control, Qubit target) {
  sim_->cz(control.id, target.id);
  trace_event({TraceEvent::Kind::kLocalGate, rank(), -1, 0, "CZ"});
}

void Context::toffoli(Qubit c0, Qubit c1, Qubit target) {
  sim_->toffoli(c0.id, c1.id, target.id);
  trace_event({TraceEvent::Kind::kLocalGate, rank(), -1, 0, "CCX"});
}

bool Context::measure(Qubit q) {
  const bool r = sim_->measure(q.id);
  trace_event({TraceEvent::Kind::kMeasurement, rank(), -1, 0, "M"});
  return r;
}

bool Context::measure_x(Qubit q) {
  const bool r = sim_->measure_x(q.id);
  trace_event({TraceEvent::Kind::kMeasurement, rank(), -1, 0, "MX"});
  return r;
}

bool Context::measure_parity(std::span<const Qubit> qubits) {
  std::vector<sim::QubitId> ids;
  ids.reserve(qubits.size());
  for (const Qubit q : qubits) ids.push_back(q.id);
  const bool r = sim_->measure_parity(ids);
  trace_event({TraceEvent::Kind::kMeasurement, rank(), -1, 0, "MZZ"});
  return r;
}

double Context::probability_one(Qubit q) {
  return sim_->probability_one(q.id);
}

// ------------------------------------------------------------------- EPR ---

using detail::direction_sub;
using detail::encode_tag;

namespace {

/// User-facing tags must stay below the reserved band (see
/// core/protocol_tags.hpp): a tag at or above kCollTag would let a user
/// receive steal a collective's EPR rendezvous or fix-up bits — corrupting
/// quantum state far from the offending call — so reject it up front.
void check_user_tag(int tag, const char* where) {
  if (tag < 0 || tag > detail::kMaxUserTag) {
    throw QmpiError(std::string(where) + ": tag " + std::to_string(tag) +
                    " is outside the user tag range [0, " +
                    std::to_string(detail::kMaxUserTag) +
                    "]; tags >= 2^20 are reserved for internal collective "
                    "and reduction protocols (core/protocol_tags.hpp)");
  }
}

/// An exchange leg toward the calling rank is a local transfer, which the
/// point-to-point exchanges do not offer: reject it as their EPR
/// rendezvous always has.
void check_exchange_peers(int self, int dest, int source) {
  if (dest == self || source == self) {
    throw QmpiError("prepare_epr: peer must be a different, valid rank");
  }
}

}  // namespace

void Context::epr_begin(Qubit qubit, int peer, int ptag) {
  if (peer == rank() || peer < 0 || peer >= size()) {
    throw QmpiError("prepare_epr: peer must be a different, valid rank");
  }
  // The paper requires a fresh |0> qubit; catch protocol bugs early.
  if (probability_one(qubit) > 1e-9) {
    throw QmpiError("prepare_epr: qubit is not in |0>");
  }
  // Rendezvous initiation: the higher-ranked endpoint eagerly posts its
  // qubit id (a simulation artifact; on a real machine the interconnect
  // hardware pairs the photonic links).
  if (rank() > peer) {
    protocol_comm_.send(qubit.id, peer, ptag);
  }
}

void Context::epr_complete(Qubit qubit, int peer, int ptag) {
  // The lower-ranked endpoint performs the entangling operations and acks;
  // the higher-ranked endpoint may not touch its half before the ack.
  if (rank() < peer) {
    const auto peer_id = protocol_comm_.recv<sim::QubitId>(peer, ptag);
    sim_->apply(sim::gate_h(), qubit.id);
    sim_->cnot(qubit.id, peer_id);
    protocol_comm_.send(std::uint8_t{1}, peer, ptag);  // ack
    tracker_->count_epr_pair();
    trace_event({TraceEvent::Kind::kEprEstablish, rank(), peer, 0, "EPR"});
  } else {
    (void)protocol_comm_.recv<std::uint8_t>(peer, ptag);
  }
}

void Context::establish_epr(Qubit qubit, int peer, int ptag) {
  epr_begin(qubit, peer, ptag);
  epr_complete(qubit, peer, ptag);
}

void Context::prepare_epr(Qubit qubit, int peer, int tag) {
  check_user_tag(tag, "prepare_epr");
  establish_epr(qubit, peer, encode_tag(tag, 0));
}

QRequest Context::iprepare_epr(Qubit qubit, int peer, int tag) {
  check_user_tag(tag, "iprepare_epr");
  return QRequest([this, qubit, peer, tag] { prepare_epr(qubit, peer, tag); });
}

// ----------------------------------------------------- p2p copy protocol ---

Qubit Context::send_begin(int dest, int ptag) {
  QubitArray epr = alloc_qmem(1);
  epr_begin(epr[0], dest, ptag);
  return epr[0];
}

void Context::send_complete(Qubit q, Qubit epr_half, int dest, int ptag) {
  epr_complete(epr_half, dest, ptag);
  cnot(q, epr_half);
  const bool m = measure(epr_half);
  // Reset the measured half to |0> so it can be freed.
  if (m) x(epr_half);
  free_qmem(&epr_half, 1);
  protocol_comm_.send(static_cast<std::uint8_t>(m), dest, ptag);
  tracker_->count_classical_bits(1);
  trace_event({TraceEvent::Kind::kClassicalSend, rank(), dest, 1, "fixup"});
}

void Context::send_one(Qubit q, int dest, int tag) {
  const int ptag = encode_tag(tag, direction_sub(rank(), dest));
  const Qubit e = send_begin(dest, ptag);
  send_complete(q, e, dest, ptag);
}

void Context::recv_fixup(Transfer verb, Qubit q, int source, int ptag) {
  if (verb == Transfer::kMove) {
    const int r = protocol_comm_.recv<int>(source, ptag);
    if (r & 1) x(q);
    if (r & 2) z(q);
    return;
  }
  const auto m = protocol_comm_.recv<std::uint8_t>(source, ptag);
  if (m != 0) x(q);
}

void Context::recv_one(Qubit q, int source, int tag) {
  const int ptag = encode_tag(tag, direction_sub(source, rank()));
  epr_begin(q, source, ptag);
  epr_complete(q, source, ptag);
  recv_fixup(Transfer::kCopy, q, source, ptag);
}

void Context::unsend_one(Qubit q, int dest, int tag) {
  const int ptag = encode_tag(tag, direction_sub(rank(), dest));
  const auto m = protocol_comm_.recv<std::uint8_t>(dest, ptag);
  if (m != 0) z(q);
}

void Context::unrecv_one(Qubit q, int source, int tag) {
  // Fig. 1(b): H, measure; peer fixes with Z. Reset local qubit to |0> so
  // the caller can free or reuse it.
  const int ptag = encode_tag(tag, direction_sub(source, rank()));
  h(q);
  const bool m = measure(q);
  if (m) x(q);
  protocol_comm_.send(static_cast<std::uint8_t>(m), source, ptag);
  tracker_->count_classical_bits(1);
  trace_event({TraceEvent::Kind::kClassicalSend, rank(), source, 1, "unfix"});
}

void Context::send(const Qubit* qubits, std::size_t count, int dest, int tag) {
  check_user_tag(tag, "send");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  for (std::size_t i = 0; i < count; ++i) send_one(qubits[i], dest, tag);
}

void Context::recv(const Qubit* qubits, std::size_t count, int source,
                   int tag) {
  check_user_tag(tag, "recv");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  for (std::size_t i = 0; i < count; ++i) recv_one(qubits[i], source, tag);
}

void Context::unsend(const Qubit* qubits, std::size_t count, int dest,
                     int tag) {
  check_user_tag(tag, "unsend");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  for (std::size_t i = 0; i < count; ++i) unsend_one(qubits[i], dest, tag);
}

void Context::unrecv(const Qubit* qubits, std::size_t count, int source,
                     int tag) {
  check_user_tag(tag, "unrecv");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  for (std::size_t i = 0; i < count; ++i) unrecv_one(qubits[i], source, tag);
}

void Context::sendrecv(const Qubit* send_qubits, std::size_t send_count,
                       int dest, int send_tag, const Qubit* recv_qubits,
                       std::size_t recv_count, int source, int recv_tag) {
  // Implemented with split begin/complete phases (as MPI implements
  // Sendrecv over nonblocking primitives) so cyclic exchange patterns —
  // both peers "sending first" — cannot deadlock in the EPR rendezvous.
  check_user_tag(send_tag, "sendrecv");
  check_user_tag(recv_tag, "sendrecv");
  check_exchange_peers(rank(), dest, source);
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  const Leg legs[] = {{dest, send_qubits, send_count, nullptr, 0},
                      {source, nullptr, 0, recv_qubits, recv_count}};
  exchange(Transfer::kCopy, send_tag, recv_tag, legs);
}

void Context::unsendrecv(const Qubit* send_qubits, std::size_t send_count,
                         int dest, int send_tag, const Qubit* recv_qubits,
                         std::size_t recv_count, int source, int recv_tag) {
  unrecv(recv_qubits, recv_count, source, recv_tag);
  unsend(send_qubits, send_count, dest, send_tag);
}

// ----------------------------------------------------- p2p move protocol ---

void Context::send_move_complete(Qubit q, Qubit epr_half, int dest,
                                 int ptag) {
  // Appendix A.1 QMPI_Send_move: fanout via the EPR half, then remove the
  // local qubit with an X-basis measurement (deferred-measurement CNOT).
  epr_complete(epr_half, dest, ptag);
  cnot(q, epr_half);
  int r = measure(epr_half) ? 1 : 0;
  h(q);
  r |= measure(q) ? 2 : 0;
  if (r & 1) x(epr_half);
  free_qmem(&epr_half, 1);
  if (r & 2) x(q);  // reset the consumed qubit handle to |0>
  protocol_comm_.send(r, dest, ptag);
  tracker_->count_classical_bits(2);
  trace_event({TraceEvent::Kind::kClassicalSend, rank(), dest, 2, "tp"});
}

void Context::send_move_one(Qubit q, int dest, int tag) {
  const int ptag = encode_tag(tag, direction_sub(rank(), dest));
  const Qubit e = send_begin(dest, ptag);
  send_move_complete(q, e, dest, ptag);
}

void Context::recv_move_one(Qubit q, int source, int tag) {
  const int ptag = encode_tag(tag, direction_sub(source, rank()));
  epr_begin(q, source, ptag);
  epr_complete(q, source, ptag);
  recv_fixup(Transfer::kMove, q, source, ptag);
}

void Context::send_move(const Qubit* qubits, std::size_t count, int dest,
                        int tag) {
  check_user_tag(tag, "send_move");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  for (std::size_t i = 0; i < count; ++i) send_move_one(qubits[i], dest, tag);
}

void Context::recv_move(const Qubit* qubits, std::size_t count, int source,
                        int tag) {
  check_user_tag(tag, "recv_move");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  for (std::size_t i = 0; i < count; ++i) recv_move_one(qubits[i], source, tag);
}

void Context::unsend_move(const Qubit* qubits, std::size_t count, int dest,
                          int tag) {
  // Teleport the qubits back: the original sender receives.
  check_user_tag(tag, "unsend_move");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnmove);
  for (std::size_t i = 0; i < count; ++i) recv_move_one(qubits[i], dest, tag);
}

void Context::unrecv_move(const Qubit* qubits, std::size_t count, int source,
                          int tag) {
  check_user_tag(tag, "unrecv_move");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnmove);
  for (std::size_t i = 0; i < count; ++i)
    send_move_one(qubits[i], source, tag);
}

void Context::exchange_move(Qubit* qubits, std::size_t count, int dest,
                            int source, int tag) {
  // Split-phase bidirectional teleport: outgoing state leaves via
  // send_move, incoming state lands in freshly allocated qubits that then
  // replace the caller's handles.
  check_exchange_peers(rank(), dest, source);
  QubitArray incoming = alloc_qmem(count);
  const Leg legs[] = {{dest, qubits, count, nullptr, 0},
                      {source, nullptr, 0, incoming.data(), count}};
  exchange(Transfer::kMove, tag, tag, legs);
  // The old handles are |0> after the move; free them and adopt the
  // incoming qubits in place (MPI_Sendrecv_replace semantics).
  for (std::size_t i = 0; i < count; ++i) {
    free_qmem(&qubits[i], 1);
    qubits[i] = incoming[i];
  }
}

void Context::sendrecv_replace(Qubit* qubits, std::size_t count, int dest,
                               int source, int tag) {
  check_user_tag(tag, "sendrecv_replace");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  exchange_move(qubits, count, dest, source, tag);
}

void Context::unsendrecv_replace(Qubit* qubits, std::size_t count, int dest,
                                 int source, int tag) {
  // Inverse: teleport the replacement back to `source` and recover our
  // original from `dest`.
  check_user_tag(tag, "unsendrecv_replace");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnmove);
  exchange_move(qubits, count, source, dest, tag);
}

// ------------------------------------------------------------ nonblocking ---

QRequest Context::isend(const Qubit* qubits, std::size_t count, int dest,
                        int tag) {
  std::vector<Qubit> copy(qubits, qubits + count);
  return QRequest(
      [this, copy, dest, tag] { send(copy.data(), copy.size(), dest, tag); });
}

QRequest Context::irecv(const Qubit* qubits, std::size_t count, int source,
                        int tag) {
  std::vector<Qubit> copy(qubits, qubits + count);
  return QRequest([this, copy, source, tag] {
    recv(copy.data(), copy.size(), source, tag);
  });
}

QRequest Context::isend_move(const Qubit* qubits, std::size_t count, int dest,
                             int tag) {
  std::vector<Qubit> copy(qubits, qubits + count);
  return QRequest([this, copy, dest, tag] {
    send_move(copy.data(), copy.size(), dest, tag);
  });
}

QRequest Context::irecv_move(const Qubit* qubits, std::size_t count,
                             int source, int tag) {
  std::vector<Qubit> copy(qubits, qubits + count);
  return QRequest([this, copy, source, tag] {
    recv_move(copy.data(), copy.size(), source, tag);
  });
}

// ------------------------------------------------------------- persistent ---

PersistentHandle Context::persistent_init(std::size_t count, int peer,
                                          int tag) {
  check_user_tag(tag, "persistent_init");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  PersistentHandle handle;
  handle.peer = peer;
  handle.tag = tag;
  QubitArray halves = alloc_qmem(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Sub-channel 3: persistent establishment is direction-agnostic (which
    // side will send is decided at start time). Concurrent persistent
    // handles between the same pair need distinct user tags, as in MPI.
    establish_epr(halves[i], peer, encode_tag(tag, 3));
    handle.epr_halves.push_back(halves[i]);
  }
  handle.armed = true;
  return handle;
}

void Context::start_send(PersistentHandle& handle, const Qubit* qubits,
                         std::size_t count) {
  if (!handle.armed || handle.epr_halves.size() != count) {
    throw QmpiError("start_send: handle not armed for this message size");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  const int ptag = encode_tag(handle.tag, direction_sub(rank(), handle.peer));
  // Purely classical phase: parity measurement against the pre-established
  // halves + one classical bit per qubit. No EPR pairs are created here.
  for (std::size_t i = 0; i < count; ++i) {
    Qubit e = handle.epr_halves[i];
    cnot(qubits[i], e);
    const bool m = measure(e);
    if (m) x(e);
    free_qmem(&e, 1);
    protocol_comm_.send(static_cast<std::uint8_t>(m), handle.peer, ptag);
    tracker_->count_classical_bits(1);
    trace_event({TraceEvent::Kind::kClassicalSend, rank(), handle.peer, 1,
                 "pfixup"});
  }
  handle.armed = false;
  handle.epr_halves.clear();
}

void Context::start_recv(PersistentHandle& handle, Qubit* out,
                         std::size_t count) {
  if (!handle.armed || handle.epr_halves.size() != count) {
    throw QmpiError("start_recv: handle not armed for this message size");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  const int ptag = encode_tag(handle.tag, direction_sub(handle.peer, rank()));
  for (std::size_t i = 0; i < count; ++i) {
    const auto m = protocol_comm_.recv<std::uint8_t>(handle.peer, ptag);
    if (m != 0) x(handle.epr_halves[i]);
    out[i] = handle.epr_halves[i];
  }
  handle.armed = false;
  handle.epr_halves.clear();
}

// ------------------------------------------------------------- aggregation ---

ResourceTracker::Counts Context::aggregate_resources(OpCategory category) {
  const auto mine = (*tracker_)[category];
  struct Pair {
    std::uint64_t a, b;
  };
  const Pair sum = user_comm_.allreduce(
      Pair{mine.epr_pairs, mine.classical_bits},
      [](Pair x, Pair y) { return Pair{x.a + y.a, x.b + y.b}; });
  return ResourceTracker::Counts{sum.a, sum.b};
}

ResourceTracker::Counts Context::aggregate_total() {
  const auto mine = tracker_->total();
  struct Pair {
    std::uint64_t a, b;
  };
  const Pair sum = user_comm_.allreduce(
      Pair{mine.epr_pairs, mine.classical_bits},
      [](Pair x, Pair y) { return Pair{x.a + y.a, x.b + y.b}; });
  return ResourceTracker::Counts{sum.a, sum.b};
}

// ------------------------------------------------------------ job harness ---

JobOptions JobOptions::from_env() { return from_env(JobOptions{}); }

JobOptions JobOptions::from_env(JobOptions base) {
  using env::Var;
  env::assign(Var::kSeed, base.seed);
  env::assign(Var::kBackend, base.backend);
  env::assign(Var::kShards, base.num_shards);
  env::assign(Var::kSimThreads, base.sim_threads);
  env::assign(Var::kTransport, base.transport);
  env::assign(Var::kSimBatch, base.sim_batch_ops);
  env::assign(Var::kP2p, base.p2p);
  env::assign(Var::kP2pHost, base.p2p_host);
  env::assign(Var::kSimd, base.simd);
  env::assign(Var::kServiceHost, base.service_host);
  env::assign(Var::kServicePort, base.service_port);
  env::assign(Var::kServiceQubits, base.service_qubits);
  env::assign(Var::kCircuitCache, base.circuit_cache);
  return base;
}

namespace {

/// A job's totals flattened to [epr_pairs, classical_bits] per category:
/// the layout the tcp end barrier sums across processes.
using Totals = std::vector<std::uint64_t>;
constexpr auto kCategories = static_cast<std::size_t>(OpCategory::kCount_);

/// Where one job's ranks and quantum state live — the only part of run()
/// that depends on options.transport. Members are destroyed in reverse
/// order, so the client goes before the transport and server it uses.
struct Placement {
  std::unique_ptr<sim::SimServer> server;  ///< inproc only
  std::unique_ptr<classical::Transport> transport;
  classical::RankBlock ranks;  ///< the ranks this process hosts
  /// Shared by every local rank thread (and thus one op pipeline): the
  /// buffer preserves per-process issue order.
  std::shared_ptr<sim::SimClient> sim;
  /// Closes the job once every rank thread has joined; maps this
  /// process's totals to the job's.
  std::function<Totals(Totals)> finish = [](Totals t) { return t; };
  /// tcp only: raises the job-level error when every local failure was a
  /// secondary ShutdownError (the cause lives in another process).
  std::function<void()> explain_shutdown;
};

/// In process: every rank is a thread of a Universe, and every quantum
/// operation runs on the calling rank thread against one SimServer.
Placement place_inproc(const JobOptions& options, sim::BackendKind backend) {
  Placement place;
  place.server = std::make_unique<sim::SimServer>(
      options.seed, options.sim_threads, backend, options.num_shards);
  if (options.circuit_cache > 0) {
    // Attach the compiled-cluster cache through the server mutex so it
    // never races gate traffic. Replay is bit-identical to a cold
    // compile, so this is purely a throughput knob.
    auto cache = std::make_shared<sim::ClusterCache>(options.circuit_cache);
    place.server->call([&cache](sim::Backend& b) {
      b.set_cluster_cache(cache);
      return 0;
    });
  }
  place.transport = std::make_unique<classical::Universe>(options.num_ranks);
  place.ranks = {0, options.num_ranks};
  place.sim = std::make_shared<sim::LocalSimClient>(*place.server);
  return place;
}

/// Under QMPI_TRANSPORT=service ranks are threads of this process, as in
/// process, but every quantum operation goes to a session opened on a
/// resident qmpid job service, which admits the session against its
/// memory budget and fair-schedules its sweeps against other tenants'.
/// The session is this job's private epoch/RNG namespace; other tenants
/// on the same service cannot perturb it.
Placement place_service(const JobOptions& options, sim::BackendKind backend) {
  if (options.service_port == 0) {
    throw QmpiError(
        "QMPI_TRANSPORT=service requires QMPI_SERVICE_PORT (qmpid prints "
        "the port it serves on)");
  }
  service::SessionConfig scfg;
  scfg.host = options.service_host;
  scfg.port = options.service_port;
  scfg.seed = options.seed;
  scfg.backend = backend;
  scfg.num_shards = options.num_shards;
  scfg.sim_threads = options.sim_threads;
  scfg.max_qubits = options.service_qubits;
  scfg.max_batch_ops = options.sim_batch_ops;
  Placement place;
  place.transport = std::make_unique<classical::Universe>(options.num_ranks);
  place.ranks = {0, options.num_ranks};
  // Throws the typed AdmissionError when the session can never fit the
  // service's memory budget; blocks (FIFO) while capacity is merely busy.
  auto session = std::make_shared<service::SessionClient>(scfg);
  place.sim = session;
  place.finish = [session](Totals t) {
    session->close();
    return t;
  };
  return place;
}

/// The process-wide hub connection for QMPI_TRANSPORT=tcp jobs. Created
/// lazily on the first tcp run() and reused for every run in this process
/// (the hub brackets each run with its own begin/end barriers).
classical::HubClient& tcp_hub_client() {
  static std::unique_ptr<classical::HubClient> client = [] {
    const auto port = env::get(env::Var::kTcpPort);
    if (!port) {
      throw QmpiError(
          "QMPI_TRANSPORT=tcp requires QMPI_TCP_PORT (qmpirun sets it; for "
          "a manual launch export the hub's port)");
    }
    const char* host = env::get_address(env::Var::kTcpHost);
    int proc_id = 0;
    env::assign(env::Var::kProcId, proc_id);
    return std::make_unique<classical::HubClient>(
        host != nullptr ? host : "127.0.0.1",
        static_cast<std::uint16_t>(*port), proc_id);
  }();
  return *client;
}

/// Under QMPI_TRANSPORT=tcp this process joins a qmpirun-launched job: it
/// hosts a contiguous block of the job's ranks, quantum operations go over
/// the sim channels to rank 0's process (or, distributed, to every
/// process's replica), and the totals are world-summed at the end barrier
/// so they are identical in all processes.
Placement place_tcp(const JobOptions& options) {
  classical::HubClient& hub = tcp_hub_client();
  const bool distributed =
      options.backend == sim::BackendKind::kDistributed;
  classical::RunConfig cfg;
  cfg.num_ranks = static_cast<std::uint32_t>(options.num_ranks);
  cfg.seed = options.seed;
  cfg.backend = static_cast<std::uint8_t>(options.backend);
  cfg.num_shards = options.num_shards;
  cfg.sim_threads = options.sim_threads;
  // Processes participating in the sim plane: with more processes than
  // ranks the extras host zero ranks, issue no quantum ops, and stay out
  // of slice ownership entirely (they still sit in the run barriers).
  const int sim_world = std::min(hub.nprocs(), options.num_ranks);
  if (distributed) {
    // Slices are the unit of cross-process ownership: at least one per
    // participating process (rounded to the power of two the sharded
    // layout needs). Every process computes the same count from the same
    // env, and the RunConfig barrier rejects any disagreement.
    const auto floor = std::bit_ceil(static_cast<unsigned>(sim_world));
    cfg.num_shards = std::max(options.num_shards, floor);
    if (cfg.num_shards > sim::kMaxShards) {
      throw QmpiError("QMPI_BACKEND=distributed with " +
                      std::to_string(sim_world) +
                      " processes needs more than the maximum " +
                      std::to_string(sim::kMaxShards) + " slices");
    }
  }

  // Order matters: register the transport's delivery sinks (and, with p2p
  // enabled, the peer listener address) before the begin barrier so no
  // peer's first message can race the registration, and keep the transport
  // alive until after end_run (the RUN_END_ACK guarantees no further
  // deliveries are in flight).
  Placement place;
  place.transport = std::make_unique<classical::SocketTransport>(
      hub, options.num_ranks, options.p2p, options.p2p_host);
  auto& transport = static_cast<classical::SocketTransport&>(*place.transport);
  place.ranks = transport.local_ranks();
  // The sim client (and with it this process's backend, if it hosts one)
  // must exist before the begin barrier completes: its sim sink has to be
  // registered before any peer can address us. A backend that cannot be
  // built fails the run for every process once the barrier has made the
  // run live, so no peer is left waiting on it.
  std::string build_error;
  if (hub.proc_id() < sim_world) {
    // Addressing inside the client uses rank_block over sim_world, which
    // agrees with the transport's real placement for every participating
    // process (the extras only ever truncate the tail of the blocks).
    try {
      place.sim = std::make_shared<DistSimClient>(
          transport, options.num_ranks, sim_world, hub.proc_id(),
          options.backend, cfg.num_shards, options.seed, options.sim_threads,
          options.sim_batch_ops, options.circuit_cache);
    } catch (const std::exception& e) {
      build_error = std::string("cannot start run, backend reset failed: ") +
                    e.what();
    }
  }
  hub.begin_run(cfg);
  if (!build_error.empty()) {
    transport.shutdown(build_error);
    throw QmpiError(build_error);
  }
  // end_run translates a peer failure at the end barrier into a QmpiError
  // carrying the job-level cause (possible even with zero local ranks).
  place.finish = [&hub](Totals t) { return hub.end_run(t); };
  place.explain_shutdown = [&hub] {
    const std::string reason = hub.dead_reason();
    throw QmpiError("QMPI job aborted" +
                    (reason.empty() ? std::string(" by a peer process")
                                    : ": " + reason));
  };
  return place;
}

}  // namespace

JobReport run(const JobOptions& options,
              const std::function<void(Context&)>& fn) {
  if (options.num_ranks < 1) {
    throw QmpiError("run: num_ranks must be >= 1");
  }
  JobReport report;
  // The distributed backend needs rank processes; without tcp it degrades
  // to its world-1 equivalent — the sharded backend — with a notice, so one
  // job script runs under any transport and the report stays honest about
  // what executed.
  sim::BackendKind backend = options.backend;
  if (backend == sim::BackendKind::kDistributed &&
      options.transport != TransportKind::kTcp) {
    backend = sim::BackendKind::kSharded;
    report.notices.push_back(
        std::string("QMPI_BACKEND=distributed needs the tcp transport; this ") +
        (options.transport == TransportKind::kService ? "service session"
                                                      : "in-process job") +
        " ran the sharded backend (its single-process equivalent)");
  }
  // Resolve the SIMD tier before any backend exists so every sweep of this
  // job runs the selected kernels. Unavailable-ISA fallback is a notice,
  // not an error — the report records what actually executed. Every
  // backend but the service's sweeps in a job process; the service reads
  // its own process's QMPI_SIMD, and the notice this node would hit is
  // still recorded to keep reports honest.
  const sim::simd::Selection simd_sel = sim::simd::resolve(options.simd);
  if (options.transport != TransportKind::kService) {
    sim::simd::set_active(simd_sel.isa);
  }
  if (!simd_sel.notice.empty()) report.notices.push_back(simd_sel.notice);

  Placement place = options.transport == TransportKind::kTcp
                        ? place_tcp(options)
                    : options.transport == TransportKind::kService
                        ? place_service(options, backend)
                        : place_inproc(options, backend);
  // The trace (when enabled) covers only the locally hosted ranks; under
  // tcp it deliberately stays per-process and is not merged.
  Trace trace;
  Trace* trace_ptr = options.enable_trace ? &trace : nullptr;
  std::vector<std::array<ResourceTracker::Counts, kCategories>> per_rank(
      static_cast<std::size_t>(place.ranks.count));
  try {
    classical::Runtime::run(
        *place.transport, place.ranks, [&](classical::Comm& world) {
          Context ctx(world, place.sim, trace_ptr);
          fn(ctx);
          // Run boundary: every op this rank issued must execute (and any
          // deferred batch error must surface *here*, attributed to a
          // rank) before the job is allowed to complete.
          ctx.sim().fence();
          ctx.classical_comm().barrier();
          const int local = ctx.rank() - place.ranks.first;
          auto& mine = per_rank[static_cast<std::size_t>(local)];
          for (std::size_t c = 0; c < kCategories; ++c) {
            mine[c] = ctx.tracker()[static_cast<OpCategory>(c)];
          }
        });
  } catch (const classical::ShutdownError&) {
    if (place.explain_shutdown) place.explain_shutdown();
    throw;
  }

  // If Counts ever grows a field, this assert forces the flattened layout
  // (and with it the tcp end barrier) to learn about it.
  static_assert(sizeof(ResourceTracker::Counts) == 2 * sizeof(std::uint64_t),
                "update the Totals layout for the new Counts field");
  Totals totals(kCategories * 2, 0);
  for (const auto& rank_counts : per_rank) {
    for (std::size_t c = 0; c < kCategories; ++c) {
      totals[2 * c] += rank_counts[c].epr_pairs;
      totals[2 * c + 1] += rank_counts[c].classical_bits;
    }
  }
  totals = place.finish(std::move(totals));
  for (std::size_t c = 0; c < kCategories && 2 * c + 1 < totals.size(); ++c) {
    report.totals_by_category[c].epr_pairs = totals[2 * c];
    report.totals_by_category[c].classical_bits = totals[2 * c + 1];
  }
  report.trace = trace.snapshot();
  return report;
}

JobReport run(int num_ranks, const std::function<void(Context&)>& fn) {
  // The convenience overload honours the QMPI_* environment overrides, so
  // every example and benchmark binary can switch seed/backend/shards from
  // the command line without touching code.
  JobOptions options = JobOptions::from_env();
  options.num_ranks = num_ranks;
  return run(options, fn);
}

}  // namespace qmpi
