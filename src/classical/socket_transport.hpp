#pragma once

/// \file socket_transport.hpp
/// TCP transport for multi-process QMPI jobs: hub, per-process client,
/// and the Transport implementation. See docs/ARCHITECTURE.md §3.


#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "classical/mailbox.hpp"
#include "classical/message.hpp"
#include "classical/transport.hpp"
#include "classical/wire.hpp"
#include "core/sync.hpp"

namespace qmpi::classical {

/// TCP transport for QMPI ranks running as separate OS processes.
///
/// Topology: a star control plane with an optional peer-to-peer data
/// plane. One *hub* (hosted by the `qmpirun` launcher) accepts one TCP
/// connection per rank process and provides the control-plane services
/// over length-prefixed frames (wire.hpp):
///
///   1. Job control: RUN_BEGIN/RUN_READY and RUN_END/RUN_END_ACK barriers
///      bracket every qmpi::run() call so all processes agree on the run
///      configuration and resource totals are world-summed; kAbort
///      propagates any rank failure so no process deadlocks on a dead
///      peer. The RUN_BEGIN barrier doubles as the p2p broker: each
///      process advertises its peer-listener address in its kRunBegin
///      frame and receives the full per-process address table back in the
///      kRunReady reply.
///   2. No quantum ops: they travel on the sim channels to rank 0's
///      process (core/sim_dist.hpp), which hosts the serial or sharded
///      backend — the paper's §6 design ("all ranks forward quantum
///      operations to rank 0"). The hub's own quantum frame types of wire
///      v2 are retired: one arriving is counted and aborts the run.
///   3. Classical routing fallback: a kPost frame names a destination
///      world rank; the hub forwards it as kDeliver to the process
///      hosting that rank. Per-connection FIFO plus single-threaded
///      routing preserves the MPI non-overtaking order Comm relies on.
///
/// The data plane (PeerMesh, enabled unless QMPI_P2P=off): cross-process
/// classical messages travel on direct rank-process <-> rank-process TCP
/// connections, dialed lazily on first send using the brokered address
/// table and framed with the same epoch-tagged kPost body layout
/// (kPeerPost). Each (sender process, receiver process) pair's route —
/// direct or hub — is fixed at first use and never changes mid-run, so
/// MPI non-overtaking order is preserved per pair; an unreachable peer
/// (or one that advertised no listener) permanently falls back to hub
/// routing for the run. Barriers, aborts and context allocation always
/// stay on the hub connection.
///
/// Rank placement: the requested `num_ranks` are split into contiguous
/// blocks over the `nprocs` connected processes (rank_block()); a process
/// runs one thread per hosted rank. With nprocs == num_ranks this is one
/// process per rank; with fewer processes the job oversubscribes like
/// `mpirun --oversubscribe`; processes beyond num_ranks host zero ranks
/// but still participate in the run barriers.
///
/// All transport failures (connect refusal, peer death mid-message,
/// oversized frames, configuration mismatch) surface as QmpiError with the
/// failing endpoint in the message.

/// Configuration one run() call must agree on across every process. The
/// classical layer treats `backend` as an opaque token; the core layer maps
/// it to sim::BackendKind.
struct RunConfig {
  std::uint32_t num_ranks = 0;
  std::uint64_t seed = 0;
  std::uint8_t backend = 0;
  std::uint32_t num_shards = 1;
  std::uint32_t sim_threads = 1;
  bool operator==(const RunConfig&) const = default;
};

/// Where one rank process accepts direct peer connections. Port 0 means
/// "no listener": the process opted out of the p2p data plane
/// (QMPI_P2P=off) and every message toward it must go through the hub.
struct PeerAddr {
  std::string host;
  std::uint16_t port = 0;
};

/// Deterministic rank placement shared by hub and clients: contiguous
/// blocks, earlier processes take the remainder.
RankBlock rank_block(int num_ranks, int nprocs, int proc);
/// Inverse mapping: which process hosts `world_rank`.
int rank_owner(int num_ranks, int nprocs, int world_rank);

// ------------------------------------------------------- socket helpers ---

namespace net {

/// Creates a TCP listener on `port` (0 = ephemeral), writes the bound port
/// back to `bound_port`, and returns the listening fd (CLOEXEC,
/// SO_REUSEADDR). `loopback_only` binds 127.0.0.1; otherwise all
/// interfaces. Throws QmpiError prefixed with `role` ("hub", "qmpid", ...)
/// on failure. Shared by the hub, the peer mesh, and the job service so
/// every listener in the system has identical bind semantics.
int listen_tcp(std::uint16_t port, int backlog, const char* role,
               std::uint16_t& bound_port, bool loopback_only = true);

/// Bounded dial: non-blocking connect with a poll() deadline, so a dead or
/// wedged listener costs at most `timeout_ms` instead of a minutes-long
/// blocking connect. Returns a blocking, TCP_NODELAY, CLOEXEC fd, or -1 on
/// any failure (callers decide whether that is fatal or a fallback).
int dial_tcp(const std::string& host, std::uint16_t port, int timeout_ms);

}  // namespace net

// ---------------------------------------------------------------- hub ---

/// The control plane and classical relay at the center of a multi-process
/// job. It hosts no quantum ops. Binds and listens in the constructor (so
/// clients may connect as soon as the launcher forks them); serve()
/// accepts `nprocs` connections and runs until every process has
/// disconnected.
class Hub {
 public:
  /// Throws QmpiError when the port cannot be bound. Port 0 picks an
  /// ephemeral port; read it back with port().
  Hub(int nprocs, std::uint16_t port);
  ~Hub();

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  std::uint16_t port() const { return port_; }

  /// How many of the expected processes have completed their HELLO
  /// handshake. The launcher compares this with its child count to detect
  /// a child that died before ever joining a partially formed job (the
  /// begin barrier could otherwise wait forever).
  int connected_count();

  /// Accepts connections and serves until all processes disconnect (or
  /// stop() is called). Run this on the launcher's main thread or a
  /// dedicated thread in tests.
  void serve();

  /// Force-closes the listener and all connections; serve() returns.
  void stop();

  /// The configuration of the last run that went live (default-constructed
  /// before the first).
  RunConfig last_run_config();

  /// How many frames of the retired quantum-op types (kSim, kSimBatch,
  /// kSimFence) reached the hub. Each one aborted the run it arrived in.
  std::uint64_t retired_quantum_frames();

 private:
  struct Conn {
    /// Serializes frame writes to this process and guards fd/open.
    /// Ordered after Hub::mu_: the abort/stop paths hold mu_ while taking
    /// a connection's write_mu, never the reverse.
    qmpi::Mutex write_mu{"Hub::Conn::write_mu"};
    int fd QMPI_GUARDED_BY(write_mu) = -1;
    bool open QMPI_GUARDED_BY(write_mu) = false;  ///< connection live
    std::thread reader;
    /// Proc id was ever taken; reconnects rejected. Guarded by Hub::mu_
    /// (a nested struct cannot spell that in an attribute).
    bool claimed = false;
  };

  void reader_loop(int proc);
  void handle_frame(int proc, Frame frame);
  void send_to(int proc, FrameType type, std::span<const std::byte> body);
  void abort_run_locked(int origin_proc, const std::string& reason)
      QMPI_REQUIRES(mu_);
  void on_disconnect(int proc);

  int nprocs_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  qmpi::Mutex mu_{"Hub::mu"};
  qmpi::CondVar done_cv_;
  /// Sized once in the constructor, elements never move; each Conn
  /// carries its own write_mu.
  std::vector<std::unique_ptr<Conn>> conns_;
  int connected_ QMPI_GUARDED_BY(mu_) = 0;
  int alive_ QMPI_GUARDED_BY(mu_) = 0;
  bool stopping_ QMPI_GUARDED_BY(mu_) = false;

  // Run lifecycle (guarded by mu_). hub_epoch_ counts completed RUN_BEGIN
  // barriers; a run is live between the RUN_READY broadcast and either the
  // RUN_END_ACK broadcast or an abort.
  std::uint64_t hub_epoch_ QMPI_GUARDED_BY(mu_) = 0;
  bool run_active_ QMPI_GUARDED_BY(mu_) = false;
  /// Last epoch whose abort broadcast ran.
  std::uint64_t aborted_epoch_ QMPI_GUARDED_BY(mu_) = 0;
  /// Processes that left the job for good.
  int departed_ QMPI_GUARDED_BY(mu_) = 0;
  RunConfig active_cfg_ QMPI_GUARDED_BY(mu_);
  std::uint64_t retired_quantum_frames_ QMPI_GUARDED_BY(mu_) = 0;
  std::optional<RunConfig> pending_cfg_ QMPI_GUARDED_BY(mu_);
  int begin_count_ QMPI_GUARDED_BY(mu_) = 0;
  std::vector<std::uint64_t> begin_req_ids_ QMPI_GUARDED_BY(mu_);
  /// Peer-listener addresses collected from this run's kRunBegin frames
  /// and echoed back to every process in its kRunReady (the broker step).
  std::vector<PeerAddr> begin_addrs_ QMPI_GUARDED_BY(mu_);
  int end_count_ QMPI_GUARDED_BY(mu_) = 0;
  std::vector<std::uint64_t> end_req_ids_ QMPI_GUARDED_BY(mu_);
  std::vector<std::uint64_t> end_totals_ QMPI_GUARDED_BY(mu_);
  std::uint64_t next_context_ QMPI_GUARDED_BY(mu_) = 1;
};

// --------------------------------------------------------------- client ---

/// One process's connection to the hub. Created once per process and
/// reused across run() calls; the receiver thread dispatches deliveries
/// into the active SocketTransport and request replies to the single
/// outstanding requester (requests are serialized and correlated by id, so
/// a reply delayed across an abort can never satisfy the wrong caller).
class HubClient {
 public:
  /// Connects and performs the HELLO handshake. Throws QmpiError when the
  /// hub is unreachable (after `connect_attempts` x 100 ms retries).
  HubClient(const std::string& host, std::uint16_t port, int proc_id,
            int connect_attempts = 50);
  ~HubClient();

  HubClient(const HubClient&) = delete;
  HubClient& operator=(const HubClient&) = delete;

  int nprocs() const { return nprocs_; }
  int proc_id() const { return proc_id_; }

  /// RUN_BEGIN barrier: blocks until every process has begun this run with
  /// an identical config and the run is live. Advertises this process's
  /// peer endpoint (set_peer_endpoint) and stores the brokered address
  /// table the hub returns (peer_addresses).
  void begin_run(const RunConfig& cfg);

  /// Registers the peer-listener address advertised by the next
  /// begin_run(). Port 0 (the default) advertises "no listener" and makes
  /// every peer hub-route its traffic toward this process.
  void set_peer_endpoint(std::string host, std::uint16_t port);

  /// The per-process peer address table brokered by the last successful
  /// begin_run() (index = proc id). Empty before the first run.
  std::vector<PeerAddr> peer_addresses();

  /// The epoch of the run this client is currently in. Direct peer frames
  /// carry it so stale traffic from an aborted run is droppable on the
  /// receiving side. Throws ShutdownError when the run is dead, so a
  /// sender can never stamp (and ship) a frame for a run that already
  /// failed — the sender-side half of the stale-epoch defense.
  std::uint64_t run_epoch();

  /// True while `epoch` names the live, un-failed run this client is in.
  /// The receiving side of the stale-epoch defense: peer readers drop any
  /// frame for which this is false, mirroring the kDeliver check.
  bool run_epoch_live(std::uint64_t epoch);

  /// RUN_END barrier: contributes this process's resource totals, returns
  /// the world-wide element-wise sum (identical in every process). Throws
  /// QmpiError naming the cause when the run was aborted (peer death,
  /// config mismatch) instead of completing.
  std::vector<std::uint64_t> end_run(std::span<const std::uint64_t> totals);

  /// Fails the current run everywhere: peers' blocked receives wake with
  /// ShutdownError. Idempotent; no-op when no run is live.
  void abort_run(const std::string& reason);

  /// Globally fresh communicator context id (hub-allocated).
  std::uint64_t allocate_context();

  /// Posts a classical message toward `dest_world_rank` (one-way, eager).
  void post_remote(int dest_world_rank, const Message& msg);

  /// Registers the delivery sink for incoming kDeliver frames and the
  /// abort hook (both invoked on the receiver thread). Pass nulls to
  /// unregister between runs; that returns only once a delivery already
  /// inside the old sink has left it. Must not be called from a sink.
  void set_sinks(std::function<void(int dest, Message)> deliver,
                 std::function<void(const std::string& reason)> on_abort);

  /// Why the current run is dead, or empty. The run harness uses this to
  /// turn secondary ShutdownErrors into one actionable QmpiError.
  std::string dead_reason();
  /// dead_reason(), after waiting up to `grace` for the run to die.
  std::string await_dead_reason(std::chrono::milliseconds grace);

 private:
  void receiver_loop();
  void fail_locked(const std::string& reason, bool fatal)
      QMPI_REQUIRES(mu_);
  std::vector<std::byte> request(FrameType type, FrameType expect,
                                 std::span<const std::byte> body);
  void check_alive_locked() QMPI_REQUIRES(mu_);

  int fd_ = -1;
  int proc_id_ = 0;
  int nprocs_ = 0;
  std::thread receiver_;

  /// Serializes request/reply users; held while taking wr_mu_ (to write
  /// the request frame) and mu_ (to park on the reply), hence the top of
  /// this client's ordering.
  qmpi::Mutex req_mu_ QMPI_ACQUIRED_BEFORE(wr_mu_, mu_){"HubClient::req_mu"};
  qmpi::Mutex wr_mu_{"HubClient::wr_mu"};  ///< serializes frame writes
  qmpi::Mutex mu_{"HubClient::mu"};        ///< guards everything below
  qmpi::CondVar cv_;
  std::uint64_t next_req_id_ QMPI_GUARDED_BY(mu_) = 1;
  /// 0 = nobody waiting.
  std::uint64_t waiting_req_id_ QMPI_GUARDED_BY(mu_) = 0;
  std::optional<Frame> reply_ QMPI_GUARDED_BY(mu_);
  std::uint64_t epoch_ QMPI_GUARDED_BY(mu_) = 0;
  bool epoch_done_ QMPI_GUARDED_BY(mu_) = true;
  /// Current run failed (cleared by begin_run).
  bool run_dead_ QMPI_GUARDED_BY(mu_) = false;
  /// Connection gone for good.
  bool fatal_ QMPI_GUARDED_BY(mu_) = false;
  std::string dead_reason_ QMPI_GUARDED_BY(mu_);
  std::function<void(int, Message)> deliver_ QMPI_GUARDED_BY(mu_);
  /// The receiver thread is inside deliver_ (invoked without mu_).
  bool delivering_ QMPI_GUARDED_BY(mu_) = false;
  std::function<void(const std::string&)> on_abort_ QMPI_GUARDED_BY(mu_);
  /// Advertised by the next begin_run.
  PeerAddr endpoint_ QMPI_GUARDED_BY(mu_);
  /// Brokered table from the last begin_run.
  std::vector<PeerAddr> peers_ QMPI_GUARDED_BY(mu_);
};

// ----------------------------------------------------------- peer mesh ---

/// The direct data plane of one rank process: a loopback listener that
/// accepts kPeerHello/kPeerPost streams from peer processes, plus lazily
/// dialed outgoing links to each peer (one simplex connection per
/// direction, so two simultaneous first-sends can never race a shared
/// socket). Created per run by SocketTransport when p2p is enabled; the
/// constructor registers the listener address with the HubClient so the
/// run-begin barrier can broker it to every peer.
///
/// Route stability: an outgoing link resolves exactly once — to kDirect
/// if the dial succeeds, to kHubRouted (permanently, for this run) if
/// the peer advertised no listener or refused the connection. A kDirect
/// link that later breaks becomes kBroken and every further send on it
/// raises PeerLinkError naming the edge; it never silently degrades to
/// hub routing, which could reorder messages behind ones already sent
/// directly.
class PeerMesh {
 public:
  /// Opens the listener and starts the accept thread. `deliver` receives
  /// decoded, epoch-checked messages on mesh reader threads (same
  /// contract as HubClient's delivery sink). `advertised_host` is the
  /// address peers will be told to dial (QMPI_P2P_HOST): for the loopback
  /// default the listener binds loopback only; any other value binds all
  /// interfaces so out-of-host peers can actually reach it.
  PeerMesh(HubClient& hub, std::function<void(int dest, Message)> deliver,
           const std::string& advertised_host = "127.0.0.1");
  ~PeerMesh();

  PeerMesh(const PeerMesh&) = delete;
  PeerMesh& operator=(const PeerMesh&) = delete;

  std::uint16_t port() const { return port_; }

  /// Ships `msg` toward the process hosting `dest_world_rank` over the
  /// direct link, dialing it first if this is the pair's first send.
  /// Returns false when the pair is (permanently) hub-routed. Throws
  /// PeerLinkError when an established link broke, and ShutdownError when
  /// the run is already dead.
  bool try_send(int dest_proc, int dest_world_rank, const Message& msg);

  /// Test hooks: make this process refuse new peer connections, or
  /// additionally sever already-accepted ones (simulating a peer whose
  /// data plane died while its hub connection lives on).
  void break_listener_for_test();
  void break_links_for_test();

 private:
  struct Link {
    /// Serializes dial + frame writes to this peer.
    qmpi::Mutex mu{"PeerMesh::Link::mu"};
    enum class State { kUnresolved, kDirect, kHubRouted, kBroken };
    State state QMPI_GUARDED_BY(mu) = State::kUnresolved;
    int fd QMPI_GUARDED_BY(mu) = -1;
  };

  void resolve_locked(Link& link, int dest_proc, std::uint64_t epoch)
      QMPI_REQUIRES(link.mu);
  void accept_loop();
  void peer_reader(int fd);

  HubClient* hub_;
  std::function<void(int, Message)> deliver_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Link>> links_;  ///< outgoing, per proc id

  /// Guards the accepted-connection bookkeeping below.
  qmpi::Mutex mu_{"PeerMesh::mu"};
  /// Accepted (incoming) connections.
  std::vector<int> peer_fds_ QMPI_GUARDED_BY(mu_);
  std::vector<std::thread> readers_ QMPI_GUARDED_BY(mu_);
  bool stopping_ QMPI_GUARDED_BY(mu_) = false;
};

// ------------------------------------------------------------ transport ---

/// Transport implementation over a HubClient: world_size() is the number
/// of *ranks* in the run (not processes); locally hosted ranks get real
/// mailboxes, co-hosted destinations short-circuit to a mailbox push, and
/// cross-process channels use the PeerMesh's direct links with the hub as
/// fallback (or exclusively the hub when constructed with p2p off).
/// Construct before HubClient::begin_run() so no delivery can race
/// registration and so the peer listener's address is advertised in the
/// begin barrier; destroy after end_run() returns (the RUN_END_ACK
/// guarantees no further deliveries are in flight).
class SocketTransport final : public Transport {
 public:
  /// `p2p` enables the direct data plane (QMPI_P2P; default on). With it
  /// off this transport advertises no listener and routes every
  /// cross-process message through the hub — byte-identical to the
  /// pre-p2p wire behavior. `p2p_host` is the address advertised to peers
  /// for this process's mesh listener (QMPI_P2P_HOST; loopback default).
  SocketTransport(HubClient& hub, int num_ranks, bool p2p = true,
                  const std::string& p2p_host = "127.0.0.1");
  ~SocketTransport() override;

  int world_size() const override { return num_ranks_; }
  Channel& channel(int dest_world_rank) override;
  Mailbox& mailbox(int world_rank) override;
  std::uint64_t allocate_context() override;
  /// Reports `reason` to the hub (peers see it in their QmpiError), then
  /// wakes local sim waiters and blocked ranks.
  void shutdown(const std::string& reason) override;
  const char* name() const override { return "tcp"; }

  /// The world ranks this process hosts.
  RankBlock local_ranks() const { return local_; }

  /// Ships a sim-channel message (channel >= ChannelKind::kSimCtl) toward
  /// the process hosting `dest_world_rank`: self-delivery invokes the sim
  /// sink inline, cross-process uses the mesh link (hub fallback, same
  /// route permanence as classical traffic). Unlike send_to_rank this
  /// never invokes the sim fence hook — sim traffic is what the fence
  /// orders, so fencing it would recurse. Throws ShutdownError when the
  /// run is dead.
  void post_sim(int dest_world_rank, Message msg);

  /// The quantum plane's view of this transport, registered once per run
  /// by the sim client (core/sim_dist.hpp).
  struct SimHooks {
    /// Receives every delivered message whose channel is >=
    /// ChannelKind::kSimCtl (on receiver threads, or inline for
    /// self-sends). Such messages never reach rank mailboxes; with no sink
    /// registered they are dropped.
    std::function<void(Message)> sink;
    /// Runs right before any cross-process classical send leaves this
    /// process, so the op stream (which bypasses hub and mesh FIFO toward
    /// the destination) is sequenced ahead of the message.
    std::function<void()> fence;
    /// Runs (with the reason) when the run dies — locally via shutdown()
    /// or remotely via an abort broadcast — so blocked sim waiters wake
    /// with a typed error instead of hanging.
    std::function<void(const std::string&)> fail;
  };

  /// Replaces the hooks; pass {} to unregister. Returns only once every
  /// hook call already in flight has finished, so the caller may free
  /// whatever the old hooks touch. Must not be called from inside a hook.
  void set_sim_hooks(SimHooks hooks);

  /// Test hooks (no-ops when p2p is off): see PeerMesh.
  void break_peer_listener_for_test();
  void break_peer_links_for_test();

 private:
  class RankChannel;

  bool is_local(int world_rank) const {
    return world_rank >= local_.first &&
           world_rank < local_.first + local_.count;
  }
  void send_to_rank(int dest_world_rank, int owner_proc, Message msg);
  /// Mesh link to `owner_proc` when it has one, else the hub.
  void send_remote(int owner_proc, int dest_world_rank, const Message& msg);
  void deliver_local(int dest_world_rank, Message msg);
  /// Calls `fn(hooks)` with the registered hooks, counted as in flight so
  /// set_sim_hooks() can wait it out.
  template <class Fn>
  void with_sim_hooks(Fn&& fn);
  /// Wakes local sim waiters (fail hook) and blocked ranks.
  void shutdown_local(const std::string& reason);

  HubClient* hub_;
  int num_ranks_;
  RankBlock local_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::unique_ptr<PeerMesh> mesh_;  ///< null when p2p is off
  std::vector<std::unique_ptr<RankChannel>> channels_;

  /// Guards the sim hooks (set once per run by the sim client, read on
  /// sender and receiver threads). Leaf lock: hooks are invoked with no
  /// lock held, and set_sim_hooks() waits on the in-flight count instead.
  qmpi::Mutex sim_hooks_mu_{"SocketTransport::sim_hooks_mu"};
  qmpi::CondVar sim_hooks_idle_;
  std::shared_ptr<const SimHooks> sim_hooks_ QMPI_GUARDED_BY(sim_hooks_mu_);
  int sim_hook_calls_ QMPI_GUARDED_BY(sim_hooks_mu_) = 0;
};

}  // namespace qmpi::classical
