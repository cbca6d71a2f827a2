// Tests for the TCP socket transport: framing, rank placement, hub-routed
// point-to-point and collectives (parity with the in-memory Universe), the
// run lifecycle barriers, the transport failure modes — connect refusal,
// mid-message peer death, oversized frames — all of which must surface as
// QmpiError with actionable text, and the p2p data plane's defenses:
// stale-epoch frames dropped on direct channels, permanent hub fallback
// for unreachable peer listeners, and PeerLinkError naming the failing
// edge when an established direct link dies.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "classical/comm.hpp"
#include "classical/socket_transport.hpp"
#include "classical/wire.hpp"

using namespace qmpi;
using namespace qmpi::classical;

namespace {

/// Mirrors of the anonymous wire constants in socket_transport.cpp, so
/// tests can speak the hub and peer handshakes from the outside. A version
/// bump there must be reflected here (deliberately: forged-frame tests
/// should break loudly when the wire format changes).
constexpr std::uint32_t kTestHelloMagic = 0x51'4d'50'49;  // "QMPI"
constexpr std::uint16_t kTestWireVersion = 3;

/// Hub on an ephemeral loopback port, served on a background thread.
struct TestHub {
  explicit TestHub(int nprocs)
      : hub(nprocs, 0), server([this] { hub.serve(); }) {}
  ~TestHub() {
    hub.stop();
    server.join();
  }
  Hub hub;
  std::thread server;
};

/// Simulates an nprocs-process job in one test binary: every "process" is
/// a thread owning its own HubClient, and hosts its block of the job's
/// num_ranks ranks as nested rank threads — the same structure the core
/// run harness uses. Rethrows the first per-process exception.
void run_tcp_job(int nprocs, int num_ranks,
                 const std::function<void(Comm&)>& rank_fn,
                 std::vector<std::uint64_t> proc_totals = {},
                 std::vector<std::uint64_t>* world_totals = nullptr) {
  TestHub th(nprocs);
  std::vector<std::thread> procs;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    procs.emplace_back([&, p] {
      try {
        HubClient client("127.0.0.1", th.hub.port(), p);
        SocketTransport transport(client, num_ranks);
        RunConfig cfg;
        cfg.num_ranks = static_cast<std::uint32_t>(num_ranks);
        cfg.seed = 7;
        client.begin_run(cfg);

        const RankBlock block = transport.local_ranks();
        std::vector<std::thread> ranks;
        std::vector<std::exception_ptr> rank_errors(
            static_cast<std::size_t>(block.count));
        for (int i = 0; i < block.count; ++i) {
          ranks.emplace_back([&, i] {
            try {
              Comm world = Comm::world(transport, block.first + i);
              rank_fn(world);
            } catch (...) {
              rank_errors[static_cast<std::size_t>(i)] =
                  std::current_exception();
              transport.shutdown("rank failed");
            }
          });
        }
        for (auto& t : ranks) t.join();
        for (auto& e : rank_errors) {
          if (e) std::rethrow_exception(e);
        }
        const auto sums = client.end_run(proc_totals);
        if (world_totals != nullptr && p == 0) *world_totals = sums;
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
      }
    });
  }
  for (auto& t : procs) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

// ------------------------------------------------------------- placement ---

TEST(RankPlacement, BlocksAreContiguousCompleteAndInverseConsistent) {
  for (const int nprocs : {1, 2, 3, 4}) {
    for (const int num_ranks : {1, 2, 3, 4, 5, 6, 8, 9}) {
      int covered = 0;
      for (int p = 0; p < nprocs; ++p) {
        const RankBlock b = rank_block(num_ranks, nprocs, p);
        EXPECT_EQ(b.first, covered) << "blocks must be contiguous";
        for (int r = b.first; r < b.first + b.count; ++r) {
          EXPECT_EQ(rank_owner(num_ranks, nprocs, r), p)
              << "owner(" << r << ") with " << num_ranks << " ranks on "
              << nprocs << " procs";
        }
        covered += b.count;
      }
      EXPECT_EQ(covered, num_ranks);
    }
  }
}

// --------------------------------------------------------------- framing ---

TEST(Framing, RoundTripsTypeAndBody) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  WireWriter w;
  w.u32(0xdeadbeef);
  w.str("hello");
  write_frame(fds[0], FrameType::kPost, w.data());
  const Frame frame = read_frame(fds[1]);
  EXPECT_EQ(frame.type, FrameType::kPost);
  WireReader r(frame.body);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.str(), "hello");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Framing, OversizedOutgoingFrameIsRejectedBeforeTheWire) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<std::byte> huge(kMaxFrameBytes + 1);
  try {
    write_frame(fds[0], FrameType::kPost, huge);
    FAIL() << "oversized frame must throw";
  } catch (const QmpiError& e) {
    EXPECT_NE(std::string(e.what()).find("oversized"), std::string::npos)
        << e.what();
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Framing, OversizedIncomingLengthPrefixIsRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Forge a header announcing a multi-gigabyte frame.
  WireWriter w;
  w.u32(0xff000000);
  const auto& h = w.data();
  ASSERT_EQ(::send(fds[0], h.data(), h.size(), 0),
            static_cast<ssize_t>(h.size()));
  try {
    (void)read_frame(fds[1]);
    FAIL() << "oversized frame must throw";
  } catch (const QmpiError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("oversized"), std::string::npos) << what;
    EXPECT_NE(what.find("limit"), std::string::npos) << what;
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Framing, PeerDeathMidFrameIsDetected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Announce a 100-byte frame, deliver 3 bytes, die.
  WireWriter w;
  w.u32(100);
  w.u8(static_cast<std::uint8_t>(FrameType::kPost));
  w.u16(7);
  const auto& partial = w.data();
  ASSERT_EQ(::send(fds[0], partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  ::close(fds[0]);
  try {
    (void)read_frame(fds[1]);
    FAIL() << "mid-frame death must throw";
  } catch (const QmpiError& e) {
    EXPECT_NE(std::string(e.what()).find("mid-message"), std::string::npos)
        << e.what();
  }
  ::close(fds[1]);
}

TEST(Framing, CleanEofReportsPeerClosed) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  try {
    (void)read_frame(fds[1]);
    FAIL() << "eof must throw";
  } catch (const QmpiError& e) {
    EXPECT_NE(std::string(e.what()).find("closed"), std::string::npos)
        << e.what();
  }
  ::close(fds[1]);
}

// --------------------------------------------------------- failure modes ---

TEST(SocketFailures, ConnectRefusalIsActionableQmpiError) {
  // Bind an ephemeral port, then close it so nothing listens there.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(fd);

  try {
    HubClient client("127.0.0.1", dead_port, 0, /*connect_attempts=*/1);
    FAIL() << "connect must be refused";
  } catch (const QmpiError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot connect to QMPI hub"), std::string::npos)
        << what;
    EXPECT_NE(what.find("qmpirun"), std::string::npos)
        << "message should tell the user what to check: " << what;
  }
}

TEST(SocketFailures, MidRunPeerDeathWakesBlockedRanksAndFailsTheJob) {
  TestHub th(2);
  std::atomic<bool> rank_saw_shutdown{false};
  std::string job_error;

  std::thread proc0([&] {
    HubClient client("127.0.0.1", th.hub.port(), 0);
    SocketTransport transport(client, 2);
    RunConfig cfg;
    cfg.num_ranks = 2;
    client.begin_run(cfg);
    // Rank 0 blocks forever on a message rank 1 will never send (its
    // process dies first).
    std::thread rank([&] {
      Comm world = Comm::world(transport, 0);
      try {
        (void)world.recv<int>(1, 0);
      } catch (const ShutdownError&) {
        rank_saw_shutdown = true;
      }
    });
    rank.join();
    try {
      (void)client.end_run({});
    } catch (const QmpiError& e) {
      job_error = e.what();
    }
  });

  std::thread proc1([&] {
    HubClient client("127.0.0.1", th.hub.port(), 1);
    SocketTransport transport(client, 2);
    RunConfig cfg;
    cfg.num_ranks = 2;
    client.begin_run(cfg);
    // Die mid-run without sending anything: destructors close the socket,
    // which the hub must treat as a fatal job error.
  });

  proc1.join();
  proc0.join();
  EXPECT_TRUE(rank_saw_shutdown)
      << "blocked receive must be woken by the peer's death";
  EXPECT_NE(job_error.find("left the job mid-run"), std::string::npos)
      << "end_run must name the cause, got: " << job_error;
}

TEST(SocketFailures, SilentListenerFailsTheHandshakeInsteadOfHanging) {
  // A listener that accepts but never speaks (wrong service on
  // QMPI_TCP_PORT, wedged hub) must fail the HELLO handshake with an
  // actionable QmpiError within the 5 s guard, not hang the rank process.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t mute_port = ntohs(addr.sin_port);

  try {
    HubClient client("127.0.0.1", mute_port, 0, /*connect_attempts=*/1);
    FAIL() << "handshake against a mute listener must throw";
  } catch (const QmpiError& e) {
    EXPECT_NE(std::string(e.what()).find("HELLO_ACK"), std::string::npos)
        << e.what();
  }
  ::close(fd);
}

TEST(SocketFailures, PeerDeathBetweenRunsFailsTheNextBeginBarrier) {
  // A process that leaves the job after a clean run (crash between two
  // qmpi::run calls) makes every later begin barrier unreachable; the hub
  // must fail the barrier immediately instead of letting survivors hang.
  TestHub th(2);
  std::string second_begin_error;
  std::thread proc0([&] {
    HubClient client("127.0.0.1", th.hub.port(), 0);
    RunConfig cfg;
    cfg.num_ranks = 2;
    {
      SocketTransport transport(client, 2);
      client.begin_run(cfg);
      (void)client.end_run({});
    }
    // Give the hub time to observe proc 1's departure, then try again.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    SocketTransport transport(client, 2);
    try {
      client.begin_run(cfg);
    } catch (const QmpiError& e) {
      second_begin_error = e.what();
    }
  });
  std::thread proc1([&] {
    HubClient client("127.0.0.1", th.hub.port(), 1);
    RunConfig cfg;
    cfg.num_ranks = 2;
    SocketTransport transport(client, 2);
    client.begin_run(cfg);
    (void)client.end_run({});
    // Destructors close the connection: this process leaves the job.
  });
  proc1.join();
  proc0.join();
  EXPECT_NE(second_begin_error.find("left the job"), std::string::npos)
      << "begin_run after a peer departed must fail, got: \""
      << second_begin_error << "\"";
}

TEST(SocketFailures, RunConfigMismatchFailsEveryProcess) {
  TestHub th(2);
  std::vector<std::string> what(2);
  std::vector<std::thread> procs;
  for (int p = 0; p < 2; ++p) {
    procs.emplace_back([&, p] {
      HubClient client("127.0.0.1", th.hub.port(), p);
      SocketTransport transport(client, 2);
      RunConfig cfg;
      cfg.num_ranks = 2;
      cfg.seed = static_cast<std::uint64_t>(p);  // the divergence
      try {
        client.begin_run(cfg);
      } catch (const QmpiError& e) {
        what[static_cast<std::size_t>(p)] = e.what();
      }
    });
  }
  for (auto& t : procs) t.join();
  for (const auto& w : what) {
    EXPECT_NE(w.find("configuration"), std::string::npos)
        << "both processes must see the mismatch, got: \"" << w << "\"";
  }
}

TEST(SocketFailures, RetiredQuantumFrameAbortsTheRunEverywhere) {
  // Wire v3 retired the hub's quantum plane. A process that still ships a
  // quantum op to the hub (kSim, frame type 9) has lost that op, so the
  // hub must count the frame and fail the live run: every process's
  // blocked call ends in a typed error, in bounded time.
  TestHub th(3);
  RunConfig cfg;
  cfg.num_ranks = 2;  // processes 0 and 1 host a rank each; 2 hosts none
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::string> job_errors(2);
  std::atomic<int> ranks_woken{0};
  std::vector<std::thread> procs;
  for (int p = 0; p < 2; ++p) {
    procs.emplace_back([&, p] {
      HubClient client("127.0.0.1", th.hub.port(), p);
      SocketTransport transport(client, 2);
      client.begin_run(cfg);
      std::thread rank([&] {
        Comm world = Comm::world(transport, p);
        try {
          (void)world.recv<int>(1 - p, 0);  // never sent
        } catch (const ShutdownError&) {
          ++ranks_woken;
        }
      });
      rank.join();
      try {
        (void)client.end_run({});
      } catch (const QmpiError& e) {
        job_errors[static_cast<std::size_t>(p)] = e.what();
      }
    });
  }

  // Process 2 speaks the wire by hand, as an old client would.
  const int fd = net::dial_tcp("127.0.0.1", th.hub.port(), 2000);
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  WireWriter hello;
  hello.u32(kTestHelloMagic);
  hello.u16(kTestWireVersion);
  hello.u16(2);  // proc id
  write_frame(fd, FrameType::kHello, hello.data());
  ASSERT_EQ(read_frame(fd).type, FrameType::kHelloAck);
  WireWriter begin;
  begin.u64(1);  // req id
  begin.u64(1);  // epoch
  begin.u32(cfg.num_ranks);
  begin.u64(cfg.seed);
  begin.u8(cfg.backend);
  begin.u32(cfg.num_shards);
  begin.u32(cfg.sim_threads);
  write_frame(fd, FrameType::kRunBegin, begin.data());
  ASSERT_EQ(read_frame(fd).type, FrameType::kRunReady);
  WireWriter op;
  op.u64(2);  // req id; the opaque op body does not matter
  write_frame(fd, FrameType::kSim, op.data());
  Frame abort = read_frame(fd);
  ASSERT_EQ(abort.type, FrameType::kAbort);
  WireReader r(abort.body);
  (void)r.u64();  // epoch
  EXPECT_NE(r.str().find("hosts no quantum ops"), std::string::npos);

  for (auto& t : procs) t.join();
  ::close(fd);
  EXPECT_EQ(ranks_woken.load(), 2);
  for (const auto& what : job_errors) {
    EXPECT_NE(what.find("quantum op"), std::string::npos)
        << "end_run must name the cause, got: \"" << what << "\"";
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_EQ(th.hub.retired_quantum_frames(), 1u);
}

// ------------------------------------------------- parity with Universe ---

TEST(SocketComm, PointToPointAcrossProcessesMatchesInprocSemantics) {
  // 2 processes x 1 rank each: sends cross the hub in both directions,
  // wildcard receives match, and non-overtaking order holds.
  run_tcp_job(2, 2, [](Comm& world) {
    if (world.rank() == 0) {
      world.send(41, 1, 5);
      world.send(42, 1, 5);
      world.send(3.5, 1, 6);
      const auto echoed = world.recv<int>(1, 7);
      EXPECT_EQ(echoed, 83);
    } else {
      // FIFO per (source, tag): 41 must precede 42.
      const auto a = world.recv<int>(0, 5);
      const auto b = world.recv<int>(0, 5);
      EXPECT_EQ(a, 41);
      EXPECT_EQ(b, 42);
      Status status;
      const auto c = world.recv<double>(kAnySource, kAnyTag, &status);
      EXPECT_DOUBLE_EQ(c, 3.5);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 6);
      world.send(a + b, 0, 7);
    }
  });
}

TEST(SocketComm, CollectivesAndCommAlgebraOverFourProcesses) {
  run_tcp_job(4, 4, [](Comm& world) {
    const int n = world.size();
    const int me = world.rank();
    // bcast + allgather + allreduce + scan across the hub.
    const int root_value = world.bcast(me == 2 ? 99 : 0, 2);
    EXPECT_EQ(root_value, 99);
    const auto all = world.allgather(me * 10);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
    }
    const int sum =
        world.allreduce(me + 1, [](int a, int b) { return a + b; });
    EXPECT_EQ(sum, n * (n + 1) / 2);
    const int prefix = world.scan(1, [](int a, int b) { return a + b; });
    EXPECT_EQ(prefix, me + 1);
    world.barrier();
    // dup isolates traffic; split regroups by parity.
    Comm dup = world.dup();
    dup.barrier();
    Comm half = world.split(me % 2, me);
    EXPECT_EQ(half.size(), n / 2);
    EXPECT_EQ(half.rank(), me / 2);
    const int group_sum =
        half.allreduce(me, [](int a, int b) { return a + b; });
    EXPECT_EQ(group_sum, me % 2 == 0 ? 0 + 2 : 1 + 3);
  });
}

TEST(SocketComm, AllreduceHandlesNonPowerOfTwoWorlds) {
  // 3 processes x 5 ranks: the recursive-doubling path must pre-fold the
  // remainder (5 = 4 + 1) and still combine operands in strict rank order.
  // A non-commutative associative op (2x2 matrix product) catches any
  // schedule that reorders operands.
  struct M2 {
    long long a, b, c, d;
    bool operator==(const M2&) const = default;
  };
  const auto mul = [](const M2& x, const M2& y) {
    return M2{x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
              x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d};
  };
  const auto elem = [](int r) { return M2{1, r + 1, 1, 0}; };
  for (const int nranks : {3, 5, 6, 7}) {
    M2 expected = elem(0);
    for (int r = 1; r < nranks; ++r) expected = mul(expected, elem(r));
    run_tcp_job(3, nranks, [&](Comm& world) {
      const M2 got = world.allreduce(elem(world.rank()), mul);
      EXPECT_EQ(got, expected) << "world size " << nranks;
      const int sum =
          world.allreduce(world.rank() + 1, [](int a, int b) { return a + b; });
      EXPECT_EQ(sum, nranks * (nranks + 1) / 2);
    });
  }
}

TEST(SocketComm, OversubscribedRanksShareProcessesCorrectly) {
  // 2 processes x 3 ranks: local pairs short-circuit the hub, the
  // cross-process edge goes through it; results must be identical.
  run_tcp_job(2, 6, [](Comm& world) {
    const int me = world.rank();
    const int next = (me + 1) % world.size();
    const int prev = (me + world.size() - 1) % world.size();
    world.send(me * me, next, 1);
    const auto got = world.recv<int>(prev, 1);
    EXPECT_EQ(got, prev * prev);
    const int sum = world.allreduce(me, [](int a, int b) { return a + b; });
    EXPECT_EQ(sum, 15);
  });
}

TEST(SocketComm, RunEndSumsTotalsAcrossProcesses) {
  std::vector<std::uint64_t> sums;
  run_tcp_job(3, 3, [](Comm&) {}, /*proc_totals=*/{2, 5},
              /*world_totals=*/&sums);
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0], 6u);   // 2 from each of 3 processes
  EXPECT_EQ(sums[1], 15u);  // 5 from each of 3 processes
}

// --------------------------------------------------------- p2p data plane ---

namespace {

/// Connects to a loopback port; gtest-fails and returns -1 on error.
int dial_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ADD_FAILURE() << "cannot dial peer listener on port " << port;
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Writes a kPeerPost frame carrying one int toward `dest` with the given
/// epoch stamp — the body layout encode_routed() produces.
void forge_peer_post(int fd, std::uint64_t epoch, int dest, int source,
                     int tag, int value) {
  WireWriter w;
  w.u64(epoch);
  w.i32(dest);
  w.i32(source);
  w.i32(tag);
  w.u8(0);  // ChannelKind::kPointToPoint
  w.u64(0); // world context
  w.bytes(to_bytes(value));
  write_frame(fd, FrameType::kPeerPost, w.data());
}

}  // namespace

TEST(PeerDataPlane, StaleEpochFramesOnDirectChannelsAreDropped) {
  // A direct peer connection carrying a frame stamped with an epoch other
  // than the receiver's live run (a sender raced by an abort, a stream
  // that straddles two runs) must drop that frame, exactly as the hub
  // path's kDeliver check does — and still deliver correctly stamped
  // frames arriving later on the same connection.
  TestHub th(2);
  std::vector<std::exception_ptr> errors(2);
  std::thread proc0([&] {
    try {
      HubClient client("127.0.0.1", th.hub.port(), 0);
      SocketTransport transport(client, 2);
      RunConfig cfg;
      cfg.num_ranks = 2;
      client.begin_run(cfg);
      Comm world = Comm::world(transport, 0);
      // FIFO per (source, tag): if the stale 13 were delivered, it would
      // arrive before the live 42 and this receive would return it.
      EXPECT_EQ(world.recv<int>(1, 3), 42);
      (void)client.end_run({});
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  std::thread proc1([&] {
    try {
      HubClient client("127.0.0.1", th.hub.port(), 1);
      SocketTransport transport(client, 2);
      RunConfig cfg;
      cfg.num_ranks = 2;
      client.begin_run(cfg);
      // Speak the peer protocol by hand toward proc 0's brokered address:
      // a valid hello, then a post stamped with a wrong epoch, then one
      // stamped with the live epoch.
      const PeerAddr addr = client.peer_addresses()[0];
      ASSERT_NE(addr.port, 0) << "proc 0 must have advertised a listener";
      const int fd = dial_loopback(addr.port);
      ASSERT_GE(fd, 0);
      WireWriter hello;
      hello.u32(kTestHelloMagic);
      hello.u16(kTestWireVersion);
      hello.u16(1);  // proc id
      hello.u64(client.run_epoch());
      write_frame(fd, FrameType::kPeerHello, hello.data());
      forge_peer_post(fd, client.run_epoch() + 7, /*dest=*/0, /*source=*/1,
                      /*tag=*/3, /*value=*/13);
      forge_peer_post(fd, client.run_epoch(), /*dest=*/0, /*source=*/1,
                      /*tag=*/3, /*value=*/42);
      (void)client.end_run({});
      ::close(fd);
    } catch (...) {
      errors[1] = std::current_exception();
    }
  });
  proc0.join();
  proc1.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

TEST(PeerDataPlane, UnreachablePeerListenerFallsBackToHubRouting) {
  // A peer whose listener refuses connections (firewalled port, data
  // plane that died before the first send) makes the pair hub-routed for
  // the run: messages still arrive, just via the control-plane star.
  TestHub th(2);
  std::vector<std::exception_ptr> errors(2);
  std::atomic<bool> listener_broken{false};
  std::thread proc0([&] {
    try {
      HubClient client("127.0.0.1", th.hub.port(), 0);
      SocketTransport transport(client, 2);
      RunConfig cfg;
      cfg.num_ranks = 2;
      client.begin_run(cfg);
      Comm world = Comm::world(transport, 0);
      // First send toward proc 1 happens strictly after its listener is
      // gone, so the dial must fail and resolve the pair to hub routing.
      while (!listener_broken) std::this_thread::yield();
      world.send(77, 1, 9);
      EXPECT_EQ(world.recv<int>(1, 10), 78);
      (void)client.end_run({});
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  std::thread proc1([&] {
    try {
      HubClient client("127.0.0.1", th.hub.port(), 1);
      SocketTransport transport(client, 2);
      RunConfig cfg;
      cfg.num_ranks = 2;
      client.begin_run(cfg);
      transport.break_peer_listener_for_test();
      listener_broken = true;
      Comm world = Comm::world(transport, 1);
      EXPECT_EQ(world.recv<int>(0, 9), 77);
      world.send(78, 0, 10);
      (void)client.end_run({});
    } catch (...) {
      errors[1] = std::current_exception();
    }
  });
  proc0.join();
  proc1.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

TEST(PeerDataPlane, DeadDirectLinkRaisesPeerLinkErrorNamingTheEdge) {
  // Once a pair's route resolved to a direct connection, that peer's
  // death must surface as PeerLinkError naming the broken edge — the
  // send/recv primitive every collective schedule is built on, so a
  // collective dying on one of its O(log n) exchanges points at the pair.
  // It must never silently fall back to hub routing (reordering hazard).
  TestHub th(2);
  std::vector<std::exception_ptr> errors(2);
  std::atomic<bool> peer_gone{false};
  std::string link_error;
  bool next_send_refused = false;
  std::thread proc0([&] {
    try {
      HubClient client("127.0.0.1", th.hub.port(), 0);
      SocketTransport transport(client, 2);
      RunConfig cfg;
      cfg.num_ranks = 2;
      client.begin_run(cfg);
      Comm world = Comm::world(transport, 0);
      world.send(1, 1, 0);  // resolves the 0 -> 1 route to direct
      while (!peer_gone) std::this_thread::yield();
      try {
        // The kernel surfaces the peer's RST on a subsequent write, not
        // necessarily the first; keep sending until it does.
        for (int i = 0; i < 100000; ++i) world.send(i, 1, 1);
        ADD_FAILURE() << "sends into a dead direct link must throw";
      } catch (const PeerLinkError& e) {
        link_error = e.what();
      }
      // Sender-side stale-epoch defense: the failure killed the run, so
      // the next send must refuse to stamp a frame at all.
      try {
        world.send(0, 1, 2);
      } catch (const TransportError&) {
        next_send_refused = true;
      }
      try {
        (void)client.end_run({});
      } catch (const QmpiError&) {
        // The aborted run is expected to fail the end barrier.
      }
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  std::thread proc1([&] {
    try {
      HubClient client("127.0.0.1", th.hub.port(), 1);
      RunConfig cfg;
      cfg.num_ranks = 2;
      {
        SocketTransport transport(client, 2);
        client.begin_run(cfg);
        Comm world = Comm::world(transport, 1);
        EXPECT_EQ(world.recv<int>(0, 0), 1);
        // Destroying the transport tears down the mesh and closes the
        // accepted direct connections — to proc 0 this looks exactly
        // like this process dying mid-run.
      }
      peer_gone = true;
      try {
        (void)client.end_run({});
      } catch (const QmpiError&) {
        // Aborted by proc 0's link failure.
      }
    } catch (...) {
      errors[1] = std::current_exception();
    }
  });
  proc0.join();
  proc1.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  EXPECT_NE(link_error.find("peer link proc 0 -> proc 1 broken"),
            std::string::npos)
      << "error must name the failing edge, got: \"" << link_error << "\"";
  EXPECT_TRUE(next_send_refused)
      << "a send after the link failure must throw, not ship a stale frame";
}

TEST(PeerDataPlane, BrokenLinkReportsTheFirstAbortReason) {
  // A process failing the job reports its cause to the hub, then its
  // links die with it. A peer whose send hits that dead link before the
  // hub's abort broadcast reaches it must surface the first cause, not
  // the broken edge that is only its symptom.
  TestHub th(2);
  std::vector<std::exception_ptr> errors(2);
  std::atomic<bool> peer_gone{false};
  std::atomic<bool> sending{false};
  std::string send_error;
  bool was_link_error = false;
  std::thread proc0([&] {
    try {
      HubClient client("127.0.0.1", th.hub.port(), 0);
      SocketTransport transport(client, 2);
      RunConfig cfg;
      cfg.num_ranks = 2;
      client.begin_run(cfg);
      Comm world = Comm::world(transport, 0);
      world.send(1, 1, 0);  // resolves the 0 -> 1 route to direct
      while (!peer_gone) std::this_thread::yield();
      sending = true;
      try {
        // The kernel surfaces the peer's RST on a subsequent write, not
        // necessarily the first; keep sending until it does.
        for (int i = 0; i < 100000; ++i) world.send(i, 1, 1);
        ADD_FAILURE() << "sends into a dead direct link must throw";
      } catch (const PeerLinkError& e) {
        was_link_error = true;
        send_error = e.what();
      } catch (const QmpiError& e) {
        send_error = e.what();
      }
      try {
        (void)client.end_run({});
      } catch (const QmpiError&) {
        // The aborted run is expected to fail the end barrier.
      }
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  std::thread proc1([&] {
    try {
      HubClient client("127.0.0.1", th.hub.port(), 1);
      RunConfig cfg;
      cfg.num_ranks = 2;
      {
        SocketTransport transport(client, 2);
        client.begin_run(cfg);
        Comm world = Comm::world(transport, 1);
        EXPECT_EQ(world.recv<int>(0, 0), 1);
        // Closes the accepted direct connections, as a dying process does.
      }
      peer_gone = true;
      // Abort once proc 0's sends are failing on the dead link, well
      // inside the grace it waits for the hub's reason.
      while (!sending) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      client.abort_run("proc 1 failed first: sentinel cause");
      try {
        (void)client.end_run({});
      } catch (const QmpiError&) {
        // Aborted above.
      }
    } catch (...) {
      errors[1] = std::current_exception();
    }
  });
  proc0.join();
  proc1.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  EXPECT_FALSE(was_link_error) << send_error;
  EXPECT_NE(send_error.find("sentinel cause"), std::string::npos)
      << "error must carry the first abort reason, got: \"" << send_error
      << "\"";
}

TEST(SocketComm, BackToBackRunsReuseTheConnection) {
  // Several runs over one hub/client set: the begin/end barriers must
  // fully isolate them (fresh contexts, empty mailboxes).
  TestHub th(2);
  std::vector<std::thread> procs;
  std::vector<std::exception_ptr> errors(2);
  for (int p = 0; p < 2; ++p) {
    procs.emplace_back([&, p] {
      try {
        HubClient client("127.0.0.1", th.hub.port(), p);
        for (int round = 0; round < 3; ++round) {
          SocketTransport transport(client, 2);
          RunConfig cfg;
          cfg.num_ranks = 2;
          client.begin_run(cfg);
          Comm world = Comm::world(transport, p);
          if (p == 0) {
            world.send(round, 1, round);
          } else {
            EXPECT_EQ(world.recv<int>(0, round), round);
          }
          Comm dup = world.dup();  // context ids restart every run
          dup.barrier();
          (void)client.end_run({});
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
}
