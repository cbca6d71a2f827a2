#include "service/job_service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iterator>
#include <string>

#include "classical/error.hpp"
#include "classical/socket_transport.hpp"
#include "core/env.hpp"
#include "core/sim_wire.hpp"
#include "sim/thread_pool.hpp"

namespace qmpi::service {

using classical::FrameType;
using qmpi::QmpiError;
using classical::WireReader;
using classical::WireWriter;

namespace {

/// Amplitudes are 16 bytes (two doubles); the admission predicate works in
/// amplitude units so the reject frame can name the budget in the same
/// currency the user reasons in (2^n amplitudes for an n-qubit session).
constexpr std::uint64_t kBytesPerAmp = sizeof(sim::Complex);

/// Sessions above 62 qubits would overflow the 2^n reservation arithmetic;
/// no budget this service can express admits them anyway.
constexpr std::uint32_t kMaxSessionQubits = 62;

/// Writes one frame to a client. A dead client socket is the reader's
/// problem (it sees EOF on its next read and tears the session down), not
/// an error here.
void send_frame(int fd, FrameType type,
                std::span<const std::byte> body) noexcept {
  try {
    classical::write_frame(fd, type, body);
  } catch (const QmpiError&) {
  }
}

void send_reject(int fd, std::uint64_t req_id, RejectKind kind,
                 std::uint64_t requested_amps, std::uint64_t available_amps,
                 const std::string& reason) {
  WireWriter w;
  w.u64(req_id);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(requested_amps);
  w.u64(available_amps);
  w.str(reason);
  send_frame(fd, FrameType::kSvcReject, w.data());
}

/// True once the client has closed its end of the socket: nothing it sent
/// is worth a sweep, since no reply could ever reach it.
bool client_gone(int fd) {
  pollfd p{fd, POLLRDHUP, 0};
  return ::poll(&p, 1, 0) > 0 &&
         (p.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
}

}  // namespace

ServiceConfig ServiceConfig::from_env() {
  ServiceConfig cfg;
  env::assign(env::Var::kMaxSessions, cfg.max_sessions);
  env::assign(env::Var::kMemBudget, cfg.mem_budget_bytes);
  env::assign(env::Var::kCircuitCache, cfg.circuit_cache_entries);
  env::assign(env::Var::kServiceExecutors, cfg.executors);
  return cfg;
}

JobService::JobService(ServiceConfig config)
    : config_(config),
      budget_amps_(config.mem_budget_bytes / kBytesPerAmp),
      slots_(config.executors != 0
                 ? config.executors
                 : std::clamp(std::thread::hardware_concurrency(), 1u, 8u)) {
  if (config_.circuit_cache_entries > 0) {
    cache_ = std::make_shared<sim::ClusterCache>(config_.circuit_cache_entries);
  }
}

JobService::~JobService() { stop(); }

void JobService::start() {
  listen_fd_ = classical::net::listen_tcp(
      config_.port, /*backlog=*/static_cast<int>(config_.max_sessions) + 16,
      "qmpid", port_);
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void JobService::stop() {
  {
    const qmpi::LockGuard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Sever every live session so blocked readers wake with EOF and run
    // their own teardown; readers waiting for a slot and queued admissions
    // wake to the stop.
    for (const auto& s : sessions_) ::shutdown(s->fd, SHUT_RDWR);
    for (qmpi::CondVar* turn : slot_waiters_) turn->notify_one();
    admit_cv_.notify_all();
  }
  // shutdown() wakes the blocked accept(); the fd is closed (and
  // listen_fd_ written) only once the accept loop, which reads it, is
  // joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::list<Connection> conns;
  {
    const qmpi::LockGuard lock(mu_);
    conns.swap(connections_);
  }
  for (Connection& conn : conns) conn.thread.join();
}

ServiceStats JobService::stats() const {
  const qmpi::LockGuard lock(mu_);
  ServiceStats s;
  s.admitted = admitted_;
  s.rejected = rejected_;
  s.queued_admissions = queued_admissions_;
  s.active_sessions = sessions_.size();
  s.reserved_amps = reserved_amps_;
  s.forged_dropped = forged_dropped_;
  s.ops_executed = ops_executed_;
  s.connection_threads = connections_.size();
  if (cache_) {
    s.cache_hits = cache_->hits();
    s.cache_misses = cache_->misses();
    s.cache_evictions = cache_->evictions();
  }
  return s;
}

// ---------------------------------------------------------------- accept ---

void JobService::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd closed by stop()
    }
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    std::list<Connection> finished;
    {
      const qmpi::LockGuard lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      for (auto it = connections_.begin(); it != connections_.end();) {
        const auto next = std::next(it);
        if (it->done) finished.splice(finished.end(), connections_, it);
        it = next;
      }
      // List nodes never move, so the reader may keep a reference to its
      // slot (stop() swaps the whole list out, which keeps them too).
      Connection& conn = connections_.emplace_back();
      conn.thread = std::thread([this, fd, &conn] {
        serve_connection(fd);
        const qmpi::LockGuard done_lock(mu_);
        conn.done = true;
      });
    }
    // Joined outside mu_: a reader past its done mark may still be
    // exiting, and other readers must not wait on that.
    for (Connection& conn : finished) conn.thread.join();
  }
}

// ------------------------------------------------------------- admission ---

std::shared_ptr<JobService::Session> JobService::admit(
    int fd, std::uint64_t req_id, std::uint64_t seed, std::uint8_t backend_kind,
    std::uint32_t num_shards, std::uint32_t sim_threads,
    std::uint32_t max_qubits) {
  const auto protocol_reject = [&](const std::string& reason) {
    {
      const qmpi::LockGuard lock(mu_);
      ++rejected_;
    }
    send_reject(fd, req_id, RejectKind::kProtocol, 0, budget_amps_, reason);
    return nullptr;
  };

  if (backend_kind != static_cast<std::uint8_t>(sim::BackendKind::kSerial) &&
      backend_kind != static_cast<std::uint8_t>(sim::BackendKind::kSharded)) {
    return protocol_reject("session backend must be serial or sharded");
  }
  if (max_qubits == 0 || max_qubits > kMaxSessionQubits) {
    return protocol_reject("session max_qubits must be in [1, " +
                           std::to_string(kMaxSessionQubits) + "], got " +
                           std::to_string(max_qubits));
  }

  const std::uint64_t requested = 1ull << max_qubits;
  qmpi::UniqueLock lock(mu_);
  if (requested > budget_amps_) {
    // Fail fast with the typed admission error: this reservation can NEVER
    // fit, so queueing would deadlock the client. 2^n amplitudes is an
    // exact predictor of the session's peak footprint, which is what lets
    // the service refuse here instead of OOMing mid-sweep later.
    ++rejected_;
    lock.unlock();
    send_reject(fd, req_id, RejectKind::kAdmission, requested, budget_amps_,
                "admission denied: session needs " + std::to_string(requested) +
                    " amplitudes (2^" + std::to_string(max_qubits) +
                    "), service budget is " + std::to_string(budget_amps_) +
                    " amplitudes (QMPI_MEM_BUDGET)");
    return nullptr;
  }

  // The reservation fits the service, just maybe not *right now*: queue
  // FIFO behind earlier opens until a slot and enough amplitudes free up.
  const std::uint64_t ticket = next_ticket_++;
  admit_queue_.push_back(ticket);
  bool waited = false;
  while (!stopping_ &&
         !(admit_queue_.front() == ticket &&
           sessions_.size() < config_.max_sessions &&
           reserved_amps_ + requested <= budget_amps_)) {
    waited = true;
    admit_cv_.wait(lock);
  }
  if (stopping_) {
    admit_queue_.erase(
        std::find(admit_queue_.begin(), admit_queue_.end(), ticket));
    ++rejected_;
    admit_cv_.notify_all();
    lock.unlock();
    send_reject(fd, req_id, RejectKind::kProtocol, requested, budget_amps_,
                "service shutting down");
    return nullptr;
  }
  admit_queue_.pop_front();
  if (waited) ++queued_admissions_;
  admit_cv_.notify_all();  // let the next ticket re-evaluate its predicate

  auto session = std::make_shared<Session>();
  session->id = next_session_++;
  session->epoch = next_epoch_++;
  session->fd = fd;
  session->max_qubits = max_qubits;
  session->reserved_amps = requested;
  try {
    session->backend = sim::make_backend(
        static_cast<sim::BackendKind>(backend_kind), seed,
        std::max(1u, num_shards));
  } catch (const sim::SimulatorError& e) {
    ++rejected_;
    admit_cv_.notify_all();
    lock.unlock();
    send_reject(fd, req_id, RejectKind::kProtocol, requested, budget_amps_,
                std::string("backend construction failed: ") + e.what());
    return nullptr;
  }
  session->backend->set_num_threads(std::min<std::uint32_t>(
      sim_threads, static_cast<std::uint32_t>(sim::ThreadPool::kMaxLanes)));
  if (cache_) session->backend->set_cluster_cache(cache_);

  sessions_.push_back(session);
  reserved_amps_ += requested;
  ++admitted_;
  lock.unlock();

  WireWriter w;
  w.u64(req_id);
  w.u64(session->id);
  w.u64(session->epoch);
  send_frame(fd, FrameType::kSvcAccept, w.data());
  return session;
}

void JobService::teardown(const std::shared_ptr<Session>& session) {
  const qmpi::LockGuard lock(mu_);
  sessions_.erase(std::find(sessions_.begin(), sessions_.end(), session));
  reserved_amps_ -= session->reserved_amps;
  // Releasing the slot and the amplitudes is what un-blocks queued
  // admissions — the disconnect-teardown regression test pivots on this.
  admit_cv_.notify_all();
}

// ------------------------------------------------------ execution slots ---

bool JobService::acquire_slot() {
  qmpi::UniqueLock lock(mu_);
  if (stopping_) return false;
  if (slot_waiters_.empty() && slots_busy_ < slots_) {
    ++slots_busy_;
    return true;
  }
  qmpi::CondVar turn;
  slot_waiters_.push_back(&turn);
  while (!stopping_ &&
         !(slot_waiters_.front() == &turn && slots_busy_ < slots_)) {
    turn.wait(lock);
  }
  if (stopping_) {
    slot_waiters_.erase(
        std::find(slot_waiters_.begin(), slot_waiters_.end(), &turn));
    return false;
  }
  slot_waiters_.pop_front();
  ++slots_busy_;
  // More than one slot may have freed while this reader was waking.
  if (!slot_waiters_.empty() && slots_busy_ < slots_) {
    slot_waiters_.front()->notify_one();
  }
  return true;
}

void JobService::release_slot(std::uint64_t ops) {
  const qmpi::LockGuard lock(mu_);
  --slots_busy_;
  ops_executed_ += ops;
  if (!slot_waiters_.empty()) slot_waiters_.front()->notify_one();
}

// ------------------------------------------------------------ connection ---

void JobService::serve_connection(int fd) {
  std::shared_ptr<Session> session;
  try {
    classical::Frame open = classical::read_frame(fd);
    if (open.type != FrameType::kSvcOpen) {
      ::close(fd);
      return;
    }
    WireReader r(open.body);
    const std::uint64_t req_id = r.u64();
    const std::uint32_t magic = r.u32();
    const std::uint16_t version = r.u16();
    if (magic != kSvcMagic || version != kSvcVersion) {
      send_reject(fd, req_id, RejectKind::kProtocol, 0, budget_amps_,
                  "bad magic/version in session open (is this a qmpid "
                  "client?)");
      ::close(fd);
      return;
    }
    const std::uint64_t seed = r.u64();
    const std::uint8_t backend_kind = r.u8();
    const std::uint32_t num_shards = r.u32();
    const std::uint32_t sim_threads = r.u32();
    const std::uint32_t max_qubits = r.u32();
    session = admit(fd, req_id, seed, backend_kind, num_shards, sim_threads,
                    max_qubits);
    if (!session) {
      ::close(fd);
      return;
    }

    while (true) {
      classical::Frame frame = classical::read_frame(fd);
      if (frame.type == FrameType::kSvcCall ||
          frame.type == FrameType::kSvcBatch ||
          frame.type == FrameType::kSvcClose) {
        WireReader body(frame.body);
        const std::uint64_t req =
            frame.type == FrameType::kSvcBatch ? 0 : body.u64();
        const std::uint64_t sid = body.u64();
        const std::uint64_t epoch = body.u64();
        if (sid != session->id || epoch != session->epoch) {
          // The isolation property: a frame stamped for another tenant
          // (or a stale epoch) is dropped here, before any backend or
          // queue is touched. Counted so tests can assert the drop.
          const qmpi::LockGuard lock(mu_);
          ++forged_dropped_;
          continue;
        }
        if (frame.type == FrameType::kSvcClose) {
          // Orderly close: every earlier command already ran on this
          // thread, so ack with the session's op count and release its
          // reservations.
          WireWriter w;
          w.u64(req);
          w.u64(session->ops_executed);
          send_frame(fd, FrameType::kSvcClosed, w.data());
          break;
        }
        const bool is_batch = frame.type == FrameType::kSvcBatch;
        const std::span<const std::byte> cmd = body.rest();
        std::uint32_t op_count = 1;
        if (is_batch) {
          // kBatch body layout: u8 opcode, u32 op count, encoded ops.
          WireReader peek(cmd);
          if (peek.remaining() < 5 ||
              peek.u8() != static_cast<std::uint8_t>(SimOp::kBatch)) {
            const qmpi::LockGuard lock(mu_);
            ++forged_dropped_;
            continue;
          }
          op_count = peek.u32();
          // A killed client's batches are still buffered here, and this
          // loop would reach its EOF only after running all of them.
          if (client_gone(fd)) break;
        }
        if (!acquire_slot()) break;  // stopping
        const std::uint64_t ops_before = session->ops_executed;
        WireWriter reply;
        const std::optional<FrameType> reply_type =
            execute(*session, req, is_batch, op_count, cmd, reply);
        release_slot(session->ops_executed - ops_before);
        // Written outside the slot: a client that stops reading blocks
        // only its own reader.
        if (reply_type) send_frame(fd, *reply_type, reply.data());
        continue;
      }
      // Unknown or out-of-place frame type: ignore (future client talking
      // a newer minor revision must not kill the session).
    }
  } catch (const QmpiError&) {
    // EOF or a mid-frame death: the client vanished. Fall through to the
    // teardown below — the session's slot and memory MUST be released or
    // the service slowly leaks capacity (tests/service/test_teardown.cpp).
  }
  if (session) teardown(session);
  ::close(fd);
}

// ------------------------------------------------------------- execution ---

std::optional<FrameType> JobService::execute(Session& session,
                                             std::uint64_t req_id,
                                             bool is_batch,
                                             std::uint32_t op_count,
                                             std::span<const std::byte> cmd,
                                             WireWriter& reply) {
  if (session.broken) {
    // A batched gate failed earlier; the op stream is broken for good,
    // exactly like a tcp job's latched op stream. Calls get the latched
    // error (so the client's next sync point throws); batches are noise.
    if (is_batch) return std::nullopt;
    reply.u64(req_id);
    reply.str(session.broken_reason);
    return FrameType::kSvcError;
  }
  try {
    // The admission predicate only holds if no session can outgrow what
    // it reserved: gate allocations against the admitted ceiling.
    if (!is_batch && !cmd.empty() &&
        cmd.front() ==
            static_cast<std::byte>(static_cast<std::uint8_t>(SimOp::kAllocate))) {
      WireReader peek(cmd);
      peek.u8();
      const std::uint64_t count = peek.u64();
      const std::uint64_t live = session.backend->num_qubits();
      if (count > session.max_qubits - live) {
        throw sim::SimulatorError(
            "allocation of " + std::to_string(count) +
            " qubit(s) would exceed this session's admitted ceiling of " +
            std::to_string(session.max_qubits) + " (currently " +
            std::to_string(live) + " live); reopen with a larger max_qubits");
      }
    }
    const std::vector<std::byte> result =
        apply_sim_request(*session.backend, cmd);
    session.ops_executed += op_count;
    if (is_batch) return std::nullopt;
    reply.u64(req_id);
    reply.bytes(result);
    return FrameType::kSvcResult;
  } catch (const std::exception& e) {
    // A simulator error, or a body that does not decode (WireReader's
    // QmpiError): either way this tenant's command failed, not the
    // service.
    if (is_batch) {
      session.broken = true;
      session.broken_reason = e.what();
    }
    reply.u64(is_batch ? 0 : req_id);  // req id 0 = deferred batch failure
    reply.str(e.what());
    return FrameType::kSvcError;
  }
}

}  // namespace qmpi::service
