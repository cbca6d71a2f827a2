#include "service/session_client.hpp"

#include <unistd.h>

#include <string>
#include <utility>

#include "classical/error.hpp"
#include "classical/socket_transport.hpp"
#include "classical/wire.hpp"

namespace qmpi::service {

using classical::FrameType;
using qmpi::QmpiError;
using classical::WireReader;
using classical::WireWriter;

SessionClient::SessionClient(const SessionConfig& config)
    : BatchingSimClient(config.max_batch_ops) {
  fd_ = classical::net::dial_tcp(config.host, config.port,
                                 config.connect_timeout_ms);
  if (fd_ < 0) {
    throw QmpiError("cannot reach qmpid service at " + config.host + ":" +
                    std::to_string(config.port));
  }
  const std::uint64_t req_id = next_req_++;
  WireWriter w;
  w.u64(req_id);
  w.u32(kSvcMagic);
  w.u16(kSvcVersion);
  w.u64(config.seed);
  w.u8(static_cast<std::uint8_t>(config.backend));
  w.u32(config.num_shards);
  w.u32(config.sim_threads);
  w.u32(config.max_qubits);
  try {
    classical::write_frame(fd_, FrameType::kSvcOpen, w.data());
    // May block while the open is queued behind earlier sessions — pool
    // and memory exhaustion are a wait, not a failure.
    classical::Frame reply = classical::read_frame(fd_);
    WireReader r(reply.body);
    if (reply.type == FrameType::kSvcAccept) {
      if (r.u64() != req_id) {
        throw QmpiError("qmpid accept acknowledged the wrong open request");
      }
      session_ = r.u64();
      epoch_ = r.u64();
      return;
    }
    if (reply.type == FrameType::kSvcReject) {
      (void)r.u64();  // req id
      const auto kind = static_cast<RejectKind>(r.u8());
      const std::uint64_t requested = r.u64();
      const std::uint64_t available = r.u64();
      const std::string reason = r.str();
      if (kind == RejectKind::kAdmission) {
        throw AdmissionError(reason, requested, available);
      }
      throw sim::SimulatorError("qmpid rejected session: " + reason);
    }
    throw QmpiError("qmpid sent an unexpected frame during session open");
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

SessionClient::~SessionClient() {
  try {
    close();
  } catch (...) {
    // Destruction must not throw; an unclean close just looks like a
    // disconnect to the service, which tears the session down anyway.
  }
  if (fd_ >= 0) ::close(fd_);
}

void SessionClient::fence() {
  flush();
  (void)num_qubits();
}

std::uint64_t SessionClient::close() {
  {
    // Check under the lock: the old unlocked fast-path read of closed_
    // raced concurrent close()/abandon() callers.
    const qmpi::LockGuard lock(io_mu_);
    if (closed_) return closed_op_count_;
  }
  flush();
  const qmpi::LockGuard lock(io_mu_);
  if (closed_) return closed_op_count_;
  const std::uint64_t req_id = next_req_++;
  WireWriter w;
  w.u64(req_id);
  w.u64(session_);
  w.u64(epoch_);
  classical::write_frame(fd_, FrameType::kSvcClose, w.data());
  while (true) {
    classical::Frame frame = classical::read_frame(fd_);
    if (frame.type != FrameType::kSvcClosed) continue;
    WireReader r(frame.body);
    if (r.u64() != req_id) continue;
    closed_op_count_ = r.u64();
    break;
  }
  closed_ = true;
  ::close(fd_);
  fd_ = -1;
  return closed_op_count_;
}

void SessionClient::abandon() {
  const qmpi::LockGuard lock(io_mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  closed_ = true;
}

void SessionClient::send_raw_batch(std::uint64_t session, std::uint64_t epoch,
                                   std::span<const std::byte> batch_body) {
  const qmpi::LockGuard lock(io_mu_);
  WireWriter w;
  w.u64(session);
  w.u64(epoch);
  w.bytes(batch_body);
  classical::write_frame(fd_, FrameType::kSvcBatch, w.data());
}

std::vector<std::byte> SessionClient::ship_call(
    std::span<const std::byte> request) {
  const qmpi::LockGuard lock(io_mu_);
  if (closed_) {
    throw sim::SimulatorError("qmpid session is closed");
  }
  const std::uint64_t req_id = next_req_++;
  WireWriter w;
  w.u64(req_id);
  w.u64(session_);
  w.u64(epoch_);
  w.bytes(request);
  try {
    classical::write_frame(fd_, FrameType::kSvcCall, w.data());
    return await_reply(req_id);
  } catch (const QmpiError& e) {
    throw sim::SimulatorError(std::string("qmpid session lost: ") + e.what());
  }
}

void SessionClient::ship_batch(std::span<const std::byte> body,
                               std::uint32_t /*count*/) {
  const qmpi::LockGuard lock(io_mu_);
  if (closed_) {
    throw sim::SimulatorError("qmpid session is closed");
  }
  WireWriter w;
  w.u64(session_);
  w.u64(epoch_);
  w.bytes(body);
  try {
    classical::write_frame(fd_, FrameType::kSvcBatch, w.data());
  } catch (const QmpiError& e) {
    throw sim::SimulatorError(std::string("qmpid session lost: ") + e.what());
  }
}

std::vector<std::byte> SessionClient::await_reply(std::uint64_t req_id) {
  while (true) {
    classical::Frame frame = classical::read_frame(fd_);
    if (frame.type == FrameType::kSvcResult) {
      WireReader r(frame.body);
      if (r.u64() != req_id) continue;  // stale reply; cannot happen today
      const auto rest = r.rest();
      return std::vector<std::byte>(rest.begin(), rest.end());
    }
    if (frame.type == FrameType::kSvcError) {
      WireReader r(frame.body);
      const std::uint64_t id = r.u64();
      const std::string message = r.str();
      if (id == req_id || id == 0) {
        // id 0 is a deferred batch failure surfacing at this (synchronous)
        // call — the same latching contract as a tcp job's op stream.
        throw sim::SimulatorError(message);
      }
      continue;
    }
    // Unknown frame type from a newer service: skip.
  }
}

}  // namespace qmpi::service
