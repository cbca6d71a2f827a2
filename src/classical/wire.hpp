#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "classical/error.hpp"

namespace qmpi::classical {

/// Hard ceiling on one framed message (header + body). Frames above this
/// are rejected on both sides: a sender-side check stops a runaway payload
/// before it hits the wire, a receiver-side check stops a corrupt or
/// malicious length prefix from driving a multi-gigabyte allocation.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;  // 64 MiB

namespace wire_detail {
/// Guards every count the wire encoders narrow to u32: a count that does
/// not fit must throw, never wrap — a silently truncated length prefix
/// desynchronizes the framing for every later field. The lint rule
/// wire-narrowing (scripts/lint/run_lints.py) requires each
/// `u32(static_cast<...>(x.size()))` write to route through this check.
inline void check_u32_count(std::size_t n, const char* what) {
  if (n > 0xffffffffu) {
    throw QmpiError(std::string(what) + " count " + std::to_string(n) +
                    " does not fit the u32 wire format");
  }
}
}  // namespace wire_detail

/// Little-endian append-only serializer for frame bodies. All multi-byte
/// integers on the wire are little-endian regardless of host order, so a
/// heterogeneous job (or a future big-endian port) cannot silently corrupt
/// envelopes.
class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void bytes(std::span<const std::byte> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  /// Length-prefixed byte blob (u32 count + raw bytes).
  void blob(std::span<const std::byte> b) {
    wire_detail::check_u32_count(b.size(), "blob byte");
    u32(static_cast<std::uint32_t>(b.size()));
    bytes(b);
  }
  /// Length-prefixed UTF-8 string.
  void str(std::string_view s) {
    wire_detail::check_u32_count(s.size(), "string byte");
    u32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) out_.push_back(static_cast<std::byte>(c));
  }

  std::vector<std::byte> take() { return std::move(out_); }
  const std::vector<std::byte>& data() const { return out_; }

 private:
  void put_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      out_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  }
  std::vector<std::byte> out_;
};

/// Bounds-checked little-endian reader over a frame body. Truncated bodies
/// raise QmpiError (a framing bug or a corrupt stream, never a user error).
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::span<const std::byte> bytes(std::size_t n) { return take(n); }
  std::span<const std::byte> blob() { return take(u32()); }
  std::string str() {
    const auto b = blob();
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  /// Everything not yet consumed (opaque payload tails).
  std::span<const std::byte> rest() { return take(data_.size() - pos_); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::byte> take(std::size_t n) {
    if (data_.size() - pos_ < n) {
      throw QmpiError("malformed transport frame: body truncated (wanted " +
                      std::to_string(n) + " bytes, " +
                      std::to_string(data_.size() - pos_) + " left)");
    }
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::uint64_t get_le(int n) {
    const auto b = take(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(b[static_cast<std::size_t>(i)]) << (8 * i);
    }
    return v;
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Frame types of the hub protocol (see socket_transport.hpp for the
/// conversation structure). The numeric values are part of the wire format;
/// append only. Retired values stay reserved and are never reused.
enum class FrameType : std::uint8_t {
  kHello = 1,      ///< client->hub: magic, version, proc id
  kHelloAck = 2,   ///< hub->client: process count
  kRunBegin = 3,   ///< client->hub: req id, epoch, run config
  kRunReady = 4,   ///< hub->client: req id, brokered peer address table
  kPost = 5,       ///< client->hub: routed classical message
  kDeliver = 6,    ///< hub->client: classical message for a local rank
  kCtxAlloc = 7,   ///< client->hub: req id (fresh communicator context)
  kCtxId = 8,      ///< hub->client: req id, context id
  // 9-11, 15, 18 and 19: the hub's quantum plane, retired in wire v3
  // (quantum ops ride the sim channels to rank 0's process). The hub
  // counts a client->hub frame of these types and aborts the run.
  kSim = 9,        ///< retired
  kSimResult = 10, ///< retired
  kSimError = 11,  ///< retired
  kRunEnd = 12,    ///< client->hub: req id, epoch, resource totals
  kRunEndAck = 13, ///< hub->client: req id, world-summed totals
  kAbort = 14,     ///< either way: epoch, human-readable reason
  kSimBatch = 15,  ///< retired
  // Peer data-plane frames (direct rank-process <-> rank-process links
  // brokered by the hub at the run-begin barrier; never seen by the hub).
  kPeerHello = 16, ///< dialer->listener: magic, version, proc id, epoch
  kPeerPost = 17,  ///< dialer->listener: routed classical message
                   ///< (same epoch-tagged body layout as kPost)
  kSimFence = 18,     ///< retired
  kSimFenceAck = 19,  ///< retired
  // Multi-tenant job-service frames (qmpid; see src/service/). One TCP
  // connection carries exactly one session; every post-open frame is
  // stamped with the (session id, epoch) pair the service issued, so a
  // frame forged for another session is detectable — and dropped — on
  // arrival.
  kSvcOpen = 20,    ///< client->svc: req id, magic, version, session config
  kSvcAccept = 21,  ///< svc->client: req id, session id, epoch
  kSvcReject = 22,  ///< svc->client: req id, reject kind, requested/available
                    ///< amplitude budget, human-readable reason
  kSvcCall = 23,    ///< client->svc: req id, session, epoch, opaque quantum op
  kSvcResult = 24,  ///< svc->client: req id, opaque reply
  kSvcError = 25,   ///< svc->client: req id (0 = deferred batch failure),
                    ///< simulator error string
  kSvcBatch = 26,   ///< client->svc: session, epoch, opaque batched quantum
                    ///< ops (one-way; failure latches and comes back as a
                    ///< req-id-0 kSvcError)
  kSvcClose = 27,   ///< client->svc: req id, session, epoch (orderly close)
  kSvcClosed = 28,  ///< svc->client: req id, session op count (close ack)
};

struct Frame {
  FrameType type;
  std::vector<std::byte> body;
};

/// Writes one length-prefixed frame (u32 length, u8 type, body) to `fd`.
/// Throws QmpiError if the frame exceeds kMaxFrameBytes or the peer dies
/// mid-write (EPIPE/ECONNRESET surface with the peer's role in the text).
void write_frame(int fd, FrameType type, std::span<const std::byte> body);

/// Reads one frame. Throws QmpiError on clean EOF ("peer closed"), on EOF
/// mid-frame ("died mid-message"), and on a length prefix above
/// kMaxFrameBytes ("oversized frame") — the three transport failure modes
/// callers are expected to handle by failing the job.
Frame read_frame(int fd);

}  // namespace qmpi::classical
