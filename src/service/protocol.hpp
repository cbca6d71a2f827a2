#pragma once

/// \file protocol.hpp
/// Shared constants and error types of the qmpid job-service protocol.
///
/// The service speaks the kSvc* frames of classical/wire.hpp over one TCP
/// connection per session. The conversation is:
///
///   client                          service
///     | -- kSvcOpen(cfg) ------------> |   admission control (may queue)
///     | <- kSvcAccept(session, epoch)  |   or kSvcReject(kind, budget, why)
///     | -- kSvcCall(req, s, e, op) --> |   run by the reader in a FIFO slot
///     | <- kSvcResult(req, reply)      |   or kSvcError(req, message)
///     | -- kSvcBatch(s, e, ops) -----> |   one-way; a failure latches and
///     |                                |   returns as a req-id-0 kSvcError
///     | -- kSvcClose(req, s, e) -----> |
///     | <- kSvcClosed(req, op count)   |
///
/// Every post-open frame carries the (session id, epoch) pair the service
/// issued at admission. The reader validates the pair against the
/// connection's own session and silently drops mismatches — a frame forged
/// for another session can never reach that session's backend.

#include <cstdint>
#include <string>

#include "sim/backend.hpp"

namespace qmpi::service {

/// First field of kSvcOpen ("QMPD"): rejects stray clients that dialed the
/// wrong port before any state is allocated for them.
inline constexpr std::uint32_t kSvcMagic = 0x51'4d'50'44;

/// Protocol version carried in kSvcOpen; bumped on incompatible change.
inline constexpr std::uint16_t kSvcVersion = 1;

/// Why a kSvcReject was sent (u8 on the wire; append only).
enum class RejectKind : std::uint8_t {
  kAdmission = 1,  ///< requested amplitude budget exceeds the service total
  kProtocol = 2,   ///< bad magic/version/config, or service shutting down
};

/// Typed admission failure: the session asked for more amplitude memory
/// than the service will ever have (QMPI_MEM_BUDGET), so it fails fast at
/// open time instead of OOM-killing the process mid-sweep. 2^n amplitudes
/// is an exact predictor of a session's peak state-vector footprint, which
/// is what makes the admission predicate sound.
class AdmissionError : public sim::SimulatorError {
 public:
  AdmissionError(const std::string& what, std::uint64_t requested_amps,
                 std::uint64_t available_amps)
      : sim::SimulatorError(what),
        requested_amps_(requested_amps),
        available_amps_(available_amps) {}

  /// Amplitudes the rejected session asked for (2^max_qubits).
  std::uint64_t requested_amps() const { return requested_amps_; }
  /// Amplitudes the service budget can ever hold at once.
  std::uint64_t available_amps() const { return available_amps_; }

 private:
  std::uint64_t requested_amps_;
  std::uint64_t available_amps_;
};

}  // namespace qmpi::service
