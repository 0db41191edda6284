// CRASH-scale classification (paper §2).
#pragma once

#include <cstdint>
#include <string_view>

namespace ballista::core {

/// Per-test-case primary outcome.  Silent and Hindering failures are not a
/// primary outcome: the paper estimates Silent failures separately by voting
/// across OS variants (Figure 2), and Hindering only where an oracle exists.
enum class Outcome : std::uint8_t {
  kPass,          // error properly reported, or graceful success
  kAbort,         // hardware-class exception escaped the task
  kRestart,       // task hung; watchdog fired
  kCatastrophic,  // machine down; reboot required
  kNotRun,        // testing of this MuT was interrupted by a system crash
};

std::string_view outcome_name(Outcome o) noexcept;

/// What the module under test reported back through its normal interface.
enum class CallStatus : std::uint8_t {
  kSuccess,        // completed, no error indication
  kErrorReported,  // failure return *and* a plausible error code
  kSilentSuccess,  // returned success while knowingly doing nothing
                   // (the Win9x loose-stub path)
  kWrongError,     // failure return with a misleading error code (Hindering)
  kFaulted,        // a kernel helper faulted in the task: the call never
                   // returned (Abort; the fault is pending in the CallContext)
};

struct CallOutcome {
  CallStatus status = CallStatus::kSuccess;
  std::uint64_t ret = 0;
};

/// Convenience constructors used by API implementations.
inline CallOutcome ok(std::uint64_t ret = 0) {
  return {CallStatus::kSuccess, ret};
}
inline CallOutcome error_reported(std::uint64_t ret) {
  return {CallStatus::kErrorReported, ret};
}
inline CallOutcome silent_success(std::uint64_t ret) {
  return {CallStatus::kSilentSuccess, ret};
}
inline CallOutcome wrong_error(std::uint64_t ret) {
  return {CallStatus::kWrongError, ret};
}

}  // namespace ballista::core
