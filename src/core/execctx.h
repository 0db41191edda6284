// CallContext: what an API implementation sees while servicing one test case.
//
// The k_read/k_write/k_read_str helpers implement the per-personality
// validation architectures (DESIGN.md §2).  API implementations write
// straight-line code against these helpers; whether a bad pointer becomes an
// EFAULT error return (Linux), an exception raised into the task (NT/2000,
// counted as Abort), a silent no-op (Win9x loose stubs), or a kernel-side
// catastrophe (Win9x/CE hazard paths) is decided here from the Machine's
// personality and the MuT's hazard entry.  The user_* accessors are what
// user-mode code — the C runtimes, the glibc wrappers, the Win32 user-mode
// stubs — uses to dereference task pointers with no validation at all.
//
// A fault taken in the task is a value, not a C++ throw: the accessor
// records the sim::Fault in the context and returns MemStatus::kFault (the
// k_ helpers) or false (the user_ accessors), the body returns at once
// (win_mem_fail/posix_mem_fail or core::faulted(): CallStatus::kFaulted),
// and Executor::run_case, which calls the body through ApiImpl::run,
// classifies the pending fault as Abort.  Tests, tools and the benchmark's
// copy of run_case call `mut.impl(ctx)` instead; the ApiImpl call operator
// delivers the pending fault as sim::SimFault from that one frame, so those
// callers see the same Abort they always saw.  That adapter stays for as
// long as the benchmark keeps its own copy of the executor loop (ROADMAP:
// instrument the real executor).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/registry.h"
#include "sim/machine.h"

namespace ballista::core {

/// Result of a kernel-side user-memory operation.
enum class MemStatus : std::uint8_t {
  kOk,
  kError,   // caller should fail with a proper error code (EFAULT / ERROR_NOACCESS)
  kSilent,  // loose stub swallowed the bad pointer: return success, do nothing
  kFault,   // the access faulted in the task (Abort); the fault is pending in
            // the context and the caller must return win/posix_mem_fail(st)
};

class CallContext {
 public:
  CallContext(sim::Machine& machine, sim::SimProcess& proc, const MuT& mut,
              std::span<const RawArg> args)
      : machine_(machine),
        proc_(proc),
        mut_(mut),
        args_(args),
        hazard_(mut.hazard_on(machine.variant())) {}

  sim::Machine& machine() noexcept { return machine_; }
  sim::SimProcess& proc() noexcept { return proc_; }
  const MuT& mut() const noexcept { return mut_; }
  const sim::Personality& os() const noexcept { return machine_.personality(); }
  sim::OsVariant variant() const noexcept { return machine_.variant(); }
  CrashStyle hazard() const noexcept { return hazard_; }

  std::size_t arg_count() const noexcept { return args_.size(); }
  RawArg arg(std::size_t i) const noexcept { return args_[i]; }
  std::uint32_t arg32(std::size_t i) const noexcept {
    return static_cast<std::uint32_t>(args_[i]);
  }
  std::int32_t argi(std::size_t i) const noexcept {
    return static_cast<std::int32_t>(args_[i]);
  }
  std::int64_t argi64(std::size_t i) const noexcept {
    return static_cast<std::int64_t>(args_[i]);
  }
  double argf(std::size_t i) const noexcept;
  sim::Addr arg_addr(std::size_t i) const noexcept { return args_[i]; }

  // --- kernel-side user-memory access (system-call implementations) ---------

  /// Copies `out.size()` bytes from user address `a`.
  [[nodiscard]] MemStatus k_read(sim::Addr a, std::span<std::uint8_t> out);
  /// Copies `in.size()` bytes to user address `a`.
  [[nodiscard]] MemStatus k_write(sim::Addr a,
                                  std::span<const std::uint8_t> in);
  /// Reads a NUL-terminated user string (bounded).
  [[nodiscard]] MemStatus k_read_str(sim::Addr a, std::string* out,
                                     std::size_t max_len = 1 << 16);
  [[nodiscard]] MemStatus k_read_wstr(sim::Addr a, std::u16string* out,
                                      std::size_t max_len = 1 << 16);

  /// Scalar conveniences over k_read/k_write.
  [[nodiscard]] MemStatus k_write_u32(sim::Addr a, std::uint32_t v);
  [[nodiscard]] MemStatus k_write_u64(sim::Addr a, std::uint64_t v);
  [[nodiscard]] MemStatus k_read_u32(sim::Addr a, std::uint32_t* v);
  [[nodiscard]] MemStatus k_read_u64(sim::Addr a, std::uint64_t* v);

  // --- task-mode access (user-mode library code) -----------------------------
  //
  // Plain user-mode dereferences with no validation layer: the access faults
  // exactly where the task's own load or store would.  On a fault each
  // records it as the pending fault (the first one stays) and returns false;
  // the caller returns core::faulted() at once.  The fault event, partial
  // transfer and kPageWrite points are those of the AddressSpace walk.

  [[nodiscard]] bool user_read(sim::Addr a, std::span<std::uint8_t> out);
  [[nodiscard]] bool user_write(sim::Addr a, std::span<const std::uint8_t> in);
  /// The bytes of `s`, then its NUL terminator (two stores, as the CRTs do).
  [[nodiscard]] bool user_write_cstr(sim::Addr a, std::string_view s);
  [[nodiscard]] bool user_read_u8(sim::Addr a, std::uint8_t* v);
  [[nodiscard]] bool user_read_u16(sim::Addr a, std::uint16_t* v);
  [[nodiscard]] bool user_read_u32(sim::Addr a, std::uint32_t* v);
  [[nodiscard]] bool user_read_u64(sim::Addr a, std::uint64_t* v);
  [[nodiscard]] bool user_write_u8(sim::Addr a, std::uint8_t v);
  [[nodiscard]] bool user_write_u16(sim::Addr a, std::uint16_t v);
  [[nodiscard]] bool user_write_u32(sim::Addr a, std::uint32_t v);
  [[nodiscard]] bool user_write_u64(sim::Addr a, std::uint64_t v);

  /// Terminates the task with `f` as if one of its accesses had taken it (a
  /// fatal signal the task sends itself): records it as the pending fault
  /// and returns core::faulted().  No fault event is emitted.
  CallOutcome deliver_fault(const sim::Fault& f);

  /// The fault a helper or accessor took in the task, if any.
  const std::optional<sim::Fault>& pending_fault() const noexcept {
    return fault_;
  }

  // --- error-code plumbing ---------------------------------------------------

  /// Win32: returns `ret` after SetLastError(code); reported as a robust Pass.
  CallOutcome win_fail(std::uint32_t code, std::uint64_t ret = 0);
  /// POSIX: returns -1 after errno = code.
  CallOutcome posix_fail(int code);
  /// Propagates a MemStatus into the correct Win32 failure shape; kFault
  /// becomes CallStatus::kFaulted with no side effect.
  CallOutcome win_mem_fail(MemStatus s, std::uint64_t fail_ret = 0);
  CallOutcome posix_mem_fail(MemStatus s);

 private:
  /// Records the validation layer's verdict on one API-level user-memory
  /// access (exactly one kProbeDecision per k_read/k_write/k_read_*str call).
  void emit_probe(trace::ProbeResult r, sim::Addr a, std::size_t size,
                  bool is_write);
  /// The Win9x loose stub check: rejects only obvious garbage.
  bool stub_rejects(sim::Addr a) const noexcept;
  /// Windows CE slot addressing for kernel-context dereferences.
  sim::Addr slotize(sim::Addr a) const noexcept;
  /// Hazardous unprobed kernel write: may corrupt the arena or panic.
  MemStatus hazard_write(sim::Addr a, std::span<const std::uint8_t> in);
  MemStatus hazard_read(sim::Addr a, std::span<std::uint8_t> out);
  /// The hazard paths' plain kernel-mode transfers: a transfer that runs off
  /// a mapped range faults in the task (pending fault, kFault).
  MemStatus kernel_read(sim::Addr a, std::span<std::uint8_t> out);
  MemStatus kernel_write(sim::Addr a, std::span<const std::uint8_t> in);
  /// Deferred-hazard staging-buffer overrun into the shared arena.
  void corrupt_staging_area();
  /// Task-mode dereferences (the NT probe-and-raise path and the Win9x
  /// stubs' subtle garbage): a fault becomes the pending fault and kFault.
  MemStatus read_user(sim::Addr a, std::span<std::uint8_t> out);
  MemStatus write_user(sim::Addr a, std::span<const std::uint8_t> in);
  MemStatus read_user_str(sim::Addr a, std::string* out, std::size_t max_len);
  MemStatus read_user_str(sim::Addr a, std::u16string* out,
                          std::size_t max_len);
  /// Makes `f` the pending fault (the first one stays) and returns false,
  /// so an accessor can end in `return try_...(...) || record_fault(f);`.
  bool record_fault(const sim::Fault& f);

  sim::Machine& machine_;
  sim::SimProcess& proc_;
  const MuT& mut_;
  std::span<const RawArg> args_;
  CrashStyle hazard_;
  std::optional<sim::Fault> fault_;
};

}  // namespace ballista::core
