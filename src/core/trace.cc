#include "core/trace.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace ballista::trace {

std::string_view event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kSyscallEnter: return "syscall_enter";
    case EventKind::kSyscallExit: return "syscall_exit";
    case EventKind::kProbeDecision: return "probe_decision";
    case EventKind::kHazardWrite: return "hazard_write";
    case EventKind::kArenaCorruption: return "arena_corruption";
    case EventKind::kFuseBurn: return "fuse_burn";
    case EventKind::kFault: return "fault";
    case EventKind::kPanic: return "panic";
    case EventKind::kReboot: return "reboot";
    case EventKind::kShardStart: return "shard_start";
    case EventKind::kShardEnd: return "shard_end";
    case EventKind::kCaseClassified: return "case_classified";
    case EventKind::kMutationPoint: return "mutation_point";
    case EventKind::kFaultCut: return "fault_cut";
  }
  return "unknown";
}

std::string_view probe_result_name(ProbeResult r) noexcept {
  switch (r) {
    case ProbeResult::kOk: return "ok";
    case ProbeResult::kRejected: return "rejected";
    case ProbeResult::kStubSilent: return "stub_silent";
    case ProbeResult::kGuarded: return "guarded";
    case ProbeResult::kUnprobed: return "unprobed";
  }
  return "unknown";
}

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
  return buf;
}

std::string_view call_status_name(core::CallStatus s) noexcept {
  switch (s) {
    case core::CallStatus::kSuccess: return "success";
    case core::CallStatus::kErrorReported: return "error_reported";
    case core::CallStatus::kSilentSuccess: return "silent_success";
    case core::CallStatus::kWrongError: return "wrong_error";
    case core::CallStatus::kFaulted: return "faulted";
  }
  return "unknown";
}

}  // namespace

std::string render(const TraceEvent& ev) {
  std::ostringstream os;
  switch (ev.kind) {
    case EventKind::kSyscallEnter:
      os << "syscall enter";
      if (ev.syscall_enter.fuse_remaining >= 0)
        os << " (fuse=" << ev.syscall_enter.fuse_remaining << ")";
      break;
    case EventKind::kSyscallExit:
      os << "syscall exit: " << call_status_name(ev.syscall_exit.status)
         << " ret=" << ev.syscall_exit.ret;
      break;
    case EventKind::kProbeDecision:
      os << "probe " << (ev.probe.is_write ? "write " : "read ")
         << hex(ev.probe.addr) << " size=" << ev.probe.size << " -> "
         << probe_result_name(ev.probe.result);
      break;
    case EventKind::kHazardWrite:
      os << "unprobed kernel write " << hex(ev.hazard.addr)
         << " size=" << ev.hazard.size;
      if (ev.hazard.staging) os << " (staging overrun)";
      break;
    case EventKind::kArenaCorruption:
      os << "shared arena corrupted at " << hex(ev.corruption.addr);
      if (ev.corruption.critical) os << " (critical)";
      break;
    case EventKind::kFuseBurn:
      os << "corruption fuse burns: " << ev.fuse.remaining
         << " entries remaining";
      break;
    case EventKind::kFault:
      return sim::describe_fault(
          sim::Fault{ev.fault.type, ev.fault.addr, ev.fault.is_write});
    case EventKind::kPanic:
      return sim::describe_panic(ev.panic.why);
    case EventKind::kReboot:
      os << "reboot #" << ev.reboot.panic_count;
      break;
    case EventKind::kShardStart:
      os << "shard " << ev.shard.index << " start (" << ev.shard.items
         << " items)";
      break;
    case EventKind::kShardEnd:
      os << "shard " << ev.shard.index << " end";
      break;
    case EventKind::kCaseClassified:
      os << "classified " << core::outcome_name(ev.classified.outcome);
      if (ev.classified.outcome == core::Outcome::kAbort)
        os << " (" << sim::fault_type_name(ev.classified.fault) << ")";
      if (ev.classified.success_no_error) os << " [no error reported]";
      if (ev.classified.wrong_error) os << " [wrong error code]";
      break;
    case EventKind::kMutationPoint:
      os << "mutation point #" << ev.mutation.seq << " "
         << sim::mutation_kind_name(ev.mutation.mkind)
         << " detail=" << hex(ev.mutation.detail);
      break;
    case EventKind::kFaultCut:
      os << "fault injection: cut at mutation point #" << ev.fault_cut.seq
         << " (" << sim::mutation_kind_name(ev.fault_cut.mkind) << ")";
      break;
  }
  return os.str();
}

std::string render_tail(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  for (const TraceEvent& ev : events) {
    os << "tick " << ev.ticks;
    if (ev.case_index >= 0)
      os << " case " << ev.case_index;
    else
      os << "       ";
    os << "  " << render(ev) << "\n";
  }
  return os.str();
}

std::string counters_json(const Counters& c) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    if (i != 0) os << ", ";
    os << "\"" << event_kind_name(static_cast<EventKind>(i)) << "\": "
       << c.n[i];
  }
  for (std::size_t i = 0; i < kProbeResultCount; ++i)
    os << ", \"probe_" << probe_result_name(static_cast<ProbeResult>(i))
       << "\": " << c.probe[i];
  os << "}";
  return os.str();
}

}  // namespace ballista::trace
