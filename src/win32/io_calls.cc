// Win32 I/O Primitives group — exactly the fifteen calls §3.3 lists:
// {AttachThreadInput CloseHandle DuplicateHandle FlushFileBuffers
//  GetStdHandle LockFile LockFileEx ReadFile ReadFileEx SetFilePointer
//  SetStdHandle UnlockFile UnlockFileEx WriteFile WriteFileEx}.
//
// Table 3 hazard carried here: *DuplicateHandle (95/98/98SE, deferred) — the
// result handle is stored through an unprobed user pointer on the 9x family.
#include <vector>

#include "win32/win32.h"

namespace ballista::win32 {

namespace {

using core::ok;

CallOutcome do_attach_thread_input(CallContext& ctx) {
  // Both ids must name live threads; only our own tid exists.
  const std::uint32_t a = ctx.arg32(0), b = ctx.arg32(1);
  const std::uint32_t self =
      static_cast<std::uint32_t>(ctx.proc().main_thread()->tid());
  if (a != self || b != self) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  return ok(1);
}

CallOutcome do_close_handle(CallContext& ctx) {
  const std::uint64_t h = ctx.arg(0);
  if (static_cast<std::uint32_t>(h) == kPseudoCurrentProcess ||
      static_cast<std::uint32_t>(h) == kPseudoCurrentThread)
    return ok(1);  // closing a pseudo-handle is a harmless no-op
  if (!ctx.proc().handles().close(static_cast<std::uint32_t>(h))) {
    if (ctx.os().pointer_policy == sim::PointerPolicy::kStubCheckLoose)
      return core::silent_success(1);
    return ctx.win_fail(ERR_INVALID_HANDLE, 0);
  }
  return ok(1);
}

CallOutcome do_duplicate_handle(CallContext& ctx) {
  auto src_proc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kProcess);
  if (src_proc.fail) return *src_proc.fail;
  auto src = check_handle(ctx, ctx.arg(1));
  if (src.fail) return *src.fail;
  auto dst_proc = check_handle(ctx, ctx.arg(2), sim::ObjectKind::kProcess);
  if (dst_proc.fail) return *dst_proc.fail;
  const Addr out = ctx.arg_addr(3);
  const std::uint64_t nh = ctx.proc().handles().insert(src.obj);
  // On the 9x family this store went through an unprobed kernel path
  // (Table 3: *DuplicateHandle).
  const MemStatus st = ctx.k_write_u32(out, static_cast<std::uint32_t>(nh));
  // A fault raised into the task runs no cleanup.
  if (st == MemStatus::kFault) return ctx.win_mem_fail(st);
  if (st != MemStatus::kOk) {
    ctx.proc().handles().close(nh);
    return ctx.win_mem_fail(st);
  }
  return ok(1);
}

CallOutcome do_flush_file_buffers(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kFile);
  if (hc.fail) return *hc.fail;
  return ok(1);
}

CallOutcome do_get_std_handle(CallContext& ctx) {
  switch (ctx.arg32(0)) {
    case 0xfffffff6: return ok(ctx.proc().std_in);    // STD_INPUT_HANDLE
    case 0xfffffff5: return ok(ctx.proc().std_out);   // STD_OUTPUT_HANDLE
    case 0xfffffff4: return ok(ctx.proc().std_err);   // STD_ERROR_HANDLE
    default:
      return ctx.win_fail(ERR_INVALID_PARAMETER, INVALID_HANDLE_VALUE32);
  }
}

CallOutcome do_set_std_handle(CallContext& ctx) {
  const std::uint32_t which = ctx.arg32(0);
  if (which != 0xfffffff6 && which != 0xfffffff5 && which != 0xfffffff4)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  auto hc = check_handle(ctx, ctx.arg(1));
  if (hc.fail) return *hc.fail;
  const std::uint64_t h = ctx.arg(1);
  if (which == 0xfffffff6) ctx.proc().std_in = h;
  if (which == 0xfffffff5) ctx.proc().std_out = h;
  if (which == 0xfffffff4) ctx.proc().std_err = h;
  return ok(1);
}

sim::FileObject* io_file(CallContext& ctx, std::uint64_t h,
                         std::optional<CallOutcome>* fail) {
  auto hc = check_handle(ctx, h, sim::ObjectKind::kFile);
  if (hc.fail) {
    *fail = hc.fail;
    return nullptr;
  }
  return static_cast<sim::FileObject*>(hc.obj.get());
}

bool lock_conflicts(sim::FileObject& f, std::uint64_t off,
                    std::uint64_t len) {
  for (const auto& l : f.locks()) {
    if (off < l.offset + l.length && l.offset < off + len) return true;
  }
  return false;
}

CallOutcome do_lock_file(CallContext& ctx, bool ex_variant) {
  std::optional<CallOutcome> fail;
  auto* f = io_file(ctx, ctx.arg(0), &fail);
  if (!f) return *fail;
  std::uint64_t off, len;
  if (ex_variant) {
    // LockFileEx(hFile, dwFlags, dwReserved, nBytesLow, nBytesHigh, lpOverlapped)
    if (ctx.arg32(2) != 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
    const Addr overlapped = ctx.arg_addr(5);
    std::uint32_t off32 = 0;
    const MemStatus st = ctx.k_read_u32(overlapped + 8, &off32);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    off = off32;
    len = ctx.arg32(3) | (ctx.arg(4) << 32);
  } else {
    off = ctx.arg32(1) | (ctx.arg(2) << 32);
    len = ctx.arg32(3) | (ctx.arg(4) << 32);
  }
  if (len == 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  if (lock_conflicts(*f, off, len))
    return ctx.win_fail(ERR_LOCK_VIOLATION, 0);
  f->locks().push_back({off, len, ctx.proc().pid(), true});
  return ok(1);
}

CallOutcome do_unlock_file(CallContext& ctx, bool ex_variant) {
  std::optional<CallOutcome> fail;
  auto* f = io_file(ctx, ctx.arg(0), &fail);
  if (!f) return *fail;
  std::uint64_t off, len;
  if (ex_variant) {
    if (ctx.arg32(1) != 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
    const Addr overlapped = ctx.arg_addr(4);
    std::uint32_t off32 = 0;
    const MemStatus st = ctx.k_read_u32(overlapped + 8, &off32);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    off = off32;
    len = ctx.arg32(2) | (ctx.arg(3) << 32);
  } else {
    off = ctx.arg32(1) | (ctx.arg(2) << 32);
    len = ctx.arg32(3) | (ctx.arg(4) << 32);
  }
  auto& locks = f->locks();
  for (auto it = locks.begin(); it != locks.end(); ++it) {
    if (it->offset == off && it->length == len) {
      locks.erase(it);
      return ok(1);
    }
  }
  return ctx.win_fail(ERR_NOT_SUPPORTED, 0);
}

CallOutcome do_read_file(CallContext& ctx, bool ex_variant) {
  std::optional<CallOutcome> fail;
  auto* f = io_file(ctx, ctx.arg(0), &fail);
  if (!f) return *fail;
  const Addr buf = ctx.arg_addr(1);
  const std::uint64_t want = std::min<std::uint64_t>(ctx.arg(2), 1 << 16);
  std::vector<std::uint8_t> data(want);
  const std::uint64_t got = f->read_at(data);
  data.resize(got);
  if (!data.empty()) {
    const MemStatus st = ctx.k_write(buf, data);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  if (!ex_variant) {
    const Addr out = ctx.arg_addr(3);
    const MemStatus st = ctx.k_write_u32(out, static_cast<std::uint32_t>(got));
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(1);
}

CallOutcome do_write_file(CallContext& ctx, bool ex_variant) {
  std::optional<CallOutcome> fail;
  auto* f = io_file(ctx, ctx.arg(0), &fail);
  if (!f) return *fail;
  if ((f->access() & sim::FileObject::kAccessWrite) == 0)
    return ctx.win_fail(ERR_ACCESS_DENIED, 0);
  const Addr buf = ctx.arg_addr(1);
  const std::uint64_t n = std::min<std::uint64_t>(ctx.arg(2), 1 << 16);
  std::vector<std::uint8_t> data(n);
  MemStatus st = ctx.k_read(buf, data);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  f->write_at(data);
  if (!ex_variant) {
    const Addr out = ctx.arg_addr(3);
    if (out != 0) {
      st = ctx.k_write_u32(out, static_cast<std::uint32_t>(n));
      if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    }
  }
  return ok(1);
}

CallOutcome do_set_file_pointer(CallContext& ctx) {
  std::optional<CallOutcome> fail;
  auto* f = io_file(ctx, ctx.arg(0), &fail);
  if (!f) return *fail;
  const std::int64_t dist = static_cast<std::int32_t>(ctx.arg32(1));
  const Addr high = ctx.arg_addr(2);
  const std::uint32_t method = ctx.arg32(3);
  if (high != 0) {
    std::uint32_t hi = 0;
    const MemStatus st = ctx.k_read_u32(high, &hi);
    if (st != MemStatus::kOk)
      return ctx.win_mem_fail(st, INVALID_HANDLE_VALUE32);
  }
  std::int64_t base = 0;
  switch (method) {
    case 0: base = 0; break;
    case 1: base = static_cast<std::int64_t>(f->position()); break;
    case 2: base = static_cast<std::int64_t>(f->node()->data().size()); break;
    default:
      return ctx.win_fail(ERR_INVALID_PARAMETER, INVALID_HANDLE_VALUE32);
  }
  const std::int64_t target = base + dist;
  if (target < 0)
    return ctx.win_fail(ERR_INVALID_PARAMETER, INVALID_HANDLE_VALUE32);
  f->set_position(static_cast<std::uint64_t>(target));
  return ok(static_cast<std::uint32_t>(target));
}

}  // namespace

void register_io_calls(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kIoPrimitives;
  const auto A = core::ApiKind::kWin32Sys;
  const auto all = core::kMaskAllWindows;
  const auto no_ce = core::kMaskDesktopWindows;
  const auto nt_only = static_cast<std::uint8_t>(
      core::variant_bit(sim::OsVariant::kWinNT4) |
      core::variant_bit(sim::OsVariant::kWin2000) |
      core::variant_bit(sim::OsVariant::kWin98) |
      core::variant_bit(sim::OsVariant::kWin98SE));
  const auto kDef = core::CrashStyle::kDeferred;

  d.add("AttachThreadInput", A, G, {"int", "int", "int"},
        do_attach_thread_input, no_ce);
  d.add("CloseHandle", A, G, {"h_any"}, do_close_handle, all);

  auto& dup = d.add("DuplicateHandle", A, G,
                    {"h_process", "h_any", "h_process", "buf", "flags32",
                     "int", "flags32"},
                    do_duplicate_handle, no_ce);
  dup.hazards[sim::OsVariant::kWin95] = kDef;   // Table 3: *DuplicateHandle
  dup.hazards[sim::OsVariant::kWin98] = kDef;
  dup.hazards[sim::OsVariant::kWin98SE] = kDef;

  d.add("FlushFileBuffers", A, G, {"h_file"}, do_flush_file_buffers, all);
  d.add("GetStdHandle", A, G, {"flags32"}, do_get_std_handle, no_ce);
  d.add("LockFile", A, G, {"h_file", "size", "size", "size", "size"},
        [](CallContext& c) { return do_lock_file(c, false); }, no_ce);
  d.add("LockFileEx", A, G,
        {"h_file", "flags32", "flags32", "size", "size", "buf"},
        [](CallContext& c) { return do_lock_file(c, true); }, nt_only);
  d.add("ReadFile", A, G, {"h_file", "buf", "size", "buf", "buf"},
        [](CallContext& c) { return do_read_file(c, false); }, all);
  d.add("ReadFileEx", A, G, {"h_file", "buf", "size", "buf", "buf"},
        [](CallContext& c) { return do_read_file(c, true); }, nt_only);
  d.add("SetFilePointer", A, G, {"h_file", "int", "buf", "flags32"},
        do_set_file_pointer, all);
  d.add("SetStdHandle", A, G, {"flags32", "h_any"}, do_set_std_handle, no_ce);
  d.add("UnlockFile", A, G, {"h_file", "size", "size", "size", "size"},
        [](CallContext& c) { return do_unlock_file(c, false); }, no_ce);
  d.add("UnlockFileEx", A, G,
        {"h_file", "flags32", "size", "size", "buf"},
        [](CallContext& c) { return do_unlock_file(c, true); }, nt_only);
  d.add("WriteFile", A, G, {"h_file", "cbuf", "size", "buf", "buf"},
        [](CallContext& c) { return do_write_file(c, false); }, all);
  d.add("WriteFileEx", A, G, {"h_file", "cbuf", "size", "buf", "buf"},
        [](CallContext& c) { return do_write_file(c, true); }, nt_only);
}

}  // namespace ballista::win32
