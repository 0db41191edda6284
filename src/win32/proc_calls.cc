// Win32 Process Primitives group (38 calls): process/thread lifecycle,
// waits, events/mutexes/semaphores, the Interlocked family.
//
// Table 3 hazards carried here:
//   GetThreadContext          95/98/98SE/CE immediate  (Listing 1's crash)
//   SetThreadContext          CE immediate
//   MsgWaitForMultipleObjects 95/98/98SE/CE immediate
//   *MsgWaitForMultipleObjectsEx  98/98SE/CE deferred
//   *CreateThread             98SE/CE deferred
//   *Interlocked{Inc,Dec,Exchange} CE deferred (kernel-thunked on CE)
#include <vector>

#include "win32/win32.h"

namespace ballista::win32 {

namespace {

using core::ok;

CallOutcome do_create_process(CallContext& ctx) {
  // CreateProcess(lpAppName, lpCmdLine, ...simplified to 4 params...)
  const Addr app = ctx.arg_addr(0);
  const Addr cmd = ctx.arg_addr(1);
  if (app == 0 && cmd == 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  std::string name;
  if (app != 0) {
    const MemStatus st = ctx.k_read_str(app, &name, 4096);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  } else {
    const MemStatus st = ctx.k_read_str(cmd, &name, 4096);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  auto& fs = ctx.machine().fs();
  if (fs.resolve(fs.parse(name, ctx.proc().cwd())) == nullptr)
    return ctx.win_fail(ERR_FILE_NOT_FOUND, 0);
  auto child = std::make_shared<sim::ProcessObject>(ctx.proc().pid() + 1);
  // PROCESS_INFORMATION out-struct: 16 bytes.
  const Addr pi = ctx.arg_addr(3);
  const std::uint64_t h = ctx.proc().handles().insert(std::move(child));
  const MemStatus st = ctx.k_write_u32(pi, static_cast<std::uint32_t>(h));
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_create_thread(CallContext& ctx) {
  const Addr sa = ctx.arg_addr(0);
  const Addr start = ctx.arg_addr(2);
  const Addr tid_out = ctx.arg_addr(5);
  if (sa != 0) {
    std::uint32_t len = 0;
    const MemStatus st = ctx.k_read_u32(sa, &len);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  if (start == 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  auto thread = ctx.proc().spawn_thread();
  const std::uint32_t tid = static_cast<std::uint32_t>(thread->tid());
  const std::uint64_t h = ctx.proc().handles().insert(std::move(thread));
  if (tid_out != 0) {
    // Stored from kernel context — *CreateThread (Table 3) on 98SE/CE.
    const MemStatus st = ctx.k_write_u32(tid_out, tid);
    // A fault raised into the task runs no cleanup.
    if (st == MemStatus::kFault) return ctx.win_mem_fail(st);
    if (st != MemStatus::kOk) {
      ctx.proc().handles().close(h);
      return ctx.win_mem_fail(st);
    }
  }
  return ok(h);
}

CallOutcome do_terminate(CallContext& ctx, sim::ObjectKind kind) {
  auto hc = check_handle(ctx, ctx.arg(0), kind);
  if (hc.fail) return *hc.fail;
  const std::uint32_t code = ctx.arg32(1);
  if (kind == sim::ObjectKind::kProcess) {
    auto* p = static_cast<sim::ProcessObject*>(hc.obj.get());
    if (p->pid() == ctx.proc().pid()) {
      // Terminating the current process: the task goes away.  Treated as a
      // legal (if rude) completion, not a robustness failure.
      return ok(1);
    }
    p->exit_code = code;
  } else {
    static_cast<sim::ThreadObject*>(hc.obj.get())->exit_code = code;
  }
  hc.obj->set_signaled(true);
  return ok(1);
}

CallOutcome do_get_exit_code(CallContext& ctx, sim::ObjectKind kind) {
  auto hc = check_handle(ctx, ctx.arg(0), kind);
  if (hc.fail) return *hc.fail;
  const std::uint32_t code =
      kind == sim::ObjectKind::kProcess
          ? static_cast<sim::ProcessObject*>(hc.obj.get())->exit_code
          : static_cast<sim::ThreadObject*>(hc.obj.get())->exit_code;
  const MemStatus st = ctx.k_write_u32(ctx.arg_addr(1), code);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_suspend_resume(CallContext& ctx, int delta) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kThread,
                         INVALID_HANDLE_VALUE32);
  if (hc.fail) return *hc.fail;
  auto* t = static_cast<sim::ThreadObject*>(hc.obj.get());
  const std::int32_t prev = t->suspend_count;
  if (prev + delta < 0) return ok(0);  // resuming a running thread
  t->suspend_count = prev + delta;
  return ok(static_cast<std::uint32_t>(prev));
}

CallOutcome do_get_thread_context(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kThread);
  if (hc.fail) return *hc.fail;
  auto* t = static_cast<sim::ThreadObject*>(hc.obj.get());
  // The kernel writes the saved CONTEXT through the caller's pointer — with
  // no probe on 9x/CE.  GetThreadContext(GetCurrentThread(), NULL) is
  // Listing 1, the paper's reproducible full-system crash.
  std::uint8_t record[68] = {};
  record[0] = 7;
  record[2] = 1;  // ContextFlags = CONTEXT_FULL
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t r = t->context().regs[static_cast<std::size_t>(i)];
    for (int b = 0; b < 4; ++b)
      record[4 + 4 * i + b] = static_cast<std::uint8_t>(r >> (8 * b));
  }
  const MemStatus st = ctx.k_write(ctx.arg_addr(1), record);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(1);
}

CallOutcome do_set_thread_context(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kThread);
  if (hc.fail) return *hc.fail;
  std::uint8_t record[68] = {};
  const MemStatus st = ctx.k_read(ctx.arg_addr(1), record);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  auto* t = static_cast<sim::ThreadObject*>(hc.obj.get());
  for (int i = 0; i < 16; ++i) {
    std::uint32_t r = 0;
    for (int b = 3; b >= 0; --b) r = (r << 8) | record[4 + 4 * i + b];
    t->context().regs[static_cast<std::size_t>(i)] = r;
  }
  return ok(1);
}

CallOutcome do_thread_priority(CallContext& ctx, bool set) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kThread,
                         set ? 0 : 0x7fffffff /*THREAD_PRIORITY_ERROR_RETURN*/);
  if (hc.fail) return *hc.fail;
  auto* t = static_cast<sim::ThreadObject*>(hc.obj.get());
  if (!set) return ok(static_cast<std::uint32_t>(t->priority));
  const std::int32_t pri = ctx.argi(1);
  if (pri < -15 || pri > 15) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  t->priority = pri;
  return ok(1);
}

CallOutcome do_open_process(CallContext& ctx) {
  const std::uint32_t pid = ctx.arg32(2);
  if (pid == ctx.proc().pid())
    return ok(ctx.proc().handles().insert(ctx.proc().self_object()));
  return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
}

/// Core wait logic shared by all five wait entry points.
CallOutcome wait_single(CallContext& ctx, std::uint64_t h,
                        std::uint32_t timeout) {
  auto hc = check_handle(ctx, h, std::nullopt, WAIT_FAILED);
  if (hc.fail) return *hc.fail;
  if (hc.obj->signaled()) {
    if (hc.obj->kind() == sim::ObjectKind::kMutex)
      static_cast<sim::MutexObject*>(hc.obj.get())->set_held(true);
    else if (hc.obj->kind() == sim::ObjectKind::kEvent &&
             !static_cast<sim::EventObject*>(hc.obj.get())->manual_reset())
      hc.obj->set_signaled(false);
    else if (hc.obj->kind() == sim::ObjectKind::kSemaphore) {
      auto* s = static_cast<sim::SemaphoreObject*>(hc.obj.get());
      s->release(-1);
    }
    return ok(WAIT_OBJECT_0);
  }
  if (timeout == INFINITE32) {
    // Nothing can ever signal it: the task hangs (a Restart failure).
    ctx.proc().hang(ctx.mut().name);
  }
  ctx.machine().advance_ticks(timeout);
  return ok(WAIT_TIMEOUT);
}

CallOutcome do_wait_single(CallContext& ctx) {
  return wait_single(ctx, ctx.arg(0), ctx.arg32(1));
}

CallOutcome wait_multiple(CallContext& ctx, std::uint32_t count, Addr handles,
                          bool wait_all, std::uint32_t timeout) {
  constexpr std::uint32_t kMaxWait = 64;  // MAXIMUM_WAIT_OBJECTS
  if (count == 0 || count > kMaxWait)
    return ctx.win_fail(ERR_INVALID_PARAMETER, WAIT_FAILED);
  // The handle array is copied in kernel context — unprobed on the 9x
  // family and CE for the MsgWait entry points (Table 3).
  std::vector<std::uint64_t> hs;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t h = 0;
    const MemStatus st = ctx.k_read_u32(handles + 4ull * i, &h);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st, WAIT_FAILED);
    hs.push_back(h);
  }
  std::uint32_t satisfied = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto hc = check_handle(ctx, hs[i], std::nullopt, WAIT_FAILED);
    if (hc.fail) return *hc.fail;
    if (hc.obj->signaled()) {
      ++satisfied;
      if (!wait_all) return ok(WAIT_OBJECT_0 + i);
    }
  }
  if (wait_all && satisfied == count) return ok(WAIT_OBJECT_0);
  if (timeout == INFINITE32) ctx.proc().hang(ctx.mut().name);
  ctx.machine().advance_ticks(timeout);
  return ok(WAIT_TIMEOUT);
}

CallOutcome do_wait_multiple(CallContext& ctx) {
  return wait_multiple(ctx, ctx.arg32(0), ctx.arg_addr(1), ctx.arg32(2) != 0,
                       ctx.arg32(3));
}

CallOutcome do_msg_wait(CallContext& ctx) {
  // MsgWaitForMultipleObjects(nCount, pHandles, fWaitAll, dwMilliseconds, dwWakeMask)
  return wait_multiple(ctx, ctx.arg32(0), ctx.arg_addr(1), ctx.arg32(2) != 0,
                       ctx.arg32(3));
}

CallOutcome do_msg_wait_ex(CallContext& ctx) {
  // MsgWaitForMultipleObjectsEx(nCount, pHandles, dwMilliseconds, dwWakeMask, dwFlags)
  return wait_multiple(ctx, ctx.arg32(0), ctx.arg_addr(1), false,
                       ctx.arg32(2));
}

CallOutcome do_create_event(CallContext& ctx) {
  const Addr sa = ctx.arg_addr(0);
  if (sa != 0) {
    std::uint32_t len = 0;
    const MemStatus st = ctx.k_read_u32(sa, &len);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  const Addr name = ctx.arg_addr(3);
  std::string n;
  if (name != 0) {
    const MemStatus st = ctx.k_read_str(name, &n, 260);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(ctx.proc().handles().insert(std::make_shared<sim::EventObject>(
      ctx.arg32(1) != 0, ctx.arg32(2) != 0, std::move(n))));
}

CallOutcome event_op(CallContext& ctx, int op) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kEvent);
  if (hc.fail) return *hc.fail;
  auto* e = static_cast<sim::EventObject*>(hc.obj.get());
  switch (op) {
    case 0: e->set_signaled(true); break;                    // SetEvent
    case 1: e->set_signaled(false); break;                   // ResetEvent
    case 2: e->set_signaled(false); break;                   // PulseEvent
  }
  return ok(1);
}

CallOutcome do_create_mutex(CallContext& ctx) {
  const Addr name = ctx.arg_addr(2);
  std::string n;
  if (name != 0) {
    const MemStatus st = ctx.k_read_str(name, &n, 260);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(ctx.proc().handles().insert(
      std::make_shared<sim::MutexObject>(ctx.arg32(1) != 0, std::move(n))));
}

CallOutcome do_release_mutex(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kMutex);
  if (hc.fail) return *hc.fail;
  auto* m = static_cast<sim::MutexObject*>(hc.obj.get());
  if (!m->held()) return ctx.win_fail(ERR_NOT_SUPPORTED, 0);  // not owner
  m->set_held(false);
  return ok(1);
}

CallOutcome do_create_semaphore(CallContext& ctx) {
  const std::int64_t initial = ctx.argi(1);
  const std::int64_t maximum = ctx.argi(2);
  if (maximum <= 0 || initial < 0 || initial > maximum)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  return ok(ctx.proc().handles().insert(
      std::make_shared<sim::SemaphoreObject>(initial, maximum, "")));
}

CallOutcome do_release_semaphore(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kSemaphore);
  if (hc.fail) return *hc.fail;
  auto* s = static_cast<sim::SemaphoreObject*>(hc.obj.get());
  const std::int32_t n = ctx.argi(1);
  if (n <= 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  const std::int64_t prev = s->count();
  if (!s->release(n)) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  const Addr out = ctx.arg_addr(2);
  if (out != 0) {
    const MemStatus st =
        ctx.k_write_u32(out, static_cast<std::uint32_t>(prev));
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(1);
}

/// Interlocked* dereference the target in the caller on x86 desktops (a user
/// fault at worst) but thunk into the kernel on Windows CE — Table 3's
/// *InterlockedIncrement/Decrement/Exchange entries.
CallOutcome interlocked(CallContext& ctx, int op) {
  const Addr target = ctx.arg_addr(0);
  std::uint32_t v = 0;
  if (ctx.os().crt_in_kernel || ctx.hazard() != core::CrashStyle::kNone) {
    MemStatus st = ctx.k_read_u32(target, &v);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    std::uint32_t nv = v;
    switch (op) {
      case 0: nv = v + 1; break;
      case 1: nv = v - 1; break;
      case 2: nv = ctx.arg32(1); break;
      case 3: nv = v + ctx.arg32(1); break;
      case 4:
        if (v == ctx.arg32(2)) nv = ctx.arg32(1);
        break;
    }
    st = ctx.k_write_u32(target, nv);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    return ok(op <= 1 ? nv : v);
  }
  auto& mem = ctx.proc().mem();
  v = mem.read_u32(target, sim::Access::kUser);
  std::uint32_t nv = v;
  switch (op) {
    case 0: nv = v + 1; break;
    case 1: nv = v - 1; break;
    case 2: nv = ctx.arg32(1); break;
    case 3: nv = v + ctx.arg32(1); break;
    case 4:
      if (v == ctx.arg32(2)) nv = ctx.arg32(1);
      break;
  }
  mem.write_u32(target, nv, sim::Access::kUser);
  return ok(op <= 1 ? nv : v);
}

CallOutcome do_sleep(CallContext& ctx) {
  const std::uint32_t ms = ctx.arg32(0);
  if (ms == INFINITE32) ctx.proc().hang("Sleep(INFINITE)");
  ctx.machine().advance_ticks(ms);
  return ok(0);
}

CallOutcome do_priority_class(CallContext& ctx, bool set) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kProcess);
  if (hc.fail) return *hc.fail;
  if (!set) return ok(0x20);  // NORMAL_PRIORITY_CLASS
  const std::uint32_t cls = ctx.arg32(1);
  if (cls != 0x20 && cls != 0x40 && cls != 0x80 && cls != 0x100)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  return ok(1);
}

CallOutcome do_thread_affinity(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kThread);
  if (hc.fail) return *hc.fail;
  const std::uint64_t mask = ctx.arg(1);
  if (mask == 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  return ok(1);  // previous mask
}

CallOutcome do_get_thread_times(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kThread);
  if (hc.fail) return *hc.fail;
  for (int i = 1; i <= 4; ++i) {
    const MemStatus st =
        ctx.k_write_u64(ctx.arg_addr(static_cast<std::size_t>(i)),
                        ctx.machine().ticks());
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(1);
}

}  // namespace

void register_proc_calls(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kProcessPrimitives;
  const auto A = core::ApiKind::kWin32Sys;
  const auto all = core::kMaskAllWindows;
  const auto no_ce = core::kMaskDesktopWindows;
  const auto not95 = core::kMaskNotWin95;
  const auto not95_no_ce = static_cast<std::uint8_t>(
      core::kMaskNotWin95 & ~core::variant_bit(sim::OsVariant::kWinCE));
  const auto kImm = core::CrashStyle::kImmediate;
  const auto kDef = core::CrashStyle::kDeferred;
  const auto W95 = sim::OsVariant::kWin95;
  const auto W98 = sim::OsVariant::kWin98;
  const auto SE = sim::OsVariant::kWin98SE;
  const auto CE = sim::OsVariant::kWinCE;

  d.add("CreateProcess", A, G, {"path", "cstr", "flags32", "buf"},
        do_create_process, all);

  auto& ct = d.add("CreateThread", A, G,
                   {"security_attr", "size", "opt_addr", "opt_addr",
                    "flags32", "buf"},
                   do_create_thread, all);
  ct.hazards[SE] = kDef;  // Table 3: *CreateThread on 98 SE and CE
  ct.hazards[CE] = kDef;

  d.add("TerminateProcess", A, G, {"h_process", "int"},
        [](CallContext& c) { return do_terminate(c, sim::ObjectKind::kProcess); },
        all);
  d.add("TerminateThread", A, G, {"h_thread", "int"},
        [](CallContext& c) { return do_terminate(c, sim::ObjectKind::kThread); },
        all);
  d.add("GetExitCodeProcess", A, G, {"h_process", "buf"},
        [](CallContext& c) {
          return do_get_exit_code(c, sim::ObjectKind::kProcess);
        },
        no_ce);
  d.add("GetExitCodeThread", A, G, {"h_thread", "buf"},
        [](CallContext& c) {
          return do_get_exit_code(c, sim::ObjectKind::kThread);
        },
        no_ce);
  d.add("SuspendThread", A, G, {"h_thread"},
        [](CallContext& c) { return do_suspend_resume(c, 1); }, all);
  d.add("ResumeThread", A, G, {"h_thread"},
        [](CallContext& c) { return do_suspend_resume(c, -1); }, all);

  auto& gtc = d.add("GetThreadContext", A, G, {"h_thread", "context_ptr"},
                    do_get_thread_context, all);
  gtc.hazards[W95] = kImm;  // Table 3 + Listing 1
  gtc.hazards[W98] = kImm;
  gtc.hazards[SE] = kImm;
  gtc.hazards[CE] = kImm;

  auto& stc = d.add("SetThreadContext", A, G, {"h_thread", "context_ptr"},
                    do_set_thread_context, all);
  stc.hazards[CE] = kImm;  // Table 3

  d.add("GetThreadPriority", A, G, {"h_thread"},
        [](CallContext& c) { return do_thread_priority(c, false); }, all);
  d.add("SetThreadPriority", A, G, {"h_thread", "int"},
        [](CallContext& c) { return do_thread_priority(c, true); }, all);
  d.add("OpenProcess", A, G, {"flags32", "int", "int"}, do_open_process,
        no_ce);
  d.add("WaitForSingleObject", A, G, {"h_any", "timeout_ms"}, do_wait_single,
        all);
  d.add("WaitForSingleObjectEx", A, G, {"h_any", "timeout_ms", "int"},
        do_wait_single, no_ce);
  d.add("WaitForMultipleObjects", A, G,
        {"count_small", "handle_array", "int", "timeout_ms"},
        do_wait_multiple, all);
  d.add("WaitForMultipleObjectsEx", A, G,
        {"count_small", "handle_array", "int", "timeout_ms", "int"},
        do_wait_multiple, no_ce);

  auto& mw = d.add("MsgWaitForMultipleObjects", A, G,
                   {"count_small", "handle_array", "int", "timeout_ms",
                    "flags32"},
                   do_msg_wait, all);
  mw.hazards[W95] = kImm;  // Table 3
  mw.hazards[W98] = kImm;
  mw.hazards[SE] = kImm;
  mw.hazards[CE] = kImm;

  auto& mwx = d.add("MsgWaitForMultipleObjectsEx", A, G,
                    {"count_small", "handle_array", "timeout_ms", "flags32",
                     "flags32"},
                    do_msg_wait_ex, not95);
  mwx.hazards[W98] = kDef;  // Table 3: *MsgWaitForMultipleObjectsEx
  mwx.hazards[SE] = kDef;
  mwx.hazards[CE] = kDef;

  d.add("CreateEvent", A, G, {"security_attr", "int", "int", "cstr"},
        do_create_event, all);
  d.add("SetEvent", A, G, {"h_event"},
        [](CallContext& c) { return event_op(c, 0); }, all);
  d.add("ResetEvent", A, G, {"h_event"},
        [](CallContext& c) { return event_op(c, 1); }, all);
  d.add("PulseEvent", A, G, {"h_event"},
        [](CallContext& c) { return event_op(c, 2); }, no_ce);
  d.add("CreateMutex", A, G, {"security_attr", "int", "cstr"},
        do_create_mutex, all);
  d.add("ReleaseMutex", A, G, {"h_mutex"}, do_release_mutex, all);
  d.add("CreateSemaphore", A, G, {"security_attr", "int", "int", "cstr"},
        do_create_semaphore, no_ce);
  d.add("ReleaseSemaphore", A, G, {"h_sem", "int", "buf"},
        do_release_semaphore, no_ce);

  auto& ii = d.add("InterlockedIncrement", A, G, {"buf"},
                   [](CallContext& c) { return interlocked(c, 0); }, all);
  ii.hazards[CE] = kDef;  // Table 3: *InterlockedIncrement
  auto& id = d.add("InterlockedDecrement", A, G, {"buf"},
                   [](CallContext& c) { return interlocked(c, 1); }, all);
  id.hazards[CE] = kDef;
  auto& ix = d.add("InterlockedExchange", A, G, {"buf", "int"},
                   [](CallContext& c) { return interlocked(c, 2); }, all);
  ix.hazards[CE] = kDef;
  d.add("InterlockedExchangeAdd", A, G, {"buf", "int"},
        [](CallContext& c) { return interlocked(c, 3); }, not95_no_ce);
  d.add("InterlockedCompareExchange", A, G, {"buf", "int", "int"},
        [](CallContext& c) { return interlocked(c, 4); }, not95_no_ce);

  d.add("Sleep", A, G, {"timeout_ms"}, do_sleep, all);
  d.add("SleepEx", A, G, {"timeout_ms", "int"}, do_sleep, no_ce);
  d.add("GetPriorityClass", A, G, {"h_process"},
        [](CallContext& c) { return do_priority_class(c, false); }, no_ce);
  d.add("SetPriorityClass", A, G, {"h_process", "flags32"},
        [](CallContext& c) { return do_priority_class(c, true); }, no_ce);
  d.add("SetThreadAffinityMask", A, G, {"h_thread", "flags32"},
        do_thread_affinity, no_ce);
  d.add("GetThreadTimes", A, G,
        {"h_thread", "filetime_ptr", "filetime_ptr", "filetime_ptr",
         "filetime_ptr"},
        do_get_thread_times, no_ce);
}

}  // namespace ballista::win32
