// Win32 Memory Management group (24 calls): Virtual*, Heap*, Global*/Local*,
// Read/WriteProcessMemory.
//
// Table 3 hazards carried here: HeapCreate (Win95, immediate — the 9x VMM
// wrote arena bookkeeping derived from unchecked sizes) and
// *ReadProcessMemory (Win95 & CE, deferred staging overrun).
#include "win32/win32.h"

namespace ballista::win32 {

namespace {

using core::ok;
using core::RawArg;
using core::ValueCtx;

constexpr std::uint32_t ERR_INVALID_ADDRESS = 487;
constexpr std::uint64_t kVmLimit = 256ull << 20;
constexpr std::uint64_t kHeapHdrMagic = 0x57484541ull;  // 'WHEA'

bool valid_protect(std::uint32_t p) {
  switch (p) {
    case 0x01: case 0x02: case 0x04: case 0x08:
    case 0x10: case 0x20: case 0x40:
      return true;
    default:
      return false;
  }
}

CallOutcome do_virtual_alloc(CallContext& ctx) {
  const Addr lp = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1);
  const std::uint32_t type = ctx.arg32(2), prot = ctx.arg32(3);
  if (lp != 0 && ctx.hazard() != core::CrashStyle::kNone &&
      (type & 0x1000u) != 0) {
    // The CE kernel commits at the caller-chosen (slotized) address before
    // fully validating it — the Table 3 VirtualAlloc Catastrophic.
    const MemStatus st = ctx.k_write_u32(sim::page_base(lp), 0);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  if (!valid_protect(prot) || (type & ~0x3000u) != 0 || type == 0)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  if (size == 0 || size > kVmLimit)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  auto& mem = ctx.proc().mem();
  if (lp != 0) {
    if (lp >= sim::kSharedArenaBase)
      return ctx.win_fail(ERR_INVALID_ADDRESS, 0);
    mem.map(sim::page_base(lp), size, sim::kPermRW);
    return ok(sim::page_base(lp));
  }
  return ok(mem.alloc(size));
}

CallOutcome do_virtual_free(CallContext& ctx) {
  const Addr lp = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1);
  const std::uint32_t type = ctx.arg32(2);
  if (lp == 0 || (type != 0x4000 && type != 0x8000))
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  if (!ctx.proc().mem().is_mapped(lp))
    return ctx.win_fail(ERR_INVALID_ADDRESS, 0);
  if (type == 0x8000 && size != 0)  // MEM_RELEASE requires size 0
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  ctx.proc().mem().unmap(lp, size == 0 ? sim::kPageSize : size);
  return ok(1);
}

CallOutcome do_virtual_protect(CallContext& ctx) {
  const Addr lp = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1);
  const std::uint32_t prot = ctx.arg32(2);
  const Addr old_out = ctx.arg_addr(3);
  if (!valid_protect(prot)) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  auto& mem = ctx.proc().mem();
  if (!mem.is_mapped(lp)) return ctx.win_fail(ERR_INVALID_ADDRESS, 0);
  const std::uint8_t old = mem.perm_of(lp);
  const MemStatus st = ctx.k_write_u32(old_out, old);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  mem.protect(lp, size == 0 ? 1 : size,
              prot == 0x02 ? sim::kPermRead : sim::kPermRW);
  return ok(1);
}

CallOutcome do_virtual_query(CallContext& ctx) {
  const Addr lp = ctx.arg_addr(0);
  const Addr out = ctx.arg_addr(1);
  const std::uint64_t len = ctx.arg(2);
  if (len < 28) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  auto& mem = ctx.proc().mem();
  std::uint8_t info[28] = {};
  const Addr base = sim::page_base(lp);
  for (int i = 0; i < 8; ++i)
    info[i] = static_cast<std::uint8_t>(base >> (8 * (i % 4)));
  info[16] = mem.is_mapped(lp) ? 1 : 0;
  const MemStatus st = ctx.k_write(out, info);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  return ok(28);
}

CallOutcome do_virtual_lock(CallContext& ctx, bool lock) {
  const Addr lp = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1);
  (void)lock;
  if (size == 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  if (!ctx.proc().mem().check_range(lp, std::min<std::uint64_t>(size, 1 << 20),
                                    false, sim::Access::kUser))
    return ctx.win_fail(ERR_NOACCESS, 0);
  return ok(1);
}

CallOutcome do_heap_create(CallContext& ctx) {
  const std::uint32_t opts = ctx.arg32(0);
  const std::uint64_t initial = ctx.arg(1), maximum = ctx.arg(2);
  if (ctx.hazard() != core::CrashStyle::kNone &&
      (initial > 0x1000'0000ull || (maximum != 0 && maximum < initial))) {
    // Win95: the VMM wrote reservation bookkeeping computed from the raw
    // sizes into the shared arena — the Table 3 HeapCreate Catastrophic.
    const MemStatus st =
        ctx.k_write_u32(sim::kSharedArenaBase + (initial & 0x00ffe000), 0);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  if ((opts & ~0x00040005u) != 0)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  if (maximum != 0 && maximum < initial)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  if (initial > kVmLimit) return ctx.win_fail(ERR_NOT_ENOUGH_MEMORY, 0);
  return ok(ctx.proc().handles().insert(
      std::make_shared<sim::HeapObject>(initial, maximum)));
}

CallOutcome do_heap_destroy(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kHeap);
  if (hc.fail) return *hc.fail;
  ctx.proc().handles().close(static_cast<std::uint32_t>(ctx.arg(0)));
  return ok(1);
}

sim::HeapObject* heap_of(CallContext& ctx, std::uint64_t h,
                         std::optional<CallOutcome>* fail) {
  auto hc = check_handle(ctx, h, sim::ObjectKind::kHeap);
  if (hc.fail) {
    *fail = hc.fail;
    return nullptr;
  }
  return static_cast<sim::HeapObject*>(hc.obj.get());
}

CallOutcome do_heap_alloc(CallContext& ctx) {
  std::optional<CallOutcome> fail;
  sim::HeapObject* heap = heap_of(ctx, ctx.arg(0), &fail);
  if (!heap) return *fail;
  const std::uint64_t size = ctx.arg(2);
  if (size > kVmLimit) return ctx.win_fail(ERR_NOT_ENOUGH_MEMORY, 0);
  auto& mem = ctx.proc().mem();
  const Addr base = mem.alloc(size + 8);
  mem.write_u32(base, static_cast<std::uint32_t>(kHeapHdrMagic),
                sim::Access::kKernel);
  heap->allocations[base + 8] = size;
  return ok(base + 8);
}

/// Finds a block in the given heap or the process default heap.
std::optional<std::uint64_t> heap_block_size(CallContext& ctx,
                                             sim::HeapObject* heap, Addr p) {
  auto it = heap->allocations.find(p);
  if (it != heap->allocations.end()) return it->second;
  auto& dflt = ctx.proc().default_heap()->allocations;
  auto it2 = dflt.find(p);
  if (it2 != dflt.end()) return it2->second;
  return std::nullopt;
}

CallOutcome heap_block_op(CallContext& ctx, bool free_it, bool size_query) {
  std::optional<CallOutcome> fail;
  sim::HeapObject* heap = heap_of(ctx, ctx.arg(0), &fail);
  if (!heap) return *fail;
  const Addr p = ctx.arg_addr(2);
  const auto size = heap_block_size(ctx, heap, p);
  if (!size) {
    if (sim::is_nt_family(ctx.variant())) {
      // The NT RtlHeap walks the header of whatever it is handed.
      (void)ctx.proc().mem().read_u32(p - 8, sim::Access::kUser);
      return ctx.win_fail(ERR_INVALID_PARAMETER,
                          size_query ? INVALID_HANDLE_VALUE32 : 0);
    }
    if (ctx.os().pointer_policy == sim::PointerPolicy::kStubCheckLoose)
      return core::silent_success(size_query ? 0 : 1);
    return ctx.win_fail(ERR_INVALID_PARAMETER,
                        size_query ? INVALID_HANDLE_VALUE32 : 0);
  }
  if (free_it) {
    heap->allocations.erase(p);
    ctx.proc().default_heap()->allocations.erase(p);
  }
  return ok(size_query ? *size : 1);
}

CallOutcome do_heap_free(CallContext& ctx) {
  return heap_block_op(ctx, true, false);
}
CallOutcome do_heap_size(CallContext& ctx) {
  return heap_block_op(ctx, false, true);
}

CallOutcome do_heap_realloc(CallContext& ctx) {
  std::optional<CallOutcome> fail;
  sim::HeapObject* heap = heap_of(ctx, ctx.arg(0), &fail);
  if (!heap) return *fail;
  const Addr p = ctx.arg_addr(2);
  const std::uint64_t size = ctx.arg(3);
  const auto old_size = heap_block_size(ctx, heap, p);
  if (!old_size) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  if (size > kVmLimit) return ctx.win_fail(ERR_NOT_ENOUGH_MEMORY, 0);
  auto& mem = ctx.proc().mem();
  const Addr np = mem.alloc(size + 8) + 8;
  const std::uint64_t copy = std::min(*old_size, size);
  for (std::uint64_t i = 0; i < copy && i < (1 << 20); ++i)
    mem.write_u8(np + i, mem.read_u8(p + i, sim::Access::kUser),
                 sim::Access::kUser);
  heap->allocations.erase(p);
  heap->allocations[np] = size;
  return ok(np);
}

CallOutcome do_heap_validate(CallContext& ctx) {
  std::optional<CallOutcome> fail;
  sim::HeapObject* heap = heap_of(ctx, ctx.arg(0), &fail);
  if (!heap) return *fail;
  const Addr p = ctx.arg_addr(2);
  if (p == 0) return ok(1);  // validate entire heap
  return ok(heap_block_size(ctx, heap, p) ? 1 : 0);
}

// Global*/Local* allocators: handle == pointer (GMEM_FIXED model).
CallOutcome do_ga_alloc(CallContext& ctx) {
  const std::uint32_t flags = ctx.arg32(0);
  const std::uint64_t size = ctx.arg(1);
  if ((flags & ~0x0042u) != 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  if (size > kVmLimit) return ctx.win_fail(ERR_NOT_ENOUGH_MEMORY, 0);
  const Addr p = ctx.proc().mem().alloc(size == 0 ? 1 : size);
  ctx.proc().default_heap()->allocations[p] = size;
  return ok(p);
}

CallOutcome do_ga_free(CallContext& ctx) {
  const Addr p = ctx.arg_addr(0);
  auto& allocs = ctx.proc().default_heap()->allocations;
  if (allocs.erase(p) == 0) {
    if (ctx.os().pointer_policy == sim::PointerPolicy::kStubCheckLoose) {
      // The 9x GlobalFree dereferenced the "handle" to find its header.
      (void)ctx.proc().mem().read_u32(p, sim::Access::kUser);
      return core::silent_success(0);
    }
    return ctx.win_fail(ERR_INVALID_HANDLE, p);  // returns hMem on failure
  }
  return ok(0);
}

CallOutcome do_ga_lock(CallContext& ctx) {
  const Addr p = ctx.arg_addr(0);
  auto& allocs = ctx.proc().default_heap()->allocations;
  if (allocs.count(p) == 0) {
    if (ctx.os().pointer_policy == sim::PointerPolicy::kStubCheckLoose) {
      (void)ctx.proc().mem().read_u32(p, sim::Access::kUser);
      return core::silent_success(p);
    }
    return ctx.win_fail(ERR_INVALID_HANDLE, 0);
  }
  return ok(p);
}

CallOutcome do_ga_unlock(CallContext& ctx) {
  const Addr p = ctx.arg_addr(0);
  if (ctx.proc().default_heap()->allocations.count(p) == 0)
    return ctx.win_fail(ERR_INVALID_HANDLE, 0);
  return ok(0);  // unlock count reached zero
}

CallOutcome do_ga_size(CallContext& ctx) {
  const Addr p = ctx.arg_addr(0);
  auto& allocs = ctx.proc().default_heap()->allocations;
  auto it = allocs.find(p);
  if (it == allocs.end()) return ctx.win_fail(ERR_INVALID_HANDLE, 0);
  return ok(it->second);
}

CallOutcome do_ga_realloc(CallContext& ctx) {
  const Addr p = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1);
  const std::uint32_t flags = ctx.arg32(2);
  if ((flags & ~0x0042u) != 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  auto& allocs = ctx.proc().default_heap()->allocations;
  auto it = allocs.find(p);
  if (it == allocs.end()) return ctx.win_fail(ERR_INVALID_HANDLE, 0);
  if (size > kVmLimit) return ctx.win_fail(ERR_NOT_ENOUGH_MEMORY, 0);
  it->second = size;
  return ok(p);  // fixed blocks resize in place in this model
}

CallOutcome do_rpm(CallContext& ctx, bool write) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kProcess);
  if (hc.fail) return *hc.fail;
  const Addr base = ctx.arg_addr(1);
  const Addr buffer = ctx.arg_addr(2);
  const std::uint64_t n = std::min<std::uint64_t>(ctx.arg(3), 1 << 16);
  const Addr out_count = ctx.arg_addr(4);
  if (n == 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);

  std::vector<std::uint8_t> tmp(n);
  if (write) {
    MemStatus st = ctx.k_read(buffer, tmp);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    st = ctx.k_write(base, tmp);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  } else {
    MemStatus st = ctx.k_read(base, tmp);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    st = ctx.k_write(buffer, tmp);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  if (out_count != 0) {
    const MemStatus st = ctx.k_write_u32(out_count,
                                         static_cast<std::uint32_t>(n));
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(1);
}

}  // namespace

void register_memory_calls(core::TypeLibrary& lib, core::Registry& reg) {
  // Addresses VirtualAlloc/Free may legitimately receive.
  // MEM_COMMIT/MEM_RESERVE allocation types and PAGE_* protections.
  auto& t_atype = lib.make("alloc_type");
  t_atype.add("mem_commit", false, [](ValueCtx&) { return RawArg{0x1000}; })
      .add("mem_reserve", false, [](ValueCtx&) { return RawArg{0x2000}; })
      .add("mem_commit_reserve", false,
           [](ValueCtx&) { return RawArg{0x3000}; })
      .add("mem_type_0", true, [](ValueCtx&) { return RawArg{0}; })
      .add("mem_type_1", true, [](ValueCtx&) { return RawArg{1}; })
      .add("mem_type_all", true, [](ValueCtx&) { return RawArg{0xffffffff}; });

  auto& t_prot = lib.make("page_protect");
  t_prot.add("page_noaccess", false, [](ValueCtx&) { return RawArg{0x01}; })
      .add("page_readonly", false, [](ValueCtx&) { return RawArg{0x02}; })
      .add("page_readwrite", false, [](ValueCtx&) { return RawArg{0x04}; })
      .add("page_execute", false, [](ValueCtx&) { return RawArg{0x10}; })
      .add("page_prot_0", true, [](ValueCtx&) { return RawArg{0}; })
      .add("page_prot_ff", true, [](ValueCtx&) { return RawArg{0xff}; });

  auto& t_ftype = lib.make("free_type");
  t_ftype.add("mem_decommit", false, [](ValueCtx&) { return RawArg{0x4000}; })
      .add("mem_release", false, [](ValueCtx&) { return RawArg{0x8000}; })
      .add("mem_free_0", true, [](ValueCtx&) { return RawArg{0}; })
      .add("mem_free_1", true, [](ValueCtx&) { return RawArg{1}; })
      .add("mem_free_both", true, [](ValueCtx&) { return RawArg{0xC000}; });

  auto& t_opt = lib.make("opt_addr");
  t_opt.add("va_null_ok", false, [](ValueCtx&) { return RawArg{0}; })
      .add("va_mapped", false,
           [](ValueCtx& c) { return c.proc.mem().alloc(4096); })
      .add("va_unmapped_user", false, [](ValueCtx&) { return RawArg{0x30000000}; })
      .add("va_kernel", true, [](ValueCtx&) { return RawArg{0xC0006000}; })
      .add("va_low", true, [](ValueCtx&) { return RawArg{0x00000400} ; })
      .add("va_unaligned", false, [](ValueCtx&) { return RawArg{0x30000123}; });

  Defs d{lib, reg};
  const auto G = core::FuncGroup::kMemoryManagement;
  const auto A = core::ApiKind::kWin32Sys;
  const auto all = core::kMaskAllWindows;
  const auto no_ce = core::kMaskDesktopWindows;
  const auto CE = sim::OsVariant::kWinCE;
  const auto W95 = sim::OsVariant::kWin95;

  auto& va = d.add("VirtualAlloc", A, G,
                   {"opt_addr", "size", "alloc_type", "page_protect"},
                   do_virtual_alloc, all);
  va.hazards[CE] = core::CrashStyle::kImmediate;  // Table 3

  d.add("VirtualFree", A, G, {"opt_addr", "size", "free_type"}, do_virtual_free,
        all);
  d.add("VirtualProtect", A, G, {"opt_addr", "size", "page_protect", "buf"},
        do_virtual_protect, all);
  d.add("VirtualQuery", A, G, {"opt_addr", "buf", "size"}, do_virtual_query,
        all);
  d.add("VirtualLock", A, G, {"opt_addr", "size"},
        [](CallContext& c) { return do_virtual_lock(c, true); }, no_ce);
  d.add("VirtualUnlock", A, G, {"opt_addr", "size"},
        [](CallContext& c) { return do_virtual_lock(c, false); }, no_ce);

  auto& hcreate = d.add("HeapCreate", A, G, {"flags32", "size", "size"},
                        do_heap_create, all);
  hcreate.hazards[W95] = core::CrashStyle::kImmediate;  // Table 3

  d.add("HeapDestroy", A, G, {"h_heap"}, do_heap_destroy, all);
  d.add("HeapAlloc", A, G, {"h_heap", "flags32", "size"}, do_heap_alloc, all);
  d.add("HeapFree", A, G, {"h_heap", "flags32", "heap_ptr"}, do_heap_free,
        all);
  d.add("HeapReAlloc", A, G, {"h_heap", "flags32", "heap_ptr", "size"},
        do_heap_realloc, no_ce);
  d.add("HeapSize", A, G, {"h_heap", "flags32", "heap_ptr"}, do_heap_size,
        all);
  d.add("HeapValidate", A, G, {"h_heap", "flags32", "heap_ptr"},
        do_heap_validate, no_ce);

  d.add("GlobalAlloc", A, G, {"flags32", "size"}, do_ga_alloc, no_ce);
  d.add("GlobalFree", A, G, {"heap_ptr"}, do_ga_free, no_ce);
  d.add("GlobalLock", A, G, {"heap_ptr"}, do_ga_lock, no_ce);
  d.add("GlobalUnlock", A, G, {"heap_ptr"}, do_ga_unlock, no_ce);
  d.add("GlobalSize", A, G, {"heap_ptr"}, do_ga_size, no_ce);
  d.add("LocalAlloc", A, G, {"flags32", "size"}, do_ga_alloc, all);
  d.add("LocalFree", A, G, {"heap_ptr"}, do_ga_free, all);
  d.add("LocalReAlloc", A, G, {"heap_ptr", "size", "flags32"}, do_ga_realloc,
        no_ce);
  d.add("LocalSize", A, G, {"heap_ptr"}, do_ga_size, no_ce);

  auto& rpm = d.add("ReadProcessMemory", A, G,
                    {"h_process", "cbuf", "buf", "size", "buf"},
                    [](CallContext& c) { return do_rpm(c, false); }, all);
  rpm.hazards[W95] = core::CrashStyle::kDeferred;  // Table 3: *ReadProcessMemory
  rpm.hazards[CE] = core::CrashStyle::kDeferred;

  d.add("WriteProcessMemory", A, G, {"h_process", "buf", "cbuf", "size", "buf"},
        [](CallContext& c) { return do_rpm(c, true); }, all);
}

}  // namespace ballista::win32
