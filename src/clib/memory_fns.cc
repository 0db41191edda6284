// The C memory family: memcpy/memmove/memset/memcmp/memchr plus the heap
// quartet (malloc/calloc/realloc/free).
//
// Heap chunks carry a 16-byte header in simulated memory.  glibc's free()
// chases chunk metadata on garbage pointers (Abort); the VC6 CRT on the NT
// family trusted its header check enough to dereference (Abort), while the
// 9x-era CRT validated against its allocation table and quietly ignored bad
// frees (Silent) — reproducing the paper's observation that NT/2000 have
// *higher* C-memory Abort rates than 95/98 (§4, Figure 2 discussion).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::CallContext;
using core::CallOutcome;
using core::ok;
using sim::Addr;

constexpr std::uint64_t kScanCap = 1 << 20;
constexpr std::uint64_t kHeapMagic = 0x48454150'4348554eULL;  // "HEAPCHUN"
constexpr std::uint64_t kHeapLimit = 16 << 20;

/// Bulk copy with segments cut at every source AND destination page
/// boundary.  Within a segment no access can fault (checks are
/// page-granular), so faults land at segment boundaries — the same
/// addresses, in the same read-before-write order, with the same partially
/// written destination, as the historical byte-interleaved loop.
void block_copy(sim::AddressSpace& mem, Addr dst, Addr src, std::uint64_t n) {
  std::uint8_t tmp[sim::kPageSize];
  std::uint64_t i = 0;
  while (i < n) {
    const std::uint64_t seg = std::min<std::uint64_t>(
        {sim::kPageSize - ((src + i) % sim::kPageSize),
         sim::kPageSize - ((dst + i) % sim::kPageSize), n - i});
    mem.read_bytes(src + i, {tmp, seg}, sim::Access::kUser);
    mem.write_bytes(dst + i, {tmp, seg}, sim::Access::kUser);
    i += seg;
  }
}

Addr heap_alloc(CallContext& ctx, std::uint64_t size) {
  auto& mem = ctx.proc().mem();
  const Addr base = mem.alloc(size + 16);
  mem.write_u64(base, kHeapMagic, sim::Access::kKernel);
  mem.write_u64(base + 8, size, sim::Access::kKernel);
  ctx.proc().default_heap()->allocations[base + 16] = size;
  return base + 16;
}

/// Validates a heap pointer the way the active CRT would.  Returns the chunk
/// size, or nullopt when the pointer was rejected (9x CRT table check);
/// throws SimFault when the CRT dereferences garbage (glibc, NT CRT).
std::optional<std::uint64_t> heap_validate(CallContext& ctx, Addr p) {
  auto& proc = ctx.proc();
  auto& allocs = proc.default_heap()->allocations;
  const auto flavor = ctx.os().crt;

  if (flavor == sim::CrtFlavor::kGlibc) {
    // Chase chunk metadata: header magic, then the "next chunk" walk.  On a
    // bogus chunk the walk strides past the page the pointer happened to sit
    // in — the classic unlink crash.
    const std::uint64_t magic = proc.mem().read_u64(p - 16, sim::Access::kUser);
    const std::uint64_t size = proc.mem().read_u64(p - 8, sim::Access::kUser);
    if (magic != kHeapMagic) {
      const std::uint64_t stride =
          std::max<std::uint64_t>(size & 0xffffff, sim::kPageSize);
      (void)proc.mem().read_u8(p + stride, sim::Access::kUser);
      return std::nullopt;
    }
    return size;
  }
  if (sim::is_nt_family(ctx.variant())) {
    // VC6 CRT on NT: trust the header.
    const std::uint64_t magic = proc.mem().read_u64(p - 16, sim::Access::kUser);
    if (magic != kHeapMagic) return std::nullopt;
    return proc.mem().read_u64(p - 8, sim::Access::kUser);
  }
  // 9x / CE CRT: allocation-table lookup, no dereference.
  auto it = allocs.find(p);
  if (it == allocs.end()) return std::nullopt;
  return it->second;
}

CallOutcome do_malloc(CallContext& ctx) {
  const std::uint64_t size = ctx.arg(0);
  if (size > kHeapLimit) {
    ctx.proc().set_errno(ENOMEM);
    return core::error_reported(0);
  }
  return ok(heap_alloc(ctx, size == 0 ? 1 : size));
}

CallOutcome do_calloc(CallContext& ctx) {
  // Period-accurate 32-bit multiplication: n*size wraps, the classic calloc
  // overflow (a Silent failure when it happens to "succeed").
  const std::uint32_t n = ctx.arg32(0), size = ctx.arg32(1);
  const std::uint32_t total = n * size;
  if (total > kHeapLimit) {
    ctx.proc().set_errno(ENOMEM);
    return core::error_reported(0);
  }
  return ok(heap_alloc(ctx, total == 0 ? 1 : total));  // zero-filled by map
}

CallOutcome do_free(CallContext& ctx) {
  const Addr p = ctx.arg_addr(0);
  if (p == 0) return ok(0);  // free(NULL) is legal
  const auto size = heap_validate(ctx, p);
  auto& allocs = ctx.proc().default_heap()->allocations;
  if (!size) {
    // Rejected: glibc/NT already dereferenced (or survived); the 9x table
    // check swallows the bad free entirely.
    if (ctx.os().crt == sim::CrtFlavor::kGlibc) {
      ctx.proc().set_errno(EINVAL);
      return core::error_reported(0);
    }
    return core::silent_success(0);
  }
  if (allocs.erase(p) != 0) ctx.proc().mem().unmap(p - 16, *size + 16);
  return ok(0);
}

CallOutcome do_realloc(CallContext& ctx) {
  const Addr p = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1);
  if (p == 0) return do_malloc(ctx);
  if (size > kHeapLimit) {
    ctx.proc().set_errno(ENOMEM);
    return core::error_reported(0);
  }
  const auto old_size = heap_validate(ctx, p);
  if (!old_size) {
    ctx.proc().set_errno(EINVAL);
    return core::error_reported(0);
  }
  if (size == 0) {
    ctx.proc().default_heap()->allocations.erase(p);
    return ok(0);
  }
  const Addr np = heap_alloc(ctx, size);
  const std::uint64_t copy = std::min(*old_size, size);
  block_copy(ctx.proc().mem(), np, p, std::min(copy, kScanCap));
  ctx.proc().default_heap()->allocations.erase(p);
  return ok(np);
}

CallOutcome do_memcpy(CallContext& ctx) {
  const Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
  const std::uint64_t n = ctx.arg(2);
  block_copy(ctx.proc().mem(), dst, src, std::min(n, kScanCap));
  return ok(dst);
}

CallOutcome do_memmove(CallContext& ctx) {
  const Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
  const std::uint64_t n = ctx.arg(2);
  auto& mem = ctx.proc().mem();
  // Full gather then full scatter, as before (that is what makes it a move).
  const auto tmp = gather_bytes(mem, src, std::min(n, kScanCap));
  mem.write_bytes(dst, tmp, sim::Access::kUser);
  return ok(dst);
}

CallOutcome do_memset(CallContext& ctx) {
  const Addr dst = ctx.arg_addr(0);
  const std::uint8_t c = static_cast<std::uint8_t>(ctx.arg32(1));
  const std::uint64_t n = ctx.arg(2);
  auto& mem = ctx.proc().mem();
  std::uint8_t fill[sim::kPageSize];
  std::memset(fill, c, sizeof fill);
  std::uint64_t i = 0;
  const std::uint64_t len = std::min(n, kScanCap);
  while (i < len) {
    const std::uint64_t seg = std::min<std::uint64_t>(
        sim::kPageSize - ((dst + i) % sim::kPageSize), len - i);
    mem.write_bytes(dst + i, {fill, seg}, sim::Access::kUser);
    i += seg;
  }
  return ok(dst);
}

CallOutcome do_memcmp(CallContext& ctx) {
  const Addr a = ctx.arg_addr(0), b = ctx.arg_addr(1);
  const std::uint64_t n = ctx.arg(2);
  auto& mem = ctx.proc().mem();
  // Segment at both operands' page boundaries: the early exit at the first
  // differing byte never touches a page the byte-wise loop would not have
  // reached, and the a-before-b fault order is preserved.
  std::uint8_t ta[sim::kPageSize], tb[sim::kPageSize];
  std::uint64_t i = 0;
  const std::uint64_t len = std::min(n, kScanCap);
  while (i < len) {
    const std::uint64_t seg = std::min<std::uint64_t>(
        {sim::kPageSize - ((a + i) % sim::kPageSize),
         sim::kPageSize - ((b + i) % sim::kPageSize), len - i});
    mem.read_bytes(a + i, {ta, seg}, sim::Access::kUser);
    mem.read_bytes(b + i, {tb, seg}, sim::Access::kUser);
    for (std::uint64_t k = 0; k < seg; ++k)
      if (ta[k] != tb[k])
        return ok(static_cast<std::uint64_t>(ta[k] < tb[k] ? -1 : 1));
    i += seg;
  }
  return ok(0);
}

CallOutcome do_memchr(CallContext& ctx) {
  const Addr s = ctx.arg_addr(0);
  const std::uint8_t c = static_cast<std::uint8_t>(ctx.arg32(1));
  const std::uint64_t n = ctx.arg(2);
  auto& mem = ctx.proc().mem();
  std::uint8_t tmp[sim::kPageSize];
  std::uint64_t i = 0;
  const std::uint64_t len = std::min(n, kScanCap);
  while (i < len) {
    const std::uint64_t seg = std::min<std::uint64_t>(
        sim::kPageSize - ((s + i) % sim::kPageSize), len - i);
    mem.read_bytes(s + i, {tmp, seg}, sim::Access::kUser);
    const void* hit = std::memchr(tmp, c, seg);
    if (hit != nullptr)
      return ok(s + i +
                static_cast<std::uint64_t>(static_cast<const std::uint8_t*>(hit) -
                                           tmp));
    i += seg;
  }
  return ok(0);
}

}  // namespace

void register_memory_fns(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kCMemory;
  const auto A = core::ApiKind::kCLib;
  const auto all = clib_mask_all();

  d.add("memcpy", A, G, {"buf", "cbuf", "size"}, do_memcpy, all);
  d.add("memmove", A, G, {"buf", "cbuf", "size"}, do_memmove, all);
  d.add("memset", A, G, {"buf", "char_int", "size"}, do_memset, all);
  d.add("memcmp", A, G, {"cbuf", "cbuf", "size"}, do_memcmp, all);
  d.add("memchr", A, G, {"cbuf", "char_int", "size"}, do_memchr, all);
  d.add("malloc", A, G, {"size"}, do_malloc, all);
  d.add("calloc", A, G, {"size", "size"}, do_calloc, all);
  d.add("realloc", A, G, {"heap_ptr", "size"}, do_realloc, all);
  d.add("free", A, G, {"heap_ptr"}, do_free, all);
}

}  // namespace ballista::clib
