// Fault equivalence of host staging: AddressSpace::accessible_prefix and the
// three C-library sites that size host buffers by it (memmove, fwrite) or by
// the file (fread).  Each site is compared with a byte-wise reference — the
// same MuT logic with every simulated-memory transfer done one read_u8 or
// write_u8 at a time — on random layouts of guard, read-only, no-access and
// kernel-only pages, plus low-system-area and shared-arena addresses.  Both
// sides must agree on the fault (type, address, direction), the return
// value, every byte of the layout, the file's bytes and position, the
// mutation-point count and the whole trace tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "clib/crt.h"
#include "common/rng.h"
#include "core/trace.h"
#include "tests/test_util.h"

namespace ballista {
namespace {

using sim::Access;
using sim::Addr;
using sim::kPageSize;

constexpr Addr kRegion = 0x2000'0000;
constexpr int kRegionPages = 8;
constexpr std::uint64_t kCap = 1 << 20;  // the MuTs' transfer cap

enum class PageKind : std::uint8_t {
  kUnmapped,
  kReadWrite,
  kReadOnly,
  kNoAccess,
  kKernelOnly,
};

struct Layout {
  std::array<PageKind, kRegionPages> pages{};
  std::uint64_t fill_seed = 0;
};

Layout random_layout(SplitMix64& rng) {
  Layout l;
  for (auto& k : l.pages) {
    // Readable pages twice as likely, so transfers get somewhere first.
    const std::uint64_t r = rng.next_below(7);
    k = r < 3 ? PageKind::kReadWrite : static_cast<PageKind>(r - 2);
  }
  l.fill_seed = rng.next();
  return l;
}

/// Maps the layout at kRegion and fills every mapped page with seed-derived
/// bytes (kernel-mode, before any mutation window opens).
void apply(const Layout& l, sim::AddressSpace& mem) {
  SplitMix64 fill(l.fill_seed);
  for (int i = 0; i < kRegionPages; ++i) {
    const PageKind k = l.pages[static_cast<std::size_t>(i)];
    if (k == PageKind::kUnmapped) continue;
    const Addr base = kRegion + static_cast<Addr>(i) * kPageSize;
    mem.map(base, kPageSize, sim::kPermRW, k == PageKind::kKernelOnly);
    std::array<std::uint8_t, kPageSize> bytes;
    for (auto& b : bytes) b = static_cast<std::uint8_t>(fill.next());
    mem.write_bytes(base, bytes, Access::kKernel);
    if (k == PageKind::kReadOnly) mem.protect(base, kPageSize, sim::kPermRead);
    if (k == PageKind::kNoAccess) mem.protect(base, kPageSize, sim::kPermNone);
  }
}

Addr random_addr(SplitMix64& rng) {
  switch (rng.next_below(8)) {
    case 0:  // shared arena: present (kernel-only) on 9x/CE, unmapped elsewhere
      return sim::kSharedArenaBase + rng.next_below(2 * kPageSize);
    case 1:  // low system area: likewise
      return rng.next_below(2 * kPageSize);
    case 2:  // straddling the region's last page into unmapped memory
      return kRegion + kRegionPages * kPageSize - 1 - rng.next_below(64);
    default:
      return kRegion + rng.next_below(kRegionPages * kPageSize);
  }
}

std::uint64_t random_len(SplitMix64& rng) {
  switch (rng.next_below(8)) {
    case 0: return 0;
    case 1: return kCap + rng.next_below(kCap);  // beyond the cap
    case 2: return rng.next_below(16);
    default: return rng.next_below(3 * kPageSize);
  }
}

// --- the prefix query -----------------------------------------------------------

/// First byte of [a, a+n) the byte-wise accessor faults on, or n.
std::uint64_t bytewise_prefix(sim::AddressSpace& mem, Addr a, std::uint64_t n,
                              bool write, Access m) {
  for (std::uint64_t i = 0; i < n; ++i) {
    try {
      if (write)
        mem.write_u8(a + i, 0, m);
      else
        (void)mem.read_u8(a + i, m);
    } catch (const sim::SimFault&) {
      return i;
    }
  }
  return n;
}

/// The kernel probe rules, from the layout alone: private pages need the
/// access's permission bit, an arena address ends the walk as present.
std::uint64_t probe_model(const Layout& l, bool has_arena, Addr a,
                          std::uint64_t n, bool write) {
  const sim::SharedArena arena;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Addr x = a + i;
    if (x >= kRegion && x < kRegion + kRegionPages * kPageSize) {
      const PageKind k = l.pages[(x - kRegion) / kPageSize];
      if (k == PageKind::kUnmapped || k == PageKind::kNoAccess) return i;
      if (k == PageKind::kReadOnly && write) return i;
      continue;
    }
    if (has_arena && arena.contains(x)) return n;
    return i;
  }
  return n;
}

TEST(AccessiblePrefix, MatchesBytewiseAccessorsOnRandomLayouts) {
  SplitMix64 rng(0x5ea9'1e55);
  for (int trial = 0; trial < 400; ++trial) {
    const bool has_arena = trial % 2 == 0;
    const Layout l = random_layout(rng);
    const Addr a = random_addr(rng);
    // Byte-wise walks are slow; stay within a few pages.
    const std::uint64_t n = rng.next_below(3 * kPageSize);
    const bool write = rng.next_below(2) == 0;
    SCOPED_TRACE("trial " + std::to_string(trial));

    sim::SharedArena arena;
    sim::AddressSpace mem(has_arena ? &arena : nullptr);
    apply(l, mem);
    sim::SharedArena twin_arena;
    sim::AddressSpace twin(has_arena ? &twin_arena : nullptr);
    apply(l, twin);

    const std::uint64_t user = mem.accessible_prefix(a, n, write, Access::kUser);
    EXPECT_EQ(user, bytewise_prefix(twin, a, n, write, Access::kUser));
    EXPECT_EQ(mem.accessible_prefix(a, n, write, Access::kKernel),
              probe_model(l, has_arena, a, n, write));
    EXPECT_EQ(mem.check_range(a, n, write, Access::kUser), user == n);
  }
}

// --- the staging sites ---------------------------------------------------------

struct Observed {
  bool faulted = false;
  sim::Fault fault;
  bool panicked = false;
  core::CallOutcome out;
  std::vector<std::uint8_t> region;  // kernel view of every mapped page
  std::vector<std::uint8_t> file;
  std::uint64_t file_pos = 0;
  std::uint64_t points = 0;
  std::string trace;
};

using Body = std::function<core::CallOutcome(core::CallContext&)>;

/// One machine with the layout mapped and a FILE bound to `contents` at
/// `pos`, running one call of `body` with the mutation hub counting.
Observed run_on(sim::OsVariant v, const Layout& l,
                const std::vector<std::uint8_t>& contents, std::uint64_t pos,
                const core::MuT& mut, std::vector<core::RawArg> args,
                bool with_file, const Body& body) {
  sim::Machine machine(v);
  auto proc = machine.acquire_process();
  auto& mem = proc->mem();
  apply(l, mem);
  auto node = std::make_shared<sim::FsNode>("staging.dat", false);
  node->data() = contents;
  const Addr fp =
      clib::make_file_struct(*proc, node, clib::kFRead | clib::kFWrite |
                                              clib::kFOpen);
  auto file = std::static_pointer_cast<sim::FileObject>(proc->handles().get(
      mem.read_u32(fp + clib::kFileOffHandle, Access::kKernel)));
  file->set_position(pos);
  if (with_file) args[3] = fp;  // the same address on every machine

  machine.trace().clear();
  machine.mutations().set_counting(true);
  machine.mutations().open_window();
  Observed o;
  core::CallContext ctx(machine, *proc, mut, args);
  try {
    machine.kernel_enter();
    o.out = body(ctx);
  } catch (const sim::SimFault& f) {
    o.faulted = true;
    o.fault = f.fault();
  } catch (const sim::KernelPanic&) {
    o.panicked = true;
  }
  machine.mutations().close_window();

  for (int i = 0; i < kRegionPages; ++i) {
    const Addr base = kRegion + static_cast<Addr>(i) * kPageSize;
    if (l.pages[static_cast<std::size_t>(i)] == PageKind::kUnmapped) continue;
    std::array<std::uint8_t, kPageSize> page;
    mem.read_bytes(base, page, Access::kKernel);
    o.region.insert(o.region.end(), page.begin(), page.end());
  }
  o.file = node->data();
  o.file_pos = file->position();
  o.points = machine.mutations().seq();
  o.trace = trace::render_tail(machine.trace().tail());
  return o;
}

void expect_same(const Observed& got, const Observed& want) {
  EXPECT_EQ(got.faulted, want.faulted);
  if (got.faulted && want.faulted) {
    EXPECT_EQ(got.fault.type, want.fault.type);
    EXPECT_EQ(got.fault.address, want.fault.address);
    EXPECT_EQ(got.fault.is_write, want.fault.is_write);
  }
  EXPECT_EQ(got.panicked, want.panicked);
  if (!got.faulted && !got.panicked && !want.faulted && !want.panicked) {
    EXPECT_EQ(got.out.status, want.out.status);
    EXPECT_EQ(got.out.ret, want.out.ret);
  }
  EXPECT_TRUE(got.region == want.region) << "layout bytes differ";
  EXPECT_TRUE(got.file == want.file) << "file bytes differ";
  EXPECT_EQ(got.file_pos, want.file_pos);
  EXPECT_EQ(got.points, want.points);
  EXPECT_EQ(got.trace, want.trace);
}

std::vector<std::uint8_t> gather_bytewise(core::CallContext& ctx, Addr a,
                                          std::uint64_t n) {
  auto& mem = ctx.proc().mem();
  std::vector<std::uint8_t> out;
  for (std::uint64_t i = 0; i < n; ++i)
    out.push_back(mem.read_u8(a + i, Access::kUser));
  return out;
}

void scatter_bytewise(core::CallContext& ctx, Addr a,
                      const std::vector<std::uint8_t>& in) {
  auto& mem = ctx.proc().mem();
  for (std::size_t i = 0; i < in.size(); ++i)
    mem.write_u8(a + i, in[i], Access::kUser);
}

core::CallOutcome ref_memmove(core::CallContext& ctx) {
  const Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
  const auto tmp = gather_bytewise(ctx, src, std::min(ctx.arg(2), kCap));
  scatter_bytewise(ctx, dst, tmp);
  return core::ok(dst);
}

core::CallOutcome ref_fwrite(core::CallContext& ctx) {
  const Addr ptr = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1), n = ctx.arg(2);
  const clib::FileRef ref = clib::resolve_file(ctx, ctx.arg_addr(3));
  if (ref.status != clib::FileRef::Status::kOk)
    return core::error_reported(0);
  if (size == 0 || n == 0) return core::ok(0);
  if ((ref.flags & clib::kFWrite) == 0) return core::error_reported(0);
  const std::uint64_t total = std::min(size * n, kCap);
  std::vector<std::uint8_t> data(total);
  if (ctx.hazard() != core::CrashStyle::kNone)
    (void)ctx.k_read(ptr, data);
  else
    data = gather_bytewise(ctx, ptr, total);
  ref.obj->write_at(data);
  return core::ok(total / size);
}

core::CallOutcome ref_fread(core::CallContext& ctx) {
  const Addr ptr = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1), n = ctx.arg(2);
  const clib::FileRef ref = clib::resolve_file(ctx, ctx.arg_addr(3));
  if (ref.status != clib::FileRef::Status::kOk)
    return core::error_reported(0);
  if (size == 0 || n == 0) return core::ok(0);
  std::vector<std::uint8_t> data(std::min(size * n, kCap));
  data.resize(ref.obj->read_at(data));
  if (ctx.hazard() != core::CrashStyle::kNone)
    (void)ctx.k_write(ptr, data);
  else
    scatter_bytewise(ctx, ptr, data);
  return core::ok(data.size() / size);
}

constexpr sim::OsVariant kVariants[] = {
    sim::OsVariant::kWin95,  sim::OsVariant::kWin98,  sim::OsVariant::kWin98SE,
    sim::OsVariant::kWinNT4, sim::OsVariant::kWin2000, sim::OsVariant::kWinCE,
    sim::OsVariant::kLinux};

/// Runs `trials` random calls of the named MuT against `reference`.
void check_site(const char* name, const Body& reference, std::uint64_t seed,
                int trials) {
  const core::MuT* mut = testing::shared_world().registry.find(name);
  ASSERT_NE(mut, nullptr);
  SplitMix64 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const sim::OsVariant v = kVariants[trial % std::size(kVariants)];
    const Layout l = random_layout(rng);
    std::vector<std::uint8_t> contents(rng.next_below(3 * kPageSize));
    for (auto& b : contents) b = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t pos = rng.next_below(contents.size() + 16);
    std::vector<core::RawArg> args;
    bool with_file = false;
    if (std::string_view(name) == "memmove") {
      args = {random_addr(rng), random_addr(rng), random_len(rng)};
    } else {
      const std::uint64_t size =
          rng.next_below(8) == 0 ? 0 : 1 + rng.next_below(4);
      const std::uint64_t n = rng.next_below(8) == 0
                                  ? 0
                                  : random_len(rng) /
                                        std::max<std::uint64_t>(size, 1);
      args = {random_addr(rng), size, n, 0};
      with_file = true;
    }
    SCOPED_TRACE(std::string(name) + " trial " + std::to_string(trial) +
                 " on " + std::string(sim::variant_name(v)));
    const Observed got =
        run_on(v, l, contents, pos, *mut, args, with_file, mut->impl);
    const Observed want =
        run_on(v, l, contents, pos, *mut, args, with_file, reference);
    expect_same(got, want);
  }
}

TEST(StagingEquivalence, MemmoveMatchesBytewiseReference) {
  check_site("memmove", ref_memmove, 0x3e33'0e01, 210);
}

TEST(StagingEquivalence, FwriteMatchesBytewiseReference) {
  check_site("fwrite", ref_fwrite, 0xf411'7e02, 210);
}

TEST(StagingEquivalence, FreadMatchesBytewiseReference) {
  check_site("fread", ref_fread, 0xf4ea'd003, 210);
}

}  // namespace
}  // namespace ballista
