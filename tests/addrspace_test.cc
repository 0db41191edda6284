// Unit tests for the simulated address space and MMU fault behaviour.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <random>
#include <set>

#include "sim/addrspace.h"

namespace ballista::sim {
namespace {

TEST(AddressSpace, UnmappedReadFaults) {
  AddressSpace mem;
  EXPECT_THROW(mem.read_u8(0x5000), SimFault);
  EXPECT_THROW(mem.read_u8(0), SimFault);
  EXPECT_THROW(mem.write_u8(0xDEADBEEF, 1), SimFault);
}

TEST(AddressSpace, MapThenAccess) {
  AddressSpace mem;
  mem.map(0x10000, 4096, kPermRW);
  mem.write_u8(0x10000, 42);
  EXPECT_EQ(mem.read_u8(0x10000), 42);
  mem.write_u32(0x10100, 0xCAFEBABE);
  EXPECT_EQ(mem.read_u32(0x10100), 0xCAFEBABEu);
  mem.write_u64(0x10200, 0x1122334455667788ull);
  EXPECT_EQ(mem.read_u64(0x10200), 0x1122334455667788ull);
}

TEST(AddressSpace, FaultCarriesAddressAndDirection) {
  AddressSpace mem;
  try {
    mem.write_u8(0x7777, 1);
    FAIL() << "expected fault";
  } catch (const SimFault& f) {
    EXPECT_EQ(f.fault().address, 0x7777u);
    EXPECT_TRUE(f.fault().is_write);
    EXPECT_EQ(f.fault().type, FaultType::kAccessViolation);
  }
}

TEST(AddressSpace, ReadOnlyPageRejectsWrites) {
  AddressSpace mem;
  mem.map(0x20000, 4096, kPermRead);
  EXPECT_EQ(mem.read_u8(0x20000), 0);
  EXPECT_THROW(mem.write_u8(0x20000, 1), SimFault);
  // Kernel mode also honours write protection.
  EXPECT_THROW(mem.write_u8(0x20000, 1, Access::kKernel), SimFault);
}

TEST(AddressSpace, ProtectChangesPermissions) {
  AddressSpace mem;
  mem.map(0x30000, 4096, kPermRW);
  mem.write_u8(0x30000, 9);
  mem.protect(0x30000, 4096, kPermRead);
  EXPECT_THROW(mem.write_u8(0x30000, 1), SimFault);
  EXPECT_EQ(mem.read_u8(0x30000), 9);  // contents survive protection change
  mem.protect(0x30000, 4096, kPermNone);
  EXPECT_THROW(mem.read_u8(0x30000), SimFault);
}

TEST(AddressSpace, UnmapCreatesDanglingFaults) {
  AddressSpace mem;
  mem.map(0x40000, 8192, kPermRW);
  mem.unmap(0x40000, 4096);
  EXPECT_THROW(mem.read_u8(0x40000), SimFault);
  EXPECT_EQ(mem.read_u8(0x41000), 0);  // second page still mapped
}

TEST(AddressSpace, KernelOnlyPagesBlockUserAccess) {
  AddressSpace mem;
  mem.map(0x50000, 4096, kPermRW, /*kernel_only=*/true);
  EXPECT_THROW(mem.read_u8(0x50000, Access::kUser), SimFault);
  EXPECT_EQ(mem.read_u8(0x50000, Access::kKernel), 0);
}

TEST(AddressSpace, AllocPlacesGuardPages) {
  AddressSpace mem;
  const Addr a = mem.alloc(64);
  mem.write_u8(a, 1);
  mem.write_u8(a + 63, 1);
  // Writes run off the page containing the allocation into the guard page.
  const Addr page_end = page_base(a) + kPageSize;
  EXPECT_THROW(mem.write_u8(page_end, 1), SimFault);
  // Successive allocations never touch each other.
  const Addr b = mem.alloc(64);
  EXPECT_GE(b, page_end + kPageSize);
}

TEST(AddressSpace, AllocDanglingFaultsImmediately) {
  AddressSpace mem;
  const Addr a = mem.alloc_dangling(64);
  EXPECT_THROW(mem.read_u8(a), SimFault);
}

TEST(AddressSpace, CStringRoundTrip) {
  AddressSpace mem;
  const Addr a = mem.alloc_cstr("robustness");
  EXPECT_EQ(mem.read_cstr(a), "robustness");
}

TEST(AddressSpace, UnterminatedStringWalkFaultsAtGuard) {
  AddressSpace mem;
  const Addr a = mem.alloc(4096);
  for (int i = 0; i < 4096; ++i) mem.write_u8(a + i, 'A');
  EXPECT_THROW(mem.read_cstr(a), SimFault);
}

TEST(AddressSpace, WideStringRoundTrip) {
  AddressSpace mem;
  const Addr a = mem.alloc_wstr(u"wide");
  EXPECT_EQ(mem.read_wstr(a), u"wide");
}

TEST(AddressSpace, StrictAlignmentFaultsOnOddAccess) {
  AddressSpace strict(nullptr, /*strict_align=*/true);
  strict.map(0x60000, 4096, kPermRW);
  EXPECT_NO_THROW(strict.read_u32(0x60000));
  try {
    strict.read_u32(0x60001);
    FAIL() << "expected misalignment";
  } catch (const SimFault& f) {
    EXPECT_EQ(f.fault().type, FaultType::kMisalignment);
  }
  // Relaxed spaces tolerate it (x86 semantics).
  AddressSpace relaxed;
  relaxed.map(0x60000, 4096, kPermRW);
  EXPECT_NO_THROW(relaxed.read_u32(0x60001));
}

TEST(AddressSpace, CheckRangeMatchesAccessOutcome) {
  AddressSpace mem;
  mem.map(0x70000, 4096, kPermRead);
  EXPECT_TRUE(mem.check_range(0x70000, 4096, false, Access::kUser));
  EXPECT_FALSE(mem.check_range(0x70000, 4096, true, Access::kUser));
  EXPECT_FALSE(mem.check_range(0x70000, 4097, false, Access::kUser));
  EXPECT_FALSE(mem.check_range(0x90000, 1, false, Access::kUser));
  EXPECT_TRUE(mem.check_range(0x70000, 0, true, Access::kUser));  // empty
}

TEST(AddressSpace, ValueSpanningPageBoundary) {
  AddressSpace mem;
  mem.map(0x80000, 8192, kPermRW);
  const Addr split = 0x81000 - 2;
  mem.write_u32(split, 0xA1B2C3D4);
  EXPECT_EQ(mem.read_u32(split), 0xA1B2C3D4u);
  // With the second page missing, the same write faults at the boundary.
  mem.unmap(0x81000, 4096);
  EXPECT_THROW(mem.write_u32(split, 1), SimFault);
}

TEST(SharedArena, PagesPersistAcrossSpaces) {
  SharedArena arena;
  AddressSpace a(&arena), b(&arena);
  a.write_u8(kSharedArenaBase + 100, 77, Access::kKernel);
  EXPECT_EQ(b.read_u8(kSharedArenaBase + 100, Access::kKernel), 77);
}

TEST(SharedArena, ContainsLowSystemAreaAndArenaRange) {
  SharedArena arena;
  EXPECT_TRUE(arena.contains(0));
  EXPECT_TRUE(arena.contains(0xFFFF));
  EXPECT_FALSE(arena.contains(0x10000));
  EXPECT_TRUE(arena.contains(kSharedArenaBase));
  EXPECT_TRUE(arena.contains(kSharedArenaEnd - 1));
  EXPECT_FALSE(arena.contains(kSharedArenaEnd));
}

TEST(SharedArena, UserAccessToArenaFaults) {
  SharedArena arena;
  AddressSpace mem(&arena);
  mem.write_u8(kSharedArenaBase, 1, Access::kKernel);
  EXPECT_THROW(mem.read_u8(kSharedArenaBase, Access::kUser), SimFault);
}

TEST(SharedArena, CorruptionCounterAndClear) {
  SharedArena arena;
  EXPECT_EQ(arena.corruption(), 0);
  arena.note_corruption();
  arena.note_corruption();
  EXPECT_EQ(arena.corruption(), 2);
  arena.clear();
  EXPECT_EQ(arena.corruption(), 0);
}

TEST(AddressSpace, WithoutArenaLowAndHighAddressesFault) {
  AddressSpace mem;  // NT/Linux style: no shared arena
  EXPECT_THROW(mem.read_u8(0x100, Access::kKernel), SimFault);
  EXPECT_THROW(mem.read_u8(kSharedArenaBase, Access::kKernel), SimFault);
}

// --- one-entry TLB coherence ------------------------------------------------
// Each test first reads the page so the TLB holds it, then changes the
// mapping behind it; the next access must see the new mapping.

TEST(AddressSpaceTlb, UnmapOfJustReadPageFaults) {
  AddressSpace mem;
  mem.map(0x40000, kPageSize, kPermRW);
  EXPECT_EQ(mem.read_u8(0x40010), 0);
  mem.unmap(0x40000, kPageSize);
  EXPECT_THROW(mem.read_u8(0x40010), SimFault);
  EXPECT_THROW(mem.write_u8(0x40010, 1), SimFault);
}

TEST(AddressSpaceTlb, RestoreDropsPageThePreviousCaseMapped) {
  AddressSpace mem;
  mem.map(0x7fe0'0000, kPageSize, kPermRW);
  mem.checkpoint();
  const Addr a = mem.alloc(64);  // mapped by "the case"
  mem.write_u8(a, 7);
  EXPECT_EQ(mem.read_u8(a), 7);
  mem.restore();
  EXPECT_THROW(mem.read_u8(a), SimFault);
  // The next case's allocation reuses the address on a fresh zero page.
  EXPECT_EQ(mem.alloc(64), a);
  EXPECT_EQ(mem.read_u8(a), 0);
}

TEST(AddressSpaceTlb, RemappedPageReadsZero) {
  AddressSpace mem;
  mem.map(0x40000, kPageSize, kPermRW);
  mem.write_u8(0x40020, 0xAB);
  EXPECT_EQ(mem.read_u8(0x40020), 0xAB);
  mem.unmap(0x40000, kPageSize);
  mem.map(0x40000, kPageSize, kPermRW);
  EXPECT_EQ(mem.read_u8(0x40020), 0);
}

TEST(AddressSpaceTlb, ResetThenMapReadsZero) {
  AddressSpace mem;
  mem.map(0x40000, kPageSize, kPermRW);
  mem.write_u8(0x40020, 0xAB);
  EXPECT_EQ(mem.read_u8(0x40020), 0xAB);
  mem.reset();
  EXPECT_THROW(mem.read_u8(0x40020), SimFault);
  mem.map(0x40000, kPageSize, kPermRW);
  EXPECT_EQ(mem.read_u8(0x40020), 0);
}

TEST(AddressSpaceTlb, ProtectAfterCachedHitStillFaultsUserWrite) {
  AddressSpace mem;
  mem.map(0x40000, kPageSize, kPermRW);
  mem.write_u8(0x40000, 5);  // cached as writable
  mem.protect(0x40000, kPageSize, kPermRead);
  EXPECT_THROW(mem.write_u8(0x40000, 6), SimFault);
  EXPECT_EQ(mem.read_u8(0x40000), 5);
  mem.protect(0x40000, kPageSize, kPermNone);
  EXPECT_THROW(mem.read_u8(0x40000), SimFault);
}

TEST(AddressSpaceTlb, KernelWriteAfterArenaClearLandsOnFreshPage) {
  SharedArena arena;
  AddressSpace mem(&arena), other(&arena);
  const Addr a = kSharedArenaBase + 0x100;
  mem.write_u8(a, 1, Access::kKernel);
  EXPECT_EQ(mem.read_u8(a, Access::kKernel), 1);
  arena.clear();  // a reboot frees every arena page
  EXPECT_EQ(mem.read_u8(a, Access::kKernel), 0);
  mem.write_u8(a, 2, Access::kKernel);
  EXPECT_EQ(arena.page(a)->data[a % kPageSize], 2);
  EXPECT_EQ(other.read_u8(a, Access::kKernel), 2);
}

// --- range operations ----------------------------------------------------------
// protect() and unmap() walk the page table instead of the page numbers when
// the range spans at least as many pages as are mapped.  Both walks must act
// on exactly the pages a per-page reference model names.

/// What the reference model knows about one mapped page.
struct ModelPage {
  std::uint8_t perm = kPermRW;
  bool kernel_only = false;
  std::array<std::uint8_t, kPageSize> bytes{};
};
using Model = std::map<Addr, ModelPage>;

/// The reference rule: the page span a range operation acts on, computed the
/// way map() computes it (wrapping arithmetic included).
bool in_span(Addr pg, Addr start, std::uint64_t size) {
  const Addr first = page_of(start);
  const Addr last = page_of(start + (size ? size - 1 : 0));
  return pg >= first && pg <= last;
}

void model_protect(Model& model, Addr start, std::uint64_t size,
                   std::uint8_t perm) {
  for (auto& [pg, mp] : model)
    if (in_span(pg, start, size)) mp.perm = perm;
}

/// Drops the span's pages from the model and returns their numbers.
std::vector<Addr> model_unmap(Model& model, Addr start, std::uint64_t size) {
  std::vector<Addr> gone;
  for (auto it = model.begin(); it != model.end();) {
    if (in_span(it->first, start, size)) {
      gone.push_back(it->first);
      it = model.erase(it);
    } else {
      ++it;
    }
  }
  return gone;
}

/// Compares the space against the model over every page number the trial has
/// ever mapped: the mapped set, each page's perm and kernel_only (seen as
/// user-mode access), and its bytes.
void expect_matches(const AddressSpace& mem, const Model& model,
                    const std::set<Addr>& universe) {
  ASSERT_EQ(mem.mapped_page_count(), model.size());
  std::array<std::uint8_t, kPageSize> buf{};
  for (const Addr pg : universe) {
    const Addr a = pg * kPageSize;
    const auto it = model.find(pg);
    ASSERT_EQ(mem.is_mapped(a), it != model.end()) << "page " << pg;
    if (it == model.end()) {
      // Also through the TLB: an unmapped page faults even in kernel mode.
      EXPECT_THROW(mem.read_u8(a + 5, Access::kKernel), SimFault)
          << "page " << pg;
      continue;
    }
    const ModelPage& mp = it->second;
    ASSERT_EQ(mem.perm_of(a), mp.perm) << "page " << pg;
    EXPECT_EQ(mem.check_range(a, kPageSize, false, Access::kUser),
              (mp.perm & kPermRead) != 0 && !mp.kernel_only)
        << "page " << pg;
    EXPECT_EQ(mem.check_range(a, kPageSize, true, Access::kUser),
              (mp.perm & kPermWrite) != 0 && !mp.kernel_only)
        << "page " << pg;
    mem.read_bytes(a, buf, Access::kKernel);
    EXPECT_TRUE(buf == mp.bytes) << "page " << pg;
  }
}

/// Maps 0-300 pages (more than the free list caches), mostly clustered in
/// the harness region and the rest near the 2 GiB, 3 GiB and 4 GiB lines and
/// the very top of the 64-bit space, each filled with random bytes and given
/// a random perm and kernel_only bit.
Model build_layout(AddressSpace& mem, std::mt19937_64& rng,
                   std::set<Addr>& universe) {
  static constexpr Addr kAnchors[] = {0x0,     0x10,    0x7FFF0,
                                      0x80000, 0xBFFF8, 0xFFFF8,
                                      0x100000, (Addr{1} << 52) - 8};
  static constexpr std::uint8_t kPerms[] = {kPermNone, kPermRead, kPermRW};
  Model model;
  const std::size_t n = rng() % 301;
  while (model.size() < n) {
    const Addr pg = rng() % 5 != 0 ? 0x100 + rng() % 400
                                   : kAnchors[rng() % 8] + rng() % 8;
    if (model.count(pg) != 0) continue;
    ModelPage mp;
    mp.perm = kPerms[rng() % 3];
    mp.kernel_only = rng() % 4 == 0;
    for (std::size_t i = 0; i < kPageSize; i += 8) {
      const std::uint64_t word = rng();
      std::memcpy(mp.bytes.data() + i, &word, 8);
    }
    const Addr a = pg * kPageSize;
    mem.map(a, kPageSize, kPermRW, mp.kernel_only);
    mem.write_bytes(a, mp.bytes, Access::kKernel);
    mem.protect(a, kPageSize, mp.perm);
    model.emplace(pg, mp);
    universe.insert(pg);
  }
  return model;
}

/// A (start, size) pair: the exceptional sizes the typelib hands to size
/// parameters, sizes that straddle a page line, sizes near the mapped-page
/// count (either side of the walker's switch) and sizes whose end wraps.
std::pair<Addr, std::uint64_t> pick_range(std::mt19937_64& rng,
                                          const std::set<Addr>& universe,
                                          std::size_t mapped) {
  static constexpr std::uint64_t kSizes[] = {
      0, 1, 16, 4096, 65536, 1u << 20, 0x8000'0000ull, 0xFFFF'FFFFull};
  static constexpr Addr kStarts[] = {0x10000, 0x100000, 0x7FFF'F000,
                                     0x8000'0000, 0xFFFF'F000};
  Addr start = 0;
  switch (rng() % 6) {
    case 0: case 1: case 2:
      if (!universe.empty()) {
        auto it = universe.begin();
        std::advance(it, rng() % universe.size());
        start = *it * kPageSize;
      }
      break;
    case 3: start = 0; break;
    case 4: start = kStarts[rng() % 5]; break;
    default: start = ~Addr{0} - rng() % (16 * kPageSize); break;
  }
  // Unaligned starts half the time.
  if (rng() % 2 == 0) start += rng() % kPageSize;
  std::uint64_t size = 0;
  switch (rng() % 5) {
    case 0: case 1: size = kSizes[rng() % 8]; break;
    case 2: size = kPageSize - start % kPageSize + 1 + kPageSize * (rng() % 3);
      break;
    case 3: size = (mapped + rng() % 5) * kPageSize - 2 * kPageSize; break;
    default: size = ~start + 1 + rng() % (3 * kPageSize); break;
  }
  return {start, size};
}

TEST(AddressSpaceRange, ProtectAndUnmapMatchPerPageModel) {
  std::mt19937_64 rng(0x5eed'0a11);
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    AddressSpace mem;
    std::set<Addr> universe;
    Model model = build_layout(mem, rng, universe);
    expect_matches(mem, model, universe);
    for (int op = 0; op < 4; ++op) {
      const auto [start, size] = pick_range(rng, universe, model.size());
      SCOPED_TRACE("start " + std::to_string(start) + " size " +
                   std::to_string(size));
      // Prime the TLB with some page first, so a stale entry would show.
      if (!universe.empty()) {
        try {
          (void)mem.read_u8(*universe.begin() * kPageSize, Access::kKernel);
        } catch (const SimFault&) {
        }
      }
      if (rng() % 2 == 0) {
        const std::uint8_t perm = static_cast<std::uint8_t>(rng() % 4);
        mem.protect(start, size, perm);
        model_protect(model, start, size, perm);
        expect_matches(mem, model, universe);
        continue;
      }
      mem.unmap(start, size);
      const std::vector<Addr> gone = model_unmap(model, start, size);
      expect_matches(mem, model, universe);
      // Pages taken back, from the free list or fresh, read zero.
      for (const Addr pg : gone) {
        mem.map(pg * kPageSize, kPageSize, kPermRW);
        model.emplace(pg, ModelPage{});
      }
      expect_matches(mem, model, universe);
    }
    // A whole-space protect makes kernel_only visible on every page, even
    // those the trial left with no access.
    mem.protect(0, ~0ull, kPermRW);
    model_protect(model, 0, ~0ull, kPermRW);
    expect_matches(mem, model, universe);
  }
}

TEST(AddressSpaceRange, WrappedRangeTouchesNothing) {
  AddressSpace mem;
  mem.map(0x10000, 2 * kPageSize, kPermRW);
  mem.map(0xFFFF'F000, kPageSize, kPermRW);
  // start + size - 1 wraps to below start's page: an empty span.
  mem.protect(0x11000, ~Addr{0} - 0x100, kPermRead);
  EXPECT_EQ(mem.perm_of(0x10000), kPermRW);
  EXPECT_EQ(mem.perm_of(0x11000), kPermRW);
  EXPECT_EQ(mem.perm_of(0xFFFF'F000), kPermRW);
  mem.unmap(0x11000, ~Addr{0} - 0x100);
  EXPECT_EQ(mem.mapped_page_count(), 3u);
}

// A range spanning all 2^52 page numbers costs what is mapped.  Probing each
// page number instead would never finish, so this test would time out.
TEST(AddressSpaceRange, WholeSpaceRangeCostsOnlyMappedPages) {
  AddressSpace mem;
  mem.map(0x10000, 3 * kPageSize, kPermRW);
  mem.map(0x7FFF'F000, kPageSize, kPermRW, /*kernel_only=*/true);
  mem.map(0xFFFF'F000, kPageSize, kPermRead);
  mem.write_u8(0x10010, 0x42);
  mem.protect(0, ~0ull - 1, kPermRead);
  EXPECT_EQ(mem.mapped_page_count(), 5u);
  for (const Addr a : {Addr{0x10000}, Addr{0x11000}, Addr{0x12000},
                       Addr{0x7FFF'F000}, Addr{0xFFFF'F000}})
    EXPECT_EQ(mem.perm_of(a), kPermRead) << a;
  EXPECT_EQ(mem.read_u8(0x10010), 0x42);
  EXPECT_THROW(mem.write_u8(0x10010, 1), SimFault);
  EXPECT_FALSE(mem.is_mapped(0x13000));
  mem.unmap(0, ~0ull - 1);
  EXPECT_EQ(mem.mapped_page_count(), 0u);
  EXPECT_THROW(mem.read_u8(0x10010, Access::kKernel), SimFault);
}

// --- free-listed pages --------------------------------------------------------

/// True when every byte of the page at `base` reads as zero.
bool page_is_zero(const AddressSpace& mem, Addr base) {
  std::array<std::uint8_t, kPageSize> buf{};
  mem.read_bytes(base, buf, Access::kKernel);
  for (const std::uint8_t b : buf)
    if (b != 0) return false;
  return true;
}

TEST(AddressSpaceFreeList, WrittenPageReadsZeroWhenTakenAgain) {
  AddressSpace mem;
  mem.map(0x40000, kPageSize, kPermRW);
  std::array<std::uint8_t, kPageSize> ones;
  ones.fill(0xFF);
  mem.write_bytes(0x40000, ones);
  mem.unmap(0x40000, kPageSize);       // retired dirty
  mem.map(0x90000, kPageSize, kPermRW);  // takes it back off the free list
  EXPECT_TRUE(page_is_zero(mem, 0x90000));
}

TEST(AddressSpaceFreeList, NeverWrittenPageReadsZeroWhenTakenAgain) {
  AddressSpace mem;
  mem.map(0x40000, kPageSize, kPermRW);
  EXPECT_EQ(mem.read_u8(0x40000), 0);
  mem.unmap(0x40000, kPageSize);  // retired clean
  mem.map(0x90000, kPageSize, kPermRW);
  EXPECT_TRUE(page_is_zero(mem, 0x90000));
}

TEST(AddressSpaceFreeList, PagesRetiredByRestoreReadZero) {
  AddressSpace mem;
  mem.map(0x7fe0'0000, kPageSize, kPermRW);
  mem.checkpoint();
  // Two case pages: one written, one only read.
  mem.map(0x40000, 2 * kPageSize, kPermRW);
  mem.write_u8(0x40000 + 17, 0x5A);
  EXPECT_EQ(mem.read_u8(0x41000), 0);
  mem.write_u8(0x7fe0'0000, 0x33);  // a checkpointed page the case dirtied
  mem.restore();
  EXPECT_TRUE(page_is_zero(mem, 0x7fe0'0000));
  mem.map(0x90000, 2 * kPageSize, kPermRW);
  EXPECT_TRUE(page_is_zero(mem, 0x90000));
  EXPECT_TRUE(page_is_zero(mem, 0x91000));
}

}  // namespace
}  // namespace ballista::sim
