// Unit tests for the simulated address space and MMU fault behaviour.
#include <gtest/gtest.h>

#include <array>

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
