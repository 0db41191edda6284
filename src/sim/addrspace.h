// Simulated paged virtual address space.
//
// Every pointer a test case passes to a simulated API is an address in this
// space.  API implementations and CRT personalities dereference those
// addresses through this MMU, so access violations, misalignment faults and
// dangling-pointer behaviour *emerge* exactly where a real OS would take the
// trap, instead of being scripted per test value.
//
// Layout (mirrors the 32-bit Windows/Linux splits the paper's systems used):
//   [0x0000_0000, 0x0001_0000)  low system area — unmapped for user code; on
//                               Win9x personalities the kernel sees it as part
//                               of the writable shared arena (the historical
//                               cause of NULL-pointer kernel corruption)
//   [0x0001_0000, 0x8000_0000)  private user pages
//   [0x8000_0000, 0xC000_0000)  shared arena (Win9x: mapped into every process
//                               and writable from kernel context; NT/Linux:
//                               kernel-only, user access faults)
//   [0xC000_0000, ...)          kernel image / VxD space
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/fault.h"

namespace ballista::trace {
class TraceSink;
}

namespace ballista::sim {

class MutationHub;

inline constexpr Addr kPageSize = 4096;
inline constexpr Addr kLowSystemEnd = 0x0001'0000;
inline constexpr Addr kUserBase = 0x0001'0000;
inline constexpr Addr kSharedArenaBase = 0x8000'0000;
inline constexpr Addr kSharedArenaEnd = 0xC000'0000;
inline constexpr Addr kKernelBase = 0xC000'0000;

inline constexpr Addr page_of(Addr a) noexcept { return a / kPageSize; }
inline constexpr Addr page_base(Addr a) noexcept { return a & ~(kPageSize - 1); }

enum PermBits : std::uint8_t {
  kPermNone = 0,
  kPermRead = 1,
  kPermWrite = 2,
  kPermRW = kPermRead | kPermWrite,
};

/// Whether an access is made by application code or by the kernel on the
/// application's behalf.  Kernel-mode accesses bypass the user/kernel split
/// (that bypass is precisely the Win9x failure mode the paper documents).
enum class Access : std::uint8_t { kUser, kKernel };

struct Page {
  std::uint8_t perm = kPermRW;
  bool kernel_only = false;
  /// Written since the owning space's checkpoint().  The restore() fast path
  /// re-zeroes exactly the dirty pages, so an untouched 64 KiB stack costs
  /// nothing to recycle.  Every mutation funnels through
  /// AddressSpace::try_write_u8/try_write_bytes, the only places that set
  /// this, and every place that clears it re-zeroes the page first: a clean
  /// page is all-zero, which is what lets take_page() skip the fill.
  bool dirty = false;
  std::array<std::uint8_t, kPageSize> data{};
};

/// Pages shared machine-wide.  On Win9x personalities this models the shared
/// arena plus the low system area; writes from kernel context land here and
/// persist across test processes, which is how the paper's `*`-marked
/// "reproducible only inside the harness" crashes arise.
class SharedArena {
 public:
  SharedArena();

  bool contains(Addr a) const noexcept {
    return a < kLowSystemEnd || (a >= kSharedArenaBase && a < kSharedArenaEnd);
  }

  Page* page(Addr a);

  /// Number of kernel-context writes that have landed in the arena since the
  /// last reboot.  The Machine consults this to decide on deferred panics.
  int corruption() const noexcept { return corruption_; }
  void note_corruption() noexcept { ++corruption_; }
  void clear() {
    pages_.clear();
    corruption_ = 0;
  }

 private:
  std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
  int corruption_ = 0;
};

/// One process's view of memory.  Owns its private pages; optionally sees a
/// machine-wide SharedArena for the shared ranges.
class AddressSpace {
 public:
  /// @param arena        machine-shared pages, or nullptr if this personality
  ///                     maps nothing user-visible there
  /// @param strict_align raise kMisalignment on unaligned multi-byte access
  ///                     (Windows CE hardware; x86 personalities tolerate it)
  explicit AddressSpace(SharedArena* arena = nullptr, bool strict_align = false)
      : arena_(arena), strict_align_(strict_align) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // --- mapping -------------------------------------------------------------

  /// Maps [start, start+size) with the given permissions (page granular).
  /// Creates every page in the range, so callers bound `size` (the Win32 and
  /// POSIX memory calls cap it at their kVmLimit).
  void map(Addr start, std::uint64_t size, std::uint8_t perm,
           bool kernel_only = false);
  /// Unmaps the pages of [start, start+size).  Like protect(), it costs the
  /// mapped pages it can touch, not the length asked for: a 4 GiB size on a
  /// space of a few dozen pages is a few dozen steps.
  void unmap(Addr start, std::uint64_t size);

  /// Returns the space to its just-constructed state (no mappings, bump
  /// allocator rewound).  The dirty set is exactly the live page table, and
  /// the pages it held go to a free list for reuse by later map() calls —
  /// recycling a process costs its own mappings, not a rebuild of the world.
  void reset();

  /// Captures the current mapping set (page numbers + permissions) as the
  /// image restore() returns to.  Checkpointed pages must be all-zero at
  /// capture time — SimProcess checkpoints right after mapping its fresh
  /// stack — so restore() can re-zero dirty pages instead of keeping copies.
  void checkpoint();
  /// Returns to the checkpoint() image in cost proportional to what the
  /// case dirtied: pages mapped since are retired, checkpointed pages that
  /// were written are re-zeroed (untouched ones cost nothing), permissions
  /// are squared back, and the bump allocator rewinds.  Without a prior
  /// checkpoint this degenerates to reset().
  void restore();
  /// Sets the permissions of the mapped pages of [start, start+size), in
  /// O(min(pages in range, mapped pages)).
  void protect(Addr start, std::uint64_t size, std::uint8_t perm);
  bool is_mapped(Addr a) const noexcept;
  /// Permission byte of the page containing `a`, or kPermNone if unmapped.
  std::uint8_t perm_of(Addr a) const noexcept;

  // --- allocation helpers (for harness-constructed argument buffers) --------

  /// Bump allocator with an unmapped guard page after every allocation, so
  /// one-past-the-end overruns fault like a real heap with guard pages.
  Addr alloc(std::uint64_t size, std::uint8_t perm = kPermRW);
  Addr alloc_bytes(std::span<const std::uint8_t> bytes,
                   std::uint8_t perm = kPermRW);
  Addr alloc_cstr(std::string_view s, std::uint8_t perm = kPermRW);
  /// UTF-16 style string of 16-bit units, NUL-terminated.
  Addr alloc_wstr(std::u16string_view s, std::uint8_t perm = kPermRW);
  /// Allocates then immediately unmaps: a dangling pointer test value.
  Addr alloc_dangling(std::uint64_t size);

  // --- access (throws SimFault) ---------------------------------------------

  std::uint8_t read_u8(Addr a, Access m = Access::kUser) const;
  std::uint16_t read_u16(Addr a, Access m = Access::kUser) const;
  std::uint32_t read_u32(Addr a, Access m = Access::kUser) const;
  std::uint64_t read_u64(Addr a, Access m = Access::kUser) const;
  void write_u8(Addr a, std::uint8_t v, Access m = Access::kUser);
  void write_u16(Addr a, std::uint16_t v, Access m = Access::kUser);
  void write_u32(Addr a, std::uint32_t v, Access m = Access::kUser);
  void write_u64(Addr a, std::uint64_t v, Access m = Access::kUser);

  void read_bytes(Addr a, std::span<std::uint8_t> out,
                  Access m = Access::kUser) const;
  void write_bytes(Addr a, std::span<const std::uint8_t> in,
                   Access m = Access::kUser);

  /// Reads a NUL-terminated string, faulting wherever the walk leaves mapped
  /// memory.  `max_len` bounds runaway scans over huge mapped regions.
  std::string read_cstr(Addr a, std::size_t max_len = 1 << 20,
                        Access m = Access::kUser) const;
  std::u16string read_wstr(Addr a, std::size_t max_len = 1 << 20,
                           Access m = Access::kUser) const;
  void write_cstr(Addr a, std::string_view s, Access m = Access::kUser);

  // --- access that returns a fault as a value --------------------------------
  //
  // The walks behind every throwing accessor above (each is a one-line
  // wrapper that throws what these report).  On a fault each returns false
  // after storing it in `*fault`, having emitted the same fault event and
  // left the same partial transfer and kPageWrite points the throwing form
  // does; core::CallContext's task-mode accessors use them so a bad pointer
  // never unwinds the host stack.  The scalar forms check alignment first,
  // then transfer; on a fault `*out` is unspecified for them and holds the
  // prefix read so far for the byte and string walks.

  bool try_read_u8(Addr a, std::uint8_t* out, Access m, Fault* fault) const;
  bool try_read_u16(Addr a, std::uint16_t* out, Access m, Fault* fault) const;
  bool try_read_u32(Addr a, std::uint32_t* out, Access m, Fault* fault) const;
  bool try_read_u64(Addr a, std::uint64_t* out, Access m, Fault* fault) const;
  bool try_write_u8(Addr a, std::uint8_t v, Access m, Fault* fault);
  bool try_write_u16(Addr a, std::uint16_t v, Access m, Fault* fault);
  bool try_write_u32(Addr a, std::uint32_t v, Access m, Fault* fault);
  bool try_write_u64(Addr a, std::uint64_t v, Access m, Fault* fault);

  bool try_read_bytes(Addr a, std::span<std::uint8_t> out, Access m,
                      Fault* fault) const;
  bool try_write_bytes(Addr a, std::span<const std::uint8_t> in, Access m,
                       Fault* fault);
  bool try_read_cstr(Addr a, std::size_t max_len, Access m, std::string* out,
                     Fault* fault) const;
  bool try_read_wstr(Addr a, std::size_t max_len, Access m,
                     std::u16string* out, Fault* fault) const;

  /// True if [a, a+size) is fully readable/writable in the given mode, without
  /// faulting — the probe primitive NT-class kernels use.
  bool check_range(Addr a, std::uint64_t size, bool write,
                   Access m = Access::kKernel) const noexcept;

  /// Length of the longest prefix of [a, a+size) that passes the same
  /// page-by-page checks as check_range (one walker serves both).  In user
  /// mode this is exactly how far read_bytes/write_bytes get before they
  /// fault, so a caller can size host staging by what is really mapped and
  /// then touch byte a+prefix to fault where the full transfer would have.
  /// Kernel mode keeps the probe rules: a demand-created arena page counts as
  /// present together with the rest of the range.
  std::uint64_t accessible_prefix(Addr a, std::uint64_t size, bool write,
                                  Access m = Access::kKernel) const noexcept;

  bool strict_alignment() const noexcept { return strict_align_; }
  SharedArena* arena() const noexcept { return arena_; }

  /// Wires the MMU into the owning machine's trace spine so faults are
  /// recorded when they are taken.  Standalone address spaces (tests, benches)
  /// leave it unset and fault silently, as before.
  void set_trace(trace::TraceSink* sink) noexcept { trace_ = sink; }

  /// Wires the MMU into the owning machine's mutation hub so page writes,
  /// mappings and protection changes announce persistence points.  Standalone
  /// spaces (tests, benches) leave it unset and mutate silently, as before.
  void set_mutation_hub(MutationHub* hub) noexcept { hub_ = hub; }

  /// Total private pages currently mapped (leak checks in tests).
  std::size_t mapped_page_count() const noexcept { return pages_.size(); }

 private:
  /// The page an access to `a` touches, or nullptr after recording the
  /// fault the access takes (see fault()).
  Page* try_page(Addr a, Access m, bool write, Fault* f) const;
  /// The private page with page number `pg`, or nullptr.  Looks in the
  /// one-entry TLB first and refills it on a hit in pages_.
  Page* private_page(Addr pg) const noexcept;
  /// Drops the TLB entry; called wherever a private page can leave pages_.
  void flush_tlb() noexcept { tlb_pg_ = kNoPage; }
  /// Emits the fault event on the trace spine and stores the fault in `*f`;
  /// returns nullptr so a page lookup can return it directly.
  Page* fault(FaultType t, Addr a, bool write, Fault* f) const;
  /// False after recording a kMisalignment fault in `*f`.
  bool aligned(Addr a, std::uint64_t size, bool write, Fault* f) const;
  /// Little-endian scalar transfers: the alignment check, then the byte walk.
  template <class T>
  bool try_read_scalar(Addr a, T* out, Access m, Fault* f) const;
  template <class T>
  bool try_write_scalar(Addr a, T v, Access m, Fault* f);
  /// A zeroed page, reusing a free-listed one when available.
  std::unique_ptr<Page> take_page();
  void retire_page(std::unique_ptr<Page> p);

  static constexpr Addr kBumpBase = 0x0010'0000;  // harness allocation region
  /// Free-list cap: a test case maps a few dozen pages (stack + argument
  /// buffers); anything beyond this is an outlier not worth caching.
  static constexpr std::size_t kMaxFreePages = 256;

  std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
  /// One-entry TLB over pages_: page number -> Page*.  Private pages only —
  /// arena pages belong to the SharedArena, whose clear() frees them on
  /// reboot behind this space's back.  A private Page stays at one address
  /// for as long as it is in pages_ (map() and protect() keep the node), so
  /// only unmap(), reset() and restore() flush.
  static constexpr Addr kNoPage = ~Addr{0};  // no address has this page number
  mutable Addr tlb_pg_ = kNoPage;
  mutable Page* tlb_page_ = nullptr;
  std::vector<std::unique_ptr<Page>> free_pages_;
  /// page number -> (perm, kernel_only) at checkpoint time.
  std::unordered_map<Addr, std::pair<std::uint8_t, bool>> image_;
  bool has_image_ = false;
  Addr image_bump_ = kBumpBase;
  SharedArena* arena_;
  trace::TraceSink* trace_ = nullptr;
  MutationHub* hub_ = nullptr;
  bool strict_align_;
  Addr bump_ = kBumpBase;
};

}  // namespace ballista::sim
