#include "sim/addrspace.h"

#include <algorithm>

#include "core/trace.h"
#include "sim/mutation.h"

namespace ballista::sim {

SharedArena::SharedArena() = default;

Page* SharedArena::page(Addr a) {
  const Addr pg = page_of(a);
  auto it = pages_.find(pg);
  if (it == pages_.end()) {
    auto p = std::make_unique<Page>();
    // Arena pages are readable/writable from kernel context; the AddressSpace
    // decides what user mode may do with them per personality.
    p->perm = kPermRW;
    p->kernel_only = true;
    it = pages_.emplace(pg, std::move(p)).first;
  }
  return it->second.get();
}

namespace {

/// The one range walker behind protect() and unmap(): calls `act(page)` on
/// every page of `pages` in the page span of [start, start+size) and erases
/// the page when `act` returns true.  Costs O(min(pages in span, mapped
/// pages)).
template <class Act>
void for_each_in_range(
    std::unordered_map<Addr, std::unique_ptr<Page>>& pages, Addr start,
    std::uint64_t size, Act act) {
  // The page span map() covers, computed the same way: an end that wraps
  // past 2^64 lands below `first` and the span is empty (or, for a size
  // within a page of 2^64, back on `first` and the span is that one page).
  const Addr first = page_of(start);
  const Addr last = page_of(start + (size ? size - 1 : 0));
  if (last < first) return;
  if (last - first + 1 >= pages.size()) {
    // Huge range (an exceptional size like 0xFFFFFFFF): visit what is mapped
    // instead of probing every page number in the span.
    for (auto it = pages.begin(); it != pages.end();) {
      if (it->first >= first && it->first <= last && act(it->second))
        it = pages.erase(it);
      else
        ++it;
    }
    return;
  }
  for (Addr pg = first; pg <= last; ++pg) {
    auto it = pages.find(pg);
    if (it != pages.end() && act(it->second)) pages.erase(it);
  }
}

}  // namespace

std::unique_ptr<Page> AddressSpace::take_page() {
  if (free_pages_.empty()) return std::make_unique<Page>();
  auto p = std::move(free_pages_.back());
  free_pages_.pop_back();
  // Recycled pages must look freshly allocated; a clean one already does.
  if (p->dirty) {
    p->data.fill(0);
    p->dirty = false;
  }
  return p;
}

void AddressSpace::retire_page(std::unique_ptr<Page> p) {
  if (free_pages_.size() < kMaxFreePages) free_pages_.push_back(std::move(p));
}

void AddressSpace::map(Addr start, std::uint64_t size, std::uint8_t perm,
                       bool kernel_only) {
  if (hub_ != nullptr)
    hub_->notify(MutationKind::kPageMap, page_of(start));
  const Addr first = page_of(start);
  const Addr last = page_of(start + (size ? size - 1 : 0));
  for (Addr pg = first; pg <= last; ++pg) {
    auto& slot = pages_[pg];
    if (!slot) slot = take_page();
    slot->perm = perm;
    slot->kernel_only = kernel_only;
  }
}

void AddressSpace::unmap(Addr start, std::uint64_t size) {
  if (hub_ != nullptr)
    hub_->notify(MutationKind::kPageUnmap, page_of(start));
  flush_tlb();
  for_each_in_range(pages_, start, size, [this](std::unique_ptr<Page>& page) {
    retire_page(std::move(page));
    return true;
  });
}

void AddressSpace::reset() {
  flush_tlb();
  for (auto& [pg, page] : pages_) retire_page(std::move(page));
  pages_.clear();
  bump_ = kBumpBase;
}

void AddressSpace::checkpoint() {
  image_.clear();
  for (const auto& [pg, page] : pages_)
    image_.emplace(pg, std::make_pair(page->perm, page->kernel_only));
  image_bump_ = bump_;
  has_image_ = true;
}

void AddressSpace::restore() {
  if (!has_image_) {
    reset();
    return;
  }
  flush_tlb();
  for (auto it = pages_.begin(); it != pages_.end();) {
    const auto cp = image_.find(it->first);
    if (cp == image_.end()) {
      retire_page(std::move(it->second));
      it = pages_.erase(it);
      continue;
    }
    Page& p = *it->second;
    if (p.dirty) {
      p.data.fill(0);
      p.dirty = false;
    }
    p.perm = cp->second.first;
    p.kernel_only = cp->second.second;
    ++it;
  }
  // A case may have unmapped checkpointed pages (wild VirtualFree/munmap
  // values can land in the stack); remap those.
  if (pages_.size() != image_.size()) {
    for (const auto& [pg, meta] : image_) {
      auto& slot = pages_[pg];
      if (!slot) {
        slot = take_page();
        slot->perm = meta.first;
        slot->kernel_only = meta.second;
      }
    }
  }
  bump_ = image_bump_;
}

void AddressSpace::protect(Addr start, std::uint64_t size, std::uint8_t perm) {
  if (hub_ != nullptr)
    hub_->notify(MutationKind::kPageProtect, page_of(start));
  for_each_in_range(pages_, start, size, [perm](std::unique_ptr<Page>& page) {
    page->perm = perm;
    return false;
  });
}

bool AddressSpace::is_mapped(Addr a) const noexcept {
  if (pages_.count(page_of(a)) != 0) return true;
  return arena_ != nullptr && arena_->contains(a);
}

std::uint8_t AddressSpace::perm_of(Addr a) const noexcept {
  auto it = pages_.find(page_of(a));
  if (it != pages_.end()) return it->second->perm;
  if (arena_ != nullptr && arena_->contains(a)) return kPermRW;
  return kPermNone;
}

Addr AddressSpace::alloc(std::uint64_t size, std::uint8_t perm) {
  if (size == 0) size = 1;
  const Addr base = bump_;
  map(base, size, perm);
  // Advance past the allocation plus one permanently-unmapped guard page.
  const std::uint64_t pages = (size + kPageSize - 1) / kPageSize;
  bump_ += (pages + 1) * kPageSize;
  return base;
}

Addr AddressSpace::alloc_bytes(std::span<const std::uint8_t> bytes,
                               std::uint8_t perm) {
  const Addr base = alloc(std::max<std::uint64_t>(bytes.size(), 1), kPermRW);
  write_bytes(base, bytes, Access::kKernel);
  if (perm != kPermRW) protect(base, std::max<std::uint64_t>(bytes.size(), 1), perm);
  return base;
}

Addr AddressSpace::alloc_cstr(std::string_view s, std::uint8_t perm) {
  const Addr base = alloc(s.size() + 1, kPermRW);
  write_cstr(base, s, Access::kKernel);
  if (perm != kPermRW) protect(base, s.size() + 1, perm);
  return base;
}

Addr AddressSpace::alloc_wstr(std::u16string_view s, std::uint8_t perm) {
  const Addr base = alloc((s.size() + 1) * 2, kPermRW);
  // UTF-16LE code units plus the terminator, staged once and stored as a
  // single page-segment walk.
  std::vector<std::uint8_t> bytes((s.size() + 1) * 2, 0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    bytes[2 * i] = static_cast<std::uint8_t>(s[i]);
    bytes[2 * i + 1] = static_cast<std::uint8_t>(s[i] >> 8);
  }
  write_bytes(base, bytes, Access::kKernel);
  if (perm != kPermRW) protect(base, (s.size() + 1) * 2, perm);
  return base;
}

Addr AddressSpace::alloc_dangling(std::uint64_t size) {
  const Addr base = alloc(size);
  unmap(base, size);
  return base;
}

Page* AddressSpace::private_page(Addr pg) const noexcept {
  if (tlb_pg_ == pg) return tlb_page_;
  auto it = pages_.find(pg);
  if (it == pages_.end()) return nullptr;
  tlb_pg_ = pg;
  tlb_page_ = it->second.get();
  return tlb_page_;
}

Page* AddressSpace::try_page(Addr a, Access m, bool write, Fault* f) const {
  Page* p = private_page(page_of(a));
  if (p == nullptr && arena_ != nullptr && arena_->contains(a))
    p = arena_->page(a);
  if (p == nullptr) return fault(FaultType::kAccessViolation, a, write, f);
  if (m == Access::kUser) {
    if (p->kernel_only) return fault(FaultType::kAccessViolation, a, write, f);
    if (write && (p->perm & kPermWrite) == 0)
      return fault(FaultType::kAccessViolation, a, true, f);
    if (!write && (p->perm & kPermRead) == 0)
      return fault(FaultType::kAccessViolation, a, false, f);
  } else {
    // Kernel mode bypasses the user/kernel split.  Writes to read-only user
    // pages still fault (write-protect honoured in ring 0, as on NT/Linux;
    // Win9x hazard paths never reach here with a read-only page unnoticed
    // because the arena pages are RW).
    if (write && (p->perm & kPermWrite) == 0)
      return fault(FaultType::kAccessViolation, a, true, f);
  }
  return p;
}

Page* AddressSpace::page_for(Addr a, Access m, bool write) const {
  Fault f;
  Page* p = try_page(a, m, write, &f);
  if (p == nullptr) throw SimFault(f);
  return p;
}

Page* AddressSpace::fault(FaultType t, Addr a, bool write, Fault* f) const {
  if (trace_ != nullptr) trace_->emit(trace::fault_event(t, a, write));
  *f = Fault{t, a, write};
  return nullptr;
}

bool AddressSpace::aligned(Addr a, std::uint64_t size, bool write,
                           Fault* f) const {
  if (strict_align_ && size > 1 && (a % size) != 0) {
    fault(FaultType::kMisalignment, a, write, f);
    return false;
  }
  return true;
}

void AddressSpace::check_alignment(Addr a, std::uint64_t size,
                                   bool write) const {
  if (Fault f; !aligned(a, size, write, &f)) throw SimFault(f);
}

std::uint8_t AddressSpace::read_u8(Addr a, Access m) const {
  return page_for(a, m, false)->data[a % kPageSize];
}

void AddressSpace::write_u8(Addr a, std::uint8_t v, Access m) {
  Page* p = page_for(a, m, true);
  // Announce after the access check (a faulting store mutates nothing) and
  // before applying, so an armed cut leaves this very byte unwritten.
  if (hub_ != nullptr) hub_->notify(MutationKind::kPageWrite, page_of(a));
  p->dirty = true;
  p->data[a % kPageSize] = v;
}

// Multi-byte accessors and bulk transfers walk page-granular segments: one
// access check per page touched instead of one hash lookup per byte.  Fault
// behaviour is identical to the historical byte-wise walk — permissions are
// page-granular, so the first offending byte of a range is always the first
// byte the range touches in the offending page, which is exactly where the
// segment walk faults too (and nothing in that page is mutated when it does).
std::uint16_t AddressSpace::read_u16(Addr a, Access m) const {
  check_alignment(a, 2, false);
  std::uint8_t b[2];
  read_bytes(a, b, m);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t AddressSpace::read_u32(Addr a, Access m) const {
  check_alignment(a, 4, false);
  std::uint8_t b[4];
  read_bytes(a, b, m);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::uint64_t AddressSpace::read_u64(Addr a, Access m) const {
  check_alignment(a, 8, false);
  std::uint8_t b[8];
  read_bytes(a, b, m);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

void AddressSpace::write_u16(Addr a, std::uint16_t v, Access m) {
  check_alignment(a, 2, true);
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                             static_cast<std::uint8_t>(v >> 8)};
  write_bytes(a, b, m);
}

void AddressSpace::write_u32(Addr a, std::uint32_t v, Access m) {
  check_alignment(a, 4, true);
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  write_bytes(a, b, m);
}

void AddressSpace::write_u64(Addr a, std::uint64_t v, Access m) {
  check_alignment(a, 8, true);
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  write_bytes(a, b, m);
}

void AddressSpace::read_bytes(Addr a, std::span<std::uint8_t> out,
                              Access m) const {
  if (Fault f; !try_read_bytes(a, out, m, &f)) throw SimFault(f);
}

void AddressSpace::write_bytes(Addr a, std::span<const std::uint8_t> in,
                               Access m) {
  if (Fault f; !try_write_bytes(a, in, m, &f)) throw SimFault(f);
}

std::string AddressSpace::read_cstr(Addr a, std::size_t max_len,
                                    Access m) const {
  std::string s;
  if (Fault f; !try_read_cstr(a, max_len, m, &s, &f)) throw SimFault(f);
  return s;
}

std::u16string AddressSpace::read_wstr(Addr a, std::size_t max_len,
                                       Access m) const {
  std::u16string s;
  if (Fault f; !try_read_wstr(a, max_len, m, &s, &f)) throw SimFault(f);
  return s;
}

bool AddressSpace::try_read_bytes(Addr a, std::span<std::uint8_t> out,
                                  Access m, Fault* fault) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const Addr addr = a + done;
    const Page* p = try_page(addr, m, false, fault);
    if (p == nullptr) return false;
    const std::size_t off = addr % kPageSize;
    const std::size_t n =
        std::min<std::size_t>(kPageSize - off, out.size() - done);
    std::memcpy(out.data() + done, p->data.data() + off, n);
    done += n;
  }
  return true;
}

bool AddressSpace::try_write_bytes(Addr a, std::span<const std::uint8_t> in,
                                   Access m, Fault* fault) {
  std::size_t done = 0;
  while (done < in.size()) {
    const Addr addr = a + done;
    Page* p = try_page(addr, m, true, fault);
    if (p == nullptr) return false;
    // One persistence point per page run, announced after the access check
    // and before the bytes land — the same coalesced sequence the byte-wise
    // walk produced (consecutive same-page stores were one point), so crash
    // cut numbering is unchanged and an armed cut still leaves the whole
    // page run unwritten.
    if (hub_ != nullptr) hub_->notify(MutationKind::kPageWrite, page_of(addr));
    p->dirty = true;
    const std::size_t off = addr % kPageSize;
    const std::size_t n =
        std::min<std::size_t>(kPageSize - off, in.size() - done);
    std::memcpy(p->data.data() + off, in.data() + done, n);
    done += n;
  }
  return true;
}

bool AddressSpace::try_read_cstr(Addr a, std::size_t max_len, Access m,
                                 std::string* out, Fault* fault) const {
  out->clear();
  std::size_t i = 0;
  while (i < max_len) {
    const Addr addr = a + i;
    const Page* p = try_page(addr, m, false, fault);
    if (p == nullptr) return false;
    const std::size_t off = addr % kPageSize;
    const std::size_t n = std::min<std::size_t>(kPageSize - off, max_len - i);
    const std::uint8_t* base = p->data.data() + off;
    const void* nul = std::memchr(base, 0, n);
    const std::size_t len =
        nul != nullptr
            ? static_cast<std::size_t>(static_cast<const std::uint8_t*>(nul) -
                                       base)
            : n;
    out->append(reinterpret_cast<const char*>(base), len);
    if (nul != nullptr) return true;
    i += n;
  }
  return true;
}

bool AddressSpace::try_read_wstr(Addr a, std::size_t max_len, Access m,
                                 std::u16string* out, Fault* fault) const {
  out->clear();
  for (std::size_t i = 0; i < max_len; ++i) {
    // read_u16's order: the alignment check, then the two-byte transfer.
    const Addr addr = a + 2 * i;
    std::uint8_t b[2];
    if (!aligned(addr, 2, false, fault) || !try_read_bytes(addr, b, m, fault))
      return false;
    const auto c = static_cast<char16_t>(b[0] | (b[1] << 8));
    if (c == 0) return true;
    out->push_back(c);
  }
  return true;
}

void AddressSpace::write_cstr(Addr a, std::string_view s, Access m) {
  write_bytes(a,
              {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, m);
  write_u8(a + s.size(), 0, m);
}

bool AddressSpace::check_range(Addr a, std::uint64_t size, bool write,
                               Access m) const noexcept {
  if (accessible_prefix(a, size, write, m) != size) return false;
  return !(strict_align_ && size >= 2 && size <= 8 && (a % size) != 0);
}

std::uint64_t AddressSpace::accessible_prefix(Addr a, std::uint64_t size,
                                              bool write,
                                              Access m) const noexcept {
  std::uint64_t done = 0;
  while (done < size) {
    const Addr addr = a + done;
    const Page* p = private_page(page_of(addr));
    if (p == nullptr) {
      // The arena is demand-created; a kernel probe treats it as present.
      if (arena_ != nullptr && arena_->contains(addr) && m == Access::kKernel)
        return size;
      return done;
    }
    if (m == Access::kUser && p->kernel_only) return done;
    if ((p->perm & (write ? kPermWrite : kPermRead)) == 0) return done;
    done += std::min<std::uint64_t>(kPageSize - addr % kPageSize, size - done);
  }
  return size;
}

}  // namespace ballista::sim
