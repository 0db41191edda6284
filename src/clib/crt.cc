#include "clib/crt.h"

#include <array>
#include <cerrno>

namespace ballista::clib {

namespace {

/// Classification bits of byte u under the "C" locale, the rules <cctype>
/// applies when no setlocale() call has changed them: only 7-bit ASCII
/// classifies, every byte from 0x80 up is 0.
constexpr std::uint8_t classify_c_locale(unsigned u) {
  const bool upper = u >= 'A' && u <= 'Z';
  const bool lower = u >= 'a' && u <= 'z';
  const bool digit = u >= '0' && u <= '9';
  const bool print = u >= 0x20 && u < 0x7f;
  std::uint8_t bits = 0;
  if (upper) bits |= kCtUpper;
  if (lower) bits |= kCtLower;
  if (digit) bits |= kCtDigit;
  if (u == ' ' || (u >= '\t' && u <= '\r')) bits |= kCtSpace;
  if (print && u != ' ' && !upper && !lower && !digit) bits |= kCtPunct;
  if (u < 0x20 || u == 0x7f) bits |= kCtCntrl;
  if (digit || (u >= 'a' && u <= 'f') || (u >= 'A' && u <= 'F'))
    bits |= kCtHex;
  if (print) bits |= kCtPrint;
  return bits;
}

/// The simulated ctype table: entry 128 + c classifies c for c in
/// [-128, 255], negative c as its unsigned-char twin (c & 0xff).
constexpr std::size_t kCtypeSize = 384;
constexpr std::array<std::uint8_t, kCtypeSize> kCtypeImage = [] {
  std::array<std::uint8_t, kCtypeSize> t{};
  for (int c = -128; c <= 255; ++c)
    t[static_cast<std::size_t>(128 + c)] =
        classify_c_locale(static_cast<unsigned>(c & 0xff));
  return t;
}();

CrtState& build_state(sim::SimProcess& proc) {
  auto state = std::make_shared<CrtState>();
  auto& mem = proc.mem();

  // ctype table for [-128, 255]: 384 bytes placed flush against the end of
  // an isolated page (no neighbours can ever be mapped around it), so
  // table[c] for any c outside [-128, 255] walks into unmapped memory —
  // exactly like running off the real __ctype_b table.
  constexpr Addr kCtypeRegion = 0x7000'0000;
  const Addr page = kCtypeRegion;
  mem.map(page, sim::kPageSize, sim::kPermRW);
  state->ctype_table = page + sim::kPageSize - kCtypeSize;
  // One span, one page: a single coalesced kPageWrite point.
  mem.write_bytes(state->ctype_table, kCtypeImage, sim::Access::kKernel);

  // _iob region: room for 64 FILE structures.
  state->iob_base = mem.alloc(64 * kFileStructSize);
  state->iob_end = state->iob_base + 64 * kFileStructSize;
  state->iob_next = state->iob_base;

  // Static CRT result buffers.
  state->static_str = mem.alloc(128);
  state->static_tm = mem.alloc(64);

  proc.set_crt_state(state);
  return *state;
}

}  // namespace

CrtState& crt_state(sim::SimProcess& proc) {
  if (auto existing = std::static_pointer_cast<CrtState>(proc.crt_state())) {
    return *existing;
  }
  CrtState& st = build_state(proc);
  // Standard streams, built after the state is attached so make_file_struct
  // can use it.
  auto stdio_node = [&](const char* name) {
    auto node = std::make_shared<sim::FsNode>(name, false);
    return node;
  };
  st.file_stdin = make_file_struct(proc, stdio_node("stdin"), kFRead | kFOpen);
  st.file_stdout =
      make_file_struct(proc, stdio_node("stdout"), kFWrite | kFOpen);
  st.file_stderr =
      make_file_struct(proc, stdio_node("stderr"), kFWrite | kFOpen);
  return st;
}

Addr make_file_struct(sim::SimProcess& proc, std::shared_ptr<sim::FsNode> node,
                      std::uint32_t flags) {
  CrtState& st = crt_state(proc);
  auto& mem = proc.mem();
  if (st.iob_next + kFileStructSize > st.iob_end) return 0;  // table full
  const Addr fp = st.iob_next;
  st.iob_next += kFileStructSize;

  auto obj = std::make_shared<sim::FileObject>(
      std::move(node),
      sim::FileObject::kAccessRead | sim::FileObject::kAccessWrite,
      /*append=*/false);
  const std::uint64_t h = proc.handles().insert(std::move(obj));

  const Addr buf = mem.alloc(512);
  const Addr lock = mem.alloc(16);
  const auto k = sim::Access::kKernel;
  mem.write_u32(fp + kFileOffMagic, kFileMagic, k);
  mem.write_u32(fp + kFileOffHandle, static_cast<std::uint32_t>(h), k);
  mem.write_u32(fp + kFileOffFlags, flags, k);
  mem.write_u32(fp + kFileOffBuf, static_cast<std::uint32_t>(buf), k);
  mem.write_u32(fp + kFileOffLock, static_cast<std::uint32_t>(lock), k);
  mem.write_u32(fp + kFileOffUnget, 0xffffffff, k);
  mem.write_u32(fp + kFileOffPos, 0, k);
  return fp;
}

std::uint32_t file_field_read(CallContext& ctx, Addr fp, Addr off) {
  if (ctx.os().crt_in_kernel) {
    std::uint32_t v = 0;
    // Hazard/probe semantics applied by the context; a kSilent (deferred
    // stub) result reads as zero, which downstream treats as garbage.  This
    // accessor cannot return a CallOutcome, so a fault in the task throws.
    if (ctx.k_read_u32(fp + off, &v) == MemStatus::kFault)
      ctx.raise_pending_fault();
    return v;
  }
  return ctx.proc().mem().read_u32(fp + off, sim::Access::kUser);
}

void file_field_write(CallContext& ctx, Addr fp, Addr off, std::uint32_t v) {
  if (ctx.os().crt_in_kernel) {
    if (ctx.k_write_u32(fp + off, v) == MemStatus::kFault)
      ctx.raise_pending_fault();
    return;
  }
  ctx.proc().mem().write_u32(fp + off, v, sim::Access::kUser);
}

FileRef resolve_file(CallContext& ctx, Addr fp, bool ce_prevalidates) {
  FileRef ref;
  ref.fp = fp;
  const auto flavor = ctx.os().crt;
  auto& proc = ctx.proc();
  CrtState& st = crt_state(ctx.proc());

  if (flavor == sim::CrtFlavor::kMsvcrt) {
    // MSVC CRT: _iob range check before touching anything (this is why the
    // desktop Windows CRT reports errors where glibc aborts).
    if (fp < st.iob_base || fp + kFileStructSize > st.iob_end ||
        (fp - st.iob_base) % kFileStructSize != 0) {
      proc.set_errno(EINVAL);
      return ref;  // kBadf
    }
    const std::uint32_t magic =
        proc.mem().read_u32(fp + kFileOffMagic, sim::Access::kUser);
    if (magic != kFileMagic) {
      proc.set_errno(EINVAL);
      return ref;
    }
  } else if (flavor == sim::CrtFlavor::kGlibc) {
    // glibc: trust the pointer.  Read the magic in user mode (faults on
    // unmapped garbage = SIGSEGV/Abort); on a mismatch, chase the stream's
    // internal buffer and lock pointers the way the real locking fast path
    // does — garbage pointers fault here.
    const std::uint32_t magic =
        proc.mem().read_u32(fp + kFileOffMagic, sim::Access::kUser);
    if (magic != kFileMagic) {
      const Addr buf = proc.mem().read_u32(fp + kFileOffBuf, sim::Access::kUser);
      const Addr lock =
          proc.mem().read_u32(fp + kFileOffLock, sim::Access::kUser);
      // Touch the lock word, then the buffer.
      (void)proc.mem().read_u8(lock, sim::Access::kUser);
      proc.mem().write_u8(lock, 1, sim::Access::kUser);
      (void)proc.mem().read_u8(buf, sim::Access::kUser);
      // Survived by luck (all garbage happened to be mapped): EBADF.
      proc.set_errno(EBADF);
      return ref;
    }
  } else {  // CeCrt: stdio thunks into the kernel.
    if (ce_prevalidates) {
      // The rewind-style quirk: user-mode pre-check before the thunk.
      if (!proc.mem().check_range(fp, kFileStructSize, false,
                                  sim::Access::kUser)) {
        // CE pre-validating wrappers raise into the task (Abort).
        (void)proc.mem().read_u32(fp + kFileOffMagic, sim::Access::kUser);
      }
    }
    const std::uint32_t magic = file_field_read(ctx, fp, kFileOffMagic);
    if (magic != kFileMagic) {
      // Kernel-side stream locking with garbage pointers: under CE slot
      // addressing these dereferences land in the shared slot space and
      // corrupt it (panic timing decided by the MuT's hazard style).
      const Addr lock = file_field_read(ctx, fp, kFileOffLock);
      if (ctx.k_write_u32(lock, 1) == MemStatus::kFault)
        ctx.raise_pending_fault();
      const Addr buf = file_field_read(ctx, fp, kFileOffBuf);
      std::uint32_t scratch = 0;
      if (ctx.k_read_u32(buf, &scratch) == MemStatus::kFault)
        ctx.raise_pending_fault();
      proc.set_errno(EBADF);
      return ref;
    }
  }

  ref.flags = file_field_read(ctx, fp, kFileOffFlags);
  if ((ref.flags & kFOpen) == 0) {
    proc.set_errno(EBADF);
    return ref;
  }
  const std::uint32_t h = file_field_read(ctx, fp, kFileOffHandle);
  auto obj = proc.handles().get(h);
  if (obj == nullptr || obj->kind() != sim::ObjectKind::kFile) {
    proc.set_errno(EBADF);
    return ref;
  }
  ref.obj = std::static_pointer_cast<sim::FileObject>(obj);
  ref.status = FileRef::Status::kOk;
  return ref;
}

std::uint32_t CharWidth::get(CallContext& ctx, Addr a, std::uint64_t i) const {
  auto& mem = ctx.proc().mem();
  return bytes == 1 ? mem.read_u8(a + i, sim::Access::kUser)
                    : mem.read_u16(a + 2 * i, sim::Access::kUser);
}

void CharWidth::put(CallContext& ctx, Addr a, std::uint64_t i,
                    std::uint32_t c) const {
  auto& mem = ctx.proc().mem();
  if (bytes == 1)
    mem.write_u8(a + i, static_cast<std::uint8_t>(c), sim::Access::kUser);
  else
    mem.write_u16(a + 2 * i, static_cast<std::uint16_t>(c), sim::Access::kUser);
}

std::vector<std::uint8_t> gather_bytes(sim::AddressSpace& mem, Addr a,
                                       std::uint64_t n) {
  const std::uint64_t have =
      mem.accessible_prefix(a, n, false, sim::Access::kUser);
  if (have < n) (void)mem.read_u8(a + have, sim::Access::kUser);  // faults
  std::vector<std::uint8_t> out(n);
  mem.read_bytes(a, out, sim::Access::kUser);
  return out;
}

std::uint32_t CharScanner::at(std::uint64_t i) {
  const Addr a = base_ + static_cast<Addr>(i) * static_cast<Addr>(bytes_);
  if (a < seg_start_ || a + static_cast<Addr>(bytes_) > seg_end_) {
    // Unaligned or page-straddling wide chars keep the plain read_u16 path so
    // strict-alignment personalities still raise their misalignment fault.
    if (bytes_ == 2 &&
        (a % 2 != 0 || a % sim::kPageSize == sim::kPageSize - 1))
      return w_.get(ctx_, base_, i);
    auto& mem = ctx_.proc().mem();
    const std::size_t n = sim::kPageSize - (a % sim::kPageSize);
    // Buffer from the first touched byte of the page (not the page start) so
    // an unmapped page faults at the character's own address.
    mem.read_bytes(a, {buf_, n}, sim::Access::kUser);
    seg_start_ = a;
    seg_end_ = a + n;
  }
  const std::size_t off = static_cast<std::size_t>(a - seg_start_);
  return bytes_ == 1
             ? buf_[off]
             : static_cast<std::uint32_t>(buf_[off] | (buf_[off + 1] << 8));
}

std::uint8_t clib_mask_all() { return core::kMaskEverything; }
std::uint8_t clib_mask_no_ce() {
  return static_cast<std::uint8_t>(core::kMaskEverything &
                                   ~core::variant_bit(sim::OsVariant::kWinCE));
}

void register_clib(core::TypeLibrary& lib, core::Registry& reg) {
  register_clib_types(lib);
  register_char_fns(lib, reg);
  register_string_fns(lib, reg);
  register_memory_fns(lib, reg);
  register_stdio_file_fns(lib, reg);
  register_stream_fns(lib, reg);
  register_math_fns(lib, reg);
  register_time_fns(lib, reg);
}

}  // namespace ballista::clib
