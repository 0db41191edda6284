// POSIX I/O Primitives group — exactly the ten calls §3.3 lists:
// {close dup dup2 fcntl fdatasync fsync lseek pipe read write}.
#include <vector>

#include "posix/posix.h"

namespace ballista::posix_api {

namespace {

using core::ok;

CallOutcome do_close(CallContext& ctx) {
  const std::int64_t fd = static_cast<std::int32_t>(ctx.arg(0));
  if (fd < 0) return ctx.posix_fail(EBADF);
  if (!ctx.proc().handles().close(static_cast<std::uint64_t>(fd)))
    return ctx.posix_fail(EBADF);
  return ok(0);
}

CallOutcome do_dup(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0));
  if (fc.fail) return *fc.fail;
  return ok(ctx.proc().handles().insert(fc.obj));
}

CallOutcome do_dup2(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0));
  if (fc.fail) return *fc.fail;
  const std::int64_t newfd = static_cast<std::int32_t>(ctx.arg(1));
  if (newfd < 0 || newfd > 1024) return ctx.posix_fail(EBADF);
  ctx.proc().handles().close(static_cast<std::uint64_t>(newfd));
  ctx.proc().handles().insert_at(static_cast<std::uint64_t>(newfd), fc.obj);
  return ok(static_cast<std::uint64_t>(newfd));
}

CallOutcome do_fcntl(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0));
  if (fc.fail) return *fc.fail;
  const std::uint32_t cmd = ctx.arg32(1);
  switch (cmd) {
    case 0:  // F_DUPFD
      return ok(ctx.proc().handles().insert(fc.obj));
    case 1:  // F_GETFD
      return ok(0);
    case 2:  // F_SETFD
      return ok(0);
    case 3:  // F_GETFL
      return ok(2);  // O_RDWR
    case 4:  // F_SETFL
      return ok(0);
    default:
      return ctx.posix_fail(EINVAL);
  }
}

CallOutcome do_fsync(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0), sim::ObjectKind::kFile);
  if (fc.fail) return *fc.fail;
  return ok(0);
}

CallOutcome do_lseek(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0), sim::ObjectKind::kFile);
  if (fc.fail) return *fc.fail;
  auto* f = static_cast<sim::FileObject*>(fc.obj.get());
  const std::int64_t off = static_cast<std::int32_t>(ctx.arg32(1));
  const std::uint32_t whence = ctx.arg32(2);
  std::int64_t base = 0;
  switch (whence) {
    case 0: base = 0; break;
    case 1: base = static_cast<std::int64_t>(f->position()); break;
    case 2: base = static_cast<std::int64_t>(f->node()->data().size()); break;
    default:
      return ctx.posix_fail(EINVAL);
  }
  const std::int64_t target = base + off;
  if (target < 0) return ctx.posix_fail(EINVAL);
  f->set_position(static_cast<std::uint64_t>(target));
  return ok(static_cast<std::uint64_t>(target));
}

CallOutcome do_pipe(CallContext& ctx) {
  const Addr out = ctx.arg_addr(0);
  auto pipe = std::make_shared<sim::PipeObject>();
  const std::uint64_t r = ctx.proc().handles().insert(pipe);
  const std::uint64_t w = ctx.proc().handles().insert(pipe);
  MemStatus st = ctx.k_write_u32(out, static_cast<std::uint32_t>(r));
  // A fault raised into the task runs no cleanup.
  if (st == MemStatus::kFault) return ctx.posix_mem_fail(st);
  if (st != MemStatus::kOk) {
    ctx.proc().handles().close(r);
    ctx.proc().handles().close(w);
    return ctx.posix_mem_fail(st);
  }
  st = ctx.k_write_u32(out + 4, static_cast<std::uint32_t>(w));
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  return ok(0);
}

CallOutcome do_read(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0));
  if (fc.fail) return *fc.fail;
  const Addr buf = ctx.arg_addr(1);
  const std::uint64_t want = ctx.arg(2);
  if (static_cast<std::int64_t>(want) < 0) return ctx.posix_fail(EINVAL);
  const std::uint64_t n = std::min<std::uint64_t>(want, 1 << 16);
  if (fc.obj->kind() == sim::ObjectKind::kPipe) {
    auto* p = static_cast<sim::PipeObject*>(fc.obj.get());
    if (p->buffer.empty()) {
      if (!p->write_end_open) return ok(0);
      // An empty pipe with a writer attached blocks; no writer will ever
      // come in a single-task world.
      ctx.proc().hang("read(empty pipe)");
    }
    const std::uint64_t got = std::min<std::uint64_t>(n, p->buffer.size());
    const MemStatus st = ctx.k_write(buf, {p->buffer.data(), got});
    if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
    p->buffer.erase(p->buffer.begin(),
                    p->buffer.begin() + static_cast<std::ptrdiff_t>(got));
    return ok(got);
  }
  if (fc.obj->kind() != sim::ObjectKind::kFile) return ctx.posix_fail(EBADF);
  auto* f = static_cast<sim::FileObject*>(fc.obj.get());
  std::vector<std::uint8_t> data(n);
  const std::uint64_t got = f->read_at(data);
  if (got > 0) {
    const MemStatus st = ctx.k_write(buf, {data.data(), got});
    if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  }
  return ok(got);
}

CallOutcome do_write(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0));
  if (fc.fail) return *fc.fail;
  const Addr buf = ctx.arg_addr(1);
  const std::uint64_t want = ctx.arg(2);
  if (static_cast<std::int64_t>(want) < 0) return ctx.posix_fail(EINVAL);
  const std::uint64_t n = std::min<std::uint64_t>(want, 1 << 16);
  std::vector<std::uint8_t> data(n);
  const MemStatus st = ctx.k_read(buf, data);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  if (fc.obj->kind() == sim::ObjectKind::kPipe) {
    auto* p = static_cast<sim::PipeObject*>(fc.obj.get());
    if (!p->read_end_open) return ctx.posix_fail(EPIPE);
    p->buffer.insert(p->buffer.end(), data.begin(), data.end());
    return ok(n);
  }
  if (fc.obj->kind() != sim::ObjectKind::kFile) return ctx.posix_fail(EBADF);
  auto* f = static_cast<sim::FileObject*>(fc.obj.get());
  if ((f->access() & sim::FileObject::kAccessWrite) == 0)
    return ctx.posix_fail(EBADF);
  return ok(f->write_at(data));
}

}  // namespace

void register_posix_io(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kIoPrimitives;
  const auto A = core::ApiKind::kPosixSys;
  const auto L = core::kMaskLinux;

  d.add("close", A, G, {"fd"}, do_close, L);
  d.add("dup", A, G, {"fd"}, do_dup, L);
  d.add("dup2", A, G, {"fd", "fd"}, do_dup2, L);
  d.add("fcntl", A, G, {"fd", "flags32", "int"}, do_fcntl, L);
  d.add("fdatasync", A, G, {"fd"}, do_fsync, L);
  d.add("fsync", A, G, {"fd"}, do_fsync, L);
  d.add("lseek", A, G, {"fd", "int", "whence"}, do_lseek, L);
  d.add("pipe", A, G, {"buf"}, do_pipe, L);
  d.add("read", A, G, {"fd", "buf", "size"}, do_read, L);
  d.add("write", A, G, {"fd", "cbuf", "size"}, do_write, L);
}

}  // namespace ballista::posix_api
