// Sockets group, Winsock flavor (FuncGroup::kSockets, wire id 13): the
// Winsock 1.1 surface — socket/bind/listen/connect/accept, the send/recv
// families, option and ioctl plumbing, shutdown/closesocket — driven by the
// shared socket value pools (core/socket_types.cc) against the simulated
// loopback stack (sim/net/netstack.h).
//
// Error model: SOCKET_ERROR/INVALID_SOCKET returns with WSA* codes in the
// shared last-error slot (WSAGetLastError aliases GetLastError here).  The
// per-variant contrast is where a bad sockaddr* dies: the NT family probes
// it in the kernel copy-in (WSAEFAULT or a raised exception → Abort), the
// Win9x user-mode stubs swallow obviously-bad pointers and report success
// (Silent), and CE thunks sendto/recvfrom address copies through the kernel
// (deferred-corruption hazards, like Table 3's Interlocked rows).  Blocking
// calls that nothing can ever satisfy hang the task (Restart); SO_RCVTIMEO
// timeouts burn simulated ticks, so outcomes are schedule-invariant.
#include <algorithm>
#include <vector>

#include "core/socket_types.h"
#include "win32/win32.h"

namespace ballista::win32 {

namespace {

using core::decode_sockaddr;
using core::encode_sockaddr;
using core::ok;
using core::SockAddrIn;
using sim::NetErr;
using sim::NetStack;
using sim::SockProto;
using sim::SocketObject;

/// The largest chunk one send/recv moves; keeps huge `size` arguments from
/// materializing huge host allocations while still probing past the end of
/// short user buffers (the fault the huge length is meant to trigger).
constexpr std::size_t kMaxIoChunk = NetStack::kRecvBufferCap;

struct SockCheck {
  std::shared_ptr<SocketObject> sock;
  std::optional<CallOutcome> fail;
};

/// Winsock's check_handle: the reject is WSAENOTSOCK (not
/// ERROR_INVALID_HANDLE), and success for the int-returning calls is 0, so
/// the Win9x do-nothing stub reports 0.
SockCheck check_socket(CallContext& ctx, std::uint64_t h,
                       std::uint64_t fail_ret = SOCKET_ERROR32) {
  SockCheck out;
  auto obj = ctx.proc().handles().get(static_cast<std::uint32_t>(h));
  if (obj != nullptr && obj->kind() == sim::ObjectKind::kSocket) {
    out.sock = std::static_pointer_cast<SocketObject>(obj);
    return out;
  }
  if (ctx.os().pointer_policy == sim::PointerPolicy::kStubCheckLoose)
    out.fail = core::silent_success(0);
  else
    out.fail = ctx.win_fail(WSAENOTSOCK, fail_ret);
  return out;
}

CallOutcome wsa_mem_fail(CallContext& ctx, MemStatus st,
                         std::uint64_t fail_ret = SOCKET_ERROR32) {
  if (st == MemStatus::kFault) return ctx.win_mem_fail(st);
  if (st == MemStatus::kSilent) return core::silent_success(0);
  return ctx.win_fail(WSAEFAULT, fail_ret);
}

/// Maps a stack verdict to the Winsock failure shape.  kWouldBlock and
/// kUnreachable need call-specific handling and are not mapped here.
CallOutcome wsa_net_fail(CallContext& ctx, NetErr e,
                         std::uint64_t fail_ret = SOCKET_ERROR32) {
  switch (e) {
    case NetErr::kAddrInUse: return ctx.win_fail(WSAEADDRINUSE, fail_ret);
    case NetErr::kAddrNotAvail:
      return ctx.win_fail(WSAEADDRNOTAVAIL, fail_ret);
    case NetErr::kConnRefused: return ctx.win_fail(WSAECONNREFUSED, fail_ret);
    case NetErr::kNotConn: return ctx.win_fail(WSAENOTCONN, fail_ret);
    case NetErr::kIsConn: return ctx.win_fail(WSAEISCONN, fail_ret);
    case NetErr::kShutdown: return ctx.win_fail(WSAESHUTDOWN, fail_ret);
    case NetErr::kConnReset: return ctx.win_fail(WSAECONNRESET, fail_ret);
    case NetErr::kMsgSize: return ctx.win_fail(WSAEMSGSIZE, fail_ret);
    case NetErr::kOpNotSupp: return ctx.win_fail(WSAEOPNOTSUPP, fail_ret);
    default: return ctx.win_fail(WSAEINVAL, fail_ret);
  }
}

/// What a blocked operation does: nonblocking sockets report WSAEWOULDBLOCK,
/// a receive timeout burns its ticks and reports WSAETIMEDOUT, and a plain
/// blocking call hangs the task — in this single-process simulation nothing
/// can ever arrive concurrently, so the watchdog's Restart is the honest
/// outcome (the paper's hung-task failures).
CallOutcome block_or_hang(CallContext& ctx, SocketObject& s,
                          std::uint64_t fail_ret = SOCKET_ERROR32) {
  if (s.nonblocking) return ctx.win_fail(WSAEWOULDBLOCK, fail_ret);
  if (s.recv_timeout_ticks > 0) {
    ctx.machine().advance_ticks(s.recv_timeout_ticks);
    return ctx.win_fail(WSAETIMEDOUT, fail_ret);
  }
  ctx.proc().hang(ctx.mut().name);
}

struct AddrArg {
  SockAddrIn sa;
  std::optional<CallOutcome> fail;
};

/// Copy-in of a (sockaddr*, namelen) pair.  Length sanity is an integer
/// check every variant performs (WSAEFAULT); the pointer itself dies
/// per-personality inside k_read.
AddrArg read_sockaddr_arg(CallContext& ctx, Addr a, std::int32_t len,
                          std::uint64_t fail_ret = SOCKET_ERROR32) {
  AddrArg out;
  if (len < static_cast<std::int32_t>(core::kSockAddrSize)) {
    out.fail = ctx.win_fail(WSAEFAULT, fail_ret);
    return out;
  }
  std::uint8_t bytes[core::kSockAddrSize];
  const MemStatus st = ctx.k_read(a, bytes);
  if (st != MemStatus::kOk) {
    out.fail = wsa_mem_fail(ctx, st, fail_ret);
    return out;
  }
  out.sa = decode_sockaddr(bytes);
  if (out.sa.family != core::AF_INET_SIM)
    out.fail = ctx.win_fail(WSAEAFNOSUPPORT, fail_ret);
  return out;
}

/// Copy-out of a (sockaddr*, int* namelen) pair for accept/getsockname/
/// getpeername/recvfrom.  A NULL addr skips the copy-out entirely.
std::optional<CallOutcome> write_sockaddr_out(CallContext& ctx, Addr addr,
                                              Addr len_ptr,
                                              const SockAddrIn& sa,
                                              std::uint64_t fail_ret) {
  if (addr == 0) return std::nullopt;
  if (len_ptr == 0) return ctx.win_fail(WSAEFAULT, fail_ret);
  std::uint32_t len = 0;
  MemStatus st = ctx.k_read_u32(len_ptr, &len);
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st, fail_ret);
  if (len < core::kSockAddrSize) return ctx.win_fail(WSAEFAULT, fail_ret);
  std::uint8_t bytes[core::kSockAddrSize];
  encode_sockaddr(sa, bytes);
  st = ctx.k_write(addr, bytes);
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st, fail_ret);
  st = ctx.k_write_u32(len_ptr, core::kSockAddrSize);
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st, fail_ret);
  return std::nullopt;
}

// --- call implementations ----------------------------------------------------

CallOutcome do_socket(CallContext& ctx) {
  const std::uint32_t af = ctx.arg32(0);
  const std::uint32_t type = ctx.arg32(1);
  const std::uint32_t proto = ctx.arg32(2);
  if (af != core::AF_INET_SIM)
    return ctx.win_fail(WSAEAFNOSUPPORT, INVALID_SOCKET32);
  SockProto p;
  if (type == 1)
    p = SockProto::kTcp;
  else if (type == 2)
    p = SockProto::kUdp;
  else
    return ctx.win_fail(WSAESOCKTNOSUPPORT, INVALID_SOCKET32);
  const bool proto_ok =
      proto == 0 || (p == SockProto::kTcp && proto == core::IPPROTO_TCP_SIM) ||
      (p == SockProto::kUdp && proto == core::IPPROTO_UDP_SIM);
  if (!proto_ok) return ctx.win_fail(WSAEPROTONOSUPPORT, INVALID_SOCKET32);
  return ok(ctx.proc().handles().insert(std::make_shared<SocketObject>(p)));
}

CallOutcome do_bind(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  auto ar = read_sockaddr_arg(ctx, ctx.arg_addr(1), ctx.argi(2));
  if (ar.fail) return *ar.fail;
  const NetErr e = ctx.machine().net().bind(sc.sock, ar.sa.ip, ar.sa.port);
  if (e != NetErr::kOk) return wsa_net_fail(ctx, e);
  return ok(0);
}

CallOutcome do_listen(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  const NetErr e = ctx.machine().net().listen(sc.sock, ctx.argi(1));
  if (e != NetErr::kOk) return wsa_net_fail(ctx, e);
  return ok(0);
}

CallOutcome do_connect(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  auto ar = read_sockaddr_arg(ctx, ctx.arg_addr(1), ctx.argi(2));
  if (ar.fail) return *ar.fail;
  const NetErr e = ctx.machine().net().connect(sc.sock, ar.sa.ip, ar.sa.port);
  if (e == NetErr::kUnreachable) {
    // Nothing off-box ever answers: the connect burns its full timeout.
    ctx.machine().advance_ticks(NetStack::kConnectTimeoutTicks);
    return ctx.win_fail(WSAETIMEDOUT, SOCKET_ERROR32);
  }
  if (e != NetErr::kOk) return wsa_net_fail(ctx, e);
  return ok(0);
}

CallOutcome do_accept(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0), INVALID_SOCKET32);
  if (sc.fail) return *sc.fail;
  const Addr addr = ctx.arg_addr(1);
  const Addr len_ptr = ctx.arg_addr(2);
  // Pre-validate the copy-out length so a faulting pointer pair does not
  // consume a queued connection.
  if (addr != 0) {
    if (len_ptr == 0) return ctx.win_fail(WSAEFAULT, INVALID_SOCKET32);
    std::uint32_t len = 0;
    const MemStatus st = ctx.k_read_u32(len_ptr, &len);
    if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st, INVALID_SOCKET32);
    if (len < core::kSockAddrSize)
      return ctx.win_fail(WSAEFAULT, INVALID_SOCKET32);
  }
  std::shared_ptr<SocketObject> conn;
  const NetErr e = ctx.machine().net().accept(*sc.sock, &conn);
  if (e == NetErr::kWouldBlock)
    return block_or_hang(ctx, *sc.sock, INVALID_SOCKET32);
  if (e != NetErr::kOk) return wsa_net_fail(ctx, e, INVALID_SOCKET32);
  const SockAddrIn peer{core::AF_INET_SIM, conn->remote_port, conn->remote_ip};
  if (auto fail = write_sockaddr_out(ctx, addr, len_ptr, peer,
                                     INVALID_SOCKET32))
    return *fail;
  return ok(ctx.proc().handles().insert(std::move(conn)));
}

CallOutcome do_send(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  if (ctx.arg32(3) != 0) return ctx.win_fail(WSAEOPNOTSUPP, SOCKET_ERROR32);
  const std::size_t len = std::min<std::uint64_t>(ctx.arg(2), kMaxIoChunk);
  std::vector<std::uint8_t> data(len);
  const MemStatus st = ctx.k_read(ctx.arg_addr(1), data);
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
  std::size_t sent = 0;
  const NetErr e = ctx.machine().net().send(*sc.sock, data, &sent);
  if (e == NetErr::kWouldBlock) return block_or_hang(ctx, *sc.sock);
  if (e != NetErr::kOk) return wsa_net_fail(ctx, e);
  return ok(sent);
}

CallOutcome do_recv(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  const std::uint32_t flags = ctx.arg32(3);
  if ((flags & ~core::MSG_PEEK_SIM) != 0)
    return ctx.win_fail(WSAEOPNOTSUPP, SOCKET_ERROR32);
  const bool peek = (flags & core::MSG_PEEK_SIM) != 0;
  const std::size_t len = std::min<std::uint64_t>(ctx.arg(2), kMaxIoChunk);
  std::vector<std::uint8_t> data(len);
  // Peek first, consume only after a clean copy-out: a faulting user buffer
  // must not eat buffered bytes.
  std::size_t got = 0;
  NetErr e = ctx.machine().net().recv(*sc.sock, data, /*peek=*/true, &got);
  if (e == NetErr::kWouldBlock) return block_or_hang(ctx, *sc.sock);
  if (e != NetErr::kOk) return wsa_net_fail(ctx, e);
  if (got == 0) return ok(0);  // orderly EOF
  const MemStatus st = ctx.k_write(ctx.arg_addr(1),
                                   std::span(data.data(), got));
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
  if (!peek) ctx.machine().net().recv(*sc.sock, data, /*peek=*/false, &got);
  return ok(got);
}

CallOutcome do_sendto(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  if (sc.sock->proto() == SockProto::kTcp) {
    // Winsock ignores the destination on a connected stream socket.
    return do_send(ctx);
  }
  if (ctx.arg32(3) != 0) return ctx.win_fail(WSAEOPNOTSUPP, SOCKET_ERROR32);
  auto ar = read_sockaddr_arg(ctx, ctx.arg_addr(4), ctx.argi(5));
  if (ar.fail) return *ar.fail;
  const std::uint64_t len = ctx.arg(2);
  if (len > NetStack::kMaxDatagramSize)
    return ctx.win_fail(WSAEMSGSIZE, SOCKET_ERROR32);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(len));
  const MemStatus st = ctx.k_read(ctx.arg_addr(1), data);
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
  const NetErr e =
      ctx.machine().net().sendto(sc.sock, ar.sa.ip, ar.sa.port, data);
  if (e != NetErr::kOk) return wsa_net_fail(ctx, e);
  return ok(data.size());
}

CallOutcome do_recvfrom(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  if (sc.sock->proto() == SockProto::kTcp) return do_recv(ctx);
  const std::uint32_t flags = ctx.arg32(3);
  if ((flags & ~core::MSG_PEEK_SIM) != 0)
    return ctx.win_fail(WSAEOPNOTSUPP, SOCKET_ERROR32);
  const bool peek = (flags & core::MSG_PEEK_SIM) != 0;
  if (sc.sock->shut_rd) return ctx.win_fail(WSAESHUTDOWN, SOCKET_ERROR32);
  if (sc.sock->dgrams.empty()) return block_or_hang(ctx, *sc.sock);
  const sim::Datagram& d = sc.sock->dgrams.front();
  const std::size_t len = std::min<std::uint64_t>(ctx.arg(2), kMaxIoChunk);
  const std::size_t n = std::min(len, d.payload.size());
  const bool truncated = d.payload.size() > len;
  const MemStatus st =
      ctx.k_write(ctx.arg_addr(1), std::span(d.payload.data(), n));
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
  const SockAddrIn from{core::AF_INET_SIM, d.src_port, d.src_ip};
  if (auto fail = write_sockaddr_out(ctx, ctx.arg_addr(4), ctx.arg_addr(5),
                                     from, SOCKET_ERROR32))
    return *fail;
  if (!peek) {
    sim::Datagram discard;
    ctx.machine().net().recvfrom(*sc.sock, &discard);
  }
  // A datagram larger than the buffer is delivered truncated with
  // WSAEMSGSIZE — an error return that still moved data.
  if (truncated) return ctx.win_fail(WSAEMSGSIZE, SOCKET_ERROR32);
  return ok(n);
}

CallOutcome do_setsockopt(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  const std::uint32_t level = ctx.arg32(1);
  const std::uint32_t name = ctx.arg32(2);
  const std::int32_t optlen = ctx.argi(4);
  if (level != core::SOL_SOCKET_SIM && level != core::IPPROTO_TCP_SIM)
    return ctx.win_fail(WSAEINVAL, SOCKET_ERROR32);
  if (optlen < 4) return ctx.win_fail(WSAEFAULT, SOCKET_ERROR32);
  std::uint32_t v = 0;
  const MemStatus st = ctx.k_read_u32(ctx.arg_addr(3), &v);
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
  if (level == core::IPPROTO_TCP_SIM) return ok(0);  // TCP_NODELAY & co: no-op
  switch (name) {
    case core::SO_RCVTIMEO_SIM: sc.sock->recv_timeout_ticks = v; return ok(0);
    case core::SO_REUSEADDR_SIM: sc.sock->reuse_addr = v != 0; return ok(0);
    case core::SO_RCVBUF_SIM: return ok(0);  // buffer size is fixed in sim
    default: return ctx.win_fail(WSAENOPROTOOPT, SOCKET_ERROR32);
  }
}

CallOutcome do_getsockopt(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  const std::uint32_t level = ctx.arg32(1);
  const std::uint32_t name = ctx.arg32(2);
  const Addr val_ptr = ctx.arg_addr(3);
  const Addr len_ptr = ctx.arg_addr(4);
  if (level != core::SOL_SOCKET_SIM && level != core::IPPROTO_TCP_SIM)
    return ctx.win_fail(WSAEINVAL, SOCKET_ERROR32);
  if (len_ptr == 0) return ctx.win_fail(WSAEFAULT, SOCKET_ERROR32);
  std::uint32_t len = 0;
  MemStatus st = ctx.k_read_u32(len_ptr, &len);
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
  if (len < 4) return ctx.win_fail(WSAEFAULT, SOCKET_ERROR32);
  std::uint32_t v = 0;
  if (level == core::IPPROTO_TCP_SIM) {
    v = 0;
  } else {
    switch (name) {
      case core::SO_RCVTIMEO_SIM: v = sc.sock->recv_timeout_ticks; break;
      case core::SO_REUSEADDR_SIM: v = sc.sock->reuse_addr ? 1 : 0; break;
      case core::SO_RCVBUF_SIM: v = NetStack::kRecvBufferCap; break;
      default: return ctx.win_fail(WSAENOPROTOOPT, SOCKET_ERROR32);
    }
  }
  st = ctx.k_write_u32(val_ptr, v);
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
  st = ctx.k_write_u32(len_ptr, 4);
  if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
  return ok(0);
}

CallOutcome do_shutdown(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  const NetErr e = ctx.machine().net().shutdown(*sc.sock, ctx.argi(1));
  if (e != NetErr::kOk) return wsa_net_fail(ctx, e);
  return ok(0);
}

CallOutcome do_closesocket(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  ctx.machine().net().on_close(*sc.sock);
  ctx.proc().handles().close(static_cast<std::uint32_t>(ctx.arg(0)));
  return ok(0);
}

CallOutcome do_ioctlsocket(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  const std::uint32_t cmd = ctx.arg32(1);
  const Addr argp = ctx.arg_addr(2);
  if (cmd == core::FIONBIO_SIM) {
    std::uint32_t v = 0;
    const MemStatus st = ctx.k_read_u32(argp, &v);
    if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
    sc.sock->nonblocking = v != 0;
    return ok(0);
  }
  if (cmd == core::FIONREAD_SIM) {
    const MemStatus st = ctx.k_write_u32(
        argp, static_cast<std::uint32_t>(sc.sock->bytes_readable()));
    if (st != MemStatus::kOk) return wsa_mem_fail(ctx, st);
    return ok(0);
  }
  return ctx.win_fail(WSAEINVAL, SOCKET_ERROR32);
}

CallOutcome do_getsockname(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  if (sc.sock->state() == sim::SockState::kFresh)
    return ctx.win_fail(WSAEINVAL, SOCKET_ERROR32);
  const Addr addr = ctx.arg_addr(1);
  if (addr == 0) return ctx.win_fail(WSAEFAULT, SOCKET_ERROR32);
  const SockAddrIn local{core::AF_INET_SIM, sc.sock->local_port,
                         sc.sock->local_ip};
  if (auto fail = write_sockaddr_out(ctx, addr, ctx.arg_addr(2), local,
                                     SOCKET_ERROR32))
    return *fail;
  return ok(0);
}

CallOutcome do_getpeername(CallContext& ctx) {
  auto sc = check_socket(ctx, ctx.arg(0));
  if (sc.fail) return *sc.fail;
  if (sc.sock->state() != sim::SockState::kConnected)
    return ctx.win_fail(WSAENOTCONN, SOCKET_ERROR32);
  const Addr addr = ctx.arg_addr(1);
  if (addr == 0) return ctx.win_fail(WSAEFAULT, SOCKET_ERROR32);
  const SockAddrIn remote{core::AF_INET_SIM, sc.sock->remote_port,
                          sc.sock->remote_ip};
  if (auto fail = write_sockaddr_out(ctx, addr, ctx.arg_addr(2), remote,
                                     SOCKET_ERROR32))
    return *fail;
  return ok(0);
}

}  // namespace

void register_socket_calls(core::TypeLibrary& lib, core::Registry& reg) {
  core::register_socket_types(lib);
  Defs d{lib, reg};

  const auto G = core::FuncGroup::kSockets;
  const auto A = core::ApiKind::kWin32Sys;
  const auto all = core::kMaskAllWindows;
  const auto no_ce = core::kMaskDesktopWindows;
  const auto CE = sim::OsVariant::kWinCE;
  const auto kDef = core::CrashStyle::kDeferred;

  d.add("socket", A, G, {"sock_family", "sock_type", "sock_protocol"},
        do_socket, all);
  d.add("bind", A, G, {"h_socket", "sockaddr_ptr", "sock_addrlen"}, do_bind,
        all);
  d.add("listen", A, G, {"h_socket", "int"}, do_listen, all);
  d.add("connect", A, G, {"h_socket", "sockaddr_ptr", "sock_addrlen"},
        do_connect, all);
  d.add("accept", A, G, {"h_socket", "sockaddr_ptr", "sock_addrlen_ptr"},
        do_accept, all);
  d.add("send", A, G, {"h_socket", "cbuf", "size", "sock_flags"}, do_send,
        all);
  d.add("recv", A, G, {"h_socket", "buf", "size", "sock_flags"}, do_recv,
        all);
  // CE thunks the destination/source address copies of the datagram pair
  // through kernel context: the group's deferred-corruption hazards.
  auto& st = d.add("sendto", A, G,
                   {"h_socket", "cbuf", "size", "sock_flags", "sockaddr_ptr",
                    "sock_addrlen"},
                   do_sendto, all);
  st.hazards[CE] = kDef;
  auto& rf = d.add("recvfrom", A, G,
                   {"h_socket", "buf", "size", "sock_flags", "sockaddr_ptr",
                    "sock_addrlen_ptr"},
                   do_recvfrom, all);
  rf.hazards[CE] = kDef;
  d.add("setsockopt", A, G,
        {"h_socket", "sock_opt_level", "sock_opt_name", "sock_optval_ptr",
         "sock_optlen"},
        do_setsockopt, all);
  d.add("getsockopt", A, G,
        {"h_socket", "sock_opt_level", "sock_opt_name", "sock_optval_ptr",
         "sock_addrlen_ptr"},
        do_getsockopt, all);
  d.add("shutdown", A, G, {"h_socket", "sock_how"}, do_shutdown, all);
  d.add("closesocket", A, G, {"h_socket"}, do_closesocket, all);
  // The CE Winsock subset of the era lacked these three.
  d.add("ioctlsocket", A, G, {"h_socket", "sock_ioctl_cmd", "sock_optval_ptr"},
        do_ioctlsocket, no_ce);
  d.add("getsockname", A, G, {"h_socket", "sockaddr_ptr", "sock_addrlen_ptr"},
        do_getsockname, no_ce);
  d.add("getpeername", A, G, {"h_socket", "sockaddr_ptr", "sock_addrlen_ptr"},
        do_getpeername, no_ce);
}

}  // namespace ballista::win32
