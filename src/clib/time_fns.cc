// The nine <time.h> functions.  Simulated time comes from the machine tick
// counter.  glibc's asctime indexes its month/day name tables with raw struct
// fields (out-of-range tm members walk off the table and fault); the MSVC CRT
// range-checks and reports EINVAL — another C-library architecture split the
// paper's group rates reflect.  Windows CE does not implement the C time
// group (§4: "no results for that group are reported").
#include <bit>
#include <cerrno>
#include <cstdio>
#include <string>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::CallContext;
using core::CallOutcome;
using core::ok;
using sim::Addr;

// tm struct: nine consecutive 32-bit fields.
enum TmField {
  kTmSec, kTmMin, kTmHour, kTmMday, kTmMon, kTmYear, kTmWday, kTmYday, kTmIsdst
};

std::int32_t tm_read(CallContext& ctx, Addr tm, int field) {
  return static_cast<std::int32_t>(
      ctx.proc().mem().read_u32(tm + 4 * field, sim::Access::kUser));
}

void tm_write(CallContext& ctx, Addr tm, int field, std::int32_t v) {
  ctx.proc().mem().write_u32(tm + 4 * field, static_cast<std::uint32_t>(v),
                             sim::Access::kUser);
}

std::uint64_t sim_now(CallContext& ctx) {
  // Ticks advance once per kernel entry; anchor in 1999 for flavor.
  return 930'000'000ULL + ctx.machine().ticks() / 1000;
}

/// Breaks epoch seconds into tm fields (civil-time algorithm, UTC).
void epoch_to_tm(std::uint64_t t, std::int32_t out[9]) {
  const std::uint64_t days = t / 86400;
  const std::uint64_t rem = t % 86400;
  out[kTmHour] = static_cast<std::int32_t>(rem / 3600);
  out[kTmMin] = static_cast<std::int32_t>((rem % 3600) / 60);
  out[kTmSec] = static_cast<std::int32_t>(rem % 60);
  out[kTmWday] = static_cast<std::int32_t>((days + 4) % 7);  // epoch was Thu
  // days since 1970-01-01 -> y/m/d
  std::int64_t z = static_cast<std::int64_t>(days) + 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const std::int64_t doe = z - era * 146097;
  const std::int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = yoe + era * 400;
  const std::int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const std::int64_t mp = (5 * doy + 2) / 153;
  const std::int64_t day = doy - (153 * mp + 2) / 5 + 1;
  const std::int64_t month = mp < 10 ? mp + 3 : mp - 9;
  const std::int64_t year = y + (month <= 2 ? 1 : 0);
  out[kTmMday] = static_cast<std::int32_t>(day);
  out[kTmMon] = static_cast<std::int32_t>(month - 1);
  out[kTmYear] = static_cast<std::int32_t>(year - 1900);
  out[kTmYday] = static_cast<std::int32_t>(doy);
  out[kTmIsdst] = 0;
}

constexpr const char* kMonths[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
constexpr const char* kDays[7] = {"Sun", "Mon", "Tue", "Wed",
                                  "Thu", "Fri", "Sat"};

CallOutcome do_time(CallContext& ctx) {
  const Addr out = ctx.arg_addr(0);
  const std::uint64_t now = sim_now(ctx);
  if (out != 0) {
    if (ctx.os().crt == sim::CrtFlavor::kGlibc) {
      // time(2) is a system call on Linux: the kernel probes and returns
      // EFAULT on a bad pointer.
      const MemStatus s = ctx.k_write_u32(out, static_cast<std::uint32_t>(now));
      if (s != MemStatus::kOk) return ctx.posix_mem_fail(s);
    } else {
      // The Windows CRT converts GetSystemTime in user mode.
      ctx.proc().mem().write_u32(out, static_cast<std::uint32_t>(now),
                                 sim::Access::kUser);
    }
  }
  return ok(now);
}

CallOutcome do_clock(CallContext& ctx) { return ok(ctx.machine().ticks()); }

CallOutcome do_difftime(CallContext& ctx) {
  const double d = static_cast<double>(ctx.argi(0)) -
                   static_cast<double>(ctx.argi(1));
  return ok(std::bit_cast<std::uint64_t>(d));
}

CallOutcome tm_from_time_ptr(CallContext& ctx) {
  const Addr tp = ctx.arg_addr(0);
  const std::uint32_t t = ctx.proc().mem().read_u32(tp, sim::Access::kUser);
  std::int32_t f[9];
  epoch_to_tm(t, f);
  CrtState& st = crt_state(ctx.proc());
  for (int i = 0; i < 9; ++i) tm_write(ctx, st.static_tm, i, f[i]);
  return ok(st.static_tm);
}

/// Formats a tm into the static 26-char buffer.  glibc indexes its name
/// tables directly (out-of-range wday/mon fault via a simulated table read);
/// MSVC validates first.
CallOutcome asctime_core(CallContext& ctx, Addr tm) {
  const std::int32_t sec = tm_read(ctx, tm, kTmSec);
  const std::int32_t min = tm_read(ctx, tm, kTmMin);
  const std::int32_t hour = tm_read(ctx, tm, kTmHour);
  const std::int32_t mday = tm_read(ctx, tm, kTmMday);
  const std::int32_t mon = tm_read(ctx, tm, kTmMon);
  const std::int32_t year = tm_read(ctx, tm, kTmYear);
  const std::int32_t wday = tm_read(ctx, tm, kTmWday);
  CrtState& st = crt_state(ctx.proc());

  const char* mon_name = "???";
  const char* day_name = "???";
  if (ctx.os().crt == sim::CrtFlavor::kGlibc) {
    // Raw table lookup: model by touching the simulated ctype page at the
    // offset the index would reach — out-of-range indexes fault like walking
    // off __tzname-adjacent tables.
    (void)ctx.proc().mem().read_u8(
        st.ctype_table + static_cast<std::int64_t>(wday) * 4,
        sim::Access::kUser);
    (void)ctx.proc().mem().read_u8(
        st.ctype_table + static_cast<std::int64_t>(mon) * 4,
        sim::Access::kUser);
    if (wday >= 0 && wday < 7) day_name = kDays[wday];
    if (mon >= 0 && mon < 12) mon_name = kMonths[mon];
  } else {
    if (wday < 0 || wday > 6 || mon < 0 || mon > 11 || mday < 1 || mday > 31 ||
        hour < 0 || hour > 23 || min < 0 || min > 59 || sec < 0 || sec > 61) {
      ctx.proc().set_errno(EINVAL);
      return core::error_reported(0);
    }
    day_name = kDays[wday];
    mon_name = kMonths[mon];
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %s %2d %02d:%02d:%02d %d\n", day_name,
                mon_name, mday, hour, min, sec, 1900 + year);
  ctx.proc().mem().write_cstr(st.static_str, buf, sim::Access::kUser);
  return ok(st.static_str);
}

CallOutcome do_asctime(CallContext& ctx) {
  return asctime_core(ctx, ctx.arg_addr(0));
}

CallOutcome do_ctime(CallContext& ctx) {
  const Addr tp = ctx.arg_addr(0);
  const std::uint32_t t = ctx.proc().mem().read_u32(tp, sim::Access::kUser);
  std::int32_t f[9];
  epoch_to_tm(t, f);
  CrtState& st = crt_state(ctx.proc());
  for (int i = 0; i < 9; ++i) tm_write(ctx, st.static_tm, i, f[i]);
  return asctime_core(ctx, st.static_tm);
}

CallOutcome do_mktime(CallContext& ctx) {
  const Addr tm = ctx.arg_addr(0);
  const std::int64_t year = tm_read(ctx, tm, kTmYear);
  const std::int64_t mon = tm_read(ctx, tm, kTmMon);
  const std::int64_t mday = tm_read(ctx, tm, kTmMday);
  if (year < 70 || year > 200 || mon < -12 || mon > 24 || mday < -31 ||
      mday > 62) {
    ctx.proc().set_errno(EINVAL);  // out of representable range
    return core::error_reported(static_cast<std::uint64_t>(-1));
  }
  const std::int64_t days =
      (year - 70) * 365 + (year - 69) / 4 + mon * 30 + (mday - 1);
  const std::int64_t secs = days * 86400 + tm_read(ctx, tm, kTmHour) * 3600 +
                            tm_read(ctx, tm, kTmMin) * 60 +
                            tm_read(ctx, tm, kTmSec);
  return ok(static_cast<std::uint64_t>(secs));
}

CallOutcome do_strftime(CallContext& ctx) {
  const Addr buf = ctx.arg_addr(0);
  const std::uint64_t maxsize = ctx.arg(1);
  const Addr fmt = ctx.arg_addr(2);
  const Addr tm = ctx.arg_addr(3);
  auto& mem = ctx.proc().mem();

  const std::int32_t hour = tm_read(ctx, tm, kTmHour);
  const std::int32_t min = tm_read(ctx, tm, kTmMin);
  const std::int32_t mon = tm_read(ctx, tm, kTmMon);
  const std::int32_t year = tm_read(ctx, tm, kTmYear);
  const std::int32_t mday = tm_read(ctx, tm, kTmMday);

  std::string out;
  CharScanner chars(ctx, fmt, kNarrow);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const auto c = static_cast<std::uint8_t>(chars.at(i));
    if (c == 0) break;
    if (c != '%') {
      out.push_back(static_cast<char>(c));
      continue;
    }
    const auto conv = static_cast<std::uint8_t>(chars.at(++i));
    char tmp[32];
    switch (conv) {
      case 'Y': std::snprintf(tmp, sizeof tmp, "%d", 1900 + year); break;
      case 'm': std::snprintf(tmp, sizeof tmp, "%02d", mon + 1); break;
      case 'd': std::snprintf(tmp, sizeof tmp, "%02d", mday); break;
      case 'H': std::snprintf(tmp, sizeof tmp, "%02d", hour); break;
      case 'M': std::snprintf(tmp, sizeof tmp, "%02d", min); break;
      case '%': std::snprintf(tmp, sizeof tmp, "%%"); break;
      case 0: tmp[0] = 0; --i; break;
      default: std::snprintf(tmp, sizeof tmp, "%c", conv); break;
    }
    out += tmp;
  }
  if (out.size() + 1 > maxsize) return ok(0);  // didn't fit: returns 0
  mem.write_cstr(buf, out, sim::Access::kUser);
  return ok(out.size());
}

}  // namespace

void register_time_fns(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kCTime;
  const auto A = core::ApiKind::kCLib;
  // Windows CE does not support the C time group.
  const auto mask = clib_mask_no_ce();

  d.add("asctime", A, G, {"tm_ptr"}, do_asctime, mask);
  d.add("clock", A, G, {}, do_clock, mask);
  d.add("ctime", A, G, {"time_ptr"}, do_ctime, mask);
  d.add("difftime", A, G, {"int", "int"}, do_difftime, mask);
  d.add("gmtime", A, G, {"time_ptr"}, tm_from_time_ptr, mask);
  d.add("localtime", A, G, {"time_ptr"}, tm_from_time_ptr, mask);
  d.add("mktime", A, G, {"tm_ptr"}, do_mktime, mask);
  d.add("strftime", A, G, {"buf", "size", "cstr", "tm_ptr"}, do_strftime,
        mask);
  d.add("time", A, G, {"time_ptr_opt"}, do_time, mask);
}

}  // namespace ballista::clib
