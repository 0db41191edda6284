#include "store/store.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "common/wire.h"
#include "core/campaign.h"

namespace ballista::store {

namespace {

// Payloads larger than this are treated as corruption before any allocation
// happens; a genuine shard record is orders of magnitude smaller.
constexpr std::uint64_t kMaxPayload = 1u << 30;

// --- fingerprint hashing -----------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void byte(std::uint8_t b) noexcept {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(std::string_view s) noexcept {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

}  // namespace

std::uint64_t mut_list_hash(const core::Plan& plan) {
  Fnv f;
  f.u64(plan.muts.size());
  for (const core::MuT* m : plan.muts) {
    f.str(m->name);
    f.byte(static_cast<std::uint8_t>(m->api));
    f.byte(static_cast<std::uint8_t>(m->group));
    f.u64(m->params.size());
    for (const core::DataType* t : m->params) f.str(t->name());
    f.byte(static_cast<std::uint8_t>(m->hazard_on(plan.variant)));
    f.byte(m->has_unicode_twin ? 1 : 0);
    f.str(m->twin_of);
  }
  return f.h;
}

std::uint64_t value_pool_hash(const core::Plan& plan) {
  Fnv f;
  for (const core::MuT* m : plan.muts)
    for (const core::DataType* t : m->params) {
      f.str(t->name());
      const auto vals = t->values();
      f.u64(vals.size());
      for (const core::TestValue* v : vals) {
        f.str(v->name);
        f.byte(v->exceptional ? 1 : 0);
      }
    }
  return f.h;
}

RunHeader make_run_header(const core::Plan& plan,
                          const core::CampaignOptions& opt) {
  RunHeader h;
  h.variant = static_cast<std::uint8_t>(plan.variant);
  h.mut_list_hash = mut_list_hash(plan);
  h.value_pool_hash = value_pool_hash(plan);
  h.cap = opt.cap;
  h.seed = opt.seed;
  h.has_only_api = opt.only_api.has_value() ? 1 : 0;
  h.only_api =
      opt.only_api ? static_cast<std::uint8_t>(*opt.only_api) : 0;
  h.record_cases = opt.record_cases ? 1 : 0;
  h.repro_pass = opt.repro_pass ? 1 : 0;
  h.shard_cases = opt.shard_cases;
  h.plan_shards = plan.shards.size();
  h.total_planned = plan.total_planned;
  h.has_group_filter = opt.group_mask.has_value() ? 1 : 0;
  h.group_mask = opt.group_mask.value_or(0);
  h.has_shard_bytes = opt.shard_bytes.has_value() ? 1 : 0;
  h.shard_bytes = opt.shard_bytes.value_or(0);
  return h;
}

std::string describe_header_mismatch(const RunHeader& want,
                                     const RunHeader& got) {
  std::string out;
  const auto field = [&](const char* name, std::uint64_t w, std::uint64_t g) {
    if (w == g) return;
    out += "  ";
    out += name;
    out += ": log has " + std::to_string(g) + ", campaign needs " +
           std::to_string(w) + "\n";
  };
  field("os_variant", want.variant, got.variant);
  field("mut_list_hash", want.mut_list_hash, got.mut_list_hash);
  field("value_pool_hash", want.value_pool_hash, got.value_pool_hash);
  field("cap", want.cap, got.cap);
  field("seed", want.seed, got.seed);
  field("has_only_api", want.has_only_api, got.has_only_api);
  field("only_api", want.only_api, got.only_api);
  field("record_cases", want.record_cases, got.record_cases);
  field("repro_pass", want.repro_pass, got.repro_pass);
  field("shard_cases", want.shard_cases, got.shard_cases);
  field("plan_shards", want.plan_shards, got.plan_shards);
  field("total_planned", want.total_planned, got.total_planned);
  field("crash_mode", want.crash_mode, got.crash_mode);
  field("crash_max_cuts", want.crash_max_cuts, got.crash_max_cuts);
  field("crash_group_mask", want.crash_group_mask, got.crash_group_mask);
  field("has_group_filter", want.has_group_filter, got.has_group_filter);
  field("group_mask", want.group_mask, got.group_mask);
  field("has_shard_bytes", want.has_shard_bytes, got.has_shard_bytes);
  field("shard_bytes", want.shard_bytes, got.shard_bytes);
  return out;
}

std::string_view read_status_name(ReadStatus s) noexcept {
  switch (s) {
    case ReadStatus::kOk: return "ok";
    case ReadStatus::kTruncated: return "truncated";
    case ReadStatus::kCorrupt: return "corrupt";
    case ReadStatus::kBadHeader: return "bad_header";
  }
  return "?";
}

// --- record codecs -----------------------------------------------------------

namespace {

/// Counter serialization is pinned to the 12 event kinds format version 1
/// shipped with.  The newer in-memory kinds (kMutationPoint, kFaultCut) only
/// ever count during crash-enumeration passes, whose totals travel in crash
/// records — so base-campaign logs stay byte-identical to pre-crash builds
/// and old goldens keep decoding.
constexpr std::size_t kWireEventKindCount = 12;
static_assert(kWireEventKindCount <= trace::kEventKindCount);

void put_counters(std::vector<std::uint8_t>& out, const trace::Counters& c) {
  for (std::size_t i = 0; i < kWireEventKindCount; ++i)
    wire::put_u64(out, c.n[i]);
  for (std::uint64_t v : c.probe) wire::put_u64(out, v);
}

bool read_counters(wire::Reader& r, trace::Counters& c) {
  for (std::size_t i = 0; i < kWireEventKindCount; ++i) {
    const auto v = r.u64();
    if (!v) return false;
    c.n[i] = *v;
  }
  for (std::size_t i = 0; i < trace::kProbeResultCount; ++i) {
    const auto v = r.u64();
    if (!v) return false;
    c.probe[i] = *v;
  }
  return true;
}

/// Reads one byte and range-checks it against an enum's last valid value.
template <typename E>
bool read_enum(wire::Reader& r, E last, E& out) {
  const auto b = r.u8();
  if (!b || *b > static_cast<std::uint8_t>(last)) return false;
  out = static_cast<E>(*b);
  return true;
}

void put_event(std::vector<std::uint8_t>& out, const trace::TraceEvent& e) {
  using trace::EventKind;
  wire::put_u8(out, static_cast<std::uint8_t>(e.kind));
  wire::put_u64(out, e.ticks);
  wire::put_i64(out, e.case_index);
  switch (e.kind) {
    case EventKind::kSyscallEnter:
      wire::put_i64(out, e.syscall_enter.fuse_remaining);
      break;
    case EventKind::kSyscallExit:
      wire::put_u8(out, static_cast<std::uint8_t>(e.syscall_exit.status));
      wire::put_u64(out, e.syscall_exit.ret);
      break;
    case EventKind::kProbeDecision:
      wire::put_u64(out, e.probe.addr);
      wire::put_u32(out, e.probe.size);
      wire::put_u8(out, static_cast<std::uint8_t>(e.probe.result));
      wire::put_u8(out, e.probe.is_write ? 1 : 0);
      break;
    case EventKind::kHazardWrite:
      wire::put_u64(out, e.hazard.addr);
      wire::put_u32(out, e.hazard.size);
      wire::put_u8(out, e.hazard.staging ? 1 : 0);
      break;
    case EventKind::kArenaCorruption:
      wire::put_u64(out, e.corruption.addr);
      wire::put_u8(out, e.corruption.critical ? 1 : 0);
      break;
    case EventKind::kFuseBurn:
      wire::put_i64(out, e.fuse.remaining);
      break;
    case EventKind::kFault:
      wire::put_u8(out, static_cast<std::uint8_t>(e.fault.type));
      wire::put_u64(out, e.fault.addr);
      wire::put_u8(out, e.fault.is_write ? 1 : 0);
      break;
    case EventKind::kPanic:
      wire::put_u8(out, static_cast<std::uint8_t>(e.panic.why));
      break;
    case EventKind::kReboot:
      wire::put_i64(out, e.reboot.panic_count);
      break;
    case EventKind::kShardStart:
    case EventKind::kShardEnd:
      wire::put_u64(out, e.shard.index);
      wire::put_u32(out, e.shard.items);
      break;
    case EventKind::kCaseClassified:
      wire::put_u8(out, static_cast<std::uint8_t>(e.classified.outcome));
      wire::put_u8(out, static_cast<std::uint8_t>(e.classified.fault));
      wire::put_u8(out, e.classified.success_no_error ? 1 : 0);
      wire::put_u8(out, e.classified.wrong_error ? 1 : 0);
      break;
    case EventKind::kMutationPoint:
      wire::put_u8(out, static_cast<std::uint8_t>(e.mutation.mkind));
      wire::put_u64(out, e.mutation.seq);
      wire::put_u64(out, e.mutation.detail);
      break;
    case EventKind::kFaultCut:
      wire::put_u8(out, static_cast<std::uint8_t>(e.fault_cut.mkind));
      wire::put_u64(out, e.fault_cut.seq);
      break;
  }
}

bool read_bool(wire::Reader& r, bool& out) {
  const auto b = r.u8();
  if (!b || *b > 1) return false;
  out = *b == 1;
  return true;
}

bool read_i32(wire::Reader& r, std::int32_t& out) {
  const auto v = r.i64();
  if (!v || *v < INT32_MIN || *v > INT32_MAX) return false;
  out = static_cast<std::int32_t>(*v);
  return true;
}

bool read_event(wire::Reader& r, trace::TraceEvent& e) {
  using trace::EventKind;
  if (!read_enum(r, EventKind::kFaultCut, e.kind)) return false;
  const auto ticks = r.u64();
  const auto case_index = r.i64();
  if (!ticks || !case_index) return false;
  e.ticks = *ticks;
  e.case_index = *case_index;
  switch (e.kind) {
    case EventKind::kSyscallEnter:
      return read_i32(r, e.syscall_enter.fuse_remaining);
    case EventKind::kSyscallExit: {
      if (!read_enum(r, core::CallStatus::kWrongError, e.syscall_exit.status))
        return false;
      const auto ret = r.u64();
      if (!ret) return false;
      e.syscall_exit.ret = *ret;
      return true;
    }
    case EventKind::kProbeDecision: {
      const auto addr = r.u64();
      const auto size = r.u32();
      if (!addr || !size) return false;
      e.probe.addr = *addr;
      e.probe.size = *size;
      return read_enum(r, trace::ProbeResult::kUnprobed, e.probe.result) &&
             read_bool(r, e.probe.is_write);
    }
    case EventKind::kHazardWrite: {
      const auto addr = r.u64();
      const auto size = r.u32();
      if (!addr || !size) return false;
      e.hazard.addr = *addr;
      e.hazard.size = *size;
      return read_bool(r, e.hazard.staging);
    }
    case EventKind::kArenaCorruption: {
      const auto addr = r.u64();
      if (!addr) return false;
      e.corruption.addr = *addr;
      return read_bool(r, e.corruption.critical);
    }
    case EventKind::kFuseBurn:
      return read_i32(r, e.fuse.remaining);
    case EventKind::kFault: {
      if (!read_enum(r, sim::FaultType::kIllegalInstruction, e.fault.type))
        return false;
      const auto addr = r.u64();
      if (!addr) return false;
      e.fault.addr = *addr;
      return read_bool(r, e.fault.is_write);
    }
    case EventKind::kPanic:
      return read_enum(r, sim::PanicKind::kFaultInjection, e.panic.why);
    case EventKind::kReboot:
      return read_i32(r, e.reboot.panic_count);
    case EventKind::kShardStart:
    case EventKind::kShardEnd: {
      const auto index = r.u64();
      const auto items = r.u32();
      if (!index || !items) return false;
      e.shard.index = *index;
      e.shard.items = *items;
      return true;
    }
    case EventKind::kCaseClassified:
      return read_enum(r, core::Outcome::kNotRun, e.classified.outcome) &&
             read_enum(r, sim::FaultType::kIllegalInstruction,
                       e.classified.fault) &&
             read_bool(r, e.classified.success_no_error) &&
             read_bool(r, e.classified.wrong_error);
    case EventKind::kMutationPoint: {
      if (!read_enum(r, sim::MutationKind::kProcessUpdate, e.mutation.mkind))
        return false;
      const auto seq = r.u64();
      const auto detail = r.u64();
      if (!seq || !detail) return false;
      e.mutation.seq = *seq;
      e.mutation.detail = *detail;
      return true;
    }
    case EventKind::kFaultCut: {
      if (!read_enum(r, sim::MutationKind::kProcessUpdate, e.fault_cut.mkind))
        return false;
      const auto seq = r.u64();
      if (!seq) return false;
      e.fault_cut.seq = *seq;
      return true;
    }
  }
  return false;
}

void put_stats(std::vector<std::uint8_t>& out, const core::MutStats& s) {
  wire::put_u64(out, s.planned);
  wire::put_u64(out, s.executed);
  wire::put_u64(out, s.passes);
  wire::put_u64(out, s.aborts);
  wire::put_u64(out, s.restarts);
  wire::put_u64(out, s.silent_candidates);
  wire::put_u64(out, s.hindering);
  wire::put_u8(out, static_cast<std::uint8_t>(
                        (s.catastrophic ? 1 : 0) |
                        (s.crash_reproducible_single ? 2 : 0)));
  wire::put_i64(out, s.crash_case);
  wire::put_str(out, s.crash_detail);
  wire::put_str(out, s.crash_tuple);
  wire::put_u64(out, s.case_codes.size());
  for (core::CaseCode c : s.case_codes)
    wire::put_u8(out, static_cast<std::uint8_t>(c));
  put_counters(out, s.event_counts);
  wire::put_u64(out, s.crash_trace.size());
  for (const trace::TraceEvent& e : s.crash_trace) put_event(out, e);
}

bool read_stats(wire::Reader& r, core::MutStats& s) {
  const auto planned = r.u64();
  const auto executed = r.u64();
  const auto passes = r.u64();
  const auto aborts = r.u64();
  const auto restarts = r.u64();
  const auto silent = r.u64();
  const auto hindering = r.u64();
  const auto flags = r.u8();
  const auto crash_case = r.i64();
  if (!planned || !executed || !passes || !aborts || !restarts || !silent ||
      !hindering || !flags || *flags > 3 || !crash_case)
    return false;
  s.planned = *planned;
  s.executed = *executed;
  s.passes = *passes;
  s.aborts = *aborts;
  s.restarts = *restarts;
  s.silent_candidates = *silent;
  s.hindering = *hindering;
  s.catastrophic = (*flags & 1) != 0;
  s.crash_reproducible_single = (*flags & 2) != 0;
  s.crash_case = *crash_case;
  auto detail = r.str();
  auto tuple = r.str();
  if (!detail || !tuple) return false;
  s.crash_detail = std::move(*detail);
  s.crash_tuple = std::move(*tuple);
  const auto ncodes = r.u64();
  if (!ncodes || *ncodes > r.remaining()) return false;
  s.case_codes.reserve(static_cast<std::size_t>(*ncodes));
  for (std::uint64_t i = 0; i < *ncodes; ++i) {
    core::CaseCode c;
    if (!read_enum(r, core::CaseCode::kHindering, c)) return false;
    s.case_codes.push_back(c);
  }
  if (!read_counters(r, s.event_counts)) return false;
  const auto ntrace = r.u64();
  // Every serialized event is at least kind+ticks+case_index+1 = 18 bytes.
  if (!ntrace || *ntrace > r.remaining() / 18) return false;
  s.crash_trace.reserve(static_cast<std::size_t>(*ntrace));
  for (std::uint64_t i = 0; i < *ntrace; ++i) {
    trace::TraceEvent e;
    if (!read_event(r, e)) return false;
    s.crash_trace.push_back(e);
  }
  return true;
}

std::vector<std::uint8_t> encode_run_header(const RunHeader& h) {
  std::vector<std::uint8_t> out;
  wire::put_u8(out, h.variant);
  wire::put_u64(out, h.mut_list_hash);
  wire::put_u64(out, h.value_pool_hash);
  wire::put_u64(out, h.cap);
  wire::put_u64(out, h.seed);
  wire::put_u8(out, h.has_only_api);
  wire::put_u8(out, h.only_api);
  wire::put_u8(out, h.record_cases);
  wire::put_u8(out, h.repro_pass);
  wire::put_u64(out, h.shard_cases);
  wire::put_u64(out, h.plan_shards);
  wire::put_u64(out, h.total_planned);
  // Optional tails, in tag order.  Default campaigns omit both entirely,
  // which keeps their headers (and therefore whole logs) byte-identical to
  // pre-tail builds.  The crash tail's tag byte doubles as crash_mode (its
  // only valid value is 1); the group-filter tail is tag 2.
  if (h.crash_mode != 0) {
    wire::put_u8(out, h.crash_mode);
    wire::put_u64(out, h.crash_max_cuts);
    wire::put_u32(out, h.crash_group_mask);
  }
  if (h.has_group_filter != 0) {
    wire::put_u8(out, 2);
    wire::put_u32(out, h.group_mask);
  }
  if (h.has_shard_bytes != 0) {
    wire::put_u8(out, 3);
    wire::put_u64(out, h.shard_bytes);
  }
  return out;
}

bool decode_run_header(const std::uint8_t* payload, std::size_t size,
                       RunHeader& h) {
  wire::Reader r(payload, size);
  const auto variant = r.u8();
  const auto mut_hash = r.u64();
  const auto pool_hash = r.u64();
  const auto cap = r.u64();
  const auto seed = r.u64();
  const auto has_api = r.u8();
  const auto api = r.u8();
  const auto record_cases = r.u8();
  const auto repro = r.u8();
  const auto shard_cases = r.u64();
  const auto plan_shards = r.u64();
  const auto total_planned = r.u64();
  if (!variant || !mut_hash || !pool_hash || !cap || !seed || !has_api ||
      !api || !record_cases || !repro || !shard_cases || !plan_shards ||
      !total_planned)
    return false;
  if (*variant > static_cast<std::uint8_t>(sim::OsVariant::kLinux) ||
      *has_api > 1 || *record_cases > 1 || *repro > 1 ||
      *api > static_cast<std::uint8_t>(core::ApiKind::kCLib))
    return false;
  // Optional tagged tails: absent on default-campaign (and legacy) headers.
  // Tag 1 = crash-enumeration tail (the tag byte doubles as crash_mode),
  // tag 2 = group-filter tail, tag 3 = shard-byte-budget tail.  Tails must
  // appear in ascending tag order at most once each, so every RunHeader
  // value has exactly one encoding.
  std::uint8_t crash_mode = 0;
  std::uint64_t crash_max_cuts = 0;
  std::uint32_t crash_group_mask = 0;
  std::uint8_t has_group_filter = 0;
  std::uint32_t group_mask = 0;
  std::uint8_t has_shard_bytes = 0;
  std::uint64_t shard_bytes = 0;
  while (r.pos != r.size) {
    const auto tag = r.u8();
    if (!tag) return false;
    if (*tag == 1) {
      if (crash_mode != 0 || has_group_filter != 0 || has_shard_bytes != 0)
        return false;
      const auto max_cuts = r.u64();
      const auto gmask = r.u32();
      if (!max_cuts || !gmask) return false;
      crash_mode = 1;
      crash_max_cuts = *max_cuts;
      crash_group_mask = *gmask;
    } else if (*tag == 2) {
      if (has_group_filter != 0 || has_shard_bytes != 0) return false;
      const auto gmask = r.u32();
      // Fail-safe: a mask with bits past the registered groups comes from a
      // newer build whose plan this one cannot reproduce.
      if (!gmask || *gmask == 0 || (*gmask & ~core::kEveryGroupMask) != 0)
        return false;
      has_group_filter = 1;
      group_mask = *gmask;
    } else if (*tag == 3) {
      if (has_shard_bytes != 0) return false;
      const auto bytes = r.u64();
      if (!bytes || *bytes == 0) return false;
      has_shard_bytes = 1;
      shard_bytes = *bytes;
    } else {
      return false;
    }
  }
  h = {*variant,   *mut_hash,      *pool_hash, *cap,
       *seed,      *has_api,       *api,       *record_cases,
       *repro,     *shard_cases,   *plan_shards, *total_planned,
       crash_mode, crash_max_cuts, crash_group_mask,
       has_group_filter, group_mask, has_shard_bytes, shard_bytes};
  return true;
}

struct CompleteMarker {
  std::uint64_t total_cases = 0;
  std::int64_t reboots = 0;
  trace::Counters counters;
};

/// The totals a completion marker seals for each merged-result flavor.  A
/// crash log's total_cases slot carries total_cuts, and it has no counters.
CompleteMarker marker_of(const core::CampaignResult& r) {
  return {r.total_cases, r.reboots, r.event_counters};
}
CompleteMarker marker_of(const core::CrashCampaignResult& r) {
  return {r.total_cuts, r.reboots, trace::Counters{}};
}

std::vector<std::uint8_t> encode_complete(const CompleteMarker& m) {
  std::vector<std::uint8_t> out;
  wire::put_u64(out, m.total_cases);
  wire::put_i64(out, m.reboots);
  put_counters(out, m.counters);
  return out;
}

bool decode_complete(const std::uint8_t* payload, std::size_t size,
                     CompleteMarker& m) {
  wire::Reader r(payload, size);
  const auto cases = r.u64();
  const auto reboots = r.i64();
  if (!cases || !reboots) return false;
  m.total_cases = *cases;
  m.reboots = *reboots;
  return read_counters(r, m.counters) && r.pos == r.size;
}

}  // namespace

std::uint64_t run_fingerprint(const RunHeader& h) {
  const std::vector<std::uint8_t> bytes = encode_run_header(h);
  Fnv f;
  f.u64(bytes.size());
  for (std::uint8_t b : bytes) f.byte(b);
  return f.h;
}

std::vector<std::uint8_t> encode_shard_outcome(const core::ShardOutcome& o) {
  std::vector<std::uint8_t> out;
  wire::put_u64(out, o.shard_index);
  wire::put_i64(out, o.reboots);
  wire::put_u64(out, o.executed_cases);
  wire::put_u64(out, o.partials.size());
  for (const core::ShardOutcome::MutPartial& p : o.partials) {
    wire::put_u64(out, p.mut_index);
    wire::put_u64(out, p.range_first);
    put_stats(out, p.stats);
  }
  return out;
}

bool decode_shard_outcome(const std::uint8_t* payload, std::size_t size,
                          core::ShardOutcome& out) {
  wire::Reader r(payload, size);
  const auto index = r.u64();
  const auto reboots = r.i64();
  const auto cases = r.u64();
  const auto nparts = r.u64();
  if (!index || !reboots || !cases || !nparts ||
      *reboots < INT32_MIN || *reboots > INT32_MAX ||
      *nparts > r.remaining())
    return false;
  out.shard_index = static_cast<std::size_t>(*index);
  out.reboots = static_cast<int>(*reboots);
  out.executed_cases = *cases;
  out.partials.reserve(static_cast<std::size_t>(*nparts));
  for (std::uint64_t i = 0; i < *nparts; ++i) {
    core::ShardOutcome::MutPartial p;
    const auto mut_index = r.u64();
    const auto range_first = r.u64();
    if (!mut_index || !range_first) return false;
    p.mut_index = static_cast<std::size_t>(*mut_index);
    p.range_first = *range_first;
    if (!read_stats(r, p.stats)) return false;
    out.partials.push_back(std::move(p));
  }
  return r.pos == r.size;  // trailing garbage means a forged record
}

// --- crash-enumeration codecs ------------------------------------------------

namespace {

/// Like kWireEventKindCount: the mutation taxonomy as serialized.  Growing
/// the in-memory enum later requires a format bump (or a tail), not a silent
/// re-interpretation of old crash logs.
constexpr std::size_t kWireMutationKindCount = 13;
static_assert(kWireMutationKindCount == sim::kMutationKindCount);

}  // namespace

std::vector<std::uint8_t> encode_crash_shard_outcome(
    const core::CrashShardOutcome& o) {
  std::vector<std::uint8_t> out;
  wire::put_u64(out, o.shard_index);
  wire::put_u64(out, o.cuts_tested);
  wire::put_i64(out, o.reboots);
  wire::put_u64(out, o.partials.size());
  for (const core::CrashShardOutcome::MutPartial& p : o.partials) {
    wire::put_u64(out, p.mut_index);
    wire::put_u64(out, p.range_first);
    const core::CrashMutStats& s = p.stats;
    wire::put_u64(out, s.planned);
    wire::put_u64(out, s.cases_counted);
    wire::put_u64(out, s.points_total);
    wire::put_u64(out, s.cuts_tested);
    wire::put_u64(out, s.consistent);
    wire::put_u64(out, s.inconsistent);
    wire::put_u64(out, s.no_cut);
    for (std::size_t k = 0; k < kWireMutationKindCount; ++k)
      wire::put_u64(out, s.point_counts[k]);
    wire::put_u64(out, s.findings.size());
    for (const core::CutRecord& f : s.findings) {
      wire::put_u64(out, f.case_index);
      wire::put_u64(out, f.cut_at);
      wire::put_u8(out, static_cast<std::uint8_t>(f.verdict));
      wire::put_str(out, f.detail);
    }
  }
  return out;
}

bool decode_crash_shard_outcome(const std::uint8_t* payload, std::size_t size,
                                core::CrashShardOutcome& out) {
  wire::Reader r(payload, size);
  const auto index = r.u64();
  const auto cuts = r.u64();
  const auto reboots = r.i64();
  const auto nparts = r.u64();
  if (!index || !cuts || !reboots || !nparts || *nparts > r.remaining())
    return false;
  out.shard_index = static_cast<std::size_t>(*index);
  out.cuts_tested = *cuts;
  out.reboots = *reboots;
  out.partials.reserve(static_cast<std::size_t>(*nparts));
  for (std::uint64_t i = 0; i < *nparts; ++i) {
    core::CrashShardOutcome::MutPartial p;
    const auto mut_index = r.u64();
    const auto range_first = r.u64();
    if (!mut_index || !range_first) return false;
    p.mut_index = static_cast<std::size_t>(*mut_index);
    p.range_first = *range_first;
    core::CrashMutStats& s = p.stats;
    const auto planned = r.u64();
    const auto counted = r.u64();
    const auto points = r.u64();
    const auto tested = r.u64();
    const auto consistent = r.u64();
    const auto inconsistent = r.u64();
    const auto no_cut = r.u64();
    if (!planned || !counted || !points || !tested || !consistent ||
        !inconsistent || !no_cut)
      return false;
    s.planned = *planned;
    s.cases_counted = *counted;
    s.points_total = *points;
    s.cuts_tested = *tested;
    s.consistent = *consistent;
    s.inconsistent = *inconsistent;
    s.no_cut = *no_cut;
    for (std::size_t k = 0; k < kWireMutationKindCount; ++k) {
      const auto v = r.u64();
      if (!v) return false;
      s.point_counts[k] = *v;
    }
    const auto nfind = r.u64();
    if (!nfind || *nfind > r.remaining()) return false;
    s.findings.reserve(static_cast<std::size_t>(*nfind));
    for (std::uint64_t j = 0; j < *nfind; ++j) {
      core::CutRecord f;
      const auto case_index = r.u64();
      const auto cut_at = r.u64();
      if (!case_index || !cut_at) return false;
      f.case_index = *case_index;
      f.cut_at = *cut_at;
      if (!read_enum(r, core::CrashVerdict::kNoCut, f.verdict)) return false;
      auto detail = r.str();
      if (!detail) return false;
      f.detail = std::move(*detail);
      s.findings.push_back(std::move(f));
    }
    out.partials.push_back(std::move(p));
  }
  return r.pos == r.size;
}

RunHeader make_crash_run_header(const core::Plan& plan,
                                const core::CrashOptions& opt) {
  RunHeader h;
  h.variant = static_cast<std::uint8_t>(plan.variant);
  h.mut_list_hash = mut_list_hash(plan);
  h.value_pool_hash = value_pool_hash(plan);
  h.cap = opt.cap;
  h.seed = opt.seed;
  h.record_cases = 0;
  h.repro_pass = 0;
  h.shard_cases = opt.shard_cases;
  h.plan_shards = plan.shards.size();
  h.total_planned = plan.total_planned;
  h.crash_mode = 1;
  h.crash_max_cuts = opt.max_cuts;
  h.crash_group_mask = opt.group_mask;
  return h;
}

// --- reader ------------------------------------------------------------------

StoreContents read_store(const std::vector<std::uint8_t>& bytes) {
  StoreContents c;
  wire::Reader pre(bytes);
  const auto magic = pre.u32();
  const auto version = pre.u32();
  if (!magic || *magic != kMagic) {
    c.error = "not a campaign log (bad magic)";
    return c;
  }
  if (!version || *version != kFormatVersion) {
    c.error = "unsupported log format version " +
              (version ? std::to_string(*version) : std::string("<cut>"));
    return c;
  }

  std::size_t pos = pre.pos;
  wire::FrameView fv;
  if (wire::read_frame(bytes.data(), bytes.size(), pos, kMaxPayload, fv) !=
          wire::FrameStatus::kOk ||
      fv.type != static_cast<std::uint8_t>(RecordType::kRunHeader) ||
      !decode_run_header(fv.payload, fv.payload_size, c.header)) {
    c.error = "run header record is missing or damaged";
    return c;
  }
  pos += fv.frame_size;
  c.status = ReadStatus::kOk;
  c.valid_bytes = pos;

  while (pos < bytes.size()) {
    const wire::FrameStatus st =
        wire::read_frame(bytes.data(), bytes.size(), pos, kMaxPayload, fv);
    if (st == wire::FrameStatus::kTruncated) {
      c.status = ReadStatus::kTruncated;
      c.error = "log ends mid-frame at byte " + std::to_string(pos) +
                " (torn write); valid prefix recovered";
      return c;
    }
    if (st == wire::FrameStatus::kCorrupt) {
      c.status = ReadStatus::kCorrupt;
      c.error = "checksum mismatch in frame at byte " + std::to_string(pos) +
                "; valid prefix recovered";
      return c;
    }
    if (c.complete) {
      // A sealed log ends at its completion marker; anything after it is not
      // trustworthy even if its CRC holds.
      c.status = ReadStatus::kCorrupt;
      c.error = "data after the completion marker; valid prefix recovered";
      return c;
    }
    switch (static_cast<RecordType>(fv.type)) {
      case RecordType::kShardOutcome: {
        core::ShardOutcome o;
        if (c.header.crash_mode != 0 ||
            !decode_shard_outcome(fv.payload, fv.payload_size, o)) {
          c.status = ReadStatus::kCorrupt;
          c.error = "malformed shard record at byte " + std::to_string(pos) +
                    "; valid prefix recovered";
          return c;
        }
        c.outcomes.push_back(std::move(o));
        break;
      }
      case RecordType::kCrashOutcome: {
        core::CrashShardOutcome o;
        if (c.header.crash_mode == 0 ||
            !decode_crash_shard_outcome(fv.payload, fv.payload_size, o)) {
          c.status = ReadStatus::kCorrupt;
          c.error = "malformed crash record at byte " + std::to_string(pos) +
                    "; valid prefix recovered";
          return c;
        }
        c.crash_outcomes.push_back(std::move(o));
        break;
      }
      case RecordType::kRunComplete: {
        CompleteMarker m;
        if (!decode_complete(fv.payload, fv.payload_size, m)) {
          c.status = ReadStatus::kCorrupt;
          c.error = "malformed completion marker at byte " +
                    std::to_string(pos) + "; valid prefix recovered";
          return c;
        }
        c.complete = true;
        c.complete_total_cases = m.total_cases;
        c.complete_reboots = m.reboots;
        c.complete_counters = m.counters;
        break;
      }
      case RecordType::kRunHeader:
      default:
        c.status = ReadStatus::kCorrupt;
        c.error = "unexpected record type " + std::to_string(fv.type) +
                  " at byte " + std::to_string(pos) +
                  "; valid prefix recovered";
        return c;
    }
    pos += fv.frame_size;
    c.valid_bytes = pos;
  }
  return c;
}

StoreContents read_store_file(const std::string& path) {
  StoreContents c;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    c.error = "cannot open " + path;
    return c;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    c.error = "I/O error reading " + path;
    return c;
  }
  return read_store(bytes);
}

// --- writer ------------------------------------------------------------------

std::unique_ptr<CampaignStore> CampaignStore::create(const std::string& path,
                                                     const RunHeader& header,
                                                     std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot create " + path;
    return nullptr;
  }
  auto store = std::unique_ptr<CampaignStore>(new CampaignStore(f));
  std::vector<std::uint8_t> preamble;
  wire::put_u32(preamble, kMagic);
  wire::put_u32(preamble, kFormatVersion);
  if (std::fwrite(preamble.data(), 1, preamble.size(), f) != preamble.size() ||
      !store->write_frame(RecordType::kRunHeader, encode_run_header(header))) {
    if (error != nullptr) *error = "write failed on " + path;
    return nullptr;
  }
  return store;
}

std::unique_ptr<CampaignStore> CampaignStore::open_append(
    const std::string& path, std::uint64_t valid_bytes, std::string* error) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    if (error != nullptr)
      *error = "cannot trim torn tail of " + path + ": " + ec.message();
    return nullptr;
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot reopen " + path;
    return nullptr;
  }
  return std::unique_ptr<CampaignStore>(new CampaignStore(f));
}

CampaignStore::~CampaignStore() {
  if (f_ != nullptr) std::fclose(f_);
}

bool CampaignStore::write_frame(RecordType type,
                                const std::vector<std::uint8_t>& payload) {
  if (failed_) return false;
  std::vector<std::uint8_t> frame;
  wire::put_frame(frame, static_cast<std::uint8_t>(type), payload);
  // Flush before reporting success: the crash-safety contract is that a
  // shard acknowledged as appended survives the death of this process.
  if (std::fwrite(frame.data(), 1, frame.size(), f_) != frame.size() ||
      std::fflush(f_) != 0) {
    failed_ = true;
    return false;
  }
  return true;
}

bool CampaignStore::append_shard(const core::ShardOutcome& outcome) {
  return write_frame(RecordType::kShardOutcome, encode_shard_outcome(outcome));
}

bool CampaignStore::append_shard(const core::CrashShardOutcome& outcome) {
  return write_frame(RecordType::kCrashOutcome,
                     encode_crash_shard_outcome(outcome));
}

bool CampaignStore::append_complete(const core::CampaignResult& result) {
  return write_frame(RecordType::kRunComplete,
                     encode_complete(marker_of(result)));
}

bool CampaignStore::append_complete(const core::CrashCampaignResult& result) {
  return write_frame(RecordType::kRunComplete,
                     encode_complete(marker_of(result)));
}

// --- drivers -----------------------------------------------------------------

namespace {

/// What differs between the two record flavors; everything else in the
/// resume and load drivers is shared.
template <class Outcome>
struct Flavor;

template <>
struct Flavor<core::ShardOutcome> {
  using Options = core::CampaignOptions;
  static constexpr bool kCrash = false;
  static constexpr auto* plan = &core::plan_for;
  static constexpr auto* header = &make_run_header;
  static constexpr auto* run = &core::Campaign::run;
  static constexpr auto* merge = &core::merge_outcomes;
  static std::vector<core::ShardOutcome>& records(StoreContents& c) {
    return c.outcomes;
  }
  static std::uint64_t cases(const core::MutStats& s) { return s.executed; }
  static Options options(const RunHeader& h) {
    Options opt;
    opt.cap = h.cap;
    opt.seed = h.seed;
    opt.record_cases = h.record_cases != 0;
    opt.repro_pass = h.repro_pass != 0;
    opt.shard_cases = h.shard_cases;
    if (h.has_only_api != 0)
      opt.only_api = static_cast<core::ApiKind>(h.only_api);
    if (h.has_group_filter != 0) opt.group_mask = h.group_mask;
    if (h.has_shard_bytes != 0) opt.shard_bytes = h.shard_bytes;
    return opt;
  }
};

template <>
struct Flavor<core::CrashShardOutcome> {
  using Options = core::CrashOptions;
  static constexpr bool kCrash = true;
  static constexpr auto* plan = &core::crash_plan_for;
  static constexpr auto* header = &make_crash_run_header;
  static constexpr auto* run = &core::run_crash_engine;
  static constexpr auto* merge = &core::merge_crash_outcomes;
  static std::vector<core::CrashShardOutcome>& records(StoreContents& c) {
    return c.crash_outcomes;
  }
  static std::uint64_t cases(const core::CrashMutStats& s) {
    return s.cases_counted;
  }
  static Options options(const RunHeader& h) {
    Options opt;
    opt.cap = h.cap;
    opt.seed = h.seed;
    opt.shard_cases = h.shard_cases;
    opt.max_cuts = h.crash_max_cuts;
    opt.group_mask = h.crash_group_mask;
    return opt;
  }
};

/// A decoded record is only usable if it describes exactly the work the
/// re-derived plan assigns to its shard index; the first implausible record
/// ends the usable prefix (same rule as a checksum failure).
template <class Outcome>
bool outcome_matches_plan(const core::Plan& plan, Outcome& o) {
  if (o.shard_index >= plan.shards.size()) return false;
  const core::Shard& s = plan.shards[o.shard_index];
  if (o.partials.size() != s.items.size()) return false;
  for (std::size_t i = 0; i < o.partials.size(); ++i) {
    auto& p = o.partials[i];
    const core::ShardItem& it = s.items[i];
    if (p.mut_index != it.mut_index || p.range_first != it.range.first ||
        p.stats.planned != it.planned ||
        Flavor<Outcome>::cases(p.stats) > it.range.count)
      return false;
    p.stats.mut = it.mut;
  }
  return true;
}

template <class Outcome>
using OutcomeCache = std::map<std::size_t, Outcome>;

/// Adopts the plan-consistent prefix of the log's records (first record per
/// shard index wins; a duplicate means the log was stitched, stop there).
template <class Outcome>
OutcomeCache<Outcome> build_cache(const core::Plan& plan,
                                  StoreContents& contents) {
  OutcomeCache<Outcome> cache;
  for (Outcome& o : Flavor<Outcome>::records(contents)) {
    if (!outcome_matches_plan(plan, o)) break;
    if (!cache.emplace(o.shard_index, std::move(o)).second) break;
  }
  return cache;
}

template <class Outcome>
typename Outcome::Result merge_cache(const core::Plan& plan,
                                     OutcomeCache<Outcome> cache) {
  std::vector<Outcome> outcomes(plan.shards.size());
  for (auto& [index, o] : cache) outcomes[index] = std::move(o);
  return Flavor<Outcome>::merge(plan, std::move(outcomes));
}

template <class Result>
bool summary_matches(std::uint64_t total_cases, std::int64_t reboots,
                     const trace::Counters& counters, const Result& merged) {
  const CompleteMarker m = marker_of(merged);
  return total_cases == m.total_cases && reboots == m.reboots &&
         counters == m.counters;
}

constexpr const char* kMismatchedSummary =
    ": merged result does not match the log's completion marker (refusing "
    "to trust it)";

/// The resume driver behind run_with_store and run_crash_with_store.
template <class Outcome>
BasicStoreRun<Outcome> run_stored(sim::OsVariant variant,
                                  const core::Registry& registry,
                                  const typename Flavor<Outcome>::Options& opt,
                                  const std::string& path, bool resume) {
  using Log = BasicResumableLog<Outcome>;
  BasicStoreRun<Outcome> out;
  if constexpr (!Flavor<Outcome>::kCrash) {
    if (opt.machine_setup || opt.task_setup) {
      out.error = "campaigns with ambient-state hooks cannot be stored "
                  "(their machine state is not fingerprintable)";
      return out;
    }
  }
  if (opt.shard_cache || opt.on_shard_complete) {
    out.error = "the store manages the engine's shard hooks itself";
    return out;
  }

  const core::Plan plan = Flavor<Outcome>::plan(variant, registry, opt);
  typename Log::Opened opened =
      Log::open(path, plan, Flavor<Outcome>::header(plan, opt),
                resume ? Log::Mode::kResume : Log::Mode::kCreate);
  out.log_status = opened.status;
  if (opened.log == nullptr) {
    out.error = opened.error;
    return out;
  }
  Log& log = *opened.log;

  if (log.recovered_complete() && log.cached().size() == plan.shards.size()) {
    // Nothing to do: the log already holds the whole campaign.
    out.result = merge_cache<Outcome>(plan, log.cached());
    if (!log.summary_matches(out.result)) {
      out.error = path + kMismatchedSummary;
      return out;
    }
    out.shards_reused = plan.shards.size();
    out.ok = true;
    return out;
  }

  typename Flavor<Outcome>::Options run_opt = opt;
  run_opt.shard_cache = [&log](const core::Shard& s) -> const Outcome* {
    const auto it = log.cached().find(s.index);
    return it == log.cached().end() ? nullptr : &it->second;
  };
  std::size_t executed = 0;
  run_opt.on_shard_complete = [&](const Outcome& o) {
    if (!log.append_shard(o))
      throw std::runtime_error("campaign store: append failed on " + path);
    ++executed;
  };

  try {
    out.result = Flavor<Outcome>::run(variant, registry, run_opt);
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  if (!log.seal(out.result)) {
    out.error = "campaign store: could not seal " + path;
    return out;
  }
  out.shards_reused = log.cached().size();
  out.shards_executed = executed;
  out.ok = true;
  return out;
}

/// The load driver behind load_result and load_crash_result.
template <class Outcome>
BasicStoreRun<Outcome> load_stored(const core::Registry& registry,
                                   const std::string& path) {
  BasicStoreRun<Outcome> out;
  StoreContents contents = read_store_file(path);
  out.log_status = contents.status;
  if (contents.status == ReadStatus::kBadHeader) {
    out.error = path + ": " + contents.error;
    return out;
  }
  if ((contents.header.crash_mode != 0) != Flavor<Outcome>::kCrash) {
    out.error = path + (Flavor<Outcome>::kCrash
                            ? ": not a crash-enumeration log"
                            : ": a crash-enumeration log, not a robustness log");
    return out;
  }

  const auto variant = static_cast<sim::OsVariant>(contents.header.variant);
  const auto opt = Flavor<Outcome>::options(contents.header);
  const core::Plan plan = Flavor<Outcome>::plan(variant, registry, opt);
  const RunHeader want = Flavor<Outcome>::header(plan, opt);
  if (contents.header != want) {
    out.error = path + ": log does not match the current catalog "
                       "(was it written by a different build?):\n" +
                describe_header_mismatch(want, contents.header);
    return out;
  }
  if (!contents.complete) {
    out.error = path + ": log is incomplete (" +
                std::string(read_status_name(contents.status)) +
                (contents.error.empty() ? "" : ": " + contents.error) +
                "); finish it with --resume first";
    return out;
  }
  OutcomeCache<Outcome> cache = build_cache<Outcome>(plan, contents);
  if (cache.size() != plan.shards.size()) {
    out.error = path + ": log is sealed but covers only " +
                std::to_string(cache.size()) + " of " +
                std::to_string(plan.shards.size()) + " shards";
    return out;
  }
  out.shards_reused = cache.size();
  out.result = merge_cache<Outcome>(plan, std::move(cache));
  if (!summary_matches(contents.complete_total_cases, contents.complete_reboots,
                       contents.complete_counters, out.result)) {
    out.error = path + kMismatchedSummary;
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace

// --- ResumableLog ------------------------------------------------------------

template <class Outcome>
typename BasicResumableLog<Outcome>::Opened BasicResumableLog<Outcome>::open(
    const std::string& path, const core::Plan& plan, const RunHeader& header,
    Mode mode) {
  Opened out;
  auto log = std::unique_ptr<BasicResumableLog>(new BasicResumableLog());
  log->path_ = path;

  bool create = mode == Mode::kCreate;
  if (mode == Mode::kCreateOrResume) {
    // Only a genuinely absent file falls back to create: an existing but
    // unreadable/foreign log is an error, never silently truncated.
    std::error_code ec;
    create = !std::filesystem::exists(path, ec) && !ec;
  }

  std::string err;
  if (create) {
    log->store_ = CampaignStore::create(path, header, &err);
    if (log->store_ == nullptr) {
      out.error = err;
      return out;
    }
    out.log = std::move(log);
    return out;
  }

  StoreContents contents = read_store_file(path);
  out.status = contents.status;
  if (contents.status == ReadStatus::kBadHeader) {
    out.error = path + ": " + contents.error;
    return out;
  }
  if (contents.header != header) {
    out.error = path + ": log fingerprint does not match this campaign:\n" +
                describe_header_mismatch(header, contents.header);
    return out;
  }
  log->cache_ = build_cache<Outcome>(plan, contents);
  log->complete_ = contents.complete;
  log->complete_total_cases_ = contents.complete_total_cases;
  log->complete_reboots_ = contents.complete_reboots;
  log->complete_counters_ = contents.complete_counters;
  if (contents.complete && log->cache_.size() == plan.shards.size()) {
    // Sealed and fully covered: nothing will ever be appended, so no write
    // handle is taken (fail() stays true if someone tries anyway).
    out.log = std::move(log);
    return out;
  }
  log->store_ = CampaignStore::open_append(path, contents.valid_bytes, &err);
  if (log->store_ == nullptr) {
    out.error = err;
    return out;
  }
  out.log = std::move(log);
  return out;
}

template <class Outcome>
bool BasicResumableLog<Outcome>::summary_matches(
    const Result& merged) const noexcept {
  return store::summary_matches(complete_total_cases_, complete_reboots_,
                                complete_counters_, merged);
}

template <class Outcome>
bool BasicResumableLog<Outcome>::append_shard(const Outcome& outcome) {
  return store_ != nullptr && store_->append_shard(outcome);
}

template <class Outcome>
bool BasicResumableLog<Outcome>::seal(const Result& result) {
  return store_ != nullptr && store_->append_complete(result);
}

template class BasicResumableLog<core::ShardOutcome>;
template class BasicResumableLog<core::CrashShardOutcome>;

StoreRun run_with_store(sim::OsVariant variant, const core::Registry& registry,
                        const core::CampaignOptions& opt,
                        const std::string& path, bool resume) {
  return run_stored<core::ShardOutcome>(variant, registry, opt, path, resume);
}

StoreRun load_result(const core::Registry& registry, const std::string& path) {
  return load_stored<core::ShardOutcome>(registry, path);
}

CrashStoreRun run_crash_with_store(sim::OsVariant variant,
                                   const core::Registry& registry,
                                   const core::CrashOptions& opt,
                                   const std::string& path, bool resume) {
  return run_stored<core::CrashShardOutcome>(variant, registry, opt, path,
                                             resume);
}

CrashStoreRun load_crash_result(const core::Registry& registry,
                                const std::string& path) {
  return load_stored<core::CrashShardOutcome>(registry, path);
}

}  // namespace ballista::store
