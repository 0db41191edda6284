#include "digest.h"

#include <cstdio>

namespace perfbench {

using namespace ballista;

namespace {

/// 64-bit FNV-1a over a little-endian, length-prefixed serialization.
class Hasher {
 public:
  void bytes(const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) noexcept {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, sizeof b);
  }
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void counters(Hasher& h, const trace::Counters& c) {
  for (std::uint64_t n : c.n) h.u64(n);
  for (std::uint64_t n : c.probe) h.u64(n);
}

}  // namespace

std::uint64_t digest(const core::CampaignResult& r) {
  Hasher h;
  h.u64(static_cast<std::uint64_t>(r.variant));
  h.u64(static_cast<std::uint64_t>(r.reboots));
  h.u64(r.total_cases);
  counters(h, r.event_counters);
  h.u64(r.stats.size());
  for (const core::MutStats& s : r.stats) {
    h.str(s.mut != nullptr ? std::string_view(s.mut->name) : "");
    h.u64(s.planned);
    h.u64(s.executed);
    h.u64(s.passes);
    h.u64(s.aborts);
    h.u64(s.restarts);
    h.u64(s.silent_candidates);
    h.u64(s.hindering);
    h.u64(s.catastrophic);
    h.u64(static_cast<std::uint64_t>(s.crash_case));
    h.str(s.crash_detail);
    h.str(s.crash_tuple);
    h.u64(s.crash_reproducible_single);
    h.u64(s.case_codes.size());
    h.bytes(s.case_codes.data(), s.case_codes.size());
    counters(h, s.event_counts);
    h.u64(s.crash_trace.size());
    for (const trace::TraceEvent& e : s.crash_trace) {
      h.u64(static_cast<std::uint64_t>(e.kind));
      h.u64(static_cast<std::uint64_t>(e.case_index));
    }
  }
  return h.value();
}

std::uint64_t digest(const core::CrashCampaignResult& r) {
  Hasher h;
  h.u64(static_cast<std::uint64_t>(r.variant));
  h.u64(r.total_points);
  h.u64(r.total_cuts);
  h.u64(r.consistent);
  h.u64(r.inconsistent);
  h.u64(r.no_cut);
  h.u64(static_cast<std::uint64_t>(r.reboots));
  h.u64(r.stats.size());
  for (const core::CrashMutStats& s : r.stats) {
    h.str(s.mut != nullptr ? std::string_view(s.mut->name) : "");
    h.u64(s.planned);
    h.u64(s.cases_counted);
    h.u64(s.points_total);
    h.u64(s.cuts_tested);
    h.u64(s.consistent);
    h.u64(s.inconsistent);
    h.u64(s.no_cut);
    for (std::uint64_t n : s.point_counts) h.u64(n);
    h.u64(s.findings.size());
    for (const core::CutRecord& f : s.findings) {
      h.u64(f.case_index);
      h.u64(f.cut_at);
      h.u64(static_cast<std::uint64_t>(f.verdict));
      h.str(f.detail);
    }
  }
  return h.value();
}

std::uint64_t digest(const core::CaseResult& r) {
  Hasher h;
  h.u64(static_cast<std::uint64_t>(r.outcome));
  h.u64(r.success_no_error);
  h.u64(r.wrong_error);
  h.u64(r.any_exceptional);
  h.u64(static_cast<std::uint64_t>(r.fault));
  h.u64(static_cast<std::uint64_t>(r.panic));
  h.str(r.detail);
  counters(h, r.events);
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
