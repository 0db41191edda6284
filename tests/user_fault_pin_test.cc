// Pins the observable result of every task-mode dereference in the C library
// and in the Win32/POSIX calls that fault in user mode (Interlocked*, the
// heap walks, the glibc signal/exec/environ/DIR* shims, kill/raise).
//
// For each of those MuTs on each variant, the first kTuplesPerMut tuples run
// through Executor::run_case on one machine that counts mutation points, and
// every CaseResult folds into a per-(variant, MuT) digest: outcome, fault
// type, panic kind, the return-path flags, `detail` (which carries the fault
// address), the event counters, the kinds of the case's own events in order
// (with each fault's address, each return's status and value, each probe's
// range and verdict, and each mutation point's kind and page or object) and
// the kinds of the Catastrophic trace tail.  The golden
// `.blog` baselines pin codes and counters but not `detail`, so this is the
// check that catches a fault which moved address or lost its kPageWrite
// point.
//
// The expected digests live in tests/golden/user_fault_digests.inc.  To
// regenerate them after an intentional behaviour change, empty the array in
// that file, run
//   ballista_tests --gtest_filter=UserFaultPin.*
// and paste the `{...},` lines the test prints for every unpinned MuT.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;
using testing::shared_world;

constexpr std::uint64_t kTuplesPerMut = 64;

struct PinnedDigest {
  const char* variant;
  const char* group;
  const char* mut;
  std::uint64_t digest;
};

const std::vector<PinnedDigest> kPinned = {
#include "tests/golden/user_fault_digests.inc"
};

/// The Win32/POSIX MuTs whose bodies dereference task memory in user mode.
bool user_mode_site(const MuT& m) {
  static const std::set<std::string, std::less<>> kNames = {
      "InterlockedIncrement", "InterlockedDecrement", "InterlockedExchange",
      "InterlockedExchangeAdd", "InterlockedCompareExchange", "HeapFree",
      "HeapSize", "HeapReAlloc", "GlobalFree", "GlobalLock", "LocalFree",
      "sigaction", "sigprocmask", "execv", "execve", "opendir", "readdir",
      "closedir", "rewinddir", "kill", "raise", "getenv", "putenv"};
  return kNames.contains(m.name);
}

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void fold(Fnv& h, const CaseResult& r,
          const std::vector<trace::TraceEvent>& case_events) {
  h.u64(static_cast<std::uint64_t>(r.outcome));
  h.u64(static_cast<std::uint64_t>(r.fault));
  h.u64(static_cast<std::uint64_t>(r.panic));
  h.u64(r.success_no_error);
  h.u64(r.wrong_error);
  h.u64(r.any_exceptional);
  h.str(r.detail);
  for (const std::uint64_t n : r.events.n) h.u64(n);
  for (const std::uint64_t n : r.events.probe) h.u64(n);
  h.u64(case_events.size());
  for (const trace::TraceEvent& e : case_events) {
    h.u64(static_cast<std::uint64_t>(e.kind));
    if (e.kind == trace::EventKind::kFault) {
      h.u64(e.fault.addr);
      h.u64(e.fault.is_write);
    } else if (e.kind == trace::EventKind::kSyscallExit) {
      h.u64(static_cast<std::uint64_t>(e.syscall_exit.status));
      h.u64(e.syscall_exit.ret);
    } else if (e.kind == trace::EventKind::kProbeDecision) {
      h.u64(e.probe.addr);
      h.u64(e.probe.size);
      h.u64(static_cast<std::uint64_t>(e.probe.result));
    } else if (e.kind == trace::EventKind::kMutationPoint) {
      h.u64(static_cast<std::uint64_t>(e.mutation.mkind));
      h.u64(e.mutation.detail);
    }
  }
  h.u64(r.trace_tail.size());
  for (const trace::TraceEvent& e : r.trace_tail)
    h.u64(static_cast<std::uint64_t>(e.kind));
}

using Key = std::tuple<std::string, std::string, std::string>;

std::map<Key, std::uint64_t> digests_for(OsVariant v) {
  sim::Machine machine(v);
  machine.mutations().set_counting(true);
  Executor executor(machine);
  const std::string variant{sim::variant_name(v)};
  std::map<Key, std::uint64_t> out;
  for (const MuT* mut : shared_world().registry.for_variant(v)) {
    if (!is_clib_group(mut->group) && !user_mode_site(*mut)) continue;
    Fnv h;
    const TupleGenerator gen(*mut);
    const std::uint64_t n = std::min(gen.count(), kTuplesPerMut);
    for (std::uint64_t i = 0; i < n; ++i) {
      const CaseResult r = executor.run_case(*mut, gen.tuple(i),
                                             static_cast<std::int64_t>(i));
      std::uint64_t emitted = 0;
      for (const std::uint64_t k : r.events.n) emitted += k;
      fold(h, r, machine.trace().tail(emitted));
      if (machine.crashed()) machine.reboot();
    }
    const Key key{variant,
                  std::string(group_descriptor(mut->group).token),
                  mut->name};
    EXPECT_TRUE(out.emplace(key, h.value()).second) << mut->name;
  }
  return out;
}

class UserFaultPin : public ::testing::TestWithParam<OsVariant> {};

TEST_P(UserFaultPin, ResultsMatchThePinnedDigests) {
  const OsVariant v = GetParam();
  const std::string variant{sim::variant_name(v)};
  std::map<Key, std::uint64_t> want;
  for (const PinnedDigest& p : kPinned)
    if (variant == p.variant) want[{p.variant, p.group, p.mut}] = p.digest;

  const std::map<Key, std::uint64_t> got = digests_for(v);
  for (const auto& [key, digest] : got) {
    const auto& [var, group, mut] = key;
    const auto it = want.find(key);
    if (it == want.end()) {
      ADD_FAILURE() << "unpinned: " << group << ":" << mut;
      std::printf("    {\"%s\", \"%s\", \"%s\", 0x%016llxULL},\n", var.c_str(),
                  group.c_str(), mut.c_str(),
                  static_cast<unsigned long long>(digest));
      continue;
    }
    EXPECT_EQ(digest, it->second) << group << ":" << mut << " on " << var;
  }
  for (const auto& [key, digest] : want)
    EXPECT_TRUE(got.contains(key))
        << std::get<1>(key) << ":" << std::get<2>(key) << " no longer runs";
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, UserFaultPin,
    ::testing::ValuesIn(sim::kAllVariants.begin(), sim::kAllVariants.end()),
    [](const ::testing::TestParamInfo<OsVariant>& info) {
      std::string name{sim::variant_name(info.param)};
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
}  // namespace ballista::core
