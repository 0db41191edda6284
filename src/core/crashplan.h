// Crash-consistency campaigns (the CRASH dimension): for every test case of
// the selected functional groups, enumerate its persistence points with a
// counting pass, then for each selected k re-execute the case with a fault
// cut armed at the k-th point, reboot, and verify that the simulated world
// came back consistent.
//
// The machinery reuses the base campaign engine wholesale:
//
//   plan      crash_plan_for builds a core::Plan directly — one ShardItem per
//             case-range slice, NO hazard chaining: every cut ends in a
//             reboot, so each case is trivially a clean shard boundary.
//   schedule  the shared executor (core/sched execute_plan): the same
//             MachinePool, ShardQueue and calling-thread completion hook as
//             run_engine, at every jobs value.
//   execute   run_crash_shard: per case, a counting pass (MutationHub in
//             counting mode) fixes the point count N; then for each selected
//             k <= N: checkpointed state -> arm(FaultPlan{k}) -> run ->
//             restore(kReboot) -> verify invariants.  crash_probe_case runs
//             the same per-case routine for one k.
//   merge     merge_crash_outcomes folds per-shard results in plan order, so
//             the merged CrashCampaignResult is identical for any --jobs.
//
// Determinism contract: the counting pass and every armed pass execute the
// same case from the same restored machine state, so they announce the same
// points with the same sequence numbers.  A cut that does NOT fire where the
// counting pass said point k exists is itself a finding (kNoCut).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/plan.h"
#include "sim/machine.h"

namespace ballista::core {

inline constexpr std::uint32_t crash_group_bit(FuncGroup g) noexcept {
  return group_bit(g);
}
/// The groups whose MuTs mutate the most persistent state, per the
/// `crash_default` column of the group registry (core/groups.h).
inline constexpr std::uint32_t kDefaultCrashGroupMask =
    kDefaultCrashCampaignGroupMask;
static_assert(kDefaultCrashGroupMask ==
                  (crash_group_bit(FuncGroup::kFileDirAccess) |
                   crash_group_bit(FuncGroup::kMemoryManagement)),
              "crash_default rows changed: regenerate tests/golden/crash_*");

/// Per-(case, k) outcome of one armed cut.
enum class CrashVerdict : std::uint8_t {
  kConsistent = 0,   // post-reboot world passed every invariant
  kInconsistent,     // an invariant failed after the reboot
  kNoCut,            // the armed cut never fired (determinism failure)
};

std::string_view crash_verdict_name(CrashVerdict v) noexcept;

/// One recorded finding: a (case, k) whose verdict was not kConsistent,
/// reproducible standalone via crash_probe_case from (MuT, case_index, k).
struct CutRecord {
  std::uint64_t case_index = 0;
  std::uint64_t cut_at = 0;  // the k of FaultPlan::cut_at (1-based)
  CrashVerdict verdict = CrashVerdict::kConsistent;
  std::string detail;  // first failed invariant (empty when consistent)

  friend bool operator==(const CutRecord& a, const CutRecord& b) noexcept {
    return a.case_index == b.case_index && a.cut_at == b.cut_at &&
           a.verdict == b.verdict && a.detail == b.detail;
  }
};

/// Per-MuT crash-dimension statistics.
struct CrashMutStats {
  const MuT* mut = nullptr;
  std::uint64_t planned = 0;        // cases planned for this MuT
  std::uint64_t cases_counted = 0;  // cases whose counting pass ran
  std::uint64_t points_total = 0;   // sum of counting-pass point counts
  std::uint64_t cuts_tested = 0;
  std::uint64_t consistent = 0;
  std::uint64_t inconsistent = 0;
  std::uint64_t no_cut = 0;
  /// Per-MutationKind totals from the counting passes (EXPERIMENTS.md's
  /// mutation-point taxonomy table).
  std::array<std::uint64_t, sim::kMutationKindCount> point_counts{};
  /// Only non-consistent records are kept (consistent is the common case).
  std::vector<CutRecord> findings;
};

struct CrashCampaignResult;

/// What one worker produced from one crash shard; mirrors ShardOutcome.
struct CrashShardOutcome {
  using Result = CrashCampaignResult;  // what merge_crash_outcomes folds into
  struct MutPartial {
    std::size_t mut_index = 0;
    std::uint64_t range_first = 0;
    CrashMutStats stats;
  };
  std::size_t shard_index = 0;
  std::vector<MutPartial> partials;
  std::uint64_t cuts_tested = 0;
  std::int64_t reboots = 0;  // every fired cut reboots; organic crashes too
};

struct CrashOptions {
  std::uint64_t cap = kDefaultCap;
  std::uint64_t seed = 0x8a11157a;
  /// Bitmask over FuncGroup (1u << group).  Defaults to the two groups whose
  /// MuTs mutate the most persistent state: File/Directory and Memory.
  std::uint32_t group_mask = kDefaultCrashGroupMask;
  /// Cuts tested per case: every k when the counting pass finds at most this
  /// many points, else a deterministic stride sample across [1, points].
  std::uint64_t max_cuts = 16;
  unsigned jobs = 1;
  std::uint64_t shard_cases = 2048;
  /// Persistent-store hooks, same contract as CampaignOptions': the cache is
  /// consulted on worker threads, the completion hook runs on the calling
  /// thread, and a throw from it stops the campaign and propagates.
  std::function<const CrashShardOutcome*(const Shard&)> shard_cache;
  std::function<void(const CrashShardOutcome&)> on_shard_complete;
};

struct CrashCampaignResult {
  sim::OsVariant variant{};
  std::vector<CrashMutStats> stats;  // plan.muts order
  std::uint64_t total_points = 0;
  std::uint64_t total_cuts = 0;
  std::uint64_t consistent = 0;
  std::uint64_t inconsistent = 0;
  std::uint64_t no_cut = 0;
  std::int64_t reboots = 0;
};

/// The exact Plan a crash campaign executes: registry MuTs of the selected
/// groups, sliced into case ranges.  No hazard chaining — every case ends in
/// a reboot, so every boundary is clean by construction.
Plan crash_plan_for(sim::OsVariant variant, const Registry& registry,
                    const CrashOptions& opt);

/// Executes one crash shard on a freshly-booted machine.
CrashShardOutcome run_crash_shard(sim::Machine& machine, const Shard& shard,
                                  const CrashOptions& opt);

/// Folds shard outcomes back in plan order (deterministic for any --jobs).
CrashCampaignResult merge_crash_outcomes(const Plan& plan,
                                         std::vector<CrashShardOutcome> out);

/// plan -> schedule/execute -> merge, honouring opt.jobs.
CrashCampaignResult run_crash_engine(sim::OsVariant variant,
                                     const Registry& registry,
                                     const CrashOptions& opt);

/// Standalone reproduction of one (MuT, case_index, k) triple on a fresh
/// machine: counting pass, then the armed cut, then verification.  `detail`
/// (optional) receives the failed invariant.  This is the one-finding repro
/// path the CLI's `repro --cut` uses.
CrashVerdict crash_probe_case(sim::OsVariant variant, const MuT& mut,
                              std::uint64_t case_index, std::uint64_t cut_at,
                              std::uint64_t cap, std::uint64_t seed,
                              std::string* detail = nullptr);

/// Field-by-field equality of two merged crash results (determinism tests
/// and the crash diff subcommand).  Returns a human-readable description of
/// the first difference, or empty when identical.
std::string diff_crash_results(const CrashCampaignResult& a,
                               const CrashCampaignResult& b);

}  // namespace ballista::core
