#include "core/crashplan.h"

#include <algorithm>
#include <set>
#include <span>
#include <sstream>

#include "core/executor.h"
#include "core/generator.h"
#include "core/sched.h"

namespace ballista::core {

namespace {

/// The k values tested for a case whose counting pass found `points` points:
/// every k when points <= max_cuts, else a deterministic stride sample whose
/// first element is 1 and last is `points` (endpoints always covered).
std::vector<std::uint64_t> select_cuts(std::uint64_t points,
                                       std::uint64_t max_cuts) {
  std::vector<std::uint64_t> ks;
  if (points == 0 || max_cuts == 0) return ks;
  if (points <= max_cuts) {
    for (std::uint64_t k = 1; k <= points; ++k) ks.push_back(k);
    return ks;
  }
  if (max_cuts == 1) {
    ks.push_back(points);
    return ks;
  }
  for (std::uint64_t j = 0; j < max_cuts; ++j)
    ks.push_back(1 + (j * (points - 1)) / (max_cuts - 1));
  return ks;
}

/// Post-reboot consistency oracle.  Returns the name of the first violated
/// invariant, or empty when the rebooted world is consistent.  The fs
/// structural walk deliberately does NOT require child-map key == node name:
/// rename re-keys a node without renaming it, which is a representation
/// artifact, not an inconsistency.
std::string first_violation(sim::Machine& m) {
  if (m.crashed()) return "machine still crashed after reboot";
  if (m.panic_kind() != sim::PanicKind::kNone)
    return "panic kind not cleared by reboot";
  if (m.arena().corruption() != 0) return "arena corruption survived reboot";
  if (!m.fs().fixture_clean()) return "disk fixture differs from checkpoint";

  // Structural walk: acyclic, files childless, link counts sane.
  std::set<const sim::FsNode*> visited;
  std::vector<std::shared_ptr<sim::FsNode>> stack{m.fs().root()};
  while (!stack.empty()) {
    auto node = stack.back();
    stack.pop_back();
    if (!node) return "null node in fs tree";
    if (!visited.insert(node.get()).second) return "cycle in fs tree";
    if (!node->is_dir() && !node->children().empty())
      return "regular file has children";
    if (node->nlink < 1) return "node with nlink < 1 still linked";
    for (const auto& [key, child] : node->children()) stack.push_back(child);
  }

  // A task acquired from the rebooted machine must be pristine.
  auto proc = m.acquire_process();
  std::string bad;
  if (proc->handles().size() != 3)
    bad = "fresh task does not hold exactly the three std handles";
  else if (proc->last_error() != 0)
    bad = "fresh task has nonzero last_error";
  else if (proc->err_no() != 0)
    bad = "fresh task has nonzero errno";
  else if (proc->cwd().components !=
           std::vector<std::string>{std::string(sim::FileSystem::kScratchDir)})
    bad = "fresh task cwd is not the scratch directory";
  m.release_process(std::move(proc));
  return bad;
}

/// The crash dimension's per-case sequence, shared by the campaign and the
/// standalone repro so `repro --cut` repeats exactly what the campaign did.
/// A counting pass fixes the case's persistence-point count N; `pick(N,
/// per-kind counts)` returns the k values to test.  For each k: arm a cut at
/// point k, re-execute, disarm, reboot if the machine went down, and hand
/// `record(k, verdict, detail)` the verdict.  The executor's own kCaseReset
/// puts the counting pass and every armed pass on identical machine state,
/// which is what makes the sequence numbers line up.  Returns the reboots
/// performed.
template <class Pick, class Record>
std::int64_t cut_case(sim::Machine& machine, Executor& executor,
                      const MuT& mut, std::span<const TestValue* const> tuple,
                      std::uint64_t index, Pick&& pick, Record&& record) {
  sim::MutationHub& hub = machine.mutations();
  std::int64_t reboots = 0;
  const auto run = [&] {
    executor.run_case(mut, tuple, static_cast<std::int64_t>(index));
  };
  const auto reboot_if_crashed = [&] {
    if (!machine.crashed()) return;
    machine.restore(sim::RestoreLevel::kReboot);
    ++reboots;
  };

  hub.reset_counts();
  hub.set_counting(true);
  run();
  hub.set_counting(false);
  const std::uint64_t points = hub.seq();
  const std::vector<std::uint64_t> cuts = pick(points, hub.counts());
  reboot_if_crashed();  // the case crashed organically

  for (const std::uint64_t k : cuts) {
    hub.reset_counts();
    hub.arm(sim::FaultPlan{k});
    run();
    const std::uint64_t fired = hub.cut_fired_at();
    hub.disarm();
    reboot_if_crashed();
    if (fired != k) {
      std::ostringstream os;
      os << "armed cut at point " << k << " fired at " << fired
         << " (counting pass saw " << points << " points)";
      record(k, CrashVerdict::kNoCut, os.str());
    } else {
      std::string detail = first_violation(machine);
      const CrashVerdict verdict = detail.empty()
                                       ? CrashVerdict::kConsistent
                                       : CrashVerdict::kInconsistent;
      record(k, verdict, std::move(detail));
    }
  }
  return reboots;
}

}  // namespace

std::string_view crash_verdict_name(CrashVerdict v) noexcept {
  switch (v) {
    case CrashVerdict::kConsistent:
      return "consistent";
    case CrashVerdict::kInconsistent:
      return "inconsistent";
    case CrashVerdict::kNoCut:
      return "no_cut";
  }
  return "?";
}

Plan crash_plan_for(sim::OsVariant variant, const Registry& registry,
                    const CrashOptions& opt) {
  Plan plan;
  plan.variant = variant;
  for (const MuT* m : registry.for_variant(variant)) {
    if ((opt.group_mask & crash_group_bit(m->group)) == 0) continue;
    plan.muts.push_back(m);
  }
  // Every crash case ends in a reboot (or never crashed at all), so every
  // case boundary is clean: slice freely, no hazard chaining.
  const std::uint64_t slice = std::max<std::uint64_t>(1, opt.shard_cases);
  for (std::size_t mi = 0; mi < plan.muts.size(); ++mi) {
    const MuT* m = plan.muts[mi];
    TupleGenerator gen(*m, opt.cap, opt.seed);
    const std::uint64_t planned = gen.count();
    plan.total_planned += planned;
    std::uint64_t first = 0;
    do {
      const std::uint64_t count = std::min(slice, planned - first);
      Shard s;
      s.index = plan.shards.size();
      s.items.push_back({m, mi, {first, count}, planned});
      plan.shards.push_back(std::move(s));
      first += count;
    } while (first < planned);
  }
  return plan;
}

CrashShardOutcome run_crash_shard(sim::Machine& machine, const Shard& shard,
                                  const CrashOptions& opt) {
  CrashShardOutcome out;
  out.shard_index = shard.index;
  Executor executor(machine);

  for (const ShardItem& item : shard.items) {
    out.partials.push_back({item.mut_index, item.range.first, {}});
    CrashMutStats& stats = out.partials.back().stats;
    stats.mut = item.mut;
    stats.planned = item.planned;
    TupleGenerator gen(*item.mut, opt.cap, opt.seed);
    const std::uint64_t end = item.range.first + item.range.count;

    for (std::uint64_t i = item.range.first; i < end; ++i) {
      const auto pick = [&](std::uint64_t points, const auto& kinds) {
        ++stats.cases_counted;
        stats.points_total += points;
        for (std::size_t k = 0; k < sim::kMutationKindCount; ++k)
          stats.point_counts[k] += kinds[k];
        return select_cuts(points, opt.max_cuts);
      };
      const auto record = [&](std::uint64_t k, CrashVerdict verdict,
                              std::string detail) {
        ++stats.cuts_tested;
        ++out.cuts_tested;
        switch (verdict) {
          case CrashVerdict::kConsistent:
            ++stats.consistent;
            break;
          case CrashVerdict::kInconsistent:
            ++stats.inconsistent;
            break;
          case CrashVerdict::kNoCut:
            ++stats.no_cut;
            break;
        }
        if (verdict != CrashVerdict::kConsistent)
          stats.findings.push_back({i, k, verdict, std::move(detail)});
      };
      out.reboots +=
          cut_case(machine, executor, *item.mut, gen.tuple(i), i, pick, record);
    }
  }
  // Leave the pooled machine mode-clean for its next checkout.
  machine.mutations().full_reset();
  return out;
}

CrashCampaignResult merge_crash_outcomes(const Plan& plan,
                                         std::vector<CrashShardOutcome> out) {
  CrashCampaignResult result;
  result.variant = plan.variant;
  result.stats.resize(plan.muts.size());
  for (std::size_t i = 0; i < plan.muts.size(); ++i)
    result.stats[i].mut = plan.muts[i];

  std::sort(out.begin(), out.end(),
            [](const CrashShardOutcome& a, const CrashShardOutcome& b) {
              return a.shard_index < b.shard_index;
            });

  for (CrashShardOutcome& o : out) {
    result.total_cuts += o.cuts_tested;
    result.reboots += o.reboots;
    for (CrashShardOutcome::MutPartial& p : o.partials) {
      CrashMutStats& dst = result.stats.at(p.mut_index);
      const CrashMutStats& src = p.stats;
      dst.planned = src.planned;
      dst.cases_counted += src.cases_counted;
      dst.points_total += src.points_total;
      dst.cuts_tested += src.cuts_tested;
      dst.consistent += src.consistent;
      dst.inconsistent += src.inconsistent;
      dst.no_cut += src.no_cut;
      for (std::size_t k = 0; k < sim::kMutationKindCount; ++k)
        dst.point_counts[k] += src.point_counts[k];
      // Ranges of one MuT occupy consecutive shards in ascending case order,
      // so appending per shard keeps findings in case order.
      dst.findings.insert(dst.findings.end(), src.findings.begin(),
                          src.findings.end());
    }
  }
  for (const CrashMutStats& s : result.stats) {
    result.total_points += s.points_total;
    result.consistent += s.consistent;
    result.inconsistent += s.inconsistent;
    result.no_cut += s.no_cut;
  }
  return result;
}

CrashCampaignResult run_crash_engine(sim::OsVariant variant,
                                     const Registry& registry,
                                     const CrashOptions& opt) {
  const Plan plan = crash_plan_for(variant, registry, opt);
  return merge_crash_outcomes(
      plan, execute_plan<CrashShardOutcome>(plan, opt, run_crash_shard));
}

CrashVerdict crash_probe_case(sim::OsVariant variant, const MuT& mut,
                              std::uint64_t case_index, std::uint64_t cut_at,
                              std::uint64_t cap, std::uint64_t seed,
                              std::string* detail) {
  TupleGenerator gen(mut, cap, seed);
  if (case_index >= gen.count()) {
    if (detail) *detail = "case index beyond the generator's count";
    return CrashVerdict::kNoCut;
  }
  sim::Machine machine(variant);
  Executor executor(machine);
  CrashVerdict verdict = CrashVerdict::kNoCut;
  cut_case(
      machine, executor, mut, gen.tuple(case_index), case_index,
      [cut_at](std::uint64_t, const auto&) {
        return std::vector<std::uint64_t>{cut_at};
      },
      [&](std::uint64_t, CrashVerdict v, std::string d) {
        verdict = v;
        if (detail) *detail = std::move(d);
      });
  return verdict;
}

std::string diff_crash_results(const CrashCampaignResult& a,
                               const CrashCampaignResult& b) {
  std::ostringstream os;
  if (a.variant != b.variant) {
    os << "variant differs";
    return os.str();
  }
  if (a.stats.size() != b.stats.size()) {
    os << "MuT count " << a.stats.size() << " vs " << b.stats.size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    const CrashMutStats& x = a.stats[i];
    const CrashMutStats& y = b.stats[i];
    const std::string name = x.mut ? x.mut->name : "?";
    if ((x.mut ? x.mut->name : "") != (y.mut ? y.mut->name : "")) {
      os << "MuT #" << i << " name differs";
      return os.str();
    }
    const auto field = [&](const char* what, std::uint64_t u,
                           std::uint64_t v) {
      os << name << ": " << what << " " << u << " vs " << v;
    };
    if (x.planned != y.planned) {
      field("planned", x.planned, y.planned);
      return os.str();
    }
    if (x.cases_counted != y.cases_counted) {
      field("cases_counted", x.cases_counted, y.cases_counted);
      return os.str();
    }
    if (x.points_total != y.points_total) {
      field("points_total", x.points_total, y.points_total);
      return os.str();
    }
    if (x.cuts_tested != y.cuts_tested) {
      field("cuts_tested", x.cuts_tested, y.cuts_tested);
      return os.str();
    }
    if (x.consistent != y.consistent) {
      field("consistent", x.consistent, y.consistent);
      return os.str();
    }
    if (x.inconsistent != y.inconsistent) {
      field("inconsistent", x.inconsistent, y.inconsistent);
      return os.str();
    }
    if (x.no_cut != y.no_cut) {
      field("no_cut", x.no_cut, y.no_cut);
      return os.str();
    }
    if (x.point_counts != y.point_counts) {
      os << name << ": per-kind point counts differ";
      return os.str();
    }
    if (x.findings != y.findings) {
      os << name << ": findings differ";
      return os.str();
    }
  }
  if (a.total_points != b.total_points) {
    os << "total_points " << a.total_points << " vs " << b.total_points;
    return os.str();
  }
  if (a.total_cuts != b.total_cuts) {
    os << "total_cuts " << a.total_cuts << " vs " << b.total_cuts;
    return os.str();
  }
  if (a.reboots != b.reboots) {
    os << "reboots " << a.reboots << " vs " << b.reboots;
    return os.str();
  }
  return {};
}

}  // namespace ballista::core
