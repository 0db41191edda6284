#include "rpc/harness_rpc.h"

#include <sstream>

#include "core/executor.h"
#include "core/generator.h"
#include "core/report.h"

namespace ballista::rpc {

namespace {

void apply_code(core::MutStats& stats, core::CaseCode code,
                bool any_exceptional) {
  ++stats.executed;
  stats.case_codes.push_back(code);
  switch (code) {
    case core::CaseCode::kAbort: ++stats.aborts; break;
    case core::CaseCode::kRestart: ++stats.restarts; break;
    case core::CaseCode::kCatastrophic: break;
    case core::CaseCode::kHindering:
      ++stats.passes;
      ++stats.hindering;
      break;
    case core::CaseCode::kPassNoError:
      ++stats.passes;
      if (any_exceptional) ++stats.silent_candidates;
      break;
    case core::CaseCode::kPassWithError:
      ++stats.passes;
      break;
  }
}

bool tuple_has_exceptional(const core::TupleGenerator& gen,
                           std::uint64_t index) {
  for (const core::TestValue* v : gen.tuple(index))
    if (v->exceptional) return true;
  return false;
}

}  // namespace

CeFileDropClient::CeFileDropClient(sim::Machine& target,
                                   const core::Registry& registry,
                                   std::uint64_t cap, std::uint64_t seed)
    : target_(target), registry_(registry), cap_(cap), seed_(seed) {}

bool CeFileDropClient::execute(const TestRequest& request) {
  const core::MuT* mut = registry_.find(request.mut_name);
  if (mut == nullptr) return true;
  core::TupleGenerator gen(*mut, cap_, seed_);
  const auto tuple = gen.tuple(request.case_index);
  core::Executor executor(target_);
  const core::CaseResult r = executor.run_case(
      *mut, tuple, static_cast<std::int64_t>(request.case_index));

  // "taking five to ten seconds per test case" (§3.2).
  target_.advance_ticks(7'000);

  if (target_.crashed()) return false;  // no result file ever appears

  auto& fs = target_.fs();
  const auto path = fs.parse(std::string("/tmp/") + std::string(kResultFile),
                             sim::FileSystem::root_path());
  auto node = fs.create_file(path, false, true);
  if (node == nullptr) {
    // The test case itself may have renamed or removed the scratch
    // directory; restore the canonical tree so reporting can continue.
    target_.restore(sim::RestoreLevel::kCaseReset);
    node = fs.create_file(path, false, true);
  }
  // "<name> <index> <code> <event counters> <probe counters>": the
  // trace-spine counters travel in the same drop file as the case code.
  std::string line = request.mut_name + " " +
                     std::to_string(request.case_index) + " " +
                     std::to_string(static_cast<int>(core::case_code(r)));
  for (std::uint64_t c : r.events.n) line += " " + std::to_string(c);
  for (std::uint64_t c : r.events.probe) line += " " + std::to_string(c);
  node->data().assign(line.begin(), line.end());
  return true;
}

core::CampaignResult run_ce_file_drop_campaign(const core::Registry& registry,
                                               std::uint64_t cap,
                                               std::uint64_t seed) {
  core::CampaignResult result;
  result.variant = sim::OsVariant::kWinCE;
  sim::Machine target(sim::OsVariant::kWinCE);
  CeFileDropClient client(target, registry, cap, seed);

  struct DropLine {
    core::CaseCode code;
    trace::Counters counters;
  };
  auto read_result_file = [&]() -> std::optional<DropLine> {
    auto& fs = target.fs();
    const auto path =
        fs.parse(std::string("/tmp/") +
                     std::string(CeFileDropClient::kResultFile),
                 sim::FileSystem::root_path());
    auto node = fs.resolve(path);
    if (node == nullptr) return std::nullopt;
    const std::string text(node->data().begin(), node->data().end());
    fs.remove_file(path);
    std::istringstream in(text);
    std::string name;
    std::uint64_t index = 0;
    int code = -1;
    if (!(in >> name >> index >> code)) return std::nullopt;
    if (code < 0 || code > static_cast<int>(core::CaseCode::kHindering))
      return std::nullopt;
    DropLine out{static_cast<core::CaseCode>(code), {}};
    for (std::size_t i = 0; i < trace::kEventKindCount; ++i)
      if (!(in >> out.counters.n[i])) return std::nullopt;
    for (std::size_t i = 0; i < trace::kProbeResultCount; ++i)
      if (!(in >> out.counters.probe[i])) return std::nullopt;
    return out;
  };

  for (const core::MuT* mut : registry.for_variant(sim::OsVariant::kWinCE)) {
    if (!core::group_descriptor(mut->group).in_default_campaign) continue;
    core::MutStats stats;
    stats.mut = mut;
    core::TupleGenerator gen(*mut, cap, seed);
    stats.planned = gen.count();
    for (std::uint64_t i = 0; i < gen.count(); ++i) {
      const bool alive = client.execute({mut->name, i});
      ++result.total_cases;
      if (!alive) {
        // No result file will appear: the NT host concludes the target died.
        stats.catastrophic = true;
        stats.crash_case = static_cast<std::int64_t>(i);
        stats.crash_detail = target.crash_reason();
        apply_code(stats, core::CaseCode::kCatastrophic, true);
        target.restore(sim::RestoreLevel::kReboot);
        ++result.reboots;
        // Single-test reproduction after reboot.
        const bool again = client.execute({mut->name, i});
        stats.crash_reproducible_single = !again;
        if (!again) {
          target.restore(sim::RestoreLevel::kReboot);
          ++result.reboots;
        }
        break;
      }
      const auto line = read_result_file();
      if (!line) continue;  // lost result: skip (kept visible in planned)
      const bool exceptional = tuple_has_exceptional(gen, i);
      apply_code(stats, line->code, exceptional);
      stats.event_counts += line->counters;
    }
    result.stats.push_back(std::move(stats));
  }
  for (const core::MutStats& s : result.stats)
    result.event_counters += s.event_counts;
  return result;
}

}  // namespace ballista::rpc
