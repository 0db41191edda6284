// The benchmark's four workloads and their untraced runs.  Every run drives
// the production entry points from outside — harness::build_world,
// core::Campaign::run, core::run_crash_engine, rpc::CampaignServer and
// rpc::CampaignClient — and times only what crosses their public boundaries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.h"
#include "core/crashplan.h"
#include "core/sched.h"
#include "harness/world.h"

namespace perfbench {

namespace core = ballista::core;
namespace sim = ballista::sim;
namespace harness = ballista::harness;

/// The paper's campaign seed, and the held-out seed: no change measured with
/// this benchmark may be tuned on it, so that a claimed gain can be confirmed
/// on inputs it has not seen.  Both have committed reference digests in
/// reference/digests.txt.
inline constexpr std::uint64_t kDefaultSeed = 0x8a11157a;
inline constexpr std::uint64_t kHeldOutSeed = 20000625;

enum class Kind : std::uint8_t { kCampaign, kCrash, kService };

struct Workload {
  std::string_view name;
  Kind kind;
  unsigned jobs;
  std::vector<sim::OsVariant> variants;
  /// kCampaign only: restrict to one API family.
  std::optional<core::ApiKind> only_api;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Per-session scheduling bound of the service workload.
inline constexpr std::uint64_t kServiceQuota = 2;

struct Params {
  std::uint64_t seed = kDefaultSeed;
  /// Writable directory for the service's session logs.
  std::string scratch_dir;
};

/// Options of the production call behind each unit.  Every workload runs the
/// paper's cap, core::kDefaultCap tuples per MuT.
core::CampaignOptions campaign_options(const Workload& w, const Params& p);
core::CrashOptions crash_options(const Workload& w, const Params& p);

/// A unit is one variant campaign (kCampaign, kCrash) or one session
/// (kService).  Its key names the campaign it runs, so workloads running the
/// same campaign share one reference digest (a service session is
/// bit-identical to a solo campaign on the same options).
std::string unit_key(const Workload& w, const Params& p, sim::OsVariant v);

using Digests = std::map<std::string, std::uint64_t>;

/// The independent slow path for one unit: Campaign::run_sequential for
/// campaigns and sessions, the jobs-1 crash engine for crash campaigns.
std::uint64_t reference_digest(const Workload& w, const Params& p,
                               const harness::World& world, sim::OsVariant v);

struct Setup {
  std::unique_ptr<harness::World> world;
  double world_s = 0.0;
  /// One sim::Machine boot per variant the workload runs.
  double boot_s = 0.0;
  /// kService: one CampaignServer construction.
  double server_s = 0.0;
  double total_s() const noexcept { return world_s + boot_s + server_s; }
};
Setup set_up(const Workload& w, const Params& p);

struct UnitOutcome {
  std::string key;
  std::optional<std::uint64_t> digest;  // nullopt: the unit threw
  std::string error;
};

/// One untraced run of the whole workload.
struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // user + sys of the whole process
  std::uint64_t cases = 0;
  std::vector<UnitOutcome> units;

  // Observability read off the public boundaries (traced mode uses it).
  /// Engine execute seconds: EngineMetrics for campaigns, the call's wall
  /// time for crash campaigns, the service loop's wall time for the service.
  double execute_s = 0.0;
  core::EngineMetrics engine;  // summed over units (campaigns only)
  /// Σ over units of campaign end minus the jobs-th-last shard completion.
  double tail_s = 0.0;
  std::uint64_t server_steps = 0;
  std::uint64_t frames = 0;  // frames sent by server and clients
  std::uint64_t shards = 0;
};

/// One run of the whole workload.  Besides EngineMetrics, the production
/// calls carry only a timestamp per completed shard (on_shard_complete, or
/// stream receipt for the service), for tail_s.
Rep run_once(const Workload& w, const Params& p, const harness::World& world);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
