#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "digest.h"
#include "rpc/channel.h"
#include "rpc/server.h"

namespace perfbench {

namespace rpc = ballista::rpc;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string_view token(sim::OsVariant v) {
  switch (v) {
    case sim::OsVariant::kWin95: return "win95";
    case sim::OsVariant::kWin98: return "win98";
    case sim::OsVariant::kWin98SE: return "win98se";
    case sim::OsVariant::kWinNT4: return "nt4";
    case sim::OsVariant::kWin2000: return "win2000";
    case sim::OsVariant::kWinCE: return "wince";
    case sim::OsVariant::kLinux: return "linux";
  }
  return "?";
}

std::vector<sim::OsVariant> all_variants() {
  return {sim::kAllVariants.begin(), sim::kAllVariants.end()};
}

/// Campaign end minus the jobs-th-last shard completion: the stretch in
/// which fewer shards than workers remained, i.e. the join barrier's tail.
double tail_seconds(std::vector<Clock::time_point> done, Clock::time_point end,
                    Clock::time_point start, unsigned jobs) {
  if (done.size() < jobs) return std::chrono::duration<double>(end - start).count();
  std::sort(done.begin(), done.end());
  return std::chrono::duration<double>(end - done[done.size() - jobs]).count();
}

}  // namespace

// Why each workload exists is recorded with it in BENCHMARK.json and
// README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"paper7_j4", Kind::kCampaign, 4, all_variants(), std::nullopt},
      {"clib7_j1", Kind::kCampaign, 1, all_variants(), core::ApiKind::kCLib},
      {"crash7_j4", Kind::kCrash, 4, all_variants(), std::nullopt},
      {"service4_j4", Kind::kService, 4,
       {sim::OsVariant::kWinNT4, sim::OsVariant::kWin95,
        sim::OsVariant::kWin2000, sim::OsVariant::kLinux},
       std::nullopt},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

core::CampaignOptions campaign_options(const Workload& w, const Params& p) {
  core::CampaignOptions opt;
  opt.cap = core::kDefaultCap;
  opt.seed = p.seed;
  opt.jobs = w.jobs;
  opt.only_api = w.only_api;
  return opt;
}

core::CrashOptions crash_options(const Workload& w, const Params& p) {
  core::CrashOptions opt;
  opt.cap = core::kDefaultCap;
  opt.seed = p.seed;
  opt.jobs = w.jobs;
  return opt;
}

std::string unit_key(const Workload& w, const Params& p, sim::OsVariant v) {
  std::string key = w.kind == Kind::kCrash ? "crash" : "campaign";
  key += '-';
  key += token(v);
  if (w.kind == Kind::kCrash) {
    key += "-cuts" + std::to_string(crash_options(w, p).max_cuts);
  } else {
    key += w.only_api == core::ApiKind::kCLib ? "-clib" : "-all";
  }
  key += "-seed" + std::to_string(p.seed);
  return key;
}

std::uint64_t reference_digest(const Workload& w, const Params& p,
                               const harness::World& world, sim::OsVariant v) {
  if (w.kind == Kind::kCrash) {
    core::CrashOptions opt = crash_options(w, p);
    opt.jobs = 1;
    return digest(core::run_crash_engine(v, world.registry, opt));
  }
  core::CampaignOptions opt = campaign_options(w, p);
  opt.jobs = 1;
  return digest(core::Campaign::run_sequential(v, world.registry, opt));
}

Setup set_up(const Workload& w, const Params& p) {
  Setup s;
  auto t0 = Clock::now();
  s.world = harness::build_world();
  s.world_s = since(t0);

  t0 = Clock::now();
  for (sim::OsVariant v : w.variants) {
    const sim::Machine machine(v);
    (void)machine;
  }
  s.boot_s = since(t0);

  if (w.kind == Kind::kService) {
    t0 = Clock::now();
    rpc::ServerConfig cfg;
    cfg.log_dir = p.scratch_dir;
    cfg.jobs = w.jobs;
    cfg.quota = kServiceQuota;
    const rpc::CampaignServer server(s.world->registry, cfg);
    (void)server;
    s.server_s = since(t0);
  }
  return s;
}

namespace {

void run_campaigns(const Workload& w, const Params& p,
                   const harness::World& world, Rep& rep) {
  for (sim::OsVariant v : w.variants) {
    UnitOutcome u{unit_key(w, p, v), std::nullopt, {}};
    core::CampaignOptions opt = campaign_options(w, p);
    core::EngineMetrics m;
    opt.metrics = &m;
    std::vector<Clock::time_point> done;
    opt.on_shard_complete = [&done](const core::ShardOutcome&) {
      done.push_back(Clock::now());
    };
    try {
      const auto t0 = Clock::now();
      const core::CampaignResult r = core::Campaign::run(v, world.registry, opt);
      const auto t1 = Clock::now();
      rep.tail_s += tail_seconds(std::move(done), t1, t0, w.jobs);
      u.digest = digest(r);
      rep.cases += r.total_cases;
      rep.execute_s += m.execute_seconds;
      rep.engine.plan_seconds += m.plan_seconds;
      rep.engine.execute_seconds += m.execute_seconds;
      rep.engine.merge_seconds += m.merge_seconds;
      rep.engine.shards += m.shards;
      rep.engine.contended_steals += m.contended_steals;
      rep.engine.machine_rebuilds += m.machine_rebuilds;
      rep.shards += m.shards;
    } catch (const std::exception& e) {
      u.error = e.what();
    }
    rep.units.push_back(std::move(u));
  }
}

void run_crash(const Workload& w, const Params& p, const harness::World& world,
               Rep& rep) {
  for (sim::OsVariant v : w.variants) {
    UnitOutcome u{unit_key(w, p, v), std::nullopt, {}};
    core::CrashOptions opt = crash_options(w, p);
    std::vector<Clock::time_point> done;
    opt.on_shard_complete = [&done](const core::CrashShardOutcome&) {
      done.push_back(Clock::now());
    };
    try {
      const auto t0 = Clock::now();
      const core::CrashCampaignResult r =
          core::run_crash_engine(v, world.registry, opt);
      const auto t1 = Clock::now();
      rep.tail_s += tail_seconds(std::move(done), t1, t0, w.jobs);
      u.digest = digest(r);
      for (const core::CrashMutStats& s : r.stats) rep.cases += s.cases_counted;
      rep.execute_s += std::chrono::duration<double>(t1 - t0).count();
    } catch (const std::exception& e) {
      u.error = e.what();
    }
    rep.units.push_back(std::move(u));
  }
}

void run_service(const Workload& w, const Params& p,
                 const harness::World& world, Rep& rep) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(p.scratch_dir) / "service";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto fail_all = [&](const std::string& why) {
    rep.units.clear();
    for (sim::OsVariant v : w.variants)
      rep.units.push_back({unit_key(w, p, v), std::nullopt, why});
  };
  try {
    const auto t0 = Clock::now();
    rpc::ServerConfig cfg;
    cfg.log_dir = dir.string();
    cfg.jobs = w.jobs;
    cfg.quota = kServiceQuota;
    rpc::CampaignServer server(world.registry, cfg);

    // Scheduling width is the server's; the spec a client sends has no jobs.
    const core::CampaignOptions opt = campaign_options(w, p);
    std::vector<std::unique_ptr<rpc::Channel>> channels;
    std::vector<std::unique_ptr<rpc::CampaignClient>> clients;
    for (sim::OsVariant v : w.variants) {
      channels.push_back(std::make_unique<rpc::Channel>());
      server.bind(channels.back()->a());
      clients.push_back(std::make_unique<rpc::CampaignClient>(
          channels.back()->b(), world.registry, v, opt));
      if (!clients.back()->hello())
        throw std::runtime_error("hello refused by backpressure");
    }

    std::vector<Clock::time_point> received;
    std::vector<std::size_t> seen(clients.size(), 0);
    std::uint64_t idle = 0;
    for (;;) {
      const bool progressed = server.step();
      ++rep.server_steps;
      bool pending = false;
      for (std::size_t i = 0; i < clients.size(); ++i) {
        rpc::CampaignClient& c = *clients[i];
        if (!c.poll())
          throw std::runtime_error("session error: " + c.error()->message);
        for (; seen[i] < c.outcomes_received(); ++seen[i])
          received.push_back(Clock::now());
        if (!c.complete()) pending = true;
      }
      if (!pending) break;
      idle = progressed ? 0 : idle + 1;
      if (idle > 64) throw std::runtime_error("service made no progress");
    }
    const auto t1 = Clock::now();
    rep.execute_s += std::chrono::duration<double>(t1 - t0).count();
    rep.tail_s += tail_seconds(std::move(received), t1, t0, w.jobs);
    rep.shards += server.shards_executed();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      UnitOutcome u{unit_key(w, p, w.variants[i]), std::nullopt, {}};
      if (const std::optional<core::CampaignResult> r = clients[i]->result()) {
        u.digest = digest(*r);
        rep.cases += r->total_cases;
      } else {
        u.error = "client could not merge a complete result";
      }
      rep.frames +=
          channels[i]->a().frames_sent() + channels[i]->b().frames_sent();
      rep.units.push_back(std::move(u));
    }
  } catch (const std::exception& e) {
    fail_all(e.what());
  }
  fs::remove_all(dir);
}

/// CPU seconds (user + sys) consumed by this process so far.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

Rep run_once(const Workload& w, const Params& p, const harness::World& world) {
  Rep rep;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  switch (w.kind) {
    case Kind::kCampaign:
      run_campaigns(w, p, world, rep);
      break;
    case Kind::kCrash:
      run_crash(w, p, world, rep);
      break;
    case Kind::kService:
      run_service(w, p, world, rep);
      break;
  }
  rep.wall_s = since(t0);
  rep.cpu_s = process_cpu_seconds() - cpu0;
  return rep;
}


double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
