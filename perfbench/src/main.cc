// The repository benchmark's program (run through ../run.py; see README.md).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --ref FILE...
//   perfbench --workload W --seed N --ref FILE... --make-ref OUT
//
// --trace 0 measures the end-to-end metrics over untraced runs of the
// workload for S seconds; --trace 1 makes the traced run and reports the
// per-layer metrics.  Every unit either run produces is checked against its
// reference digest.  --make-ref computes, by the independent slow paths, the
// reference digest of every unit of W that no --ref file holds and appends
// them to OUT.  The last line of standard output is the result object.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "digest.h"
#include "stats.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kReportableBuild = false;
#else
constexpr bool kReportableBuild = true;
#endif

struct MetricDef {
  const char* name;
  const char* unit;
};

// Units of every metric this program reports; BENCHMARK.json names them
// again and tests/test_contract.py holds the two lists together.
constexpr MetricDef kEndToEnd[] = {
    {"cases_per_s", "1/s"},
    {"cpu_ms_per_kcase", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.ns_per_case", "ns"},
    {"plan.ms", "ms"},
    {"sched.merge_ms", "ms"},
    {"sched.shards", "count"},
    {"sched.contended_steals", "count"},
    {"sched.machine_rebuilds", "count"},
    {"sched.parallel_eff", "frac"},
    {"sched.tail_s", "s"},
    {"shard.ms_p50", "ms"},
    {"shard.ms_p99", "ms"},
    {"shard.samples", "count"},
    {"restore.ns_per_case", "ns"},
    {"restore.fixture_rebuilds", "count"},
    {"reboot.us_per_reboot", "us"},
    {"process.acquire_ns_per_case", "ns"},
    {"process.release_ns_per_case", "ns"},
    {"process.built", "count"},
    {"process.recycled", "count"},
    {"materialize.ns_per_case", "ns"},
    {"mut.clib.ns_per_case", "ns"},
    {"mut.win32.ns_per_case", "ns"},
    {"mut.posix.ns_per_case", "ns"},
    {"crt.ns_per_build", "ns"},
    {"crt.builds_per_case", "count"},
    {"classify.ns_per_case", "ns"},
    {"trace.emit_ns_per_case", "ns"},
    {"trace.events_per_case", "count"},
    {"mutation.points_per_case", "count"},
    {"crash.us_per_cut", "us"},
    {"crash.verify_us_per_cut", "us"},
    {"store.append_us_p50", "us"},
    {"store.bytes_per_case", "B"},
    {"rpc.encode_ns_per_frame", "ns"},
    {"rpc.decode_ns_per_frame", "ns"},
    {"rpc.frames_per_shard", "count"},
    {"server.steps", "count"},
    {"setup.world_ms", "ms"},
    {"setup.boot_ms", "ms"},
    {"case.untraced_ns", "ns"},
    {"case.unaccounted_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

/// Set-ups taken after the warm-up and after each repetition; setup_s is the
/// median of all of them.  A set-up takes well under a millisecond, so many,
/// spread over the whole run, are needed for a median that repeats across
/// runs.
constexpr int kSetupsPerRep = 11;
/// Set-ups after a traced run, for setup.world_ms and setup.boot_ms.
constexpr int kTracedSetups = 51;
/// Fewest measured repetitions behind an end-to-end median.
constexpr std::size_t kMinReps = 3;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --ref FILE [--ref FILE...] "
               "[--make-ref OUT] [--scratch DIR] [--commit C] "
               "[--source-hash H]\nworkloads:",
               why);
  for (const Workload& w : workloads())
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

/// "key hex" lines; later files never override earlier ones.
bool load_refs(const std::string& path, Digests& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string key, value;
  while (in >> key >> value) {
    std::uint64_t d = 0;
    if (!parse_u64(("0x" + value).c_str(), &d)) return false;
    out.emplace(key, d);
  }
  return in.eof();
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  /// Counts every outcome as one attempt or, with `per_unit`, every unit
  /// once, failed if any of its outcomes failed.
  void check(const std::vector<UnitOutcome>& units, const Digests& refs,
             bool per_unit = false) {
    std::vector<std::pair<std::string, std::string>> checked;  // key, why
    for (const UnitOutcome& u : units) {
      std::string why;
      const auto it = refs.find(u.key);
      if (!u.digest)
        why = "failed: " + u.error;
      else if (it == refs.end())
        why = "no reference digest";
      else if (it->second != *u.digest)
        why = "digest " + hex(*u.digest) + " != reference " + hex(it->second);
      const auto seen =
          std::find_if(checked.begin(), checked.end(),
                       [&](const auto& c) { return c.first == u.key; });
      if (!per_unit || seen == checked.end())
        checked.emplace_back(u.key, std::move(why));
      else if (seen->second.empty())
        seen->second = std::move(why);
    }
    for (const auto& [key, why] : checked) {
      ++attempted;
      if (!why.empty() && failed++ == 0) first_failure = key + ": " + why;
    }
  }
};

/// Appends the slow-path reference digest of each unit in `missing` to
/// `out`.  The units are independent campaigns, each on machines of its own,
/// so up to four are computed at once.
bool make_references(const Workload& w, const Params& params,
                     const std::vector<sim::OsVariant>& missing,
                     std::ostream& out) {
  const auto world = harness::build_world();
  std::vector<std::optional<std::uint64_t>> digests(missing.size());
  std::atomic<std::size_t> next{0};
  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
      {missing.size(), 4, std::max(1u, std::thread::hardware_concurrency())}));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (std::size_t k; (k = next.fetch_add(1)) < missing.size();) {
        try {
          digests[k] = reference_digest(w, params, *world, missing[k]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: reference for %s threw: %s\n",
                       unit_key(w, params, missing[k]).c_str(), e.what());
        }
      }
    });
  for (std::thread& t : pool) t.join();
  for (std::size_t k = 0; k < missing.size(); ++k) {
    if (!digests[k]) return false;
    const std::string key = unit_key(w, params, missing[k]);
    out << key << ' ' << hex(*digests[k]) << '\n';
    std::fprintf(stderr, "perfbench: reference %s\n", key.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, make_ref, scratch = ".bench_build/scratch";
  std::string commit = "unknown", source_hash = "unknown";
  std::vector<std::string> ref_files;
  Params params;
  std::uint64_t seconds = 10, trace = 0;
  bool seen_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage("missing value after a flag");
    ++i;
    bool ok = true;
    if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") ok = seen_seed = parse_u64(value, &params.seed);
    else if (flag == "--seconds") ok = parse_u64(value, &seconds) && seconds > 0;
    else if (flag == "--trace") ok = parse_u64(value, &trace) && trace <= 1;
    else if (flag == "--ref") ref_files.emplace_back(value);
    else if (flag == "--make-ref") make_ref = value;
    else if (flag == "--scratch") scratch = value;
    else if (flag == "--commit") commit = value;
    else if (flag == "--source-hash") source_hash = value;
    else return usage("unknown flag");
    if (!ok) return usage("bad flag value");
  }
  const Workload* w = find_workload(workload_name);
  if (w == nullptr) return usage("unknown or missing --workload");
  if (!seen_seed) return usage("--seed is required");
  if (!kReportableBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from an unoptimised or "
                 "sanitizer build\n");
    return 3;
  }

  Digests refs;
  for (const std::string& f : ref_files)
    if (!load_refs(f, refs)) {
      std::fprintf(stderr, "perfbench: cannot read reference file %s\n",
                   f.c_str());
      return 2;
    }

  if (!make_ref.empty()) {
    if (std::filesystem::exists(make_ref) && !load_refs(make_ref, refs)) {
      std::fprintf(stderr, "perfbench: cannot read reference file %s\n",
                   make_ref.c_str());
      return 2;
    }
    std::vector<sim::OsVariant> missing;
    for (sim::OsVariant v : w->variants)
      if (!refs.count(unit_key(*w, params, v))) missing.push_back(v);
    std::ofstream out(make_ref, std::ios::app);
    if (!missing.empty() && !make_references(*w, params, missing, out))
      return 1;
    return out.good() ? 0 : 1;
  }
  for (sim::OsVariant v : w->variants)
    if (!refs.count(unit_key(*w, params, v))) {
      std::fprintf(stderr, "perfbench: no reference digest for %s\n",
                   unit_key(*w, params, v).c_str());
      return 2;
    }

  namespace fs = std::filesystem;
  params.scratch_dir =
      (fs::path(scratch) / ("run-" + std::to_string(::getpid()))).string();
  fs::create_directories(params.scratch_dir);

  std::vector<double> setup_total, setup_world, setup_boot;
  const auto take_setups = [&](int n) {
    for (int k = 0; k < n; ++k) {
      const Setup s = set_up(*w, params);
      setup_total.push_back(s.total_s());
      setup_world.push_back(s.world_s);
      setup_boot.push_back(s.boot_s);
    }
  };
  const Setup setup = set_up(*w, params);
  const harness::World& world = *setup.world;

  Tally tally;
  std::map<std::string, double> metrics;
  std::ostringstream extra;
  std::vector<double> rate;  // cases/s of each measured repetition
  if (trace == 0) {
    tally.check(run_once(*w, params, world).units, refs);  // warm-up
    take_setups(kSetupsPerRep);
    std::vector<double> cpu;
    const auto t0 = Clock::now();
    while (rate.size() < kMinReps ||
           std::chrono::duration<double>(Clock::now() - t0).count() <
               static_cast<double>(seconds)) {
      const Rep r = run_once(*w, params, world);
      tally.check(r.units, refs);
      take_setups(kSetupsPerRep);
      rate.push_back(static_cast<double>(r.cases) / r.wall_s);
      cpu.push_back(r.cpu_s * 1e3 / (static_cast<double>(r.cases) / 1e3));
    }
    metrics["cases_per_s"] = median(rate);
    metrics["cpu_ms_per_kcase"] = median(cpu);
    metrics["setup_s"] = median(setup_total);
    metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    TracedRun tr = run_traced(*w, params, world);
    tally.check(tr.units, refs, /*per_unit=*/true);
    take_setups(kTracedSetups);
    metrics = std::move(tr.metrics);
    metrics["setup.world_ms"] = median(setup_world) * 1e3;
    metrics["setup.boot_ms"] = median(setup_boot) * 1e3;
    extra << ", \"crt_split\": " << (tr.crt_split ? "true" : "false")
          << ", \"copy_mismatched_shards\": " << tr.mismatched_shards;
  }
  fs::remove_all(params.scratch_dir);

  std::ostringstream meta;
  meta << "{\"workload\": " << json_str(w->name) << ", \"seed\": " << params.seed
       << ", \"held_out_seed\": " << kHeldOutSeed
       << ", \"cap\": " << core::kDefaultCap << ", \"jobs\": " << w->jobs
       << ", \"trace\": " << trace
       << ", \"seconds\": " << seconds << ", \"reps\": " << rate.size()
       << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"commit\": " << json_str(commit)
       << ", \"source_hash\": " << json_str(source_hash)
       << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << json_str(__VERSION__) << extra.str()
       << ", \"rep_cases_per_s\": [";
  for (std::size_t k = 0; k < rate.size(); ++k)
    meta << (k ? ", " : "") << fmt(rate[k]);
  meta << "]"
       << ", \"failed_frac\": "
       << fmt(static_cast<double>(tally.failed) /
              static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1)))
       << ", \"first_failure\": " << json_str(tally.first_failure) << "}";
  std::cout << "perfbench-meta " << meta.str() << "\n";
  if (tally.failed != 0)
    std::fprintf(stderr, "perfbench: %llu of %llu units failed; first: %s\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted),
                 tally.first_failure.c_str());

  std::ostringstream out;
  out << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : trace == 0 ? std::span<const MetricDef>(kEndToEnd)
                                       : std::span<const MetricDef>(kPerLayer)) {
    out << (first ? "" : ", ") << json_str(d.name) << ": {\"value\": "
        << fmt(metrics.count(d.name) ? metrics.at(d.name) : 0.0)
        << ", \"unit\": " << json_str(d.unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return tally.failed == 0 ? 0 : 1;
}
