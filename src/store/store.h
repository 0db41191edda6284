// The persistent campaign store: a crash-safe, append-only, checksummed log
// of campaign results (.blog), plus the resume and load drivers built on it.
//
// Writing: CampaignStore wraps a stdio stream; every completed shard is
// encoded as one CRC-guarded frame and flushed before append_shard returns,
// so a process killed at any instant leaves a log whose valid prefix holds
// every shard that was reported complete.  Records land in completion order
// (schedule-dependent); determinism lives in the merge, which folds them in
// plan order exactly like the in-memory engine.
//
// Reading: read_store never throws and never trusts a byte it has not
// checksummed.  A torn tail (kTruncated) or a bit-flipped frame (kCorrupt)
// degrades to the longest valid prefix; validation of decoded records
// against the re-derived plan happens in the resume/load drivers, which
// treat the first implausible record as the end of the usable prefix.
//
// Resuming: run_with_store re-plans (bit-identical by construction — same
// fingerprint), replays the log's shard outcomes through the engine's
// shard_cache hook, executes only the missing shards (appending them to the
// same log), and merges.  The result is indistinguishable from an
// uninterrupted run at any --jobs.  One driver serves both record flavors:
// BasicResumableLog, the resume driver and the load driver are templates
// over the shard-outcome type (ShardOutcome for robustness campaigns,
// CrashShardOutcome for crash enumeration), instantiated for exactly those
// two in store.cc.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/crashplan.h"
#include "core/sched.h"
#include "store/format.h"

namespace ballista::store {

enum class ReadStatus : std::uint8_t {
  kOk,         // every frame verified (complete or still being written)
  kTruncated,  // clean cut mid-frame: valid prefix recovered
  kCorrupt,    // CRC/payload validation failed: valid prefix recovered
  kBadHeader,  // magic/version/header record unusable: nothing recovered
};

std::string_view read_status_name(ReadStatus s) noexcept;

/// Everything the reader could salvage from a log.
struct StoreContents {
  RunHeader header;
  /// Decoded shard records in append (completion) order.  MutStats::mut is
  /// left null — the resume/load drivers rebind it against the plan.
  std::vector<core::ShardOutcome> outcomes;
  /// Crash-enumeration shard records (header.crash_mode == 1 logs only; a
  /// log never mixes the two record flavors).
  std::vector<core::CrashShardOutcome> crash_outcomes;
  /// kRunComplete seen: merged totals follow.
  bool complete = false;
  std::uint64_t complete_total_cases = 0;
  std::int64_t complete_reboots = 0;
  trace::Counters complete_counters;
  ReadStatus status = ReadStatus::kBadHeader;
  std::string error;  // human-readable when status != kOk
  /// Byte length of the recovered prefix; resuming truncates here first.
  std::uint64_t valid_bytes = 0;
};

/// Parses an in-memory log image (the fuzz tests drive this directly).
StoreContents read_store(const std::vector<std::uint8_t>& bytes);
/// Reads and parses `path`; unreadable files yield kBadHeader + error.
StoreContents read_store_file(const std::string& path);

// --- record codecs (exposed for tests and the bench) -------------------------

std::vector<std::uint8_t> encode_shard_outcome(const core::ShardOutcome& o);
/// Strict decode of one kShardOutcome payload; false on any malformation.
bool decode_shard_outcome(const std::uint8_t* payload, std::size_t size,
                          core::ShardOutcome& out);

std::vector<std::uint8_t> encode_crash_shard_outcome(
    const core::CrashShardOutcome& o);
/// Strict decode of one kCrashOutcome payload; false on any malformation.
bool decode_crash_shard_outcome(const std::uint8_t* payload, std::size_t size,
                                core::CrashShardOutcome& out);

/// The header a crash-enumeration campaign stamps on the plan crash_plan_for
/// derives from `opt` (crash_mode = 1; the base-campaign-only knobs
/// record_cases/repro_pass are pinned to 0).
RunHeader make_crash_run_header(const core::Plan& plan,
                                const core::CrashOptions& opt);

/// Append-only writer.  All methods return false (and latch fail()) on I/O
/// error; nothing throws.
class CampaignStore {
 public:
  /// Creates/truncates `path` and writes magic + version + the header frame.
  static std::unique_ptr<CampaignStore> create(const std::string& path,
                                               const RunHeader& header,
                                               std::string* error);
  /// Reopens `path` for appending after its recovered valid prefix.  The
  /// torn tail (anything past `valid_bytes`) is cut off first.
  static std::unique_ptr<CampaignStore> open_append(const std::string& path,
                                                    std::uint64_t valid_bytes,
                                                    std::string* error);
  ~CampaignStore();
  CampaignStore(const CampaignStore&) = delete;
  CampaignStore& operator=(const CampaignStore&) = delete;

  /// Frames, appends and flushes one completed shard (a kShardOutcome or a
  /// kCrashOutcome record).
  bool append_shard(const core::ShardOutcome& outcome);
  bool append_shard(const core::CrashShardOutcome& outcome);
  /// Appends the completion marker with the merged totals.  A crash log's
  /// total_cases slot carries total_cuts and its event-counter slots are zero
  /// (crash logs never serialize traces).
  bool append_complete(const core::CampaignResult& result);
  bool append_complete(const core::CrashCampaignResult& result);

  bool fail() const noexcept { return failed_; }

 private:
  explicit CampaignStore(std::FILE* f) : f_(f) {}
  bool write_frame(RecordType type, const std::vector<std::uint8_t>& payload);

  std::FILE* f_ = nullptr;
  bool failed_ = false;
};

/// FNV-1a over the header's canonical encoding: one u64 naming a campaign's
/// identity (catalog hashes + plan parameters).  The campaign service keys
/// its session table and per-session log files on this.
std::uint64_t run_fingerprint(const RunHeader& h);

/// Incremental create-or-resume access to one campaign's log: the recovery,
/// fingerprint-check, cache-building and append machinery of the resume
/// driver, exposed so long-lived callers (the campaign server streams shards
/// into many of these at once) can drive the engine hooks themselves.
template <class Outcome>
class BasicResumableLog {
 public:
  using Result = typename Outcome::Result;

  enum class Mode : std::uint8_t {
    kCreate,          // fresh log; truncates whatever was at `path`
    kResume,          // existing log required; recover its valid prefix
    kCreateOrResume,  // resume if `path` exists, else create
  };
  struct Opened {
    std::unique_ptr<BasicResumableLog> log;  // null on failure
    std::string error;                       // set when !log
    /// What the reader said about an existing log (kOk for fresh creates).
    ReadStatus status = ReadStatus::kOk;
  };
  /// Opens `path` for (variant, plan, header).  Resuming fails cleanly on a
  /// damaged header or a fingerprint mismatch — an existing foreign log is
  /// never truncated, even under kCreateOrResume.
  static Opened open(const std::string& path, const core::Plan& plan,
                     const RunHeader& header, Mode mode);

  const std::string& path() const noexcept { return path_; }
  /// Plan-consistent shard outcomes recovered from the log, keyed by shard
  /// index, per-MuT stats rebound to the plan's MuTs.  Feed to the engine's
  /// shard_cache; cached shards must not be re-appended.
  const std::map<std::size_t, Outcome>& cached() const noexcept {
    return cache_;
  }
  /// The recovered log already carried a completion marker.
  bool recovered_complete() const noexcept { return complete_; }
  /// Cross-checks a merged result against the recovered completion marker
  /// (only meaningful when recovered_complete()).
  bool summary_matches(const Result& merged) const noexcept;

  /// Frames, appends and flushes one completed shard.
  bool append_shard(const Outcome& outcome);
  /// Appends the completion marker with the merged totals.
  bool seal(const Result& result);
  bool fail() const noexcept { return !store_ || store_->fail(); }

 private:
  BasicResumableLog() = default;

  std::string path_;
  std::unique_ptr<CampaignStore> store_;  // null once sealed-and-covered
  std::map<std::size_t, Outcome> cache_;
  bool complete_ = false;
  std::uint64_t complete_total_cases_ = 0;
  std::int64_t complete_reboots_ = 0;
  trace::Counters complete_counters_;
};

extern template class BasicResumableLog<core::ShardOutcome>;
extern template class BasicResumableLog<core::CrashShardOutcome>;
using ResumableLog = BasicResumableLog<core::ShardOutcome>;

// --- drivers -----------------------------------------------------------------

template <class Outcome>
struct BasicStoreRun {
  bool ok = false;
  std::string error;  // set when !ok
  typename Outcome::Result result;
  /// Shards adopted from the log vs. executed this invocation.
  std::size_t shards_reused = 0;
  std::size_t shards_executed = 0;
  /// What the reader reported about the log that was opened (resume/load).
  ReadStatus log_status = ReadStatus::kOk;
};
using StoreRun = BasicStoreRun<core::ShardOutcome>;
using CrashStoreRun = BasicStoreRun<core::CrashShardOutcome>;

/// Runs (or resumes) one campaign with the log at `path`.
///   resume == false: create a fresh log, run everything, append each shard
///                    as it completes, seal with the completion marker.
///   resume == true:  recover the log's valid prefix, verify its fingerprint
///                    against (variant, registry, opt), re-run only missing
///                    shards, seal.  Fails cleanly on fingerprint mismatch.
/// opt.machine_setup must be unset (not fingerprintable).
StoreRun run_with_store(sim::OsVariant variant, const core::Registry& registry,
                        const core::CampaignOptions& opt,
                        const std::string& path, bool resume);

/// Reconstructs the CampaignResult a sealed log recorded, without executing
/// anything.  Requires a complete log whose fingerprint matches `registry`
/// (the variant and plan parameters come from the header itself); the merged
/// totals are cross-checked against the completion marker, so a log that
/// would mis-merge is rejected rather than trusted.
StoreRun load_result(const core::Registry& registry, const std::string& path);

/// Runs (or resumes) one crash-enumeration campaign with the log at `path`.
/// Same contract as run_with_store: resume recovers the valid prefix, checks
/// the fingerprint (which embeds crash_mode/max_cuts/group_mask), re-runs
/// only the missing shards and seals the log.
CrashStoreRun run_crash_with_store(sim::OsVariant variant,
                                   const core::Registry& registry,
                                   const core::CrashOptions& opt,
                                   const std::string& path, bool resume);

/// Reconstructs the CrashCampaignResult a sealed crash log recorded, without
/// executing anything.  Plan parameters come from the header itself.
CrashStoreRun load_crash_result(const core::Registry& registry,
                                const std::string& path);

}  // namespace ballista::store
