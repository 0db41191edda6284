// Corruption robustness of the store reader: for ANY mutilation of a valid
// log — truncation at every byte boundary, random bit flips, pure garbage —
// read_store must return a valid prefix of the original record stream or a
// clean error, and must never crash, over-read, or silently accept damage
// (run under the asan preset).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/rng.h"
#include "store/store.h"
#include "tests/store_test_util.h"
#include "tests/test_util.h"

namespace ballista::store {
namespace {

using sim::OsVariant;
using testing::TinyWorld;
using testing::tiny_options;

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> bytes;
  if (f != nullptr) {
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
      bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
  }
  return bytes;
}

/// A sealed log over the tiny registry: small enough that every-byte
/// truncation loops stay fast, rich enough to hold several shard records.
std::vector<std::uint8_t> tiny_log_bytes() {
  const std::string path = ::testing::TempDir() + "ballista_fuzz." +
                           std::to_string(::getpid()) + ".blog";
  TinyWorld tiny;
  const StoreRun run = run_with_store(OsVariant::kWinNT4, tiny.registry,
                                      tiny_options(), path, /*resume=*/false);
  EXPECT_TRUE(run.ok) << run.error;
  std::vector<std::uint8_t> bytes = file_bytes(path);
  std::remove(path.c_str());
  return bytes;
}

/// The mutilated read must yield a prefix of the intact read's record
/// stream: same header, and every decoded outcome byte-identical (via
/// re-encode) to the original at the same position.  "Recovered something
/// that was never written" is the one unforgivable failure mode.
void expect_prefix_of(const StoreContents& got, const StoreContents& whole) {
  EXPECT_EQ(got.header, whole.header);
  ASSERT_LE(got.outcomes.size(), whole.outcomes.size());
  for (std::size_t i = 0; i < got.outcomes.size(); ++i)
    EXPECT_EQ(encode_shard_outcome(got.outcomes[i]),
              encode_shard_outcome(whole.outcomes[i]))
        << "record " << i << " differs from what was written";
  if (got.complete) {
    EXPECT_TRUE(whole.complete);
    EXPECT_EQ(got.complete_total_cases, whole.complete_total_cases);
    EXPECT_EQ(got.complete_reboots, whole.complete_reboots);
    EXPECT_TRUE(got.complete_counters == whole.complete_counters);
  }
}

TEST(StoreFuzz, TruncationAtEveryByteYieldsValidPrefixOrCleanError) {
  const std::vector<std::uint8_t> full = tiny_log_bytes();
  ASSERT_FALSE(full.empty());
  const StoreContents whole = read_store(full);
  ASSERT_EQ(whole.status, ReadStatus::kOk);
  ASSERT_TRUE(whole.complete);
  ASSERT_FALSE(whole.outcomes.empty());

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() +
                                               static_cast<std::ptrdiff_t>(cut));
    const StoreContents got = read_store(prefix);
    if (got.status == ReadStatus::kBadHeader) continue;  // cut the preamble
    EXPECT_LE(got.valid_bytes, cut);
    expect_prefix_of(got, whole);
    // The completion marker is the last frame, so every strict prefix must
    // read back as still-in-progress.
    EXPECT_FALSE(got.complete) << "cut " << cut;
  }
}

class StoreFuzzSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreFuzzSeeded, SingleBitFlipsAreAlwaysDetected) {
  const std::vector<std::uint8_t> full = tiny_log_bytes();
  const StoreContents whole = read_store(full);
  ASSERT_EQ(whole.status, ReadStatus::kOk);

  SplitMix64 rng(GetParam());
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> bent = full;
    const std::size_t byte = rng.next_below(bent.size());
    bent[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const StoreContents got = read_store(bent);
    // Every byte of a sealed log is covered by the preamble check or a
    // frame CRC: a single flipped bit can never read back clean.
    EXPECT_NE(got.status, ReadStatus::kOk) << "flip at byte " << byte;
    if (got.status != ReadStatus::kBadHeader) expect_prefix_of(got, whole);
  }
}

TEST_P(StoreFuzzSeeded, MultiBitFlipsNeverCrashAndNeverForgeRecords) {
  const std::vector<std::uint8_t> full = tiny_log_bytes();
  const StoreContents whole = read_store(full);
  ASSERT_EQ(whole.status, ReadStatus::kOk);

  SplitMix64 rng(GetParam() ^ 0xf1e2d3c4);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::uint8_t> bent = full;
    const std::size_t flips = 1 + rng.next_below(16);
    for (std::size_t i = 0; i < flips; ++i)
      bent[rng.next_below(bent.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    // Sometimes truncate as well, so flips and torn tails compose.
    if (iter % 3 == 0) bent.resize(rng.next_below(bent.size() + 1));
    const StoreContents got = read_store(bent);
    if (got.status == ReadStatus::kBadHeader) continue;
    // Multi-bit damage may in principle cancel in a CRC, but decoded records
    // must still be records that were actually written.
    ASSERT_LE(got.outcomes.size(), whole.outcomes.size());
  }
}

TEST_P(StoreFuzzSeeded, RandomGarbageNeverCrashesTheReader) {
  SplitMix64 rng(GetParam() ^ 0x600dcafe);
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<std::uint8_t> junk(rng.next_below(512));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    // Bias some buffers toward a valid preamble so the frame walker runs.
    if (junk.size() >= 8 && iter % 2 == 0) {
      junk[0] = 0x42; junk[1] = 0x4C; junk[2] = 0x4F; junk[3] = 0x47;  // BLOG
      junk[4] = 1; junk[5] = 0; junk[6] = 0; junk[7] = 0;
    }
    const StoreContents got = read_store(junk);
    // Garbage may never fabricate a usable log.
    if (got.status == ReadStatus::kOk) {
      EXPECT_TRUE(got.outcomes.empty() || !got.complete);
    }
  }
}

TEST(StoreFuzz, SampledTruncationsOfAFullWorldLogRecover) {
  // One pass over a real (full-registry) log too: large frames, crash traces
  // and long strings travel through the recovery path.
  const std::string path = ::testing::TempDir() + "ballista_fuzz_world." +
                           std::to_string(::getpid()) + ".blog";
  core::CampaignOptions opt;
  opt.cap = 20;
  const StoreRun run = run_with_store(
      OsVariant::kWin98, testing::shared_world().registry, opt, path, false);
  ASSERT_TRUE(run.ok) << run.error;
  const std::vector<std::uint8_t> full = file_bytes(path);
  std::remove(path.c_str());
  const StoreContents whole = read_store(full);
  ASSERT_EQ(whole.status, ReadStatus::kOk);

  for (std::size_t cut = 0; cut < full.size(); cut += 211) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() +
                                               static_cast<std::ptrdiff_t>(cut));
    const StoreContents got = read_store(prefix);
    if (got.status == ReadStatus::kBadHeader) continue;
    expect_prefix_of(got, whole);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzzSeeded,
                         ::testing::Values(1, 42, 0xdeadbeef, 7777));

}  // namespace
}  // namespace ballista::store
