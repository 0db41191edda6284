// Unit tests of the benchmark's own logic: the result digests and the
// percentile helper.
#include <gtest/gtest.h>

#include "digest.h"
#include "stats.h"

namespace {

using namespace perfbench;
namespace core = ballista::core;

core::CampaignResult sample_result() {
  core::CampaignResult r;
  r.total_cases = 4;
  core::MutStats s;
  s.planned = s.executed = 4;
  s.passes = 3;
  s.aborts = 1;
  s.case_codes = {core::CaseCode::kPassWithError, core::CaseCode::kAbort,
                  core::CaseCode::kPassNoError, core::CaseCode::kPassWithError};
  r.stats.push_back(s);
  return r;
}

TEST(Digest, ChangesWhenOneCaseCodeFlips) {
  const core::CampaignResult base = sample_result();
  core::CampaignResult flipped = sample_result();
  flipped.stats[0].case_codes[2] = core::CaseCode::kHindering;
  EXPECT_EQ(digest(base), digest(sample_result()));
  EXPECT_NE(digest(base), digest(flipped));
}

TEST(Digest, ChangesWhenOneCrashVerdictFlips) {
  core::CrashCampaignResult a;
  a.stats.emplace_back();
  a.stats[0].findings.push_back(
      {3, 2, core::CrashVerdict::kInconsistent, "cycle in fs tree"});
  core::CrashCampaignResult b = a;
  EXPECT_EQ(digest(a), digest(b));
  b.stats[0].findings[0].verdict = core::CrashVerdict::kNoCut;
  EXPECT_NE(digest(a), digest(b));
}

TEST(Digest, IgnoresCrashTraceTicksButNotKinds) {
  core::CampaignResult a = sample_result();
  a.stats[0].crash_trace.resize(2);
  core::CampaignResult b = a;
  b.stats[0].crash_trace[1].ticks = 99;
  EXPECT_EQ(digest(a), digest(b));
  b.stats[0].crash_trace[1].kind = ballista::trace::EventKind::kPanic;
  EXPECT_NE(digest(a), digest(b));
}

TEST(Digest, CaseResultChangesWithEveryCheckedField) {
  core::CaseResult a;
  a.outcome = core::Outcome::kAbort;
  a.detail = "access violation";
  const std::uint64_t base = digest(a);
  core::CaseResult b = a;
  EXPECT_EQ(digest(b), base);
  b.wrong_error = true;
  EXPECT_NE(digest(b), base);
  b = a;
  b.detail = "access violation.";
  EXPECT_NE(digest(b), base);
  b = a;
  b.events[ballista::trace::EventKind::kPanic] = 1;
  EXPECT_NE(digest(b), base);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: summarize must sort
}

TEST(Summarize, ReportsP99OnlyWithTenSamplesBeyondIt) {
  const Summary short_of = summarize(ramp(999));
  EXPECT_FALSE(short_of.p99.has_value());
  EXPECT_EQ(short_of.count, 999u);
  EXPECT_DOUBLE_EQ(short_of.median, 500.0);

  const Summary enough = summarize(ramp(1000));
  ASSERT_TRUE(enough.p99.has_value());
  EXPECT_DOUBLE_EQ(*enough.p99, 990.0);  // exactly 10 samples lie beyond
  EXPECT_EQ(enough.count, 1000u);
  EXPECT_DOUBLE_EQ(enough.median, 500.5);
}

TEST(Summarize, SmallSamplesGiveMedianAndCount) {
  const Summary s = summarize({4.0, 1.0, 3.0});
  EXPECT_FALSE(s.p99.has_value());
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_EQ(summarize({}).count, 0u);
  EXPECT_DOUBLE_EQ(median({2.0, 1.0}), 1.5);
}

}  // namespace
