// Result digests: one 64-bit FNV-1a hash per unit (a variant campaign, a
// crash campaign or a service session) over every field the determinism
// contract fixes.  A unit is correct when its digest equals the one the
// independent slow path (Campaign::run_sequential, the jobs-1 crash engine)
// produced for the same inputs.
#pragma once

#include <cstdint>
#include <string>

#include "core/campaign.h"
#include "core/crashplan.h"
#include "core/executor.h"

namespace perfbench {

/// Variant, totals, event counters and, per MuT, the counts, per-case codes,
/// crash fields and event counters.  Crash-trace tails contribute their event
/// kinds and case stamps only: raw tick values legitimately differ between
/// schedules (tests/plan_sched_test.cc compares the same fields).
std::uint64_t digest(const ballista::core::CampaignResult& r);

/// Totals and, per MuT, the point/cut counts, per-kind point counts and every
/// non-consistent verdict record.
std::uint64_t digest(const ballista::core::CrashCampaignResult& r);

/// Every CaseResult field but the trace tail: outcome, flags, fault, panic,
/// detail and event counters.
std::uint64_t digest(const ballista::core::CaseResult& r);

std::string hex(std::uint64_t v);

}  // namespace perfbench
