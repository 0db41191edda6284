// The paper's Windows CE harness arrangement (§3.2): CeFileDropClient runs
// each case on the target and drops the result into a file on the target's
// filesystem; the NT-side host loop (run_ce_file_drop_campaign) polls for the
// file, reads it and deletes it.  "Unfortunately this means tests are
// several orders of magnitude slower" — modeled as extra simulated clock
// ticks per case.  The desktop client/server split is the campaign service
// (rpc/server.h); the v1 request/result frames this host loop speaks stay in
// rpc/protocol.h.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/campaign.h"
#include "rpc/protocol.h"

namespace ballista::rpc {

/// CE-style client: results travel through the simulated target filesystem
/// instead of a message channel.
class CeFileDropClient {
 public:
  CeFileDropClient(sim::Machine& target, const core::Registry& registry,
                   std::uint64_t cap, std::uint64_t seed);

  /// Runs one case and drops "/tmp/ballista_result.txt" onto the target.
  /// Returns false if the machine is down (caller must reboot via server
  /// protocol).
  bool execute(const TestRequest& request);

  static constexpr std::string_view kResultFile = "ballista_result.txt";

 private:
  sim::Machine& target_;
  const core::Registry& registry_;
  std::uint64_t cap_;
  std::uint64_t seed_;
};

/// The NT-side host loop for the CE arrangement: generates cases, asks the
/// file-drop client to execute each, waits for the result file to appear on
/// the target (a missing file after a case means the machine went down),
/// reads and deletes it, and aggregates — reproducing §3.2's protocol.
core::CampaignResult run_ce_file_drop_campaign(
    const core::Registry& registry, std::uint64_t cap = core::kDefaultCap,
    std::uint64_t seed = 0x8a11157a);

}  // namespace ballista::rpc
