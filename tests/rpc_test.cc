// Tests for the split (client/server) harness: wire protocol round trips,
// channel delivery and the Windows CE file-drop arrangement.  Campaigns over
// the wire are covered by the campaign service's tests (rpc_server_test.cc).
#include <gtest/gtest.h>

#include "rpc/channel.h"
#include "rpc/harness_rpc.h"
#include "tests/test_util.h"

namespace ballista::rpc {
namespace {

using core::CaseCode;
using sim::OsVariant;
using testing::shared_world;

TEST(Protocol, RequestRoundTrip) {
  const Message m{TestRequest{"GetThreadContext", 1234}};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(message_type(*decoded), MessageType::kTestRequest);
  const auto& request = std::get<TestRequest>(*decoded);
  EXPECT_EQ(request.mut_name, "GetThreadContext");
  EXPECT_EQ(request.case_index, 1234u);
}

TEST(Protocol, ResultRoundTrip) {
  const Message m{
      TestResult{"strncpy", 7, CaseCode::kAbort, "ACCESS_VIOLATION reading 0x0"}};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& result = std::get<TestResult>(*decoded);
  EXPECT_EQ(result.mut_name, "strncpy");
  EXPECT_EQ(result.code, CaseCode::kAbort);
  EXPECT_EQ(result.detail, "ACCESS_VIOLATION reading 0x0");
}

TEST(Protocol, ShardRequestRoundTrip) {
  const Message m{ShardRequest{"VirtualAlloc", 128, 64}};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(message_type(*decoded), MessageType::kShardRequest);
  const auto& request = std::get<ShardRequest>(*decoded);
  EXPECT_EQ(request.mut_name, "VirtualAlloc");
  EXPECT_EQ(request.first, 128u);
  EXPECT_EQ(request.count, 64u);
}

TEST(Protocol, ShardResultRoundTrip) {
  const Message m{ShardResult{"fclose",
                              7,
                              {CaseCode::kPassWithError, CaseCode::kAbort,
                               CaseCode::kCatastrophic},
                              true,
                              "page fault in kernel context",
                              {}}};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(message_type(*decoded), MessageType::kShardResult);
  const auto& result = std::get<ShardResult>(*decoded);
  EXPECT_EQ(result.mut_name, "fclose");
  EXPECT_EQ(result.first, 7u);
  EXPECT_EQ(result.codes.size(), 3u);
  EXPECT_EQ(result.codes[2], CaseCode::kCatastrophic);
  EXPECT_TRUE(result.crashed);
  EXPECT_EQ(result.detail, "page fault in kernel context");
}

TEST(Protocol, ShardResultRejectsBadCrashedByteAndBadCodes) {
  const Message m{
      ShardResult{"x", 0, {CaseCode::kPassWithError}, false, "", {}}};
  Frame enc = encode(m);
  // Layout: type(1) + name(8+1) + first(8) + ncodes(8) + codes(1) + crashed.
  // These offsets are a v1 compatibility pin: protocol v2 must not move them.
  const std::size_t code_at = 1 + 8 + 1 + 8 + 8;
  Frame bad_code = enc;
  bad_code[code_at] = 200;
  EXPECT_FALSE(decode(bad_code).has_value());
  Frame bad_crashed = enc;
  bad_crashed[code_at + 1] = 2;  // would not re-encode byte-exactly
  EXPECT_FALSE(decode(bad_crashed).has_value());
}

TEST(Protocol, ShutdownRoundTrip) {
  const auto decoded = decode(encode(Message{Shutdown{}}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(message_type(*decoded), MessageType::kShutdown);
}

TEST(Protocol, MalformedFramesAreRejected) {
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode({99}).has_value());          // unknown type
  EXPECT_FALSE(decode({1, 5, 0, 0}).has_value());  // truncated request
  // Trailing garbage after a valid shutdown.
  EXPECT_FALSE(decode({4, 0}).has_value());
  // Huge declared string length.
  Frame f{1};
  for (int i = 0; i < 8; ++i) f.push_back(0xff);
  EXPECT_FALSE(decode(f).has_value());
  // Out-of-range case code.
  Frame enc = encode(Message{TestResult{"x", 0, CaseCode::kPassWithError, ""}});
  // The code byte sits right after name(8+1) + index(8) + type(1).
  enc[1 + 8 + 1 + 8] = 200;
  EXPECT_FALSE(decode(enc).has_value());
}

// --- protocol v2: the campaign-service message set ---------------------------

TEST(Protocol, HelloRoundTrip) {
  Hello h;
  h.spec.variant = 2;
  h.spec.cap = 40;
  h.spec.seed = 0x1234;
  h.spec.has_group_filter = 1;
  h.spec.group_mask = 0x5;
  const auto decoded = decode(encode(Message{h}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(message_type(*decoded), MessageType::kHello);
  const auto& hello = std::get<Hello>(*decoded);
  EXPECT_EQ(hello.protocol_version, kProtocolVersion);
  EXPECT_EQ(hello.spec.variant, 2);
  EXPECT_EQ(hello.spec.cap, 40u);
  EXPECT_EQ(hello.spec.seed, 0x1234u);
  EXPECT_EQ(hello.spec.group_mask, 0x5u);
}

TEST(Protocol, HelloWithForeignVersionStillDecodes) {
  // Version checking is the server's job (it answers kBadVersion); the
  // decoder must hand the frame over instead of dropping it silently.
  Hello h;
  h.protocol_version = 999;
  const auto decoded = decode(encode(Message{h}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<Hello>(*decoded).protocol_version, 999u);
}

TEST(Protocol, AttachRoundTrip) {
  const Message m{Attach{42, 9, 1234, {0, 3, 8}}};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& attach = std::get<Attach>(*decoded);
  EXPECT_EQ(attach.session_id, 42u);
  EXPECT_EQ(attach.plan_shards, 9u);
  EXPECT_EQ(attach.total_planned, 1234u);
  EXPECT_EQ(attach.complete, (std::vector<std::uint64_t>{0, 3, 8}));
}

TEST(Protocol, DetachAndErrorRoundTrip) {
  const auto detach = decode(encode(Message{Detach{7}}));
  ASSERT_TRUE(detach.has_value());
  EXPECT_EQ(std::get<Detach>(*detach).session_id, 7u);

  const Message m{Error{ErrorCode::kSessionSealed, 7, "campaign already complete"}};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& error = std::get<Error>(*decoded);
  EXPECT_EQ(error.code, ErrorCode::kSessionSealed);
  EXPECT_EQ(error.session_id, 7u);
  EXPECT_EQ(error.message, "campaign already complete");
}

TEST(Protocol, ErrorRejectsUnknownCode) {
  Frame enc = encode(Message{Error{ErrorCode::kMalformed, 0, ""}});
  enc[1] = 200;  // code byte directly follows the type tag
  EXPECT_FALSE(decode(enc).has_value());
}

TEST(Protocol, StreamedShardCarriesTheStoreRecordEncoding) {
  StreamedShard s;
  s.session_id = 3;
  s.outcome.shard_index = 5;
  s.outcome.executed_cases = 17;
  s.outcome.reboots = 1;
  s.outcome.partials.push_back({2, 10, {}});
  auto& stats = s.outcome.partials.back().stats;
  stats.executed = 17;
  stats.aborts = 4;
  stats.catastrophic = true;
  stats.crash_detail = "page fault";
  stats.case_codes = {CaseCode::kAbort, CaseCode::kCatastrophic};
  const auto decoded = decode(encode(Message{s}));
  ASSERT_TRUE(decoded.has_value());
  const auto& streamed = std::get<StreamedShard>(*decoded);
  EXPECT_EQ(streamed.session_id, 3u);
  EXPECT_EQ(streamed.outcome.shard_index, 5u);
  EXPECT_EQ(streamed.outcome.executed_cases, 17u);
  ASSERT_EQ(streamed.outcome.partials.size(), 1u);
  EXPECT_EQ(streamed.outcome.partials[0].stats.aborts, 4u);
  EXPECT_EQ(streamed.outcome.partials[0].stats.crash_detail, "page fault");
}

TEST(Protocol, CompleteRoundTrip) {
  Complete c;
  c.session_id = 11;
  c.total_cases = 4096;
  c.reboots = 3;
  c.counters[trace::EventKind::kSyscallEnter] = 99;
  const auto decoded = decode(encode(Message{c}));
  ASSERT_TRUE(decoded.has_value());
  const auto& complete = std::get<Complete>(*decoded);
  EXPECT_EQ(complete.session_id, 11u);
  EXPECT_EQ(complete.total_cases, 4096u);
  EXPECT_EQ(complete.reboots, 3);
  EXPECT_EQ(complete.counters[trace::EventKind::kSyscallEnter], 99u);
}

TEST(Protocol, DescribeNamesEveryMessageType) {
  const Message samples[] = {
      Message{TestRequest{"f", 0}},
      Message{TestResult{"f", 0, CaseCode::kPassWithError, ""}},
      Message{RebootNotice{TestResult{"f", 0, CaseCode::kCatastrophic, ""}}},
      Message{Shutdown{}},
      Message{ShardRequest{"f", 0, 1}},
      Message{ShardResult{"f", 0, {}, false, "", {}}},
      Message{Hello{}},
      Message{Attach{1, 2, 3, {}}},
      Message{Detach{1}},
      Message{Error{ErrorCode::kMalformed, 0, "x"}},
      Message{StreamedShard{}},
      Message{Complete{}},
  };
  for (const Message& m : samples) {
    const std::string line = describe(m);
    EXPECT_NE(line.find(message_type_name(message_type(m))),
              std::string::npos)
        << line;
  }
}

TEST(Channel, DeliversInOrderBothWays) {
  Channel ch;
  ch.a().send({1, 2, 3});
  ch.a().send({4});
  EXPECT_TRUE(ch.b().has_pending());
  EXPECT_EQ(*ch.b().try_recv(), (Frame{1, 2, 3}));
  EXPECT_EQ(*ch.b().try_recv(), (Frame{4}));
  EXPECT_FALSE(ch.b().try_recv().has_value());
  ch.b().send({9});
  EXPECT_EQ(*ch.a().try_recv(), (Frame{9}));
}

TEST(Channel, BoundedInboxRefusesAndCountsWhenFull) {
  Channel ch(2);
  EXPECT_EQ(ch.a().capacity(), 2u);
  EXPECT_TRUE(ch.a().send({1}));
  EXPECT_TRUE(ch.a().send({2}));
  EXPECT_FALSE(ch.a().send({3}));  // peer inbox full: refused, not queued
  EXPECT_FALSE(ch.a().send({4}));
  EXPECT_EQ(ch.a().frames_sent(), 2u);
  EXPECT_EQ(ch.a().refused(), 2u);
  EXPECT_EQ(ch.b().pending(), 2u);
  // Draining one slot re-admits exactly one frame.
  EXPECT_EQ(*ch.b().try_recv(), (Frame{1}));
  EXPECT_TRUE(ch.a().send({5}));
  EXPECT_FALSE(ch.a().send({6}));
  EXPECT_EQ(*ch.b().try_recv(), (Frame{2}));
  EXPECT_EQ(*ch.b().try_recv(), (Frame{5}));
  EXPECT_FALSE(ch.b().try_recv().has_value());
}

TEST(Channel, DirectionsAreBoundedIndependently) {
  Channel ch(1);
  EXPECT_TRUE(ch.a().send({1}));
  EXPECT_FALSE(ch.a().send({2}));
  // b -> a is its own queue: a full a -> b direction does not block it.
  EXPECT_TRUE(ch.b().send({9}));
  EXPECT_EQ(*ch.a().try_recv(), (Frame{9}));
}

TEST(CeFileDrop, ResultsTravelThroughTheTargetFilesystem) {
  const auto& world = shared_world();
  sim::Machine target(OsVariant::kWinCE);
  CeFileDropClient client(target, world.registry, 30, 0x8a11157a);
  ASSERT_TRUE(client.execute({"GetTickCount", 0}));
  // The result file is on the target.
  auto& fs = target.fs();
  auto node = fs.resolve(fs.parse("/tmp/ballista_result.txt",
                                  sim::FileSystem::root_path()));
  ASSERT_NE(node, nullptr);
  const std::string text(node->data().begin(), node->data().end());
  EXPECT_NE(text.find("GetTickCount 0"), std::string::npos);
}

TEST(CeFileDrop, CrashLeavesNoResultFile) {
  const auto& world = shared_world();
  sim::Machine target(OsVariant::kWinCE);
  CeFileDropClient client(target, world.registry, 30, 0x8a11157a);
  // Find the Listing 1 case index: run through a few cases of
  // GetThreadContext until the machine dies.
  const core::MuT* mut = world.registry.find("GetThreadContext");
  core::TupleGenerator gen(*mut, 30, 0x8a11157a);
  bool crashed = false;
  for (std::uint64_t i = 0; i < gen.count(); ++i) {
    if (!client.execute({"GetThreadContext", i})) {
      crashed = true;
      break;
    }
  }
  EXPECT_TRUE(crashed);
  EXPECT_TRUE(target.crashed());
}

TEST(CeFileDrop, FullCampaignReproducesCeCatastrophics) {
  const auto result =
      run_ce_file_drop_campaign(shared_world().registry, /*cap=*/40);
  EXPECT_EQ(result.variant, OsVariant::kWinCE);
  const auto list = core::catastrophic_list(result);
  std::set<std::string> names;
  for (const auto& e : list) names.insert(e.name);
  EXPECT_TRUE(names.count("GetThreadContext"));
  EXPECT_TRUE(names.count("VirtualAlloc"));
  EXPECT_TRUE(names.count("fclose"));
  EXPECT_GT(result.reboots, 10);
}

TEST(CeFileDrop, IsSlowerByOrdersOfMagnitude) {
  // §3.2: each CE case costs seconds of target time.
  const auto& world = shared_world();
  sim::Machine target(OsVariant::kWinCE);
  CeFileDropClient client(target, world.registry, 30, 0x8a11157a);
  const auto t0 = target.ticks();
  ASSERT_TRUE(client.execute({"GetTickCount", 0}));
  EXPECT_GT(target.ticks() - t0, 5'000u);
}

}  // namespace
}  // namespace ballista::rpc
