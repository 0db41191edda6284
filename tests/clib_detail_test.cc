// Deeper semantic tests for the C library: stdio mode/seek matrices, unget
// behaviour, string scanning, formatting and parsing details — checked
// through direct dispatch so results (not just classifications) are visible.
#include <gtest/gtest.h>

#include <cctype>
#include <clocale>
#include <string>
#include <vector>

#include "clib/crt.h"
#include "core/trace.h"
#include "tests/test_util.h"

namespace ballista::clib {
namespace {

using core::CallOutcome;
using core::RawArg;
using sim::OsVariant;
using testing::shared_world;

/// Dispatch helper: one call against a persistent machine/process.
class ClibFixture : public ::testing::Test {
 protected:
  ClibFixture() : machine(OsVariant::kLinux) {
    proc = machine.create_process();
  }

  CallOutcome call(const char* name, std::vector<RawArg> args) {
    const core::MuT* mut = shared_world().registry.find(name);
    EXPECT_NE(mut, nullptr) << name;
    last_args = std::move(args);
    core::CallContext ctx(machine, *proc, *mut, last_args);
    machine.kernel_enter();
    return mut->impl(ctx);
  }

  sim::Addr cstr(std::string_view s) { return proc->mem().alloc_cstr(s); }
  std::string str_at(sim::Addr a) {
    return proc->mem().read_cstr(a, 4096, sim::Access::kKernel);
  }

  sim::Machine machine;
  std::unique_ptr<sim::SimProcess> proc;
  std::vector<RawArg> last_args;
};

TEST_F(ClibFixture, FopenModeMatrix) {
  // "r" on a missing file: NULL.
  EXPECT_EQ(call("fopen", {cstr("/tmp/nope"), cstr("r")}).ret, 0u);
  // "w" creates it.
  const auto w = call("fopen", {cstr("/tmp/nope"), cstr("w")});
  EXPECT_NE(w.ret, 0u);
  // Now "r" works.
  EXPECT_NE(call("fopen", {cstr("/tmp/nope"), cstr("r")}).ret, 0u);
  // "a" appends: write then check size grows.
  const auto a = call("fopen", {cstr("/tmp/nope"), cstr("a")});
  EXPECT_NE(a.ret, 0u);
}

TEST_F(ClibFixture, WriteReadRoundTripThroughStdio) {
  const auto f = call("fopen", {cstr("/tmp/rt.txt"), cstr("w")});
  ASSERT_NE(f.ret, 0u);
  const sim::Addr data = cstr("roundtrip!");
  EXPECT_EQ(call("fwrite", {data, 1, 10, f.ret}).ret, 10u);
  EXPECT_EQ(call("fclose", {f.ret}).ret, 0u);

  const auto g = call("fopen", {cstr("/tmp/rt.txt"), cstr("r")});
  ASSERT_NE(g.ret, 0u);
  const sim::Addr buf = proc->mem().alloc(64);
  EXPECT_EQ(call("fread", {buf, 1, 10, g.ret}).ret, 10u);
  EXPECT_EQ(proc->mem().read_cstr(buf, 10, sim::Access::kKernel),
            "roundtrip!");
}

TEST_F(ClibFixture, SeekTellRewindProtocol) {
  const auto f = call("fopen", {cstr("/tmp/fixture.dat"), cstr("r")});
  ASSERT_NE(f.ret, 0u);
  EXPECT_EQ(call("fseek", {f.ret, 10, 0}).ret, 0u);        // SEEK_SET
  EXPECT_EQ(call("ftell", {f.ret}).ret, 10u);
  EXPECT_EQ(call("fseek", {f.ret, 5, 1}).ret, 0u);         // SEEK_CUR
  EXPECT_EQ(call("ftell", {f.ret}).ret, 15u);
  EXPECT_EQ(call("fseek", {f.ret, 0, 2}).ret, 0u);         // SEEK_END
  EXPECT_GT(call("ftell", {f.ret}).ret, 15u);
  EXPECT_EQ(call("rewind", {f.ret}).ret, 0u);
  EXPECT_EQ(call("ftell", {f.ret}).ret, 0u);
  // Bogus whence and negative targets report errors.
  EXPECT_EQ(call("fseek", {f.ret, 0, 42}).status,
            core::CallStatus::kErrorReported);
  EXPECT_EQ(call("fseek", {f.ret, static_cast<RawArg>(-100) & 0xffffffffull,
                           0})
                .status,
            core::CallStatus::kErrorReported);
}

TEST_F(ClibFixture, UngetcComesBackFirst) {
  const auto f = call("fopen", {cstr("/tmp/fixture.dat"), cstr("r")});
  ASSERT_NE(f.ret, 0u);
  const auto first = call("fgetc", {f.ret});
  EXPECT_EQ(call("ungetc", {'Q', f.ret}).ret, static_cast<RawArg>('Q'));
  EXPECT_EQ(call("fgetc", {f.ret}).ret, static_cast<RawArg>('Q'));
  // Stream then resumes where it was.
  const auto next = call("fgetc", {f.ret});
  EXPECT_NE(next.ret, first.ret);
}

TEST_F(ClibFixture, FgetsStopsAtNewline) {
  const auto f = call("fopen", {cstr("/tmp/lines.txt"), cstr("w")});
  const sim::Addr text = cstr("one\ntwo\n");
  call("fwrite", {text, 1, 8, f.ret});
  call("fclose", {f.ret});
  const auto g = call("fopen", {cstr("/tmp/lines.txt"), cstr("r")});
  const sim::Addr buf = proc->mem().alloc(64);
  EXPECT_NE(call("fgets", {buf, 32, g.ret}).ret, 0u);
  EXPECT_EQ(str_at(buf), "one\n");
}

TEST_F(ClibFixture, SprintfFormatsIntoBuffer) {
  const sim::Addr buf = proc->mem().alloc(128);
  const auto r = call("sprintf", {buf, cstr("value=%d!")});
  EXPECT_EQ(r.status, core::CallStatus::kSuccess);
  EXPECT_EQ(str_at(buf), "value=0!");  // missing varargs print a zero
}

TEST_F(ClibFixture, SscanfParsesDigits) {
  const auto r = call("sscanf", {cstr("   123"), cstr("plain")});
  EXPECT_EQ(r.ret, 0u);  // no conversions
}

TEST_F(ClibFixture, StrtokWalksTokens) {
  const sim::Addr s = cstr("a,b,,c");
  const sim::Addr delim = cstr(",");
  const auto t1 = call("strtok", {s, delim});
  EXPECT_EQ(str_at(t1.ret), "a");
  const auto t2 = call("strtok", {0, delim});
  EXPECT_EQ(str_at(t2.ret), "b");
  const auto t3 = call("strtok", {0, delim});
  EXPECT_EQ(str_at(t3.ret), "c");
  EXPECT_EQ(call("strtok", {0, delim}).ret, 0u);
}

TEST_F(ClibFixture, StrSpnFamilies) {
  EXPECT_EQ(call("strspn", {cstr("aabbcc"), cstr("ab")}).ret, 4u);
  EXPECT_EQ(call("strcspn", {cstr("xyz,abc"), cstr(",")}).ret, 3u);
  const auto p = call("strpbrk", {cstr("hello world"), cstr("ow")});
  EXPECT_EQ(str_at(p.ret), "o world");
  EXPECT_EQ(call("strpbrk", {cstr("hello"), cstr("xyz")}).ret, 0u);
}

TEST_F(ClibFixture, StrchrAndStrrchrFindEnds) {
  const sim::Addr s = cstr("abcabc");
  const auto first = call("strchr", {s, 'b'});
  const auto last = call("strrchr", {s, 'b'});
  EXPECT_EQ(first.ret, s + 1);
  EXPECT_EQ(last.ret, s + 4);
  // NUL is findable at the terminator.
  EXPECT_EQ(call("strchr", {s, 0}).ret, s + 6);
}

TEST_F(ClibFixture, StrncatRespectsN) {
  const sim::Addr dst = proc->mem().alloc(64);
  proc->mem().write_cstr(dst, "ab", sim::Access::kKernel);
  call("strncat", {dst, cstr("cdef"), 2});
  EXPECT_EQ(str_at(dst), "abcd");
}

TEST_F(ClibFixture, MemmoveHandlesOverlap) {
  const sim::Addr buf = proc->mem().alloc(16);
  proc->mem().write_cstr(buf, "0123456789", sim::Access::kKernel);
  call("memmove", {buf + 2, buf, 8});
  EXPECT_EQ(str_at(buf + 2), "01234567");
}

TEST_F(ClibFixture, AtoiAndStrtolParse) {
  EXPECT_EQ(call("atoi", {cstr("  -42xyz")}).ret,
            static_cast<RawArg>(-42));
  EXPECT_EQ(call("atoi", {cstr("junk")}).ret, 0u);
  const sim::Addr endp = proc->mem().alloc(8);
  EXPECT_EQ(call("strtol", {cstr("ff"), endp, 16}).ret, 255u);
  EXPECT_EQ(call("strtol", {cstr("777"), endp, 8}).ret, 511u);
}

TEST_F(ClibFixture, CtypeValuesAreCorrectForValidInput) {
  EXPECT_EQ(call("isalpha", {'a'}).ret, 1u);
  EXPECT_EQ(call("isalpha", {'5'}).ret, 0u);
  EXPECT_EQ(call("isdigit", {'5'}).ret, 1u);
  EXPECT_EQ(call("isspace", {'\t'}).ret, 1u);
  EXPECT_EQ(call("isupper", {'a'}).ret, 0u);
  EXPECT_EQ(call("tolower", {'A'}).ret, static_cast<RawArg>('a'));
  EXPECT_EQ(call("toupper", {'z'}).ret, static_cast<RawArg>('Z'));
  EXPECT_EQ(call("toupper", {'!'}).ret, static_cast<RawArg>('!'));
}

TEST_F(ClibFixture, TimePipeline) {
  const sim::Addr tloc = proc->mem().alloc(8);
  const auto now = call("time", {tloc});
  EXPECT_GT(now.ret, 900'000'000u);  // anchored in 1999
  EXPECT_EQ(proc->mem().read_u32(tloc, sim::Access::kKernel),
            static_cast<std::uint32_t>(now.ret));
  const auto tm = call("gmtime", {tloc});
  ASSERT_NE(tm.ret, 0u);
  const auto str = call("asctime", {tm.ret});
  ASSERT_NE(str.ret, 0u);
  const std::string text = str_at(str.ret);
  EXPECT_NE(text.find("19"), std::string::npos);  // a 19xx year
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(ClibFixture, MktimeInvertsRoughly) {
  // Build a tm for mid-1999 and check mktime lands the same decade.
  const sim::Addr tm = proc->mem().alloc(40);
  const std::int32_t f[9] = {0, 0, 12, 28, 5, 99, 0, 0, 0};
  for (int i = 0; i < 9; ++i)
    proc->mem().write_u32(tm + 4 * i, static_cast<std::uint32_t>(f[i]),
                          sim::Access::kKernel);
  const auto t = call("mktime", {tm});
  EXPECT_GT(t.ret, 890'000'000u);
  EXPECT_LT(t.ret, 970'000'000u);
}

TEST_F(ClibFixture, StrftimeKnownConversions) {
  const sim::Addr tm = proc->mem().alloc(40);
  const std::int32_t f[9] = {30, 45, 13, 28, 5, 99, 1, 178, 0};
  for (int i = 0; i < 9; ++i)
    proc->mem().write_u32(tm + 4 * i, static_cast<std::uint32_t>(f[i]),
                          sim::Access::kKernel);
  const sim::Addr buf = proc->mem().alloc(64);
  const auto n = call("strftime", {buf, 64, cstr("%Y-%m-%d %H:%M"), tm});
  EXPECT_EQ(n.ret, 16u);
  EXPECT_EQ(str_at(buf), "1999-06-28 13:45");
  // Too-small buffer returns 0 without writing.
  EXPECT_EQ(call("strftime", {buf, 4, cstr("%Y-%m-%d"), tm}).ret, 0u);
}

TEST_F(ClibFixture, MathErrnoProtocol) {
  const auto r = call("sqrt", {std::bit_cast<RawArg>(4.0)});
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(r.ret), 2.0);
  const auto p = call("pow", {std::bit_cast<RawArg>(2.0),
                              std::bit_cast<RawArg>(10.0)});
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(p.ret), 1024.0);
  const auto bad = call("fmod", {std::bit_cast<RawArg>(1.0),
                                 std::bit_cast<RawArg>(0.0)});
  EXPECT_EQ(bad.status, core::CallStatus::kErrorReported);
  EXPECT_EQ(proc->err_no(), EDOM);
}

TEST_F(ClibFixture, CallocZeroesAndMallocChunksAreDistinct) {
  const auto a = call("malloc", {64});
  const auto b = call("malloc", {64});
  EXPECT_NE(a.ret, 0u);
  EXPECT_NE(a.ret, b.ret);
  const auto c = call("calloc", {4, 16});
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(proc->mem().read_u8(c.ret + i, sim::Access::kKernel), 0);
  EXPECT_EQ(call("free", {a.ret}).status, core::CallStatus::kSuccess);
}

TEST_F(ClibFixture, ReallocPreservesPrefix) {
  const auto a = call("malloc", {8});
  proc->mem().write_cstr(a.ret, "seven!!", sim::Access::kKernel);
  const auto b = call("realloc", {a.ret, 64});
  EXPECT_EQ(str_at(b.ret), "seven!!");
}

// --- the CRT image ----------------------------------------------------------

TEST(CrtImage, CtypeTableMatchesCLocaleClassification) {
  std::setlocale(LC_ALL, "C");
  sim::Machine machine(OsVariant::kLinux);
  auto proc = machine.acquire_process();
  const CrtState& st = crt_state(*proc);
  const auto& mem = proc->mem();
  for (int c = -128; c <= 255; ++c) {
    const auto u = static_cast<unsigned char>(c);
    std::uint8_t want = 0;
    if (std::isupper(u)) want |= kCtUpper;
    if (std::islower(u)) want |= kCtLower;
    if (std::isdigit(u)) want |= kCtDigit;
    if (std::isspace(u)) want |= kCtSpace;
    if (std::ispunct(u)) want |= kCtPunct;
    if (std::iscntrl(u)) want |= kCtCntrl;
    if (std::isxdigit(u)) want |= kCtHex;
    if (std::isprint(u)) want |= kCtPrint;
    EXPECT_EQ(mem.read_u8(st.ctype_table + static_cast<Addr>(128 + c),
                          sim::Access::kUser),
              want)
        << "c = " << c;
  }
  // table[256] is the first byte of the guard page after the table.
  const Addr past = st.ctype_table + 128 + 256;
  EXPECT_EQ(past % sim::kPageSize, 0u);
  EXPECT_THROW(mem.read_u8(past, sim::Access::kUser), sim::SimFault);
  EXPECT_THROW(mem.read_u8(past, sim::Access::kKernel), sim::SimFault);
}

/// Renders the mutation points announced while one CRT is built.
std::vector<std::string> crt_build_points(OsVariant v) {
  sim::Machine machine(v);
  auto proc = machine.acquire_process();
  machine.trace().clear();
  machine.mutations().set_counting(true);
  machine.mutations().open_window();
  crt_state(*proc);
  std::vector<std::string> out;
  for (const auto& ev : machine.trace().tail())
    if (ev.kind == trace::EventKind::kMutationPoint)
      out.push_back(trace::render(ev));
  EXPECT_EQ(machine.mutations().seq(), out.size());
  return out;
}

// Pinned from the byte-at-a-time table build: the ctype image is one map and
// one coalesced page write, then _iob, the static buffers and three FILEs.
TEST(CrtImage, BuildAnnouncesTheSameMutationPoints) {
  auto expected = [](const char* h1, const char* h2, const char* h3) {
    return std::vector<std::string>{
        "mutation point #1 page_map detail=0x70000",
        "mutation point #2 page_write detail=0x70000",
        "mutation point #3 page_map detail=0x100",
        "mutation point #4 page_map detail=0x102",
        "mutation point #5 page_map detail=0x104",
        std::string("mutation point #6 handle_create detail=") + h1,
        "mutation point #7 page_map detail=0x106",
        "mutation point #8 page_map detail=0x108",
        "mutation point #9 page_write detail=0x100",
        std::string("mutation point #10 handle_create detail=") + h2,
        "mutation point #11 page_map detail=0x10a",
        "mutation point #12 page_map detail=0x10c",
        "mutation point #13 page_write detail=0x100",
        std::string("mutation point #14 handle_create detail=") + h3,
        "mutation point #15 page_map detail=0x10e",
        "mutation point #16 page_map detail=0x110",
        "mutation point #17 page_write detail=0x100",
    };
  };
  EXPECT_EQ(crt_build_points(OsVariant::kWinNT4),
            expected("0x10", "0x14", "0x18"));
  EXPECT_EQ(crt_build_points(OsVariant::kWin98),
            expected("0x10", "0x14", "0x18"));
  EXPECT_EQ(crt_build_points(OsVariant::kLinux), expected("0x3", "0x4", "0x5"));
}

}  // namespace
}  // namespace ballista::clib
