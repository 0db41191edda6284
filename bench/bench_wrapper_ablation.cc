// Ablation for the paper's §5 remark: Windows CE users "would have to
// generate software wrappers for each of the seventeen functions they use to
// protect against a system crash".
//
// Runs the CE C-library campaign three ways: stock, with FILE*-validating
// wrappers, and with full pointer-probing wrappers, and reports the count of
// Catastrophic functions and the reboot totals for each.
#include "bench/bench_common.h"
#include "clib/crt.h"

namespace {

using namespace ballista;

core::ApiImpl add_file_table_check(const core::MuT& m,
                                   std::size_t file_param) {
  const core::ApiImpl inner = m.impl;
  return [inner, file_param](core::CallContext& ctx) -> core::CallOutcome {
    const sim::Addr fp = ctx.arg_addr(file_param);
    clib::CrtState& st = clib::crt_state(ctx.proc());
    const bool in_table = fp >= st.iob_base &&
                          fp + clib::kFileStructSize <= st.iob_end &&
                          (fp - st.iob_base) % clib::kFileStructSize == 0;
    if (!in_table ||
        ctx.proc().mem().read_u32(fp + clib::kFileOffMagic,
                                  sim::Access::kKernel) != clib::kFileMagic) {
      ctx.proc().set_errno(EBADF);
      return core::error_reported(static_cast<std::uint64_t>(-1));
    }
    return inner.run(ctx);
  };
}

core::ApiImpl add_pointer_probes(const core::MuT& m) {
  const core::ApiImpl inner = m.impl;
  std::vector<int> kinds;  // 0 none, 1 read, 2 write
  for (const core::DataType* t : m.params) {
    const std::string& n = t->name();
    kinds.push_back(n == "buf" ? 2
                               : (n == "cfile" || n == "cbuf" || n == "cstr" ||
                                  n == "wstr" || n == "fmt")
                                     ? 1
                                     : 0);
  }
  const std::string name = m.name;
  return [inner, kinds, name](core::CallContext& ctx) -> core::CallOutcome {
    auto probe_len = [&](std::size_t i) -> std::uint64_t {
      if (name == "fread" || name == "fwrite")
        return std::min<std::uint64_t>(ctx.arg(1) * ctx.arg(2), 1 << 16);
      if (name == "fgets" || name == "fgetws")
        return std::min<std::uint64_t>(
            static_cast<std::uint32_t>(ctx.argi(1) > 0 ? ctx.argi(1) : 1),
            1 << 16);
      if (name == "_tcsncpy" && i == 0)
        return std::min<std::uint64_t>(ctx.arg(2) * 2, 1 << 16);
      return 4;
    };
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (kinds[i] == 0) continue;
      if (!ctx.proc().mem().check_range(
              ctx.arg_addr(i), std::max<std::uint64_t>(probe_len(i), 4),
              kinds[i] == 2, sim::Access::kUser)) {
        ctx.proc().set_errno(EINVAL);
        return core::error_reported(static_cast<std::uint64_t>(-1));
      }
    }
    return inner.run(ctx);
  };
}

enum class Hardening { kNone, kFileTable, kFull };

core::Registry harden(const core::Registry& source, Hardening level) {
  core::Registry out;
  for (const core::MuT& m : source.muts()) {
    core::MuT copy = m;
    const bool hazardous =
        core::is_clib_group(m.group) &&
        m.hazard_on(sim::OsVariant::kWinCE) != core::CrashStyle::kNone;
    if (hazardous && level != Hardening::kNone) {
      if (level == Hardening::kFull) copy.impl = add_pointer_probes(m);
      for (std::size_t i = 0; i < m.params.size(); ++i) {
        if (m.params[i]->name() == "cfile") {
          core::MuT staged = copy;
          copy.impl = add_file_table_check(staged, i);
          break;
        }
      }
    }
    out.add(std::move(copy));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ballista;
  const auto opt = bench::parse_options(argc, argv);
  auto world = harness::build_world();

  core::CampaignOptions copt;
  copt.cap = opt.cap;
  copt.seed = opt.seed;
  copt.only_api = core::ApiKind::kCLib;

  std::cout << "Windows CE wrapper ablation (paper §5), cap " << copt.cap
            << "\n\n";
  struct Config {
    const char* label;
    Hardening level;
  };
  for (const Config& cfg :
       {Config{"stock Windows CE", Hardening::kNone},
        Config{"+ FILE* table-validating wrappers", Hardening::kFileTable},
        Config{"+ full pointer-probing wrappers", Hardening::kFull}}) {
    const core::Registry reg = harden(world->registry, cfg.level);
    const auto r = core::Campaign::run(sim::OsVariant::kWinCE, reg, copt);
    const auto s = core::summarize(r);
    std::cout << "  " << cfg.label << ":\n"
              << "      Catastrophic C functions: " << s.clib_catastrophic
              << "   reboots: " << r.reboots
              << "   C-library Abort rate: " << core::percent(s.clib_abort)
              << "\n";
  }
  std::cout << "\nThe wrappers trade crashes for clean error returns — the\n"
               "Abort rate barely moves while the machine stops going down.\n";
  return 0;
}
