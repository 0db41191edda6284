// Module-under-Test registry: the catalog of API calls a campaign exercises,
// grouped into functional categories for normalized cross-API comparison
// (§3.3).  The categories themselves — names, CLI tokens, default-campaign
// membership, wire ids — live in the data-driven group registry
// (core/groups.h); this header holds the per-MuT catalog.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/classify.h"
#include "core/datatype.h"
#include "core/groups.h"
#include "sim/personality.h"

namespace ballista::core {

class CallContext;

/// How a hazardous (unprobed) kernel path fails on a given variant:
///  - kImmediate: the stray kernel access kills the machine during the test
///    case itself (reproducible from a single-test program);
///  - kDeferred: the write lands in the shared arena, corrupting it; the
///    machine dies a few kernel entries later (the paper's `*` failures,
///    reproducible only by running the harness).
enum class CrashStyle : std::uint8_t { kNone, kImmediate, kDeferred };

/// A MuT body.  A kernel helper or task-mode accessor that faults in the task
/// records the fault in the CallContext and the body returns
/// CallStatus::kFaulted (DESIGN.md §2).
/// run() leaves that fault pending for its caller (Executor::run_case);
/// calling the impl like a function delivers it as sim::SimFault from this
/// one frame, as every other caller (tests, tools, the benchmark's copy of
/// run_case) expects.
class ApiImpl {
 public:
  using Body = std::function<CallOutcome(CallContext&)>;

  ApiImpl() = default;
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ApiImpl> &&
             std::is_constructible_v<Body, F>)
  ApiImpl(F&& body) : body_(std::forward<F>(body)) {}

  CallOutcome run(CallContext& ctx) const { return body_(ctx); }
  CallOutcome operator()(CallContext& ctx) const;
  explicit operator bool() const noexcept { return static_cast<bool>(body_); }

 private:
  Body body_;
};

struct MuT {
  std::string name;
  ApiKind api = ApiKind::kCLib;
  FuncGroup group = FuncGroup::kCString;
  std::vector<const DataType*> params;
  ApiImpl impl;
  /// Bitmask over sim::OsVariant of where this MuT exists.
  std::uint8_t variant_mask = 0;
  /// Per-variant hazardous-path behaviour (empty = probed everywhere).
  std::map<sim::OsVariant, CrashStyle> hazards;
  /// CE counts ASCII and UNICODE implementations separately (§4); true when
  /// this MuT has both.
  bool has_unicode_twin = false;
  /// Set on a UNICODE twin: the ASCII MuT it shadows in CE reporting (the
  /// paper reports "the failure rates for the UNICODE versions" only).
  std::string twin_of;

  bool supported_on(sim::OsVariant v) const noexcept {
    return (variant_mask & (1u << static_cast<unsigned>(v))) != 0;
  }
  CrashStyle hazard_on(sim::OsVariant v) const noexcept {
    auto it = hazards.find(v);
    return it == hazards.end() ? CrashStyle::kNone : it->second;
  }
};

constexpr std::uint8_t variant_bit(sim::OsVariant v) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(v));
}

/// Masks used by the API registries.
inline constexpr std::uint8_t kMaskAllWindows =
    variant_bit(sim::OsVariant::kWin95) | variant_bit(sim::OsVariant::kWin98) |
    variant_bit(sim::OsVariant::kWin98SE) |
    variant_bit(sim::OsVariant::kWinNT4) |
    variant_bit(sim::OsVariant::kWin2000) | variant_bit(sim::OsVariant::kWinCE);
inline constexpr std::uint8_t kMaskDesktopWindows =
    static_cast<std::uint8_t>(kMaskAllWindows &
                              ~variant_bit(sim::OsVariant::kWinCE));
inline constexpr std::uint8_t kMaskNotWin95 = static_cast<std::uint8_t>(
    kMaskAllWindows & ~variant_bit(sim::OsVariant::kWin95));
inline constexpr std::uint8_t kMaskLinux = variant_bit(sim::OsVariant::kLinux);
inline constexpr std::uint8_t kMaskEverything =
    static_cast<std::uint8_t>(kMaskAllWindows | kMaskLinux);

class Registry {
 public:
  MuT& add(MuT mut) {
    muts_.push_back(std::move(mut));
    return muts_.back();
  }

  const std::vector<MuT>& muts() const noexcept { return muts_; }

  std::vector<const MuT*> for_variant(sim::OsVariant v) const {
    std::vector<const MuT*> out;
    for (const auto& m : muts_)
      if (m.supported_on(v)) out.push_back(&m);
    return out;
  }

  const MuT* find(std::string_view name) const noexcept {
    for (const auto& m : muts_)
      if (m.name == name) return &m;
    return nullptr;
  }

  /// Group-qualified lookup: growth groups may re-register an API name that
  /// already exists in a paper group (e.g. sync's CreateEvent vs the process
  /// primitives one), so `repro` accepts "token:Name" to disambiguate.
  const MuT* find(std::string_view name, FuncGroup group) const noexcept {
    for (const auto& m : muts_)
      if (m.group == group && m.name == name) return &m;
    return nullptr;
  }

  /// Variant-aware lookup: the sockets group registers a Win32 and a POSIX
  /// MuT under the same API name (e.g. `socket`), distinguishable only by
  /// which variants support them — repro resolves through the target OS.
  const MuT* find(std::string_view name, std::optional<FuncGroup> group,
                  sim::OsVariant v) const noexcept {
    for (const auto& m : muts_)
      if ((!group || m.group == *group) && m.name == name &&
          m.supported_on(v))
        return &m;
    return nullptr;
  }

  std::size_t count_group(FuncGroup g) const noexcept {
    std::size_t n = 0;
    for (const auto& m : muts_)
      if (m.group == g) ++n;
    return n;
  }

  std::size_t count(sim::OsVariant v, ApiKind api) const noexcept {
    std::size_t n = 0;
    for (const auto& m : muts_)
      if (m.supported_on(v) && m.api == api) ++n;
    return n;
  }

 private:
  // deque-like stability not required: callers hold no pointers across adds
  // except within registration functions, which reserve first.
  std::vector<MuT> muts_;
};

}  // namespace ballista::core
