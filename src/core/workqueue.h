// Lock-free shard scheduling.
//
// The executor (core/sched) deals shard indices round-robin into one
// fixed-capacity Chase–Lev deque per worker.  Shards are seeded in reverse
// plan order so the owner, popping from the bottom end, consumes its share in
// plan order (making the jobs=1 schedule exactly the sequential schedule);
// thieves steal from the top end — the victim's latest shards — via a CAS on
// `top_`.  Victim choice is a per-worker seeded rotation: deterministic given
// (seed, worker), though the *interleaving* across workers is not (and does
// not need to be: merge is by shard index).
//
// All atomic operations are seq_cst: the only races are on the two indices,
// pops happen once per multi-millisecond shard, and TSAN reasons about
// seq_cst directly.  The buffer never grows (capacity is the shard count,
// known up front) and is seeded single-threaded before workers start, so the
// storage itself is immutable while the campaign runs.  DESIGN.md §14
// sketches the correctness argument, including the last-element arbitration.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace ballista::core {

/// Single-owner / multi-thief deque over pre-dealt shard indices.
/// `seed()` may only be called before any concurrent access; `pop()` only by
/// the owning worker; `steal()` by anyone else.
class ShardDeque {
 public:
  explicit ShardDeque(std::size_t capacity) : buf_(capacity) {}

  ShardDeque(const ShardDeque&) = delete;
  ShardDeque& operator=(const ShardDeque&) = delete;

  /// Appends a shard during single-threaded setup.
  void seed(std::size_t shard) {
    const auto b = bottom_.load(std::memory_order_relaxed);
    buf_[static_cast<std::size_t>(b)] = shard;
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner-side pop from the bottom end.  Uncontended pops are a store and
  /// two loads; only the last element is arbitrated, by the same CAS on
  /// `top_` that thieves use, so every slot is claimed exactly once.
  std::optional<std::size_t> pop() {
    const std::int64_t b = bottom_.load() - 1;
    bottom_.store(b);
    std::int64_t t = top_.load();
    if (t > b) {  // already empty
      bottom_.store(b + 1);
      return std::nullopt;
    }
    std::optional<std::size_t> s = buf_[static_cast<std::size_t>(b)];
    if (t == b) {  // last element: race the thieves for it
      if (!top_.compare_exchange_strong(t, t + 1)) s.reset();
      bottom_.store(b + 1);
    }
    return s;
  }

  /// Thief-side steal from the top end, keeping thieves off the owner's end
  /// for as long as both have work.  A lost CAS sets `contended` and returns
  /// nothing — the caller must re-sweep before concluding the system is
  /// drained, because the victim may still hold more shards.
  std::optional<std::size_t> steal(bool& contended) {
    std::int64_t t = top_.load();
    const std::int64_t b = bottom_.load();
    if (t >= b) return std::nullopt;  // empty
    const std::size_t s = buf_[static_cast<std::size_t>(t)];
    if (!top_.compare_exchange_strong(t, t + 1)) {
      contended = true;
      return std::nullopt;
    }
    return s;
  }

 private:
  std::vector<std::size_t> buf_;
  // On separate cache lines: top_ is hammered by thieves, bottom_ by the
  // owner.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

/// Work-distribution structure: shard indices [0, shards) dealt round-robin
/// across per-worker deques.  next(worker) pops locally, then sweeps victims
/// in a seeded per-worker rotation, retrying the sweep while any steal was
/// contended.  Returns nothing only once every deque is truly empty.
class ShardQueue {
 public:
  ShardQueue(std::size_t shards, unsigned workers,
             std::uint64_t steal_seed = 0x5ca1ab1e);

  /// Claims the next shard index for `worker`, or nothing when every index
  /// has been handed out.  Each index is returned exactly once across all
  /// workers.
  std::optional<std::size_t> next(unsigned worker);

  /// Number of steal attempts that lost a claim race (all workers summed).
  std::uint64_t contended_steals() const {
    return contended_steals_.load(std::memory_order_relaxed);
  }

  unsigned workers() const {
    return static_cast<unsigned>(deques_.size());
  }

 private:
  struct alignas(64) WorkerState {
    SplitMix64 rng{0};
  };

  std::vector<std::unique_ptr<ShardDeque>> deques_;
  std::vector<WorkerState> states_;
  std::atomic<std::uint64_t> contended_steals_{0};
};

}  // namespace ballista::core
