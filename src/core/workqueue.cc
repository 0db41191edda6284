#include "core/workqueue.h"

namespace ballista::core {

ShardQueue::ShardQueue(std::size_t shards, unsigned workers,
                       std::uint64_t steal_seed) {
  if (workers == 0) workers = 1;
  deques_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    deques_.push_back(std::make_unique<ShardDeque>(shards));
  // Deal round-robin, seeding each deque in *reverse* plan order so the
  // owner's bottom-end pops come out in plan order.
  for (std::size_t i = shards; i-- > 0;) deques_[i % workers]->seed(i);
  states_.resize(workers);
  for (unsigned w = 0; w < workers; ++w)
    states_[w].rng = SplitMix64(steal_seed ^ (0x9e3779b97f4a7c15ULL * (w + 1)));
}

std::optional<std::size_t> ShardQueue::next(unsigned worker) {
  if (std::optional<std::size_t> s = deques_[worker]->pop()) return s;
  const unsigned n = workers();
  if (n == 1) return std::nullopt;
  auto& rng = states_[worker].rng;
  std::uint64_t lost = 0;
  std::optional<std::size_t> found;
  for (;;) {
    // Sweep every victim once, starting from a seeded random rotation so
    // thieves fan out instead of convoying on worker 0.
    bool contended = false;
    const unsigned start = static_cast<unsigned>(rng.next_below(n));
    for (unsigned k = 0; k < n && !found; ++k) {
      const unsigned v = (start + k) % n;
      if (v == worker) continue;
      bool this_lost = false;
      found = deques_[v]->steal(this_lost);
      if (this_lost) {
        ++lost;
        contended = true;
      }
    }
    // A contended sweep proves nothing about emptiness — the victim may
    // still hold shards behind the slot we lost — so sweep again.
    if (found || !contended) break;
  }
  if (lost != 0) contended_steals_.fetch_add(lost, std::memory_order_relaxed);
  return found;
}

}  // namespace ballista::core
