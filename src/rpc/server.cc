#include "rpc/server.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <limits>
#include <utility>

#include "store/format.h"

namespace ballista::rpc {

namespace {

// A campaign's variant travels per-session; the pool's construction variant
// is only the first checkout's default and is immediately overridden.
constexpr sim::OsVariant kPoolSeedVariant = static_cast<sim::OsVariant>(0);

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fp);
  return buf;
}

enum UnitState : std::uint8_t { kIdle, kClaimed, kDone };

}  // namespace

struct CampaignServer::Unit {
  Session* session = nullptr;
  std::size_t shard = 0;
  /// kIdle -> kClaimed by whichever thread will run it (under ahead_mu_
  /// while the unit is in the forecast), -> kDone with a release store once
  /// `outcome` or `error` is written.
  std::atomic<std::uint8_t> state{kIdle};
  core::ShardOutcome outcome;
  std::exception_ptr error;
  std::uint64_t stamp = 0;  // forecast_gen_ of the last forecast holding it
};

CampaignServer::CampaignServer(const core::Registry& registry, ServerConfig cfg)
    : registry_(registry),
      cfg_(cfg),
      pool_(kPoolSeedVariant, std::max(cfg.jobs, 1u)) {
  if (cfg_.jobs == 0) cfg_.jobs = 1;
  if (cfg_.quota == 0) cfg_.quota = 1;
}

CampaignServer::~CampaignServer() { workers_.stop(); }

void CampaignServer::bind(Endpoint& transport) {
  if (std::find(transports_.begin(), transports_.end(), &transport) ==
      transports_.end())
    transports_.push_back(&transport);
}

const Session* CampaignServer::session(std::uint64_t id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const Session* CampaignServer::session_by_fingerprint(std::uint64_t fp) const {
  const auto it = id_by_fingerprint_.find(fp);
  return it == id_by_fingerprint_.end() ? nullptr : session(it->second);
}

std::string CampaignServer::log_path(const store::RunHeader& header) const {
  if (cfg_.log_dir.empty()) return "";
  return cfg_.log_dir + "/session_" +
         fingerprint_hex(store::run_fingerprint(header)) + ".blog";
}

void CampaignServer::send(Endpoint& ep, const Message& m) {
  // Best-effort: direct sends carry refusals to clients that may not even
  // have a session; a frame refused by backpressure here is simply dropped
  // (the Endpoint counts it).  Session traffic goes through flush(), which
  // never drops.
  if (ep.send(encode(m)) && wire_trace) wire_trace('>', m);
}

void CampaignServer::send_error(Endpoint& ep, ErrorCode code,
                                std::uint64_t session_id, std::string message) {
  send(ep, Message{Error{code, session_id, std::move(message)}});
}

bool CampaignServer::flush(Session& s) {
  Endpoint* ep = s.transport();
  if (ep == nullptr) return false;
  bool sent_any = false;
  while (!s.outbox().empty()) {
    if (!ep->send(encode(s.outbox().front()))) break;  // retry next step
    if (wire_trace) wire_trace('>', s.outbox().front());
    s.outbox().pop_front();
    sent_any = true;
  }
  return sent_any;
}

void CampaignServer::handle(Endpoint& ep, Message m) {
  if (wire_trace) wire_trace('<', m);
  switch (message_type(m)) {
    case MessageType::kHello:
      handle_hello(ep, std::get<Hello>(m));
      return;
    case MessageType::kDetach:
      handle_detach(ep, std::get<Detach>(m));
      return;
    default:
      send_error(ep, ErrorCode::kMalformed, 0,
                 std::string("unexpected frame: ") +
                     std::string(message_type_name(message_type(m))));
      return;
  }
}

void CampaignServer::handle_hello(Endpoint& ep, const Hello& h) {
  if (h.protocol_version != kProtocolVersion) {
    send_error(ep, ErrorCode::kBadVersion, 0,
               "protocol version " + std::to_string(h.protocol_version) +
                   " unsupported (this server speaks " +
                   std::to_string(kProtocolVersion) + ")");
    return;
  }
  const std::optional<core::CampaignOptions> opt = options_from_spec(h.spec);
  if (!opt) {
    send_error(ep, ErrorCode::kMalformed, 0,
               "hello carries a non-canonical or unknown campaign spec");
    return;
  }
  const auto variant = static_cast<sim::OsVariant>(h.spec.variant);
  core::Plan plan = core::plan_for(variant, registry_, *opt);
  const store::RunHeader header = store::make_run_header(plan, *opt);
  const std::uint64_t fp = store::run_fingerprint(header);

  if (const auto it = id_by_fingerprint_.find(fp);
      it != id_by_fingerprint_.end()) {
    Session& s = *sessions_.at(it->second);
    switch (s.state()) {
      case SessionState::kComplete:
        send_error(ep, ErrorCode::kSessionSealed, s.id(),
                   "campaign already complete" +
                       (s.log() ? "; load " + s.log()->path() : std::string()));
        return;
      case SessionState::kAttached:
        send_error(ep, ErrorCode::kAlreadyAttached, s.id(),
                   "a client is already attached to this campaign");
        return;
      case SessionState::kDetached: {
        s.attach(&ep);
        s.outbox().push_back(Attach{s.id(), header.plan_shards,
                                    header.total_planned,
                                    s.completed_indices()});
        flush(s);
        return;
      }
    }
    return;
  }

  if (sessions_.size() >= cfg_.max_sessions) {
    send_error(ep, ErrorCode::kQuotaExceeded, 0,
               "session table full (" + std::to_string(cfg_.max_sessions) +
                   " campaigns)");
    return;
  }

  const std::uint64_t id = next_id_++;
  auto s = std::make_unique<Session>(id, h.spec, *opt, std::move(plan), header);

  if (!cfg_.log_dir.empty()) {
    store::ResumableLog::Opened opened = store::ResumableLog::open(
        log_path(header), s->plan(), header,
        store::ResumableLog::Mode::kCreateOrResume);
    if (!opened.log) {
      send_error(ep, ErrorCode::kStoreFailure, 0, std::move(opened.error));
      return;
    }
    s->adopt_log(std::move(opened.log));
  }

  if (s->state() == SessionState::kComplete) {
    // The log on disk already covered the whole campaign.  Register the
    // sealed session (it answers future hellos consistently) and point the
    // client at the log instead of replaying shards.
    send_error(ep, ErrorCode::kSessionSealed, id,
               "campaign already complete; load " + s->log()->path());
  } else {
    s->attach(&ep);
    s->outbox().push_back(Attach{id, header.plan_shards, header.total_planned,
                                 s->completed_indices()});
  }
  id_by_fingerprint_.emplace(s->fingerprint(), id);
  Session& reg = *(sessions_.emplace(id, std::move(s)).first->second);
  flush(reg);
}

void CampaignServer::handle_detach(Endpoint& ep, const Detach& d) {
  const auto it = sessions_.find(d.session_id);
  if (it == sessions_.end()) {
    send_error(ep, ErrorCode::kUnknownSession, d.session_id,
               "no such session");
    return;
  }
  Session& s = *it->second;
  if (s.transport() == nullptr) {
    send_error(ep, ErrorCode::kNotAttached, s.id(),
               "session has no attached client");
    return;
  }
  s.detach();
}

CampaignServer::Unit& CampaignServer::unit(Session& s, std::size_t shard) {
  std::unique_ptr<Unit>& u = units_[{s.id(), shard}];
  if (!u) {
    u = std::make_unique<Unit>();
    u->session = &s;
    u->shard = shard;
  }
  return *u;
}

template <class Emit>
void CampaignServer::replay_rounds(std::size_t rounds, Emit emit) {
  // Candidates: attached sessions with pending shards, visited in id order
  // rotated by the round counter, so long-lived sessions cannot starve
  // newcomers (nor vice versa) and the interleaving is deterministic.
  // Each session hands out its pending shards in index order; `next` is the
  // one it would hand out now.
  struct Member {
    Session* session;
    std::optional<std::size_t> next;
    std::uint64_t taken = 0;
  };
  std::vector<Member> members;
  for (auto& [id, s] : sessions_) {
    if (s->state() == SessionState::kAttached && !s->all_done()) {
      s->rewind_cursor();
      members.push_back({s.get(), s->take_next_pending()});
    }
  }
  std::vector<Member*> ring;
  for (std::size_t r = 0; r < rounds; ++r) {
    ring.clear();
    for (Member& m : members) {
      m.taken = 0;
      if (m.next) ring.push_back(&m);
    }
    if (ring.empty()) return;
    std::rotate(ring.begin(),
                ring.begin() + static_cast<std::ptrdiff_t>((round_ + r) %
                                                           ring.size()),
                ring.end());
    // Up to `jobs` (session, shard) pairs, one per session per pass, at most
    // `quota` per session per round.
    std::size_t collected = 0;
    for (bool any_taken = true; any_taken && collected < cfg_.jobs;) {
      any_taken = false;
      for (Member* m : ring) {
        if (collected == cfg_.jobs) break;
        if (m->taken >= cfg_.quota || !m->next) continue;
        emit(r, *m->session, *m->next);
        m->next = m->session->take_next_pending();
        ++m->taken;
        ++collected;
        any_taken = true;
      }
    }
  }
}

void CampaignServer::plan_ahead(const std::vector<Unit*>& batch) {
  bool predicted = false;
  {
    const std::lock_guard<std::mutex> lock(ahead_mu_);
    if (!forecast_stale_ && ahead_.size() >= batch.size() &&
        std::equal(batch.begin(), batch.end(), ahead_.begin())) {
      // The round is the forecast's head, as predicted: the rest of the
      // forecast still follows from the round rule.
      ahead_.erase(ahead_.begin(),
                   ahead_.begin() + static_cast<std::ptrdiff_t>(batch.size()));
      ahead_scan_ -= std::min(ahead_scan_, batch.size());
      predicted = true;
    }
  }
  if (predicted) {
    if (orphans_ > 0) sweep();
    return;
  }
  // Rebuild from the rounds after this one.  Units already claimed or run
  // for a pair the new forecast still holds are kept, not rerun.
  ++forecast_gen_;
  for (Unit* u : batch) u->stamp = forecast_gen_;
  std::deque<Unit*> forecast;
  replay_rounds(std::numeric_limits<std::size_t>::max(),
                [&](std::size_t r, Session& s, std::size_t shard) {
                  if (r == 0) return;  // this step's round: `batch`
                  Unit& u = unit(s, shard);
                  u.stamp = forecast_gen_;
                  forecast.push_back(&u);
                });
  {
    const std::lock_guard<std::mutex> lock(ahead_mu_);
    ahead_.swap(forecast);
    ahead_scan_ = 0;
  }
  forecast_stale_ = false;
  sweep();
  workers_.notify();
}

void CampaignServer::sweep() {
  orphans_ = 0;
  for (auto it = units_.begin(); it != units_.end();) {
    Unit& u = *it->second;
    if (u.stamp == forecast_gen_) {
      ++it;
      continue;
    }
    const std::uint8_t state = u.state.load(std::memory_order_acquire);
    if (state == kClaimed) {  // a worker still writes it; look again later
      ++orphans_;
      ++it;
      continue;
    }
    if (state == kDone) ++shards_discarded_;
    it = units_.erase(it);
  }
}

bool CampaignServer::run_ahead(unsigned worker) {
  Unit* claimed = nullptr;
  {
    const std::lock_guard<std::mutex> lock(ahead_mu_);
    while (claimed == nullptr && ahead_scan_ < ahead_.size()) {
      Unit* u = ahead_[ahead_scan_++];
      if (u->state.load(std::memory_order_relaxed) == kIdle) {
        u->state.store(kClaimed, std::memory_order_relaxed);
        claimed = u;
      }
    }
  }
  if (claimed == nullptr) return false;
  run_unit(*claimed, worker);
  return true;
}

void CampaignServer::run_unit(Unit& u, unsigned worker) {
  // Shard outcomes depend only on (variant, options, shard) — checkout()
  // hands over a fully reset (or freshly built, on variant change) machine —
  // so which slot, thread or step runs a unit cannot influence any result.
  // The session fields read here are fixed at its construction.
  try {
    u.outcome = core::run_shard(pool_.checkout(worker, u.session->variant()),
                                u.session->plan().shards.at(u.shard),
                                u.session->options());
  } catch (...) {
    u.error = std::current_exception();
  }
  u.state.store(kDone, std::memory_order_release);
  // `u` may be gone from here on: the calling thread frees recorded units.
  finished_.fetch_add(1, std::memory_order_release);
  finished_.notify_one();
}

bool CampaignServer::schedule_round() {
  std::vector<Unit*> batch;
  replay_rounds(1, [&](std::size_t, Session& s, std::size_t shard) {
    batch.push_back(&unit(s, shard));
  });
  if (cfg_.jobs > 1 && !batch.empty() && !workers_.started())
    workers_.start(cfg_.jobs, [this](unsigned w) { return run_ahead(w); });
  if (workers_.started()) plan_ahead(batch);
  if (batch.empty()) return false;
  ++round_;

  // Worker 0's share: every unit of the round no worker has claimed (no
  // worker can claim one any more: the round is off the forecast).  Then,
  // while the rest of the round runs elsewhere, run ahead instead of idling.
  for (Unit* u : batch) {
    if (u->state.load(std::memory_order_relaxed) == kIdle) {
      u->state.store(kClaimed, std::memory_order_relaxed);
      run_unit(*u, 0);
    }
  }
  const auto round_done = [&batch] {
    return std::all_of(batch.begin(), batch.end(), [](const Unit* u) {
      return u->state.load(std::memory_order_acquire) == kDone;
    });
  };
  for (;;) {
    const std::uint32_t seen = finished_.load(std::memory_order_acquire);
    if (round_done()) break;
    if (!run_ahead(0)) finished_.wait(seen, std::memory_order_acquire);
  }

  for (Unit* u : batch) {
    if (u->error) {
      // Rethrown in collection order, before anything of the round is
      // recorded; the failed units go, so a later round reruns them.
      const std::exception_ptr error = u->error;
      for (Unit* f : batch)
        if (f->error) units_.erase({f->session->id(), f->shard});
      forecast_stale_ = true;
      std::rethrow_exception(error);
    }
  }
  shards_executed_ += batch.size();

  // Record, stream and (maybe) seal in collection order — the same order a
  // jobs=1 server would have produced, which is what keeps every session's
  // log bytes independent of the jobs setting.
  for (Unit* u : batch) {
    Session& s = *u->session;
    core::ShardOutcome outcome = std::move(u->outcome);
    units_.erase({s.id(), u->shard});
    if (s.state() != SessionState::kAttached) continue;  // detached mid-batch
    if (!s.record(std::move(outcome))) {
      Endpoint* ep = s.transport();
      s.detach();
      forecast_stale_ = true;
      if (ep != nullptr)
        send_error(*ep, ErrorCode::kStoreFailure, s.id(),
                   "could not append to " + s.log()->path());
      continue;
    }
    if (s.all_done() && !s.finish()) {
      Endpoint* ep = s.transport();
      s.detach();
      forecast_stale_ = true;
      if (ep != nullptr)
        send_error(*ep, ErrorCode::kStoreFailure, s.id(),
                   "could not seal " + s.log()->path());
    }
  }
  return true;
}

bool CampaignServer::step() {
  bool progressed = false;
  for (Endpoint* ep : transports_) {
    while (const std::optional<Frame> f = ep->try_recv()) {
      progressed = true;
      forecast_stale_ = true;  // a hello or detach may change the rounds
      if (std::optional<Message> m = decode(*f))
        handle(*ep, std::move(*m));
      else
        send_error(*ep, ErrorCode::kMalformed, 0, "undecodable frame");
    }
  }
  for (auto& [id, s] : sessions_)
    if (flush(*s)) progressed = true;
  if (schedule_round()) progressed = true;
  for (auto& [id, s] : sessions_)
    if (flush(*s)) progressed = true;
  return progressed;
}

std::size_t CampaignServer::run_until_idle(std::size_t max_steps) {
  std::size_t steps = 0;
  while (steps < max_steps && step()) ++steps;
  return steps;
}

// --- client ------------------------------------------------------------------

CampaignClient::CampaignClient(Endpoint& endpoint,
                               const core::Registry& registry,
                               sim::OsVariant variant,
                               const core::CampaignOptions& opt)
    : endpoint_(endpoint),
      variant_(variant),
      opt_(opt),
      spec_(spec_for(variant, opt)),
      plan_(core::plan_for(variant, registry, opt)) {}

bool CampaignClient::hello() {
  return endpoint_.send(encode(Message{Hello{kProtocolVersion, spec_}}));
}

bool CampaignClient::poll() {
  while (const std::optional<Frame> f = endpoint_.try_recv()) {
    std::optional<Message> msg = decode(*f);
    if (!msg) continue;  // a robustness harness tolerates line noise
    if (const auto* a = std::get_if<Attach>(&*msg)) {
      attach_ = *a;
    } else if (auto* s = std::get_if<StreamedShard>(&*msg)) {
      outcomes_[s->outcome.shard_index] = std::move(s->outcome);
    } else if (const auto* c = std::get_if<Complete>(&*msg)) {
      complete_ = *c;
    } else if (const auto* e = std::get_if<Error>(&*msg)) {
      error_ = *e;
      attach_.reset();
    }
  }
  return !error_.has_value();
}

void CampaignClient::detach() {
  if (!attach_) return;
  endpoint_.send(encode(Message{Detach{attach_->session_id}}));
  attach_.reset();
}

std::uint64_t CampaignClient::session_id() const {
  if (attach_) return attach_->session_id;
  if (complete_) return complete_->session_id;
  return 0;
}

std::size_t CampaignClient::reused() const {
  return attach_ ? attach_->complete.size() : 0;
}

std::optional<core::CampaignResult> CampaignClient::result() const {
  if (!complete_) return std::nullopt;
  if (outcomes_.size() != plan_.shards.size()) return std::nullopt;
  std::vector<core::ShardOutcome> all;
  all.reserve(outcomes_.size());
  for (const auto& [index, outcome] : outcomes_) all.push_back(outcome);
  core::CampaignResult merged = core::merge_outcomes(plan_, std::move(all));
  // Cross-check against the server's sealed totals: a divergence means the
  // stream and the merge disagree, and neither should be trusted.
  if (merged.total_cases != complete_->total_cases ||
      merged.reboots != complete_->reboots ||
      merged.event_counters != complete_->counters)
    return std::nullopt;
  return merged;
}

}  // namespace ballista::rpc
