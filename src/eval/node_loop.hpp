// NodeLoop: one serving node's in-flight state for the iteration-level
// session loop (admit into a free slot, or advance the least-advanced
// session by one token). The continuous-batching scheduler
// (eval/continuous_batching.hpp) drives one; the cluster router
// (cluster/router.hpp) drives one per node.
//
// It holds the admitted and parked sessions, the times the free slots
// opened, the migration-counter totals of sessions that left, and the
// node's DegradationController, and it makes every per-node decision both
// callers share: slot and step picks, the deadline-shed verdict, the
// SessionEnv, close/abandon/crash bookkeeping and the degradation signals.
// Queues, admission and preemption policy, routing and failover stay with
// the caller, as does WHEN the controller observes. `Tag` is the caller's
// per-session bookkeeping; NodeLoop never looks inside it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cache/arbiter.hpp"
#include "cache/expert_cache.hpp"
#include "common/check.hpp"
#include "engines/session.hpp"
#include "eval/overload.hpp"
#include "sim/timeline.hpp"

namespace daop::eval {

template <class Tag>
class NodeLoop {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// One admitted session and the caller's bookkeeping for it.
  struct Active {
    Tag tag;
    std::unique_ptr<engines::SequenceSession> session;
  };
  /// A closed session: its tag, completion time and result.
  struct Closed {
    Tag tag;
    double end = 0.0;  ///< session start_time() + total_s
    engines::RunResult result;
  };
  /// A session torn down by a node crash, with the tokens it had generated.
  struct Lost {
    Tag tag;
    int tokens = 0;
  };

  NodeLoop(int max_concurrent, const DegradationOptions& degrade)
      : max_concurrent_(max_concurrent), degrade_(degrade) {
    DAOP_CHECK_GE(max_concurrent, 1);
    free_slots_.assign(static_cast<std::size_t>(max_concurrent), 0.0);
  }

  const std::vector<Active>& active() const { return active_; }
  /// Sessions parked by preemption, in park order. A parked session holds
  /// no slot (its preemptor does).
  const std::deque<Active>& parked() const { return parked_; }
  std::size_t free_slots() const { return free_slots_.size(); }
  bool idle() const { return active_.empty() && parked_.empty(); }
  const DegradationController& degrade() const { return degrade_; }

  /// Index of the free slot that opened earliest (first on ties), or kNone
  /// when every slot is taken.
  std::size_t earliest_free_slot() const {
    if (free_slots_.empty()) return kNone;
    return static_cast<std::size_t>(
        std::min_element(free_slots_.begin(), free_slots_.end()) -
        free_slots_.begin());
  }
  double slot_time(std::size_t slot) const { return free_slots_[slot]; }
  /// Concurrency bound under the degradation ladder: halved (at least 1)
  /// from level L3 on.
  int effective_concurrency() const {
    return degrade_.cap_concurrency() ? std::max(1, max_concurrent_ / 2)
                                      : max_concurrent_;
  }
  /// True when a session may take a slot now: one is free and the
  /// degradation cap leaves room.
  bool slot_ok() const {
    return !free_slots_.empty() &&
           static_cast<int>(active_.size()) < effective_concurrency();
  }

  /// When a session dispatched at `t` could start here: the earliest free
  /// slot while slot_ok() lets a session take it; otherwise (every slot
  /// taken, or the ladder's concurrency cap) the earliest in-flight
  /// frontier plus one `service_estimate_s`, the next release. A node with
  /// neither slots nor sessions (a crashed one) looks idle: `t`.
  double projected_start(double t, double service_estimate_s) const {
    if (slot_ok()) return std::max(t, slot_time(earliest_free_slot()));
    if (active_.empty()) return t;
    double frontier = active_.front().session->ready_time();
    for (const Active& a : active_) {
      frontier = std::min(frontier, a.session->ready_time());
    }
    return std::max(t, frontier) + service_estimate_s;
  }

  /// The least-advanced active session (ties go to the earliest admitted:
  /// sessions are kept in admission order and the first strict minimum
  /// wins), or kNone when nothing is active.
  std::size_t pick_step() const {
    std::size_t best = kNone;
    double t = 0.0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const double r = active_[i].session->ready_time();
      if (best == kNone || r < t) {
        t = r;
        best = i;
      }
    }
    return best;
  }

  /// Deadline shedding for an admission at `t_admit` of a request that
  /// arrived at `arrival` with first-token budget `budget` (0 = none). The
  /// projected first token (t_admit + service_estimate_s) must land within
  /// the budget, halved while the ladder sheds aggressively. Returns the
  /// shed reason — kDegraded when only the halved budget rejects it — or
  /// nullopt to admit.
  std::optional<ShedReason> shed_verdict(double arrival, double budget,
                                         double t_admit,
                                         double service_estimate_s) const {
    if (budget <= 0.0) return std::nullopt;
    const double dl_full = arrival + budget;
    const double dl_eff =
        degrade_.shed_aggressively() ? arrival + 0.5 * budget : dl_full;
    const double projected = t_admit + service_estimate_s;
    if (projected <= dl_eff) return std::nullopt;
    return projected > dl_full ? ShedReason::kDeadline : ShedReason::kDegraded;
  }

  /// The environment a session admitted at `start` opens with: the node's
  /// shared timeline, arbiter and cache, plus the ladder's directives.
  engines::SessionEnv session_env(sim::Timeline& timeline,
                                  cache::PlacementArbiter& arbiter,
                                  cache::ExpertCache* cache, double start,
                                  long long request_id) const {
    engines::SessionEnv env;
    env.timeline = &timeline;
    env.start_time = start;
    env.request_id = request_id;
    env.arbiter = &arbiter;
    env.cache = cache;
    env.shared = true;
    env.degrade_no_speculation = degrade_.no_speculation();
    env.degrade_no_migrations = degrade_.no_migrations();
    return env;
  }

  /// Puts an opened (prefilled or restored) session into free slot `slot`.
  void admit(std::size_t slot, Active a) {
    take_slot(slot);
    active_.push_back(std::move(a));
  }

  /// Parks active session `i` at `now`: the session releases its pins and
  /// its slot frees at `now`. Returns the parked entry.
  Active& park(std::size_t i, double now) {
    Active a = std::move(active_[i]);
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    a.session->park(now);
    free_slots_.push_back(now);
    parked_.push_back(std::move(a));
    return parked_.back();
  }

  /// Resumes the longest-parked session into free slot `slot` at `now`.
  /// Returns the resumed entry.
  Active& resume(std::size_t slot, double now) {
    Active a = std::move(parked_.front());
    parked_.pop_front();
    a.session->resume(now);
    take_slot(slot);
    active_.push_back(std::move(a));
    return active_.back();
  }

  /// Closes finished session `i`. Its migration counters join the closed
  /// totals and its slot frees at start_time() + total_s — the session's
  /// own start, which a warm restore may have shifted before admission.
  Closed close(std::size_t i) {
    Active& a = active_[i];
    const double start = a.session->start_time();
    engines::RunResult r = a.session->close();
    fold(r.counters);
    Closed c{std::move(a.tag), start + r.total_s, std::move(r)};
    free_slots_.push_back(c.end);
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    return c;
  }

  /// Cancels session `i` at `now` (a hedge copy that lost the race). Its
  /// already-scheduled work holds the slot until the session frontier
  /// passes; its migration counters join the closed totals like close()'s,
  /// so the cumulative signals never go down.
  void abandon(std::size_t i, double now) {
    Active& a = active_[i];
    const double slot_free = std::max(now, a.session->ready_time());
    a.session->abandon(now);
    fold(a.session->counters());
    free_slots_.push_back(slot_free);
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  /// Node crash: destroys every session WITHOUT close() (each session's
  /// RAII pin guard releases its arbiter pins) and removes every slot — a
  /// dead node never admits again. Returns what was lost, in admission
  /// order.
  std::vector<Lost> crash() {
    std::vector<Lost> lost;
    lost.reserve(active_.size() + parked_.size());
    const auto tear_down = [&](Active& a) {
      fold(a.session->counters());
      lost.push_back(Lost{std::move(a.tag), a.session->tokens_generated()});
      a.session.reset();
    };
    for (Active& a : active_) tear_down(a);
    for (Active& a : parked_) tear_down(a);
    active_.clear();
    parked_.clear();
    free_slots_.clear();
    return lost;
  }

  /// Cumulative fault-plane telemetry: the timeline's hazard stall plus the
  /// migration aborts/retries of every session that ever ran here.
  DegradationController::Signals signals(double hazard_stall_s) const {
    DegradationController::Signals s;
    s.hazard_stall_s = hazard_stall_s;
    s.migration_aborts = closed_aborts_;
    s.migration_retries = closed_retries_;
    for (const Active& a : active_) add(s, a.session->counters());
    for (const Active& a : parked_) add(s, a.session->counters());
    return s;
  }

  /// Feeds the controller one sample at `now`; its directives apply from
  /// the next decision on. A disabled ladder costs nothing.
  void observe(double now, double hazard_stall_s) {
    if (!degrade_.enabled()) return;
    degrade_.observe(now, signals(hazard_stall_s));
  }

 private:
  static void add(DegradationController::Signals& s,
                  const engines::EngineCounters& c) {
    s.migration_aborts += c.migration_aborts;
    s.migration_retries += c.migration_retries;
  }
  void fold(const engines::EngineCounters& c) {
    closed_aborts_ += c.migration_aborts;
    closed_retries_ += c.migration_retries;
  }
  void take_slot(std::size_t slot) {
    free_slots_.erase(free_slots_.begin() + static_cast<std::ptrdiff_t>(slot));
  }

  int max_concurrent_;
  DegradationController degrade_;
  std::vector<Active> active_;  ///< admission order
  std::deque<Active> parked_;
  /// Times at which the currently unoccupied slots opened.
  std::vector<double> free_slots_;
  /// Counter totals of sessions that left the node (closed, abandoned or
  /// crashed), so the signals stay cumulative across session lifetimes.
  long long closed_aborts_ = 0;
  long long closed_retries_ = 0;
};

}  // namespace daop::eval
