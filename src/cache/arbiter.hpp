// Shared-placement arbitration for multi-session serving.
//
// Under continuous batching, every in-flight session schedules against ONE
// device placement — the expert cache is a device resource, not a
// per-request one. The PlacementArbiter owns that shared Placement and adds
// the two pieces of state individual sessions cannot see:
//
//  - reference-counted pins: a session pins the GPU experts it actively
//    uses, and a swap/eviction requested by one session is REFUSED when its
//    victim is pinned by another — one request's migration can never evict
//    an expert a concurrent request is computing with. Refusals are counted
//    (EngineCounters::pin_refusals) and the requester degrades exactly as it
//    would for any failed migration.
//  - weight-arrival gates: when a session's transfer lands an expert on the
//    GPU, the arrival time is published so a DIFFERENT session scheduling
//    the same expert waits for the weights instead of using them before
//    they exist.
//
// The arbiter is deterministic and single-threaded like the rest of the
// simulation; "concurrent" sessions are interleaved by the scheduler, never
// by threads.
#pragma once

#include <vector>

#include "cache/placement.hpp"

namespace daop::cache {

class PlacementArbiter {
 public:
  explicit PlacementArbiter(Placement initial);

  Placement& placement() { return placement_; }
  const Placement& placement() const { return placement_; }

  /// Pins (layer, expert) for `session`. Pins nest: each pin() needs a
  /// matching unpin() — or a final unpin_session() — to release.
  void pin(int layer, int expert, long long session);
  void unpin(int layer, int expert, long long session);
  /// Drops every pin `session` holds (called when a session closes).
  void unpin_session(long long session);

  /// Total pin count on (layer, expert) across all sessions.
  int pin_count(int layer, int expert) const;
  /// Per-expert introspection: total pin count on `expert` summed across
  /// every layer and session (an expert id names one weight set per layer).
  int pin_count(int expert) const;
  /// The sessions currently pinning (layer, expert), ascending by id —
  /// refusal diagnostics use this to name the contending sessions.
  std::vector<long long> pinning_sessions(int layer, int expert) const;
  /// Total pin count across every (layer, expert) and every session — the
  /// scheduler DAOP_CHECKs this returns to zero at shutdown (no session may
  /// leak pins through preemption or close).
  int total_pin_count() const;
  /// True when any session other than `session` pins (layer, expert).
  bool pinned_by_other(int layer, int expert, long long session) const;

  /// Swap arbitration: performs `expert_out` -> `expert_in` on `layer` and
  /// returns true, unless `expert_out` is pinned by a session other than
  /// the requester — then the placement is untouched and false is returned
  /// (the caller counts a pin refusal and degrades like any failed
  /// migration). A session's own pins never block its request.
  bool try_swap(int layer, int expert_in, int expert_out, long long session);

  /// Eviction arbitration with the same pin rule as try_swap.
  bool try_evict(int layer, int expert, long long session);

  /// Weight-arrival gate: experts become usable only once their transfer
  /// lands, and that holds across sessions. set_weight_ready publishes (and
  /// only ever advances) the arrival time; weight_ready reads it (0 when
  /// the weights were never in flight).
  double weight_ready(int layer, int expert) const;
  void set_weight_ready(int layer, int expert, double t);

 private:
  std::size_t idx(int layer, int expert) const;

  Placement placement_;
  struct Pin {
    long long session;
    int count;  ///< > 0 while stored
  };
  /// Per-(layer, expert) pin refcounts, one entry per pinning session.
  /// Holders are few, so a flat list beats a map, and an emptied list keeps
  /// its capacity: pinning allocates nothing once the serving loop is warm.
  std::vector<std::vector<Pin>> pins_;
  std::vector<double> weight_ready_;
};

}  // namespace daop::cache
