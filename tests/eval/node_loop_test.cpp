// NodeLoop: the per-node session bookkeeping shared by the continuous-
// batching scheduler and the cluster router. The full loops are pinned by
// serving_loops_golden_test; these tests cover the bookkeeping contracts
// directly — cumulative degradation signals across abandon and crash, slot
// release, and the ladder-dependent admission decisions.
#include "eval/node_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "../testing/helpers.hpp"
#include "cache/arbiter.hpp"
#include "common/check.hpp"
#include "core/daop_engine.hpp"
#include "data/trace_generator.hpp"
#include "sim/fault_model.hpp"

namespace daop::eval {
namespace {

struct Tag {
  long long id = 0;
};
using Loop = NodeLoop<Tag>;

class NodeLoopTest : public ::testing::Test {
 protected:
  NodeLoopTest()
      : cfg_(daop::testing::small_mixtral()),
        cm_(sim::a6000_i9_platform()),
        costs_(cfg_, cm_),
        arbiter_(daop::testing::prefix_placement(cfg_, 2)),
        gen_(data::c4(), cfg_.n_layers, cfg_.n_experts, cfg_.top_k, 21) {
    // Transient weight-load failures under a tight migration deadline:
    // DAOP's swaps retry and abort, so sessions accumulate abort counters.
    sim::HazardScenario s;
    s.expert_load_fail_prob = 0.9;
    fault_ = std::make_unique<sim::FaultModel>(s, 3);
    core::DaopConfig dc;
    dc.migration_deadline_factor = 1.5;
    dc.max_migration_retries = 1;
    engine_ = std::make_unique<core::DaopEngine>(costs_, dc);
    engine_->set_fault_model(fault_.get());
  }

  /// Opens, prefills and admits request `id` into the earliest free slot.
  void admit(Loop& loop, long long id, double start) {
    traces_.push_back(std::make_unique<data::SequenceTrace>(
        gen_.generate(static_cast<int>(id), 48, 24)));
    Loop::Active a;
    a.tag.id = id;
    a.session = engine_->open_session(
        *traces_.back(), arbiter_.placement(),
        loop.session_env(tl_, arbiter_, nullptr, start, id));
    a.session->prefill();
    loop.admit(loop.earliest_free_slot(), std::move(a));
  }

  static long long aborts(const DegradationController::Signals& s) {
    return s.migration_aborts;
  }

  bool holds_pins(long long id) const {
    for (int l = 0; l < cfg_.n_layers; ++l) {
      for (int e = 0; e < cfg_.n_experts; ++e) {
        for (const long long h : arbiter_.pinning_sessions(l, e)) {
          if (h == id) return true;
        }
      }
    }
    return false;
  }

  model::ModelConfig cfg_;
  sim::CostModel cm_;
  model::OpCosts costs_;
  sim::Timeline tl_;
  cache::PlacementArbiter arbiter_;
  data::TraceGenerator gen_;
  std::unique_ptr<sim::FaultModel> fault_;
  std::unique_ptr<core::DaopEngine> engine_;
  std::vector<std::unique_ptr<data::SequenceTrace>> traces_;
};

TEST_F(NodeLoopTest, AbandonKeepsTheCumulativeSignals) {
  Loop loop(2, DegradationOptions{});
  admit(loop, 0, 0.0);
  admit(loop, 1, 0.0);
  EXPECT_EQ(loop.free_slots(), 0u);
  // Step both sessions until the fault plane has aborted a migration.
  for (int i = 0; i < 40; ++i) {
    const std::size_t si = loop.pick_step();
    ASSERT_NE(si, Loop::kNone);
    if (!loop.active()[si].session->decode_step()) break;
  }
  const long long victim_aborts =
      loop.active()[0].session->counters().migration_aborts;
  ASSERT_GT(victim_aborts, 0) << "the fault model must abort migrations";

  const DegradationController::Signals before = loop.signals(0.0);
  const double frontier = loop.active()[0].session->ready_time();
  loop.abandon(0, 0.0);
  const DegradationController::Signals after = loop.signals(0.0);
  // The abandoned copy's aborts and retries stay in the node's totals, so
  // cancelling a hedge can never hide an abort burst from the ladder.
  EXPECT_EQ(aborts(after), aborts(before));
  EXPECT_EQ(after.migration_retries, before.migration_retries);
  EXPECT_EQ(loop.active().size(), 1u);
  // The slot stays held until the abandoned session's frontier passes.
  ASSERT_EQ(loop.free_slots(), 1u);
  EXPECT_EQ(loop.slot_time(loop.earliest_free_slot()), frontier);
  EXPECT_FALSE(holds_pins(0)) << "abandon must release the copy's pins";
}

TEST_F(NodeLoopTest, CloseFreesTheSlotAtCompletionAndKeepsSignals) {
  Loop loop(1, DegradationOptions{});
  admit(loop, 7, 2.0);
  EXPECT_FALSE(loop.slot_ok());
  while (loop.active()[0].session->decode_step()) {
  }
  const DegradationController::Signals before = loop.signals(0.0);
  const Loop::Closed c = loop.close(0);
  EXPECT_EQ(c.tag.id, 7);
  EXPECT_EQ(c.end, 2.0 + c.result.total_s);
  EXPECT_TRUE(loop.idle());
  ASSERT_TRUE(loop.slot_ok());
  EXPECT_EQ(loop.slot_time(loop.earliest_free_slot()), c.end);
  EXPECT_EQ(aborts(loop.signals(0.0)), aborts(before));
}

TEST_F(NodeLoopTest, CrashTearsDownEverySessionAndEverySlot) {
  Loop loop(3, DegradationOptions{});
  admit(loop, 0, 0.0);
  admit(loop, 1, 0.0);
  ASSERT_TRUE(loop.active()[0].session->decode_step());
  const int tokens = loop.active()[0].session->tokens_generated();
  const std::vector<Loop::Lost> lost = loop.crash();
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0].tag.id, 0);
  EXPECT_EQ(lost[0].tokens, tokens);
  EXPECT_EQ(lost[1].tag.id, 1);
  EXPECT_TRUE(loop.idle());
  EXPECT_EQ(loop.free_slots(), 0u) << "a dead node never admits again";
  EXPECT_FALSE(loop.slot_ok());
  EXPECT_EQ(arbiter_.total_pin_count(), 0);
}

TEST(NodeLoop, ShedVerdictAndConcurrencyFollowTheLadder) {
  DegradationOptions d;
  d.enabled = true;
  d.window_s = 2.0;
  d.min_dwell_s = 0.5;
  Loop loop(4, d);
  // Budget 10 s from arrival 0: admitting at 6 s projects the first token
  // inside the full budget.
  EXPECT_FALSE(loop.shed_verdict(0.0, 10.0, 6.0, 0.0).has_value());
  EXPECT_EQ(loop.shed_verdict(0.0, 10.0, 9.0, 2.0), ShedReason::kDeadline);
  EXPECT_FALSE(loop.shed_verdict(0.0, 0.0, 99.0, 0.0).has_value())
      << "no budget, no deadline shedding";
  EXPECT_EQ(loop.effective_concurrency(), 4);

  // A hazard storm stalling the whole window walks the ladder to the top.
  for (int i = 1; i <= 20; ++i) {
    loop.observe(0.5 * i, 0.5 * i);
  }
  ASSERT_TRUE(loop.degrade().shed_aggressively());
  EXPECT_EQ(loop.effective_concurrency(), 2);
  // The halved budget (5 s) now rejects what only it rejects: kDegraded.
  EXPECT_EQ(loop.shed_verdict(0.0, 10.0, 6.0, 0.0), ShedReason::kDegraded);
  EXPECT_EQ(loop.shed_verdict(0.0, 10.0, 11.0, 0.0), ShedReason::kDeadline);
  sim::Timeline tl;
  cache::PlacementArbiter arbiter(cache::Placement(1, 1));
  const engines::SessionEnv env =
      loop.session_env(tl, arbiter, nullptr, 3.0, 5);
  EXPECT_TRUE(env.degrade_no_speculation);
  EXPECT_TRUE(env.degrade_no_migrations);
  EXPECT_TRUE(env.shared);
  EXPECT_EQ(env.start_time, 3.0);
  EXPECT_EQ(env.request_id, 5);
}

TEST_F(NodeLoopTest, ProjectedStartWaitsOutTheConcurrencyCap) {
  DegradationOptions d;
  d.enabled = true;
  d.window_s = 2.0;
  d.min_dwell_s = 0.5;
  Loop loop(4, d);
  EXPECT_EQ(loop.projected_start(1.0, 0.25), 1.0) << "an idle node";
  admit(loop, 0, 0.0);
  admit(loop, 1, 0.0);
  ASSERT_TRUE(loop.slot_ok());
  EXPECT_EQ(loop.projected_start(0.0, 0.25),
            loop.slot_time(loop.earliest_free_slot()));

  // At L3+ the cap (2 of 4) refuses the two free slots: the projection is
  // the next release, not a free slot.
  for (int i = 1; i <= 20; ++i) loop.observe(0.5 * i, 0.5 * i);
  ASSERT_EQ(loop.effective_concurrency(), 2);
  ASSERT_EQ(loop.free_slots(), 2u);
  ASSERT_FALSE(loop.slot_ok());
  const double frontier =
      std::min(loop.active()[0].session->ready_time(),
               loop.active()[1].session->ready_time());
  EXPECT_EQ(loop.projected_start(0.0, 0.25), frontier + 0.25);
  EXPECT_EQ(loop.projected_start(frontier + 1.0, 0.25), frontier + 1.25);
  loop.crash();
  EXPECT_EQ(loop.projected_start(7.0, 0.25), 7.0) << "a dead node";
}

TEST(NodeLoop, RejectsAnEmptyNode) {
  EXPECT_THROW(Loop(0, DegradationOptions{}), CheckError);
}

}  // namespace
}  // namespace daop::eval
