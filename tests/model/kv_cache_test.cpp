#include "model/kv_cache.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "model/config.hpp"

namespace daop::model {
namespace {

class KvCacheTest : public ::testing::Test {
 protected:
  KvCacheTest() : cfg_(tiny_mixtral()), kv_(cfg_, 8) {}
  int kv_dim() const { return cfg_.n_kv_heads * cfg_.head_dim; }
  ModelConfig cfg_;
  KvCache kv_;
};

TEST_F(KvCacheTest, StartsEmpty) {
  EXPECT_EQ(kv_.size(), 0);
  EXPECT_EQ(kv_.max_seq(), 8);
}

TEST_F(KvCacheTest, SlotHasKvDimension) {
  const auto k = kv_.k_span(0, 0, 1);
  EXPECT_EQ(static_cast<int>(k.size()), kv_dim());
  EXPECT_EQ(kv_.kv_dim(), kv_dim());
}

TEST_F(KvCacheTest, WriteReadRoundTrip) {
  auto k = kv_.k_span(2, 0, 1);
  k[0] = 1.5F;
  k[5] = -2.0F;
  kv_.advance();
  const auto kr = kv_.k_rows(2, 1);
  EXPECT_EQ(kr[0], 1.5F);
  EXPECT_EQ(kr[5], -2.0F);
}

TEST_F(KvCacheTest, LayersAreIndependent) {
  kv_.k_span(0, 0, 1)[0] = 1.0F;
  kv_.k_span(1, 0, 1)[0] = 2.0F;
  kv_.v_span(0, 0, 1)[0] = 3.0F;
  kv_.advance();
  EXPECT_EQ(kv_.k_rows(0, 1)[0], 1.0F);
  EXPECT_EQ(kv_.k_rows(1, 1)[0], 2.0F);
  EXPECT_EQ(kv_.v_rows(0, 1)[0], 3.0F);
  EXPECT_EQ(kv_.v_rows(1, 1)[0], 0.0F);
}

TEST_F(KvCacheTest, AdvanceGrowsUntilCapacity) {
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(kv_.size(), i);
    kv_.advance();
  }
  EXPECT_THROW(kv_.advance(), CheckError);
}

TEST_F(KvCacheTest, CannotWriteBeyondFrontier) {
  EXPECT_THROW(kv_.k_span(0, 3, 1), CheckError);  // frontier is 0
  kv_.advance();
  (void)kv_.k_span(0, 1, 1);  // frontier now 1: OK
  EXPECT_THROW(kv_.k_span(0, 2, 1), CheckError);
  EXPECT_THROW(kv_.v_span(0, 0, 1), CheckError);  // behind the frontier
}

TEST_F(KvCacheTest, SpanAppendFillsToCapacity) {
  auto k = kv_.k_span(1, 0, 3);
  auto v = kv_.v_span(1, 0, 3);
  ASSERT_EQ(static_cast<int>(k.size()), 3 * kv_dim());
  ASSERT_EQ(static_cast<int>(v.size()), 3 * kv_dim());
  k[static_cast<std::size_t>(2 * kv_dim())] = 4.0F;  // row 2
  // The open span is readable before advance(); nothing past it is.
  EXPECT_EQ(kv_.k_rows(1, 3)[static_cast<std::size_t>(2 * kv_dim())], 4.0F);
  EXPECT_THROW(kv_.k_rows(1, 4), CheckError);
  kv_.advance(3);
  EXPECT_EQ(kv_.size(), 3);

  // The remaining five rows fill the cache exactly.
  v = kv_.v_span(1, 3, 5);
  v[static_cast<std::size_t>(4 * kv_dim())] = -1.0F;  // row 7
  kv_.advance(5);
  EXPECT_EQ(kv_.size(), kv_.max_seq());
  EXPECT_EQ(kv_.v_rows(1, 8)[static_cast<std::size_t>(7 * kv_dim())], -1.0F);
  EXPECT_EQ(kv_.k_rows(1, 8)[static_cast<std::size_t>(2 * kv_dim())], 4.0F);
}

TEST_F(KvCacheTest, SpanAppendRejectsOverflowAndNonFrontierStart) {
  EXPECT_THROW(kv_.k_span(0, 0, 9), CheckError);  // past capacity
  EXPECT_THROW(kv_.k_span(0, 0, 0), CheckError);  // empty span
  EXPECT_THROW(kv_.k_span(0, 1, 2), CheckError);  // frontier is 0
  EXPECT_THROW(kv_.advance(9), CheckError);
  kv_.advance(5);
  EXPECT_THROW(kv_.v_span(0, 5, 4), CheckError);  // 5 + 4 > 8
  EXPECT_THROW(kv_.v_span(0, 4, 2), CheckError);  // rewrites row 4
  EXPECT_THROW(kv_.v_span(0, 6, 2), CheckError);  // skips row 5
  EXPECT_NO_THROW(kv_.v_span(0, 5, 3));
  EXPECT_THROW(kv_.advance(4), CheckError);
}

TEST_F(KvCacheTest, TruncateReplaysPrefix) {
  kv_.k_span(0, 0, 1)[0] = 1.0F;
  kv_.advance();
  kv_.advance();
  kv_.truncate(1);
  EXPECT_EQ(kv_.size(), 1);
  EXPECT_EQ(kv_.k_rows(0, 1)[0], 1.0F);  // prefix survives
  EXPECT_THROW(kv_.k_rows(0, 2), CheckError);  // dropped row
  EXPECT_THROW(kv_.truncate(5), CheckError);
}

TEST_F(KvCacheTest, ClearResets) {
  kv_.advance();
  kv_.clear();
  EXPECT_EQ(kv_.size(), 0);
}

TEST_F(KvCacheTest, LayerBoundsChecked) {
  EXPECT_THROW(kv_.k_span(cfg_.n_layers, 0, 1), CheckError);
  EXPECT_THROW(kv_.k_rows(-1, 0), CheckError);
}

}  // namespace
}  // namespace daop::model
