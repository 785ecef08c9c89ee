// Change-tracking epoch contract (docs/incremental-checkout.md): every
// committed mutation advances the store-wide epoch and restamps exactly
// the objects it touched; objects_changed_since() answers from the
// epoch index without scanning; aborted transactions restore the
// stamps they disturbed, so a cursor taken before the transaction sees
// an empty delta afterwards. The final test is the TSan target for the
// feed: readers iterate objects_changed_since() while writer threads
// commit bursts through the shared executor.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "jfm/oms/store.hpp"
#include "jfm/support/executor.hpp"

namespace jfm::oms {
namespace {

Schema epoch_schema() {
  Schema schema;
  EXPECT_TRUE(schema
                  .define_class({"Node",
                                 "",
                                 {{"label", AttrType::text}, {"weight", AttrType::integer}}})
                  .ok());
  EXPECT_TRUE(schema.define_class({"Leaf", "Node", {}}).ok());
  EXPECT_TRUE(schema.define_relation({"edge", "Node", "Node", Cardinality::many_to_many}).ok());
  return schema;
}

std::vector<ObjectId> ids_of(const std::vector<ChangedObject>& changes) {
  std::vector<ObjectId> out;
  for (const auto& c : changes) out.push_back(c.id);
  return out;
}

class EpochTest : public ::testing::Test {
 protected:
  support::SimClock clock;
  Store store{epoch_schema(), &clock};
};

TEST_F(EpochTest, EveryCommittedMutationAdvancesTheEpoch) {
  const std::uint64_t e0 = store.epoch();
  auto a = *store.create("Node");
  const std::uint64_t e1 = store.epoch();
  EXPECT_GT(e1, e0);
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("x"))).ok());
  const std::uint64_t e2 = store.epoch();
  EXPECT_GT(e2, e1);
  auto b = *store.create("Node");
  ASSERT_TRUE(store.link("edge", a, b).ok());
  EXPECT_GT(store.epoch(), e2);
}

TEST_F(EpochTest, ChangedSinceReturnsOnlyObjectsTouchedAfterTheCursor) {
  auto a = *store.create("Node");
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("old"))).ok());
  const std::uint64_t cursor = store.epoch();
  auto b = *store.create("Node");
  ASSERT_TRUE(store.set(b, "weight", AttrValue(std::int64_t{7})).ok());

  auto changed = store.objects_changed_since("Node", cursor);
  EXPECT_EQ(ids_of(changed), std::vector<ObjectId>{b});
  for (const auto& c : changed) EXPECT_GT(c.modified, cursor);
  // A later touch of `a` pulls it back into the delta.
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("new"))).ok());
  EXPECT_EQ(store.objects_changed_since("Node", cursor).size(), 2u);
  // Repeated touches still yield one entry per object, at its latest
  // stamp.
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("newer"))).ok());
  EXPECT_EQ(store.objects_changed_since("Node", cursor).size(), 2u);
  EXPECT_TRUE(store.objects_changed_since("Node", store.epoch()).empty());
}

TEST_F(EpochTest, SubclassInstancesFanIntoTheBaseClassFeed) {
  const std::uint64_t cursor = store.epoch();
  auto leaf = *store.create("Leaf");
  auto changed = store.objects_changed_since("Node", cursor);
  EXPECT_EQ(ids_of(changed), std::vector<ObjectId>{leaf});
  EXPECT_EQ(ids_of(store.objects_changed_since("Leaf", cursor)),
            std::vector<ObjectId>{leaf});
}

TEST_F(EpochTest, LinkAndUnlinkStampBothEndpoints) {
  auto a = *store.create("Node");
  auto b = *store.create("Node");
  std::uint64_t cursor = store.epoch();
  ASSERT_TRUE(store.link("edge", a, b).ok());
  EXPECT_EQ(store.objects_changed_since("Node", cursor).size(), 2u);
  cursor = store.epoch();
  ASSERT_TRUE(store.unlink("edge", a, b).ok());
  EXPECT_EQ(store.objects_changed_since("Node", cursor).size(), 2u);
}

TEST_F(EpochTest, AbortRestoresStampsSoThePreTransactionDeltaIsEmpty) {
  auto a = *store.create("Node");
  auto b = *store.create("Node");
  ASSERT_TRUE(store.link("edge", a, b).ok());
  const std::uint64_t cursor = store.epoch();

  ASSERT_TRUE(store.begin().ok());
  ASSERT_TRUE(store.set(a, "label", AttrValue(std::string("tmp"))).ok());
  ASSERT_TRUE(store.unlink("edge", a, b).ok());
  auto c = *store.create("Node");
  ASSERT_TRUE(store.destroy(c).ok());
  EXPECT_FALSE(store.objects_changed_since("Node", cursor).empty());
  ASSERT_TRUE(store.abort().ok());

  // The counter itself never rewinds, but every stamp the transaction
  // issued was rolled back with the data it covered.
  EXPECT_GE(store.epoch(), cursor);
  EXPECT_TRUE(store.objects_changed_since("Node", cursor).empty());
}

TEST_F(EpochTest, DestroyedObjectsLeaveTheFeedAndAbortBringsThemBack) {
  const std::uint64_t cursor = store.epoch();
  auto a = *store.create("Node");
  EXPECT_EQ(ids_of(store.objects_changed_since("Node", cursor)), std::vector<ObjectId>{a});
  const std::uint64_t before_destroy = store.epoch();
  ASSERT_TRUE(store.destroy(a).ok());
  // The feed serves live objects only, but the destroy still advances
  // the store epoch so cursors notice that something happened.
  EXPECT_TRUE(store.objects_changed_since("Node", cursor).empty());
  EXPECT_GT(store.epoch(), before_destroy);

  auto b = *store.create("Node");
  const std::uint64_t cursor2 = store.epoch();
  ASSERT_TRUE(store.begin().ok());
  ASSERT_TRUE(store.destroy(b).ok());
  ASSERT_TRUE(store.abort().ok());
  // Undo re-inserted b's epoch entry at its pre-transaction stamp.
  EXPECT_TRUE(store.objects_changed_since("Node", cursor2).empty());
  EXPECT_EQ(ids_of(store.objects_changed_since("Node", 0)), std::vector<ObjectId>{b});
}

TEST_F(EpochTest, FeedReadersRaceCommitBurstsCleanly) {
  // TSan target: four writer lanes commit create/set bursts while four
  // reader lanes iterate the feed through the shared executor. The
  // assertions are deliberately weak -- the point is that every access
  // to the epoch index happens under the store lock.
  auto& exec = support::executor::Executor::global();
  constexpr std::size_t kLanes = 8;
  constexpr int kRounds = 64;
  std::atomic<std::uint64_t> seen{0};
  (void)exec.parallel_for(kLanes, kLanes, [&](std::size_t lane) -> support::Status {
    if (lane < kLanes / 2) {
      for (int i = 0; i < kRounds; ++i) {
        auto id = store.create("Node");
        if (!id.ok()) continue;
        (void)store.set(*id, "weight",
                        AttrValue(static_cast<std::int64_t>(lane * kRounds + i)));
        if (i % 8 == 0) (void)store.destroy(*id);
      }
    } else {
      std::uint64_t cursor = 0;
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t now = store.epoch();
        auto changed = store.objects_changed_since("Node", cursor);
        for (const auto& c : changed) seen.fetch_add(c.modified != 0 ? 1 : 0);
        cursor = now;
      }
    }
    return {};
  });
  EXPECT_GT(seen.load(), 0u);
  EXPECT_EQ(store.objects_changed_since("Node", store.epoch()).size(), 0u);
}

}  // namespace
}  // namespace jfm::oms
