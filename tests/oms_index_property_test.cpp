// The secondary-index layer must be observationally invisible: every
// indexed query answers exactly what a naive full scan over the
// primary structures would answer, through any interleaving of
// mutations, transactions and aborts.
//
// Two checks enforce that here:
//   * a scan oracle local to this test, read through the public
//     primary-structure API only (exists/class_of/get/schema().is_a and
//     the link-order adjacency behind targets()), over every id the op
//     stream ever created -- including ids of aborted creates -- and
//     every edge it ever linked. Every index-served query
//     (objects_of/find/find_one/linked) and link()'s duplicate check are
//     cross-checked against it, and at the end a store rebuilt from the
//     dump must answer identically;
//   * the TSan variant: reader threads hammer the indexed queries while
//     a writer runs mutation bursts inside begin/commit/abort cycles,
//     proving index reads stay inside the store's reader-writer
//     discipline (shared reads, exclusive maintenance).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "jfm/oms/dump.hpp"
#include "jfm/oms/store.hpp"
#include "jfm/support/rng.hpp"
#include "test_seed.hpp"

namespace jfm::oms {
namespace {

using support::Errc;

Schema index_schema() {
  Schema schema;
  EXPECT_TRUE(schema.define_class({"Named", "", {{"name", AttrType::text}}}).ok());
  EXPECT_TRUE(schema
                  .define_class({"Cell",
                                 "Named",
                                 {{"group", AttrType::integer}, {"frozen", AttrType::boolean}}})
                  .ok());
  EXPECT_TRUE(schema.define_class({"Macro", "Cell", {{"ratio", AttrType::real}}}).ok());
  EXPECT_TRUE(schema.define_class({"Version", "", {{"number", AttrType::integer}}}).ok());
  EXPECT_TRUE(schema.define_relation({"edge", "Cell", "Cell", Cardinality::many_to_many}).ok());
  EXPECT_TRUE(
      schema.define_relation({"has_version", "Cell", "Version", Cardinality::one_to_many}).ok());
  return schema;
}

const char* kClasses[] = {"Named", "Cell", "Macro", "Version"};

AttrValue random_name(support::Rng& rng) {
  // a small name universe so finds hit often
  return AttrValue("n" + std::to_string(rng.below(64)));
}

/// Edge membership from the link-order adjacency alone.
bool scan_linked(const Store& store, std::string_view relation, ObjectId from, ObjectId to) {
  auto out = store.targets(relation, from);
  return out.ok() && std::find(out->begin(), out->end(), to) != out->end();
}

/// The naive full-scan answers, computed from the store's primary
/// structures alone. `ids` may hold duplicates and dead ids; both are
/// filtered here.
class ScanOracle {
 public:
  ScanOracle(const Store& store, const std::vector<ObjectId>& ids) : store_(store) {
    for (ObjectId id : ids) {
      if (store.exists(id)) live_.push_back(id);
    }
    std::sort(live_.begin(), live_.end());
    live_.erase(std::unique(live_.begin(), live_.end()), live_.end());
  }

  std::vector<ObjectId> objects_of(std::string_view cls) const {
    std::vector<ObjectId> out;
    for (ObjectId id : live_) {
      if (is_a(id, cls)) out.push_back(id);
    }
    return out;
  }

  std::vector<ObjectId> find(std::string_view cls, std::string_view attr,
                             const AttrValue& value) const {
    std::vector<ObjectId> out;
    for (ObjectId id : live_) {
      if (!is_a(id, cls)) continue;
      auto got = store_.get(id, attr);
      if (got.ok() && *got == value) out.push_back(id);
    }
    return out;
  }

  std::optional<ObjectId> find_one(std::string_view cls, std::string_view attr,
                                   const AttrValue& value) const {
    auto all = find(cls, attr, value);
    if (all.empty()) return std::nullopt;
    return all.front();
  }

 private:
  bool is_a(ObjectId id, std::string_view cls) const {
    auto actual = store_.class_of(id);
    return actual.ok() && store_.schema().is_a(*actual, cls);
  }

  const Store& store_;
  std::vector<ObjectId> live_;
};

/// Everything the op stream has touched: every id it created and every
/// edge it ever linked, so stale index entries for dead ids and removed
/// edges are probed, not just live ones.
struct Tracked {
  struct Edge {
    const char* relation;
    ObjectId from;
    ObjectId to;
  };
  std::vector<ObjectId> ids;
  std::vector<Edge> edges;
};

/// Apply one random operation; where the outcome depends on an index
/// (link's duplicate-edge check) it must agree with the scan oracle.
void apply_op(support::Rng& rng, Store& store, Tracked& tracked, bool& tx_open) {
  auto& ids = tracked.ids;
  switch (rng.below(10)) {
    case 0: {  // create
      const char* cls = kClasses[rng.below(4)];
      auto a = store.create(cls);
      ASSERT_TRUE(a.ok());
      ids.push_back(*a);
      break;
    }
    case 1: {  // destroy
      if (ids.empty()) break;
      ObjectId id = rng.pick(ids);
      const bool existed = store.exists(id);
      ASSERT_EQ(store.destroy(id).ok(), existed);
      break;
    }
    case 2:
    case 3: {  // set name (the hot find_one key)
      if (ids.empty()) break;
      ObjectId id = rng.pick(ids);
      (void)store.set(id, "name", random_name(rng));
      break;
    }
    case 4: {  // set a typed attribute (sometimes the wrong type)
      if (ids.empty()) break;
      ObjectId id = rng.pick(ids);
      const char* attr = rng.chance(0.5) ? "group" : "number";
      AttrValue value = rng.chance(0.8) ? AttrValue(rng.range(0, 7))
                                        : AttrValue(rng.identifier(4));
      (void)store.set(id, attr, value);
      break;
    }
    case 5: {  // link
      if (ids.empty()) break;
      ObjectId from = rng.pick(ids);
      ObjectId to = rng.pick(ids);
      const char* rel = rng.chance(0.7) ? "edge" : "has_version";
      const bool present = scan_linked(store, rel, from, to);
      auto a = store.link(rel, from, to);
      ASSERT_EQ(a.code() == Errc::already_exists, present) << rel;
      if (a.ok()) tracked.edges.push_back({rel, from, to});
      break;
    }
    case 6: {  // unlink
      if (ids.empty()) break;
      ObjectId from = rng.pick(ids);
      // Prefer a present edge so the removal path actually runs; random
      // pairs are almost never linked.
      auto out = store.targets("edge", from);
      ObjectId to = out.ok() && !out->empty() ? rng.pick(*out) : rng.pick(ids);
      const bool present = scan_linked(store, "edge", from, to);
      ASSERT_EQ(store.unlink("edge", from, to).ok(), present);
      break;
    }
    case 7: {  // begin
      auto a = store.begin();
      ASSERT_EQ(a.ok(), !tx_open);
      if (a.ok()) tx_open = true;
      break;
    }
    case 8: {  // commit
      auto a = store.commit();
      ASSERT_EQ(a.ok(), tx_open);
      if (a.ok()) tx_open = false;
      break;
    }
    case 9: {  // abort: the index restore path under test
      auto a = store.abort();
      ASSERT_EQ(a.ok(), tx_open);
      if (a.ok()) tx_open = false;
      break;
    }
  }
}

/// Every indexed query answer must equal the full-scan oracle's.
void cross_check(support::Rng& rng, const Store& store, const Tracked& tracked) {
  const auto& ids = tracked.ids;
  const ScanOracle oracle(store, ids);
  for (const char* cls : kClasses) {
    ASSERT_EQ(store.objects_of(cls), oracle.objects_of(cls)) << cls;
  }
  ASSERT_TRUE(store.objects_of("NoSuchClass").empty());
  for (int i = 0; i < 16; ++i) {
    const char* cls = kClasses[rng.below(4)];
    auto value = random_name(rng);
    ASSERT_EQ(store.find(cls, "name", value), oracle.find(cls, "name", value));
    ASSERT_EQ(store.find_one(cls, "name", value), oracle.find_one(cls, "name", value));
    AttrValue group(rng.range(0, 7));
    ASSERT_EQ(store.find("Cell", "group", group), oracle.find("Cell", "group", group));
  }
  if (!ids.empty()) {
    for (int i = 0; i < 16; ++i) {
      ObjectId from = rng.pick(ids);
      ObjectId to = rng.pick(ids);
      ASSERT_EQ(store.linked("edge", from, to), scan_linked(store, "edge", from, to));
      ASSERT_EQ(store.linked("has_version", from, to),
                scan_linked(store, "has_version", from, to));
    }
  }
  for (const auto& edge : tracked.edges) {
    ASSERT_EQ(store.linked(edge.relation, edge.from, edge.to),
              scan_linked(store, edge.relation, edge.from, edge.to))
        << edge.relation << " " << edge.from << "->" << edge.to;
  }
}

struct IndexOracleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexOracleProperty, TenThousandOpsAgreeWithFullScanOracle) {
  support::SimClock clock;
  Store store(index_schema(), &clock);

  support::Rng rng(GetParam());
  Tracked tracked;
  bool tx_open = false;
  constexpr int kOps = 10000;
  constexpr int kBatch = 250;
  for (int op = 0; op < kOps; ++op) {
    ASSERT_NO_FATAL_FAILURE(apply_op(rng, store, tracked, tx_open));
    if ((op + 1) % kBatch == 0) {
      ASSERT_NO_FATAL_FAILURE(cross_check(rng, store, tracked));
    }
  }
  if (tx_open) {
    ASSERT_TRUE(store.abort().ok());
  }
  ASSERT_NO_FATAL_FAILURE(cross_check(rng, store, tracked));
  // The incrementally maintained indexes must equal indexes built from
  // scratch: a store reloaded from the dump holds the same logical state
  // bit for bit and answers every query identically.
  const std::string image = Dump::to_text(store);
  support::SimClock reload_clock;
  Store reloaded(index_schema(), &reload_clock);
  ASSERT_TRUE(Dump::from_text(reloaded, image).ok());
  EXPECT_EQ(Dump::to_text(reloaded), image);
  for (const char* cls : kClasses) {
    ASSERT_EQ(store.objects_of(cls), reloaded.objects_of(cls)) << cls;
    for (int n = 0; n < 64; ++n) {
      AttrValue name("n" + std::to_string(n));
      ASSERT_EQ(store.find(cls, "name", name), reloaded.find(cls, "name", name));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexOracleProperty,
                         ::testing::ValuesIn(jfm::testing::test_seeds<std::uint64_t>(
                             "oms-index", {11u, 23u, 47u, 101u})));

// ---------------- TSan variant: readers during mutation bursts ------------

TEST(IndexConcurrency, ReadersDuringMutationBursts) {
  support::SimClock clock;
  Store store(index_schema(), &clock);
  support::Rng seed_rng(7);

  // a committed base population the readers can always resolve
  std::vector<ObjectId> ids;
  for (int i = 0; i < 64; ++i) {
    auto id = *store.create(i % 2 == 0 ? "Cell" : "Macro");
    ASSERT_TRUE(store.set(id, "name", AttrValue("base" + std::to_string(i))).ok());
    ids.push_back(id);
  }
  for (int i = 0; i + 1 < 64; i += 2) {
    ASSERT_TRUE(store.link("edge", ids[i], ids[i + 1]).ok());
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&store, &ids, &done, r] {
      support::Rng rng(1000u + static_cast<std::uint64_t>(r));
      // bounded, not while(!done): four tight reader loops can starve
      // the writer indefinitely on a reader-preferring shared_mutex
      for (int iter = 0; iter < 30000 && !done.load(std::memory_order_acquire); ++iter) {
        auto hit = store.find_one("Named", "name",
                                  AttrValue("base" + std::to_string(rng.below(64))));
        if (hit.has_value() && !store.exists(*hit)) {
          // the id was destroyed between the two calls: legal
          // (read-committed per call), just must not crash
        }
        (void)store.objects_of("Cell");
        (void)store.linked("edge", rng.pick(ids), rng.pick(ids));
        (void)store.targets("edge", rng.pick(ids));
        (void)store.find("Cell", "group", AttrValue(rng.range(0, 7)));
      }
    });
  }

  // writer: transactional mutation bursts, half of them aborted, so the
  // readers race against index maintenance and undo replay
  support::Rng rng(9);
  std::vector<ObjectId> scratch = ids;
  for (int burst = 0; burst < 60; ++burst) {
    ASSERT_TRUE(store.begin().ok());
    for (int i = 0; i < 40; ++i) {
      switch (rng.below(5)) {
        case 0:
          if (auto id = store.create("Cell"); id.ok()) scratch.push_back(*id);
          break;
        case 1:
          // aborted bursts may rename the base population (undo must
          // restore its index entries); committing bursts only rename
          // scratch objects so the readers' probes keep resolving
          if (burst % 2 == 0) {
            (void)store.set(rng.pick(scratch), "name", AttrValue(rng.identifier(5)));
          } else if (scratch.size() > 64) {
            (void)store.set(scratch[64 + rng.below(scratch.size() - 64)], "name",
                            AttrValue(rng.identifier(5)));
          }
          break;
        case 2:
          (void)store.link("edge", rng.pick(scratch), rng.pick(scratch));
          break;
        case 3:
          (void)store.unlink("edge", rng.pick(scratch), rng.pick(scratch));
          break;
        case 4:
          if (scratch.size() > 64) {  // keep the base population alive
            (void)store.destroy(scratch.back());
            scratch.pop_back();
          }
          break;
      }
    }
    ASSERT_TRUE((burst % 2 == 0 ? store.abort() : store.commit()).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // sanity: the base population survived every aborted burst
  EXPECT_EQ(store.find_one("Named", "name", AttrValue(std::string("base0"))), ids[0]);
}

}  // namespace
}  // namespace jfm::oms
