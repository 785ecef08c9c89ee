// Export/import through the (virtual) file system -- the paper's
// encapsulation copy path -- must be lossless and canonical.

#include <gtest/gtest.h>

#include "jfm/oms/dump.hpp"
#include "jfm/support/rng.hpp"

namespace jfm::oms {
namespace {

using support::Errc;

Schema dump_schema() {
  Schema schema;
  EXPECT_TRUE(schema
                  .define_class({"Item",
                                 "",
                                 {{"text", AttrType::text},
                                  {"count", AttrType::integer},
                                  {"ratio", AttrType::real},
                                  {"flag", AttrType::boolean}}})
                  .ok());
  EXPECT_TRUE(schema.define_relation({"next", "Item", "Item", Cardinality::many_to_many}).ok());
  return schema;
}

TEST(Dump, RoundTripPreservesEverything) {
  support::SimClock clock;
  Store store(dump_schema(), &clock);
  auto a = *store.create("Item");
  auto b = *store.create("Item");
  ASSERT_TRUE(store.set(a, "text", AttrValue(std::string("hello world\twith\nspaces"))).ok());
  ASSERT_TRUE(store.set(a, "count", AttrValue(std::int64_t{-42})).ok());
  ASSERT_TRUE(store.set(a, "ratio", AttrValue(3.25)).ok());
  ASSERT_TRUE(store.set(a, "flag", AttrValue(true)).ok());
  ASSERT_TRUE(store.link("next", a, b).ok());

  const std::string text = Dump::to_text(store);
  Store copy(dump_schema(), &clock);
  ASSERT_TRUE(Dump::from_text(copy, text).ok());

  EXPECT_EQ(copy.object_count(), 2u);
  EXPECT_EQ(*copy.get_text(a, "text"), "hello world\twith\nspaces");
  EXPECT_EQ(*copy.get_int(a, "count"), -42);
  EXPECT_EQ(*copy.get_real(a, "ratio"), 3.25);
  EXPECT_EQ(*copy.get_bool(a, "flag"), true);
  EXPECT_TRUE(copy.linked("next", a, b));
  // canonical: re-dumping gives the same text
  EXPECT_EQ(Dump::to_text(copy), text);
}

TEST(Dump, ImportPreservesIdContinuity) {
  support::SimClock clock;
  Store store(dump_schema(), &clock);
  (void)*store.create("Item");
  auto second = *store.create("Item");
  const std::string text = Dump::to_text(store);

  Store copy(dump_schema(), &clock);
  ASSERT_TRUE(Dump::from_text(copy, text).ok());
  auto fresh = *copy.create("Item");
  EXPECT_GT(fresh.raw(), second.raw());  // no collision with imports
}

TEST(Dump, ImportRejectsNonEmptyStore) {
  support::SimClock clock;
  Store store(dump_schema(), &clock);
  (void)*store.create("Item");
  EXPECT_EQ(Dump::from_text(store, "omsdump 1\nend\n").code(), Errc::invalid_argument);
}

TEST(Dump, RejectsMalformedInput) {
  support::SimClock clock;
  auto fresh = [&] { return Store(dump_schema(), &clock); };
  auto code = [&](const std::string& text) {
    Store s = fresh();
    return Dump::from_text(s, text).code();
  };
  EXPECT_EQ(code("bogus"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Nope 0\nend\n"), Errc::not_found);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\n"), Errc::parse_error);  // truncated
  EXPECT_EQ(code("omsdump 1\nattr 1 text text x\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\nlink next 1 2\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\nobject 1 Item 0\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nend\ntrailing\n"), Errc::parse_error);
  // malformed numbers are parse errors, never exceptions or wrap-arounds
  EXPECT_EQ(code("omsdump 1\nobject x Item 0\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item zz\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject -1 Item 0\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1x Item 0\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 99999999999999999999 Item 0\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\nattr q n 3\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\nattr -1 count 3\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\nattr 1 count 3x\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\nlink next 1 z\nend\n"), Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\nlink next -1 1\nend\n"), Errc::parse_error);
  // A value field after the type token reaches the number parsers
  // (the cases above without one stop at the missing field).
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\nattr 1 count integer 3x\nend\n"),
            Errc::parse_error);
  EXPECT_EQ(code("omsdump 1\nobject 1 Item 0\nattr 1 count integer 3\nend\n"), Errc::ok);
  // reals: the whole field must parse and fit a double
  const std::string real_attr = "omsdump 1\nobject 1 Item 0\nattr 1 ratio real ";
  for (const char* bad : {"0.5x", "", "1e999", "0x1p3", "--1", "1.2.3"}) {
    EXPECT_EQ(code(real_attr + bad + "\nend\n"), Errc::parse_error) << "'" << bad << "'";
  }
  EXPECT_EQ(code(real_attr + "-2.5e-3\nend\n"), Errc::ok);
}

// Ids in a dump may be sparse and large; the allocator jumps past the
// largest one in O(1) instead of issuing every id in between.
TEST(Dump, LargeObjectIdsImportAndKeepAllocationClear) {
  support::SimClock clock;
  Store store(dump_schema(), &clock);
  ASSERT_TRUE(Dump::from_text(store, "omsdump 1\nobject 1000000000000 Item 0\nend\n").ok());
  EXPECT_TRUE(store.exists(ObjectId(1000000000000ull)));
  EXPECT_EQ(store.create("Item")->raw(), 1000000000001ull);
}

TEST(Dump, ExportImportThroughVfs) {
  support::SimClock clock;
  vfs::FileSystem fs(&clock);
  ASSERT_TRUE(fs.mkdirs(*vfs::Path::parse("/db")).ok());
  Store store(dump_schema(), &clock);
  auto id = *store.create("Item");
  ASSERT_TRUE(store.set(id, "text", AttrValue(std::string("payload"))).ok());

  auto file = *vfs::Path::parse("/db/checkpoint.oms");
  ASSERT_TRUE(Dump::export_store(store, fs, file).ok());
  EXPECT_GT(fs.stat(file)->size, 0u);

  Store restored(dump_schema(), &clock);
  ASSERT_TRUE(Dump::import_store(restored, fs, file).ok());
  EXPECT_EQ(*restored.get_text(id, "text"), "payload");
}

TEST(Dump, RandomStoreRoundTripsCanonically) {
  support::SimClock clock;
  support::Rng rng(777);
  Store store(dump_schema(), &clock);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 50; ++i) {
    auto id = *store.create("Item");
    (void)store.set(id, "text", AttrValue(rng.identifier(12)));
    (void)store.set(id, "count", AttrValue(rng.range(-1000, 1000)));
    ids.push_back(id);
  }
  for (int i = 0; i < 80; ++i) (void)store.link("next", rng.pick(ids), rng.pick(ids));

  const std::string first = Dump::to_text(store);
  Store copy(dump_schema(), &clock);
  ASSERT_TRUE(Dump::from_text(copy, first).ok());
  EXPECT_EQ(Dump::to_text(copy), first);
}

}  // namespace
}  // namespace jfm::oms
