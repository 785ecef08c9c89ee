#include <gtest/gtest.h>

#include "jfm/oms/store.hpp"

namespace jfm::oms {
namespace {

using support::Errc;

Schema test_schema() {
  Schema schema;
  EXPECT_TRUE(schema.define_class({"Named", "", {{"name", AttrType::text, true}}}).ok());
  EXPECT_TRUE(schema
                  .define_class({"Cell",
                                 "Named",
                                 {{"count", AttrType::integer},
                                  {"ratio", AttrType::real},
                                  {"frozen", AttrType::boolean}}})
                  .ok());
  EXPECT_TRUE(schema.define_class({"Version", "", {{"number", AttrType::integer}}}).ok());
  EXPECT_TRUE(
      schema.define_relation({"has_version", "Cell", "Version", Cardinality::one_to_many}).ok());
  EXPECT_TRUE(
      schema.define_relation({"paired", "Cell", "Cell", Cardinality::one_to_one}).ok());
  EXPECT_TRUE(
      schema.define_relation({"related", "Cell", "Version", Cardinality::many_to_many}).ok());
  return schema;
}

class StoreTest : public ::testing::Test {
 protected:
  support::SimClock clock;
  Store store{test_schema(), &clock};
};

TEST_F(StoreTest, SchemaInheritanceQueries) {
  const Schema& s = store.schema();
  EXPECT_TRUE(s.is_a("Cell", "Named"));
  EXPECT_TRUE(s.is_a("Cell", "Cell"));
  EXPECT_FALSE(s.is_a("Named", "Cell"));
  EXPECT_FALSE(s.is_a("Nope", "Named"));
  EXPECT_NE(s.find_attribute("Cell", "name"), nullptr);  // inherited
  EXPECT_EQ(s.find_attribute("Version", "name"), nullptr);
  auto attrs = s.attributes_of("Cell");
  ASSERT_EQ(attrs.size(), 4u);
  EXPECT_EQ(attrs[0].name, "name");  // base attributes first
}

TEST_F(StoreTest, SchemaRejectsBadDefinitions) {
  Schema s = test_schema();
  EXPECT_EQ(s.define_class({"Cell", "", {}}).code(), Errc::already_exists);
  EXPECT_EQ(s.define_class({"X", "Missing", {}}).code(), Errc::not_found);
  EXPECT_EQ(s.define_class({"Y", "Named", {{"name", AttrType::text}}}).code(),
            Errc::already_exists);  // shadowing
  EXPECT_EQ(s.define_class({"Z", "", {{"a", AttrType::text}, {"a", AttrType::text}}}).code(),
            Errc::already_exists);
  EXPECT_EQ(s.define_relation({"r", "Cell", "Missing", Cardinality::many_to_many}).code(),
            Errc::not_found);
  EXPECT_EQ(s.define_class({"9bad", "", {}}).code(), Errc::invalid_argument);
}

TEST_F(StoreTest, CreateDestroyAndClassOf) {
  auto id = store.create("Cell");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(store.exists(*id));
  EXPECT_EQ(*store.class_of(*id), "Cell");
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_TRUE(store.destroy(*id).ok());
  EXPECT_FALSE(store.exists(*id));
  EXPECT_EQ(store.destroy(*id).code(), Errc::not_found);
  EXPECT_EQ(store.create("Nope").code(), Errc::not_found);
}

TEST_F(StoreTest, AttributesTypeChecked) {
  auto id = *store.create("Cell");
  EXPECT_TRUE(store.set(id, "name", AttrValue(std::string("alu"))).ok());
  EXPECT_TRUE(store.set(id, "count", AttrValue(std::int64_t{3})).ok());
  EXPECT_TRUE(store.set(id, "ratio", AttrValue(0.5)).ok());
  EXPECT_TRUE(store.set(id, "frozen", AttrValue(true)).ok());
  EXPECT_EQ(store.set(id, "count", AttrValue(std::string("x"))).code(), Errc::invalid_argument);
  EXPECT_EQ(store.set(id, "missing", AttrValue(true)).code(), Errc::not_found);
  EXPECT_EQ(*store.get_text(id, "name"), "alu");
  EXPECT_EQ(*store.get_int(id, "count"), 3);
  EXPECT_EQ(*store.get_real(id, "ratio"), 0.5);
  EXPECT_EQ(*store.get_bool(id, "frozen"), true);
  EXPECT_EQ(store.get(id, "ratio2").code(), Errc::not_found);
  EXPECT_EQ(store.get_int(id, "name").code(), Errc::invalid_argument);
}

TEST_F(StoreTest, LinksRespectClassesAndCardinality) {
  auto cell = *store.create("Cell");
  auto cell2 = *store.create("Cell");
  auto v1 = *store.create("Version");
  auto v2 = *store.create("Version");

  EXPECT_TRUE(store.link("has_version", cell, v1).ok());
  EXPECT_TRUE(store.link("has_version", cell, v2).ok());
  // one_to_many: a version belongs to exactly one cell
  EXPECT_EQ(store.link("has_version", cell2, v1).code(), Errc::invalid_argument);
  // duplicate link
  EXPECT_EQ(store.link("has_version", cell, v1).code(), Errc::already_exists);
  // wrong classes
  EXPECT_EQ(store.link("has_version", v1, cell).code(), Errc::invalid_argument);
  // one_to_one
  EXPECT_TRUE(store.link("paired", cell, cell2).ok());
  auto cell3 = *store.create("Cell");
  EXPECT_EQ(store.link("paired", cell, cell3).code(), Errc::invalid_argument);
  EXPECT_EQ(store.link("paired", cell3, cell2).code(), Errc::invalid_argument);

  auto targets = store.targets("has_version", cell);
  ASSERT_TRUE(targets.ok());
  ASSERT_EQ(targets->size(), 2u);
  EXPECT_EQ((*targets)[0], v1);  // link order preserved
  auto sources = store.sources("has_version", v1);
  ASSERT_TRUE(sources.ok());
  ASSERT_EQ(sources->size(), 1u);
  EXPECT_EQ((*sources)[0], cell);
}

TEST_F(StoreTest, UnlinkAndLinked) {
  auto cell = *store.create("Cell");
  auto v = *store.create("Version");
  ASSERT_TRUE(store.link("related", cell, v).ok());
  EXPECT_TRUE(store.linked("related", cell, v));
  EXPECT_TRUE(store.unlink("related", cell, v).ok());
  EXPECT_FALSE(store.linked("related", cell, v));
  EXPECT_EQ(store.unlink("related", cell, v).code(), Errc::not_found);
}

TEST_F(StoreTest, DestroyCleansUpLinks) {
  auto cell = *store.create("Cell");
  auto v = *store.create("Version");
  ASSERT_TRUE(store.link("has_version", cell, v).ok());
  ASSERT_TRUE(store.destroy(v).ok());
  auto targets = store.targets("has_version", cell);
  ASSERT_TRUE(targets.ok());
  EXPECT_TRUE(targets->empty());
  // and the other direction
  auto v2 = *store.create("Version");
  ASSERT_TRUE(store.link("has_version", cell, v2).ok());
  ASSERT_TRUE(store.destroy(cell).ok());
  auto sources = store.sources("has_version", v2);
  ASSERT_TRUE(sources.ok());
  EXPECT_TRUE(sources->empty());
}

TEST_F(StoreTest, QueriesIncludeSubclassesAndFilter) {
  auto c1 = *store.create("Cell");
  auto c2 = *store.create("Cell");
  (void)*store.create("Version");
  ASSERT_TRUE(store.set(c1, "name", AttrValue(std::string("alu"))).ok());
  ASSERT_TRUE(store.set(c2, "name", AttrValue(std::string("rom"))).ok());
  EXPECT_EQ(store.objects_of("Named").size(), 2u);
  EXPECT_EQ(store.objects_of("Cell").size(), 2u);
  auto found = store.find("Cell", "name", AttrValue(std::string("rom")));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], c2);
  EXPECT_TRUE(store.find_one("Cell", "name", AttrValue(std::string("alu"))).has_value());
  EXPECT_FALSE(store.find_one("Cell", "name", AttrValue(std::string("zz"))).has_value());
}

TEST_F(StoreTest, CreatedTimestampsAreOrdered) {
  auto a = *store.create("Cell");
  auto b = *store.create("Cell");
  EXPECT_LT(store.created_at(a), store.created_at(b));
}

// Regression: the relation edge sets answer linked()/duplicate checks,
// but targets()/sources() must keep returning *link-order* vectors.
TEST_F(StoreTest, TargetsAndSourcesPreserveLinkOrder) {
  auto cell = *store.create("Cell");
  auto v1 = *store.create("Version");
  auto v2 = *store.create("Version");
  auto v3 = *store.create("Version");
  // deliberately not id order
  ASSERT_TRUE(store.link("related", cell, v2).ok());
  ASSERT_TRUE(store.link("related", cell, v3).ok());
  ASSERT_TRUE(store.link("related", cell, v1).ok());
  auto targets = store.targets("related", cell);
  ASSERT_TRUE(targets.ok());
  EXPECT_EQ(*targets, (std::vector<ObjectId>{v2, v3, v1}));
  // unlink the middle element and relink it: it re-enters at the end
  ASSERT_TRUE(store.unlink("related", cell, v3).ok());
  ASSERT_TRUE(store.link("related", cell, v3).ok());
  targets = store.targets("related", cell);
  ASSERT_TRUE(targets.ok());
  EXPECT_EQ(*targets, (std::vector<ObjectId>{v2, v1, v3}));
  // sources side: three cells point at one version, in link order
  auto c2 = *store.create("Cell");
  auto c3 = *store.create("Cell");
  ASSERT_TRUE(store.link("related", c3, v1).ok());
  ASSERT_TRUE(store.link("related", c2, v1).ok());
  auto sources = store.sources("related", v1);
  ASSERT_TRUE(sources.ok());
  EXPECT_EQ(*sources, (std::vector<ObjectId>{cell, c3, c2}));
  // and the edge set agrees with the vectors after the churn
  EXPECT_TRUE(store.linked("related", cell, v3));
  EXPECT_FALSE(store.linked("related", c2, v2));
  EXPECT_EQ(store.link("related", cell, v3).code(), Errc::already_exists);
}

// The store freezes its copy of the schema at construction: the
// subclass closure is precomputed once and the schema is immutable
// from then on.
TEST_F(StoreTest, SchemaIsFrozenAndClosurePrecomputed) {
  EXPECT_TRUE(store.schema().frozen());
  const auto& named = store.schema().subclasses_of("Named");
  EXPECT_EQ(named, (std::vector<std::string>{"Cell", "Named"}));
  const auto& cell = store.schema().subclasses_of("Cell");
  EXPECT_EQ(cell, (std::vector<std::string>{"Cell"}));
  EXPECT_TRUE(store.schema().subclasses_of("NoSuchClass").empty());
  // a copy inherits frozenness: no post-construction mutations anywhere
  Schema copy = store.schema();
  EXPECT_EQ(copy.define_class({"Late", "", {}}).code(), Errc::invalid_argument);
  EXPECT_EQ(copy.define_relation({"late", "Cell", "Cell", Cardinality::many_to_many}).code(),
            Errc::invalid_argument);
  // a standalone (unfrozen) schema still accepts definitions
  Schema fresh = test_schema();
  EXPECT_FALSE(fresh.frozen());
  EXPECT_TRUE(fresh.define_class({"Extra", "Named", {}}).ok());
}

// Index-served queries on a small population whose answers are known
// by construction.
TEST_F(StoreTest, IndexedQueriesAnswerTheKnownPopulation) {
  auto a = *store.create("Cell");
  auto b = *store.create("Cell");
  auto v = *store.create("Version");
  ASSERT_TRUE(store.set(a, "name", AttrValue(std::string("alu"))).ok());
  ASSERT_TRUE(store.set(b, "name", AttrValue(std::string("alu"))).ok());
  ASSERT_TRUE(store.link("has_version", a, v).ok());
  EXPECT_EQ(store.objects_of("Named"), (std::vector<ObjectId>{a, b}));
  EXPECT_EQ(store.find("Cell", "name", AttrValue(std::string("alu"))),
            (std::vector<ObjectId>{a, b}));
  EXPECT_EQ(store.find_one("Named", "name", AttrValue(std::string("alu"))), a);
  EXPECT_FALSE(store.find_one("Cell", "name", AttrValue(std::string("zz"))).has_value());
  EXPECT_TRUE(store.linked("has_version", a, v));
  EXPECT_FALSE(store.linked("has_version", b, v));
}

// find_one must return the *smallest* matching id (find().front()),
// also when matches straddle base and derived classes.
TEST_F(StoreTest, FindOneReturnsSmallestIdAcrossSubclasses) {
  auto c1 = *store.create("Cell");
  auto c2 = *store.create("Cell");
  ASSERT_TRUE(store.set(c1, "name", AttrValue(std::string("dup"))).ok());
  ASSERT_TRUE(store.set(c2, "name", AttrValue(std::string("dup"))).ok());
  EXPECT_EQ(store.find_one("Named", "name", AttrValue(std::string("dup"))), c1);
  ASSERT_TRUE(store.destroy(c1).ok());
  EXPECT_EQ(store.find_one("Named", "name", AttrValue(std::string("dup"))), c2);
  // overwriting the attribute moves the object between value buckets
  ASSERT_TRUE(store.set(c2, "name", AttrValue(std::string("renamed"))).ok());
  EXPECT_FALSE(store.find_one("Named", "name", AttrValue(std::string("dup"))).has_value());
  EXPECT_EQ(store.find_one("Named", "name", AttrValue(std::string("renamed"))), c2);
}

}  // namespace
}  // namespace jfm::oms
