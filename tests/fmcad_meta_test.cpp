// The .meta file format: the single metadata file per library (s2.2).

#include <gtest/gtest.h>

#include "jfm/fmcad/meta.hpp"
#include "jfm/support/rng.hpp"

namespace jfm::fmcad {
namespace {

using support::Errc;

LibraryMeta sample_meta() {
  LibraryMeta meta;
  meta.library = "mylib";
  meta.generation = 7;
  meta.views = {{"schematic", "schematic"}, {"layout", "layout"}, {"sym", "symbol"}};
  meta.cells = {"alu", "rom"};
  CellViewKey key{"alu", "schematic"};
  auto& record = meta.cellviews[key];
  record.key = key;
  record.versions = {{1, "v1.cv", 100, "alice"}, {2, "v2.cv", 200, "bob"}};
  record.checkout = CheckOutStatus{"carol", 2, "work_carol.cv"};
  meta.configs["golden"].name = "golden";
  meta.configs["golden"].members[key] = 1;
  return meta;
}

TEST(Meta, Lookups) {
  LibraryMeta meta = sample_meta();
  EXPECT_TRUE(meta.has_cell("alu"));
  EXPECT_FALSE(meta.has_cell("nope"));
  ASSERT_NE(meta.find_view("layout"), nullptr);
  EXPECT_EQ(meta.find_view("layout")->viewtype, "layout");
  EXPECT_EQ(meta.find_view("nope"), nullptr);
  ASSERT_NE(meta.find_cellview({"alu", "schematic"}), nullptr);
  EXPECT_EQ(meta.find_cellview({"alu", "layout"}), nullptr);
  ASSERT_NE(meta.find_config("golden"), nullptr);
  EXPECT_EQ(meta.find_config("none"), nullptr);
}

TEST(Meta, VersionAccessors) {
  LibraryMeta meta = sample_meta();
  const CellViewRecord* record = meta.find_cellview({"alu", "schematic"});
  ASSERT_NE(record, nullptr);
  ASSERT_NE(record->default_version(), nullptr);
  EXPECT_EQ(record->default_version()->number, 2);  // latest by default
  ASSERT_NE(record->version(1), nullptr);
  EXPECT_EQ(record->version(1)->author, "alice");
  EXPECT_EQ(record->version(9), nullptr);
}

TEST(Meta, SerializeParseRoundTrip) {
  LibraryMeta meta = sample_meta();
  auto parsed = LibraryMeta::parse(meta.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_text();
  EXPECT_EQ(parsed->library, "mylib");
  EXPECT_EQ(parsed->generation, 7u);
  EXPECT_EQ(parsed->cells, meta.cells);
  ASSERT_EQ(parsed->views.size(), 3u);
  const CellViewRecord* record = parsed->find_cellview({"alu", "schematic"});
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->versions.size(), 2u);
  EXPECT_EQ(record->versions[1].mtime, 200u);
  ASSERT_TRUE(record->checkout.has_value());
  EXPECT_EQ(record->checkout->user, "carol");
  EXPECT_EQ(record->checkout->base_version, 2);
  EXPECT_EQ(parsed->configs.at("golden").members.at({"alu", "schematic"}), 1);
  // canonical
  EXPECT_EQ(parsed->serialize(), meta.serialize());
}

TEST(Meta, ParseRejectsGarbage) {
  EXPECT_EQ(LibraryMeta::parse("nope").code(), Errc::parse_error);
  EXPECT_EQ(LibraryMeta::parse("fmcadmeta 1\n").code(), Errc::parse_error);  // no end
  EXPECT_EQ(LibraryMeta::parse("fmcadmeta 1\nversion a b 1 f 0 u\nend\n").code(),
            Errc::parse_error);  // version before cellview
  EXPECT_EQ(LibraryMeta::parse("fmcadmeta 1\nmember cfg a b 1\nend\n").code(),
            Errc::parse_error);  // member before config
  EXPECT_EQ(LibraryMeta::parse("fmcadmeta 1\nwat\nend\n").code(), Errc::parse_error);
  EXPECT_EQ(LibraryMeta::parse("fmcadmeta 1\nend\nextra\n").code(), Errc::parse_error);
  // Untrusted numeric fields are parse errors, never exceptions.
  for (const char* text : {
           "fmcadmeta 1\ngeneration x\nend\n",
           "fmcadmeta 1\ngeneration -1\nend\n",
           "fmcadmeta 1\ngeneration 99999999999999999999999\nend\n",
           "fmcadmeta 1\ncellview a b\nversion a b x f 0 u\nend\n",
           "fmcadmeta 1\ncellview a b\nversion a b 99999999999 f 0 u\nend\n",
           "fmcadmeta 1\ncellview a b\nversion a b 1 f 1e3 u\nend\n",
           "fmcadmeta 1\ncellview a b\ncheckout a b u 2x w\nend\n",
           "fmcadmeta 1\nconfig cfg\nmember cfg a b 99999999999\nend\n",
       }) {
    EXPECT_EQ(LibraryMeta::parse(text).code(), Errc::parse_error) << text;
  }
}

// property: randomized metas survive the round trip bit-exactly
struct MetaRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetaRoundTrip, Random) {
  support::Rng rng(GetParam());
  LibraryMeta meta;
  meta.library = rng.identifier(8);
  meta.generation = rng.below(1000);
  const int n_views = static_cast<int>(rng.range(1, 4));
  for (int v = 0; v < n_views; ++v) {
    meta.views.push_back({"view" + std::to_string(v), rng.identifier(5)});
  }
  const int n_cells = static_cast<int>(rng.range(1, 6));
  for (int c = 0; c < n_cells; ++c) {
    const std::string cell = "cell" + std::to_string(c);
    meta.cells.push_back(cell);
    for (int v = 0; v < n_views; ++v) {
      if (rng.chance(0.5)) continue;
      CellViewKey key{cell, "view" + std::to_string(v)};
      auto& record = meta.cellviews[key];
      record.key = key;
      const int n_versions = static_cast<int>(rng.range(0, 4));
      for (int k = 1; k <= n_versions; ++k) {
        record.versions.push_back(
            {k, "v" + std::to_string(k) + ".cv", rng.below(10'000), rng.identifier(4)});
      }
      if (!record.versions.empty() && rng.chance(0.3)) {
        record.checkout = CheckOutStatus{rng.identifier(5),
                                         record.versions.back().number, "work.cv"};
      }
    }
  }
  auto parsed = LibraryMeta::parse(meta.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->serialize(), meta.serialize());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetaRoundTrip, ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace jfm::fmcad
