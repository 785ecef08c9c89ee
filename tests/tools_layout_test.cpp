// Layout model (geometry, DRC) and the layout editor tool.

#include <gtest/gtest.h>

#include "jfm/tools/layout_tool.hpp"

namespace jfm::tools {
namespace {

using support::Errc;

Layout sample_layout() {
  Layout l;
  l.layers = {"metal1", "metal2"};
  l.rects = {{"metal1", 0, 0, 100, 20, "a"},
             {"metal1", 0, 50, 100, 70, "b"},
             {"metal2", 10, 10, 30, 30, ""}};
  l.placements = {{"u0", "child", "layout", 200, 0}};
  return l;
}

TEST(Layout, SerializeParseRoundTrip) {
  Layout l = sample_layout();
  auto parsed = Layout::parse(l.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->serialize(), l.serialize());
  EXPECT_EQ(parsed->rects.size(), 3u);
  EXPECT_EQ(parsed->placements[0].x, 200);
}

TEST(Layout, ParseNormalizesAndRejects) {
  auto flipped = Layout::parse("layer m\nrect m 10 20 0 5\n");
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(flipped->rects[0].x1, 0);
  EXPECT_EQ(flipped->rects[0].y2, 20);
  EXPECT_EQ(Layout::parse("rect m a b c d").code(), Errc::parse_error);
  EXPECT_EQ(Layout::parse("what 1").code(), Errc::parse_error);
  // Every coordinate must be a whole integer: trailing junk, an empty
  // sign and overflow are rejected instead of truncated.
  EXPECT_EQ(Layout::parse("layer m1\nrect m1 0 0 10abc 5\n").code(), Errc::parse_error);
  EXPECT_EQ(Layout::parse("place u1 c v 7zz 1\n").code(), Errc::parse_error);
  EXPECT_EQ(Layout::parse("place u1 c v 7 -\n").code(), Errc::parse_error);
  EXPECT_EQ(Layout::parse("rect m1 0 0 99999999999999999999 5\n").code(), Errc::parse_error);
  auto negative = Layout::parse("place u1 c v -7 1\n");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative->placements[0].x, -7);
}

TEST(Layout, Validate) {
  EXPECT_TRUE(sample_layout().validate().ok());
  {
    Layout l = sample_layout();
    l.rects.push_back({"ghost_layer", 0, 0, 1, 1, ""});
    EXPECT_EQ(l.validate().code(), Errc::consistency_violation);
  }
  {
    Layout l = sample_layout();
    l.rects.push_back({"metal1", 5, 5, 5, 9, ""});  // zero width
    EXPECT_EQ(l.validate().code(), Errc::invalid_argument);
  }
  {
    Layout l = sample_layout();
    l.placements.push_back({"u0", "other", "layout", 0, 0});
    EXPECT_EQ(l.validate().code(), Errc::already_exists);
  }
  {
    Layout l = sample_layout();
    l.layers.push_back("metal1");
    EXPECT_EQ(l.validate().code(), Errc::already_exists);
  }
}

TEST(Layout, GeometryQueries) {
  Layout l = sample_layout();
  auto box = l.bbox();
  ASSERT_FALSE(box.empty);
  EXPECT_EQ(box.x1, 0);
  EXPECT_EQ(box.y2, 70);
  EXPECT_EQ(l.layer_area("metal1"), 100 * 20 + 100 * 20);
  EXPECT_EQ(l.layer_area("metal2"), 400);
  EXPECT_EQ(l.layer_area("poly"), 0);
  EXPECT_EQ(l.rects_on_net("a"), std::vector<std::size_t>{0});
  EXPECT_TRUE(Layout{}.bbox().empty);
}

TEST(Layout, DrcSpacing) {
  Layout l;
  l.layers = {"m"};
  l.rects = {{"m", 0, 0, 10, 10, "a"},
             {"m", 15, 0, 25, 10, "b"},    // 5 away from #0
             {"m", 100, 0, 110, 10, "c"},  // far away
             {"m", 5, 5, 20, 8, "d"}};     // overlaps #0 and #1
  auto violations = l.drc_spacing(6);
  // pairs closer than 6: (0,1) gap 5, (0,3) overlap, (1,3) overlap
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_EQ(violations[0].distance, 5);
  EXPECT_EQ(violations[1].distance, 0);
  // same-net rectangles may abut
  Layout same;
  same.layers = {"m"};
  same.rects = {{"m", 0, 0, 10, 10, "n"}, {"m", 10, 0, 20, 10, "n"}};
  EXPECT_TRUE(same.drc_spacing(3).empty());
  // tight rule passes when spacing is honored
  EXPECT_TRUE(l.drc_spacing(1).size() == 2u);  // only the overlaps remain
  EXPECT_FALSE(violations[0].describe().empty());
}

class LayoutToolTest : public ::testing::Test {
 protected:
  fmcad::DesignFile doc() {
    fmcad::DesignFile d;
    d.cell = "alu";
    d.view = "layout";
    d.viewtype = "layout";
    return d;
  }
  fmcad::DesignFile apply_ok(fmcad::DesignFile d, const std::string& cmd,
                             const std::vector<std::string>& args) {
    auto out = tool.apply(d, cmd, args);
    EXPECT_TRUE(out.ok()) << cmd << ": " << (out.ok() ? "" : out.error().to_text());
    return out.ok() ? *out : d;
  }
  LayoutTool tool;
};

TEST_F(LayoutToolTest, DrawMoveDelete) {
  auto d = doc();
  d = apply_ok(d, "add-layer", {"metal1"});
  d = apply_ok(d, "draw-rect", {"metal1", "0", "0", "10", "10", "n1"});
  d = apply_ok(d, "move-rect", {"0", "5", "-2"});
  auto l = Layout::parse(d.payload);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->rects[0].x1, 5);
  EXPECT_EQ(l->rects[0].y1, -2);
  d = apply_ok(d, "delete-rect", {"0"});
  l = Layout::parse(d.payload);
  EXPECT_TRUE(l->rects.empty());
  EXPECT_TRUE(tool.validate(d).ok());
}

TEST_F(LayoutToolTest, PlacementsSyncUses) {
  auto d = doc();
  d = apply_ok(d, "add-instance", {"u0", "child", "layout", "100", "200"});
  ASSERT_EQ(d.uses.size(), 1u);
  EXPECT_EQ(d.uses[0].cell, "child");
  d = apply_ok(d, "remove-instance", {"u0"});
  EXPECT_TRUE(d.uses.empty());
  EXPECT_EQ(tool.apply(d, "add-instance", {"u0", "alu", "layout", "0", "0"}).code(),
            Errc::consistency_violation);  // self-placement
}

TEST_F(LayoutToolTest, CheckDrcGate) {
  auto d = doc();
  d = apply_ok(d, "add-layer", {"m"});
  d = apply_ok(d, "draw-rect", {"m", "0", "0", "10", "10", "a"});
  d = apply_ok(d, "draw-rect", {"m", "12", "0", "22", "10", "b"});  // 2 apart
  // rule 2 passes, rule 5 fails with a descriptive message
  EXPECT_TRUE(tool.apply(d, "check-drc", {"2"}).ok());
  auto violating = tool.apply(d, "check-drc", {"5"});
  ASSERT_FALSE(violating.ok());
  EXPECT_EQ(violating.error().code, Errc::consistency_violation);
  EXPECT_NE(violating.error().message.find("violation"), std::string::npos);
  EXPECT_EQ(tool.apply(d, "check-drc", {"0"}).code(), Errc::invalid_argument);
  EXPECT_EQ(tool.apply(d, "check-drc", {"x"}).code(), Errc::invalid_argument);
}

TEST_F(LayoutToolTest, CommandErrors) {
  auto d = doc();
  EXPECT_EQ(tool.apply(d, "draw-rect", {"ghost", "0", "0", "1", "1"}).code(), Errc::not_found);
  d = apply_ok(d, "add-layer", {"m"});
  EXPECT_EQ(tool.apply(d, "add-layer", {"m"}).code(), Errc::already_exists);
  EXPECT_EQ(tool.apply(d, "draw-rect", {"m", "0", "0", "0", "9"}).code(),
            Errc::invalid_argument);  // degenerate
  EXPECT_EQ(tool.apply(d, "draw-rect", {"m", "x", "0", "1", "1"}).code(),
            Errc::invalid_argument);
  EXPECT_EQ(tool.apply(d, "draw-rect", {"m", "0", "0", "10abc", "5"}).code(),
            Errc::invalid_argument);  // trailing junk, not x2=10
  EXPECT_EQ(tool.apply(d, "add-instance", {"u1", "c", "v", "7zz", "1"}).code(),
            Errc::invalid_argument);  // not x=7
  EXPECT_EQ(tool.apply(d, "check-drc", {"3.5"}).code(), Errc::invalid_argument);
  EXPECT_EQ(tool.apply(d, "move-rect", {"5", "0", "0"}).code(), Errc::not_found);
  EXPECT_EQ(tool.apply(d, "explode", {}).code(), Errc::not_found);
}

}  // namespace
}  // namespace jfm::tools
