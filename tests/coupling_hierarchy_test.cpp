// Hierarchy coupling (paper s2.3/s3.3): manual desktop submission,
// the procedural-interface future work, and the non-isomorphic
// hierarchy limitation of JCF 3.0.

#include <gtest/gtest.h>

#include "jfm/coupling/hierarchy_sync.hpp"
#include "jfm/fmcad/session.hpp"

namespace jfm::coupling {
namespace {

using support::Errc;

class HierarchySyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs.mkdirs(vfs::Path().child("libs")).ok());
    auto lib = fmcad::Library::create(&fs, &clock, vfs::Path().child("libs"), "work");
    ASSERT_TRUE(lib.ok());
    library = *lib;
    session = std::make_unique<fmcad::DesignerSession>(library, "u");
    ASSERT_TRUE(session->define_view("schematic", "schematic").ok());
    ASSERT_TRUE(session->define_view("layout", "layout").ok());

    user = *jcf.create_user("alice");
    team = *jcf.create_team("rtl");
    ASSERT_TRUE(jcf.add_member(team, user).ok());
    auto tool = *jcf.register_tool("t");
    auto vt = *jcf.create_viewtype("schematic");
    auto act = *jcf.create_activity("a", tool, {}, {vt});
    flow = *jcf.create_flow("f", {act});
    ASSERT_TRUE(jcf.freeze_flow(flow).ok());
    project = *jcf.create_project("chip", team);
  }

  void put(const std::string& cell, const std::string& view,
           const std::vector<fmcad::CellViewKey>& uses) {
    if (!library->meta().has_cell(cell)) {
      ASSERT_TRUE(session->create_cell(cell).ok());
    }
    fmcad::CellViewKey key{cell, view};
    if (library->meta().find_cellview(key) == nullptr) {
      ASSERT_TRUE(session->create_cellview(key).ok());
    }
    fmcad::DesignFile file;
    file.cell = cell;
    file.view = view;
    file.viewtype = view;
    file.uses = uses;
    file.payload = "p\n";
    ASSERT_TRUE(session->checkout(key).ok());
    ASSERT_TRUE(session->write_working(key, file.serialize()).ok());
    ASSERT_TRUE(session->checkin(key).ok());
  }

  /// The default version of (cell, view) as the document a tool would
  /// hand to the save-time rules.
  fmcad::DesignFile doc(const std::string& cell, const std::string& view) {
    auto text = session->read_default({cell, view});
    EXPECT_TRUE(text.ok());
    auto file = fmcad::DesignFile::parse(text.ok() ? *text : std::string());
    EXPECT_TRUE(file.ok());
    return file.ok() ? *file : fmcad::DesignFile{};
  }

  jcf::CellVersionRef register_cell(const std::string& name) {
    auto cell = *jcf.create_cell(project, name, flow, team);
    return *jcf.create_cell_version(cell, user);
  }

  support::SimClock clock;
  vfs::FileSystem fs{&clock};
  std::shared_ptr<fmcad::Library> library;
  std::unique_ptr<fmcad::DesignerSession> session;
  jcf::JcfFramework jcf{&clock};
  jcf::UserRef user;
  jcf::TeamRef team;
  jcf::FlowRef flow;
  jcf::ProjectRef project;
};

TEST_F(HierarchySyncTest, ManualSubmitCountsDesktopSteps) {
  put("leaf1", "schematic", {});
  put("leaf2", "schematic", {});
  put("top", "schematic", {{"leaf1", "schematic"}, {"leaf2", "schematic"}});
  auto top_cv = register_cell("top");
  auto l1 = register_cell("leaf1");
  auto l2 = register_cell("leaf2");

  HierarchySubmitter submitter(&jcf, /*procedural=*/false, /*allow_non_isomorphic=*/false);
  ASSERT_TRUE(submitter.submit(*library, {"top", "schematic"}, project).ok());
  EXPECT_EQ(submitter.stats().desktop_steps, 2u);
  EXPECT_EQ(submitter.stats().relations_submitted, 2u);
  EXPECT_EQ(submitter.stats().procedural_calls, 0u);
  auto kids = jcf.children(top_cv);
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(kids->size(), 2u);
  // resubmitting is idempotent and free
  ASSERT_TRUE(submitter.submit(*library, {"top", "schematic"}, project).ok());
  EXPECT_EQ(submitter.stats().desktop_steps, 2u);
  (void)l1;
  (void)l2;
}

TEST_F(HierarchySyncTest, ProceduralModeSkipsDesktop) {
  put("leaf1", "schematic", {});
  put("top", "schematic", {{"leaf1", "schematic"}});
  register_cell("top");
  register_cell("leaf1");
  HierarchySubmitter submitter(&jcf, /*procedural=*/true, false);
  ASSERT_TRUE(submitter.submit(*library, {"top", "schematic"}, project).ok());
  EXPECT_EQ(submitter.stats().desktop_steps, 0u);
  EXPECT_EQ(submitter.stats().procedural_calls, 1u);
  EXPECT_EQ(submitter.stats().relations_submitted, 1u);
}

TEST_F(HierarchySyncTest, UnregisteredChildRejected) {
  put("ghost_child", "schematic", {});
  put("top", "schematic", {{"ghost_child", "schematic"}});
  register_cell("top");  // child NOT registered in JCF
  HierarchySubmitter submitter(&jcf, false, false);
  auto st = submitter.submit(*library, {"top", "schematic"}, project);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::consistency_violation);
  EXPECT_NE(st.error().message.find("ghost_child"), std::string::npos);
}

TEST_F(HierarchySyncTest, UndeclaredChildrenQuery) {
  put("a", "schematic", {});
  put("b", "schematic", {});
  put("top", "schematic", {{"a", "schematic"}, {"b", "schematic"}});
  auto top_cv = register_cell("top");
  auto a_cv = register_cell("a");
  register_cell("b");
  HierarchySubmitter submitter(&jcf, false, false);
  auto missing = submitter.undeclared_children(project, doc("top", "schematic"));
  EXPECT_EQ(missing.size(), 2u);
  ASSERT_TRUE(submitter.declare(top_cv, a_cv).ok());
  missing = submitter.undeclared_children(project, doc("top", "schematic"));
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], "b");
  EXPECT_EQ(submitter.declared_children(project, "top"), std::set<std::string>{"a"});
  EXPECT_EQ(submitter.stats().desktop_steps, 1u);
}

TEST_F(HierarchySyncTest, IsomorphicViewsAccepted) {
  put("sub", "schematic", {});
  put("sub", "layout", {});
  put("top", "schematic", {{"sub", "schematic"}});
  put("top", "layout", {{"sub", "layout"}});
  HierarchySubmitter submitter(&jcf, false, false);
  EXPECT_TRUE(submitter.check_isomorphic(*library, doc("top", "layout"), {"schematic", "layout"})
                  .ok());
}

TEST_F(HierarchySyncTest, NonIsomorphicRejectedUnlessExtensionOn) {
  put("sub", "schematic", {});
  put("sub", "layout", {});
  put("extra", "layout", {});
  put("top", "schematic", {{"sub", "schematic"}});
  put("top", "layout", {{"sub", "layout"}, {"extra", "layout"}});
  HierarchySubmitter strict(&jcf, false, /*allow_non_isomorphic=*/false);
  auto st = strict.check_isomorphic(*library, doc("top", "layout"), {"schematic", "layout"});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::not_supported);
  EXPECT_EQ(strict.stats().non_isomorphic_rejections, 1u);
  // the future-JCF extension accepts it
  HierarchySubmitter relaxed(&jcf, false, /*allow_non_isomorphic=*/true);
  EXPECT_TRUE(
      relaxed.check_isomorphic(*library, doc("top", "layout"), {"schematic", "layout"}).ok());
  EXPECT_EQ(relaxed.stats().non_isomorphic_rejections, 0u);
}

TEST_F(HierarchySyncTest, ViewsWithoutDataSkippedInIsomorphismCheck) {
  put("sub", "schematic", {});
  put("top", "schematic", {{"sub", "schematic"}});
  // layout cellviews exist in JCF terms but hold no data yet
  HierarchySubmitter submitter(&jcf, false, false);
  EXPECT_TRUE(
      submitter.check_isomorphic(*library, doc("top", "schematic"), {"schematic", "layout"})
          .ok());
}

TEST_F(HierarchySyncTest, ViewsWithoutInstancesSkippedInIsomorphismCheck) {
  put("sub", "schematic", {});
  put("top", "schematic", {{"sub", "schematic"}});
  put("top", "layout", {});  // layout data, hierarchy not entered yet
  HierarchySubmitter submitter(&jcf, false, false);
  EXPECT_TRUE(
      submitter.check_isomorphic(*library, doc("top", "schematic"), {"schematic", "layout"})
          .ok());
}

TEST_F(HierarchySyncTest, AdmitRefusesUndeclaredChildrenInManualMode) {
  put("a", "schematic", {});
  put("top", "schematic", {{"a", "schematic"}});
  register_cell("top");
  register_cell("a");
  HierarchySubmitter manual(&jcf, /*procedural=*/false, false);
  auto st = manual.admit(*library, project, doc("top", "schematic"), {"schematic", "layout"});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::consistency_violation);
  EXPECT_NE(st.error().message.find("undeclared children a"), std::string::npos);
  EXPECT_EQ(manual.stats().relations_submitted, 0u);
  // The procedural interface submits them instead, once.
  HierarchySubmitter procedural(&jcf, /*procedural=*/true, false);
  EXPECT_TRUE(
      procedural.admit(*library, project, doc("top", "schematic"), {"schematic", "layout"}).ok());
  EXPECT_EQ(procedural.stats().relations_submitted, 1u);
  EXPECT_TRUE(manual.undeclared_children(project, doc("top", "schematic")).empty());
}

TEST_F(HierarchySyncTest, ProceduralBulkSubmissionGuarded) {
  register_cell("top");
  register_cell("child");
  HierarchySubmitter manual(&jcf, /*procedural=*/false, false);
  auto st = manual.submit_children(project, "top", {"child"});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::not_supported);  // JCF 3.0 has no such interface
  HierarchySubmitter procedural(&jcf, /*procedural=*/true, false);
  EXPECT_TRUE(procedural.submit_children(project, "top", {"child"}).ok());
  EXPECT_EQ(procedural.stats().relations_submitted, 1u);
}

}  // namespace
}  // namespace jfm::coupling
