// HybridFramework specifics beyond the end-to-end scenarios: config
// ablations, extension-language guards, UI burden, ITC in the hybrid,
// and cross-library behaviours.

#include <gtest/gtest.h>

#include "jfm/coupling/hybrid.hpp"
#include "jfm/coupling/resolvers.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::coupling {
namespace {

using support::Errc;

std::vector<ToolCommand> tiny_schematic() {
  return {
      {"add-port", {"a", "in"}},  {"add-port", {"y", "out"}},
      {"add-prim", {"g0", "NOT"}}, {"connect", {"a", "g0", "a"}},
      {"connect", {"y", "g0", "y"}},
  };
}

class HybridTest : public ::testing::Test {
 protected:
  void init(HybridConfig config = {}) {
    hybrid = std::make_unique<HybridFramework>(config);
    ASSERT_TRUE(hybrid->bootstrap().ok());
    alice = *hybrid->add_designer("alice");
    ASSERT_TRUE(hybrid->create_project("p").ok());
  }
  std::unique_ptr<HybridFramework> hybrid;
  jcf::UserRef alice;
};

TEST_F(HybridTest, BootstrapDefinesStandardResources) {
  init();
  auto& jcf = hybrid->jcf();
  EXPECT_TRUE(jcf.find_viewtype("schematic").ok());
  EXPECT_TRUE(jcf.find_viewtype("layout").ok());
  EXPECT_TRUE(jcf.find_viewtype("simulate").ok());
  EXPECT_TRUE(jcf.find_activity("enter_schematic").ok());
  EXPECT_TRUE(jcf.find_activity("simulate").ok());
  EXPECT_TRUE(jcf.find_activity("enter_layout").ok());
  ASSERT_TRUE(hybrid->standard_flow().valid());
  EXPECT_TRUE(*jcf.flow_frozen(hybrid->standard_flow()));
  // the slave library exists with the standard views
  auto library = hybrid->library("p");
  ASSERT_NE(library, nullptr);
  EXPECT_NE(library->meta().find_view("schematic"), nullptr);
  EXPECT_NE(library->meta().find_view("simulate"), nullptr);
}

TEST_F(HybridTest, RunActivityKeepsMasterAndSlaveInSync) {
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  auto run = hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic());
  ASSERT_TRUE(run.ok()) << run.error().to_text();
  // slave library holds the same bytes as the master database
  auto library = hybrid->library("p");
  const auto* record = library->meta().find_cellview({"c", "schematic"});
  ASSERT_NE(record, nullptr);
  ASSERT_NE(record->default_version(), nullptr);
  auto slave_copy = library->fs().read_file(
      library->cellview_dir({"c", "schematic"}).child(record->default_version()->file));
  ASSERT_TRUE(slave_copy.ok());
  auto master_copy = hybrid->open_read_only("p", "c", "schematic", alice);
  ASSERT_TRUE(master_copy.ok());
  EXPECT_EQ(*slave_copy, *master_copy);
  EXPECT_GT(run->bytes_imported, 0u);
}

TEST_F(HybridTest, ProceduralHierarchyInterfaceAblation) {
  HybridConfig config;
  config.procedural_hierarchy_interface = true;
  init(config);
  ASSERT_TRUE(hybrid->create_cell("p", "leaf", alice).ok());
  ASSERT_TRUE(hybrid->create_cell("p", "parent", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "leaf", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "leaf", "enter_schematic", alice, tiny_schematic()).ok());
  ASSERT_TRUE(hybrid->publish_cell("p", "leaf", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "parent", alice).ok());
  // no declare_child needed: the tool passes the hierarchy procedurally
  std::vector<ToolCommand> edits = {
      {"add-port", {"a", "in"}},
      {"add-port", {"y", "out"}},
      {"add-instance", {"u0", "leaf", "schematic"}},
      {"connect", {"a", "u0", "a"}},
      {"connect", {"y", "u0", "y"}},
  };
  auto run = hybrid->run_activity("p", "parent", "enter_schematic", alice, edits);
  ASSERT_TRUE(run.ok()) << run.error().to_text();
  EXPECT_EQ(hybrid->hierarchy().stats().desktop_steps, 0u);
  EXPECT_GE(hybrid->hierarchy().stats().procedural_calls, 1u);
  // the CompOf metadata is there
  auto& jcf = hybrid->jcf();
  auto parent_cell = *jcf.find_cell(*jcf.find_project("p"), "parent");
  auto kids = jcf.children(*jcf.latest_cell_version(parent_cell));
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(kids->size(), 1u);
}

TEST_F(HybridTest, NonIsomorphicLayoutRejectedThenAllowedByExtension) {
  for (bool allow : {false, true}) {
    HybridConfig config;
    config.allow_non_isomorphic = allow;
    config.procedural_hierarchy_interface = true;  // focus on isomorphism only
    init(config);
    ASSERT_TRUE(hybrid->create_cell("p", "sub", alice).ok());
    ASSERT_TRUE(hybrid->create_cell("p", "other", alice).ok());
    ASSERT_TRUE(hybrid->create_cell("p", "top", alice).ok());
    for (const char* leaf : {"sub", "other"}) {
      ASSERT_TRUE(hybrid->reserve_cell("p", leaf, alice).ok());
      ASSERT_TRUE(
          hybrid->run_activity("p", leaf, "enter_schematic", alice, tiny_schematic()).ok());
      ASSERT_TRUE(
          hybrid->run_activity("p", leaf, "simulate", alice,
                               {{"set-dut", {leaf, "schematic"}}, {"run", {}}})
              .ok());
      ASSERT_TRUE(hybrid->run_activity("p", leaf, "enter_layout", alice,
                                       {{"add-layer", {"metal1"}},
                                        {"draw-rect", {"metal1", "0", "0", "5", "5"}}})
                      .ok());
      ASSERT_TRUE(hybrid->publish_cell("p", leaf, alice).ok());
    }
    ASSERT_TRUE(hybrid->reserve_cell("p", "top", alice).ok());
    std::vector<ToolCommand> sch_edits = {
        {"add-port", {"a", "in"}},
        {"add-port", {"y", "out"}},
        {"add-instance", {"u0", "sub", "schematic"}},
        {"connect", {"a", "u0", "a"}},
        {"connect", {"y", "u0", "y"}},
    };
    ASSERT_TRUE(hybrid->run_activity("p", "top", "enter_schematic", alice, sch_edits).ok());
    ASSERT_TRUE(hybrid->run_activity("p", "top", "simulate", alice,
                                     {{"set-dut", {"top", "schematic"}}, {"run", {}}})
                    .ok());
    // layout hierarchy diverges: places sub AND other
    std::vector<ToolCommand> lay_edits = {
        {"add-layer", {"metal1"}},
        {"add-instance", {"i0", "sub", "layout", "0", "0"}},
        {"add-instance", {"i1", "other", "layout", "100", "0"}},
    };
    auto& rejections = support::telemetry::Registry::global().counter(
        "coupling.hierarchy.non_isomorphic_rejection.count");
    const std::uint64_t rejections0 = rejections.value();
    auto run = hybrid->run_activity("p", "top", "enter_layout", alice, lay_edits);
    if (allow) {
      EXPECT_TRUE(run.ok()) << run.error().to_text();
    } else {
      ASSERT_FALSE(run.ok());
      EXPECT_EQ(run.error().code, Errc::not_supported);
      ASSERT_FALSE(hybrid->consistency_log().empty());
      EXPECT_NE(hybrid->consistency_log().back().find("non-isomorphic"), std::string::npos);
    }
    // The product path counts its rejections in the stats and the
    // registry alike.
    const std::uint64_t expected = allow ? 0 : 1;
    EXPECT_EQ(hybrid->hierarchy().stats().non_isomorphic_rejections, expected);
    EXPECT_EQ(rejections.value() - rejections0, expected);
  }
}

TEST_F(HybridTest, UiBurdenReported) {
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic()).ok());
  const auto& burden = hybrid->last_ui_burden();
  EXPECT_EQ(burden.desktops, 2u);  // the designer faces two user interfaces (s3.4)
  EXPECT_GT(burden.menu_items, 0u);
  EXPECT_GE(burden.locked_items, 1u);  // Remove Instance is locked in manual mode
}

TEST_F(HybridTest, ExtensionLanguageGuardBlocksUnmanagedSave) {
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  // drive the FMCAD tool directly, outside any JCF activity: the
  // customization veto fires
  auto library = hybrid->library("p");
  fmcad::DesignerSession session(library, "alice");
  tools::SchematicTool tool;
  fmcad::ToolSession tool_session(&session, &tool, &hybrid->itc(), &hybrid->interpreter());
  ASSERT_TRUE(tool_session.open({"c", "schematic"}, false).ok());
  ASSERT_TRUE(tool_session.edit("add-net", {"n1"}).ok());
  auto st = tool_session.save();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::permission_denied);
  ASSERT_FALSE(hybrid->consistency_log().empty());
  EXPECT_NE(hybrid->consistency_log().back().find("outside JCF control"), std::string::npos);
}

TEST_F(HybridTest, JcfResolverReadsDatabaseNotLibrary) {
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic()).ok());
  auto& jcf = hybrid->jcf();
  auto project = *jcf.find_project("p");
  auto resolver = make_jcf_resolver(&jcf, project, alice);
  auto sch = resolver({"c", "schematic"});
  ASSERT_TRUE(sch.ok()) << sch.error().to_text();
  EXPECT_EQ(sch->primitives.size(), 1u);
  EXPECT_FALSE(resolver({"ghost", "schematic"}).ok());
  // fmcad resolver sees the synchronized slave copy
  auto fres = make_fmcad_resolver(hybrid->library("p"));
  auto sch2 = fres({"c", "schematic"});
  ASSERT_TRUE(sch2.ok());
  EXPECT_EQ(sch2->serialize(), sch->serialize());
}

TEST_F(HybridTest, DuplicateProjectAndMissingLookups) {
  init();
  EXPECT_EQ(hybrid->create_project("p").code(), Errc::already_exists);
  EXPECT_EQ(hybrid->library("ghost"), nullptr);
  EXPECT_EQ(hybrid->create_cell("ghost", "c", alice).code(), Errc::not_found);
  EXPECT_EQ(hybrid->reserve_cell("p", "ghost", alice).code(), Errc::not_found);
  auto run = hybrid->run_activity("p", "ghost", "enter_schematic", alice, {});
  EXPECT_EQ(run.error().code, Errc::not_found);
  EXPECT_EQ(hybrid->open_read_only("p", "ghost", "schematic", alice).code(), Errc::not_found);
}

TEST_F(HybridTest, LvsAndTimingFromTheMasterDatabase) {
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic()).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "simulate", alice,
                                   {{"set-dut", {"c", "schematic"}}, {"run", {}}})
                  .ok());
  // a layout that labels only one of the two nets
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_layout", alice,
                                   {{"add-layer", {"m1"}},
                                    {"draw-rect", {"m1", "0", "0", "10", "10", "a"}}})
                  .ok());
  auto lvs = hybrid->run_lvs("p", "c", alice);
  ASSERT_TRUE(lvs.ok()) << lvs.error().to_text();
  EXPECT_FALSE(lvs->clean());
  ASSERT_EQ(lvs->nets_missing_in_layout.size(), 1u);
  EXPECT_EQ(lvs->nets_missing_in_layout[0], "y");  // tiny_schematic has nets a, y

  std::string path_text;
  auto timing = hybrid->report_timing("p", "c", alice, &path_text);
  ASSERT_TRUE(timing.ok()) << timing.error().to_text();
  EXPECT_EQ(timing->critical_delay, 1u);  // one NOT gate, delay 1
  EXPECT_NE(path_text.find("(delay 1)"), std::string::npos);
  // missing views are reported cleanly
  EXPECT_FALSE(hybrid->run_lvs("p", "ghost", alice).ok());
  EXPECT_FALSE(hybrid->report_timing("p", "ghost", alice).ok());
}

TEST_F(HybridTest, OutOfSpaceDuringTransferLeavesJcfConsistent) {
  // Failure injection: the disk fills up mid-activity. The wrapper must
  // abort cleanly -- no half-written design object versions, the
  // execution aborted, the project still passing its consistency sweep.
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic()).ok());

  auto& jcf = hybrid->jcf();
  auto project = *jcf.find_project("p");
  auto cell = *jcf.find_cell(project, "c");
  auto cv = *jcf.latest_cell_version(cell);
  auto variant = *jcf.find_variant(cv, "work");
  auto dobj = *jcf.find_design_object(variant, "schematic");
  const std::size_t dov_count_before = jcf.dov_versions(dobj)->size();

  hybrid->fs().set_capacity(hybrid->fs().used_bytes() + 8);  // almost full
  auto run = hybrid->run_activity("p", "c", "simulate", alice,
                                  {{"set-dut", {"c", "schematic"}}, {"run", {}}});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, Errc::io_error);
  hybrid->fs().set_capacity(0);

  // no phantom design data appeared
  EXPECT_EQ(jcf.dov_versions(dobj)->size(), dov_count_before);
  auto problems = hybrid->check_consistency("p");
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty());
  // and the same activity succeeds once space is back
  auto retry = hybrid->run_activity("p", "c", "simulate", alice,
                                    {{"set-dut", {"c", "schematic"}}, {"run", {}}});
  EXPECT_TRUE(retry.ok()) << retry.error().to_text();
}

TEST_F(HybridTest, DerivationReportEmptyWithoutRuns) {
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  auto rows = hybrid->derivation_report("p", "c");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(HybridTest, ProjectDataSharingGatedByExtension) {
  init();  // paper configuration: sharing off
  ASSERT_TRUE(hybrid->create_project("ip").ok());
  ASSERT_TRUE(hybrid->create_cell("ip", "uart", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("ip", "uart", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("ip", "uart", "enter_schematic", alice, tiny_schematic()).ok());
  ASSERT_TRUE(hybrid->publish_cell("ip", "uart", alice).ok());
  auto st = hybrid->share_cell("p", "ip", "uart");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::not_supported);
  EXPECT_NE(st.error().message.find("not yet possible"), std::string::npos);
}

TEST_F(HybridTest, SharedCellUsableAsHierarchyChildWhenEnabled) {
  HybridConfig config;
  config.allow_project_data_sharing = true;
  init(config);
  ASSERT_TRUE(hybrid->create_project("ip").ok());
  ASSERT_TRUE(hybrid->create_cell("ip", "uart", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("ip", "uart", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("ip", "uart", "enter_schematic", alice, tiny_schematic()).ok());
  ASSERT_TRUE(hybrid->publish_cell("ip", "uart", alice).ok());
  ASSERT_TRUE(hybrid->share_cell("p", "ip", "uart").ok());

  // project p builds a design instantiating the borrowed uart
  ASSERT_TRUE(hybrid->create_cell("p", "soc", alice).ok());
  ASSERT_TRUE(hybrid->declare_child("p", "soc", "uart").ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "soc", alice).ok());
  std::vector<ToolCommand> edits = {
      {"add-port", {"a", "in"}},
      {"add-port", {"y", "out"}},
      {"add-instance", {"u0", "uart", "schematic"}},
      {"connect", {"a", "u0", "a"}},
      {"connect", {"y", "u0", "y"}},
  };
  auto run = hybrid->run_activity("p", "soc", "enter_schematic", alice, edits);
  ASSERT_TRUE(run.ok()) << run.error().to_text();
  // and simulate through the hierarchy: the resolver crosses projects
  auto sim = hybrid->run_activity("p", "soc", "simulate", alice,
                                  {{"set-dut", {"soc", "schematic"}},
                                   {"add-stim", {"1", "a", "1"}},
                                   {"add-watch", {"y"}},
                                   {"run", {}}});
  ASSERT_TRUE(sim.ok()) << sim.error().to_text();
}

TEST_F(HybridTest, ViewerCrossProbesWithEditor) {
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic()).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "simulate", alice,
                                   {{"set-dut", {"c", "schematic"}}, {"run", {}}})
                  .ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_layout", alice,
                                   {{"add-layer", {"m1"}},
                                    {"draw-rect", {"m1", "0", "0", "10", "10", "a"}}})
                  .ok());
  ASSERT_TRUE(hybrid->publish_cell("p", "c", alice).ok());  // browsing needs published data
  auto bob = *hybrid->add_designer("bob");
  auto sch_viewer = hybrid->open_viewer("p", "c", "schematic", bob);
  ASSERT_TRUE(sch_viewer.ok()) << sch_viewer.error().to_text();
  auto lay_viewer = hybrid->open_viewer("p", "c", "layout", bob);
  ASSERT_TRUE(lay_viewer.ok()) << lay_viewer.error().to_text();
  // probing net "a" in the schematic highlights it in the layout viewer
  EXPECT_GE((*sch_viewer)->probe("a"), 1u);
  ASSERT_EQ((*lay_viewer)->highlights().size(), 1u);
  EXPECT_EQ((*lay_viewer)->highlights()[0], "a");
  // viewers are read-only
  EXPECT_EQ((*sch_viewer)->edit("add-net", {"x"}).code(), Errc::permission_denied);
  // browsing paid the OMS export copy (s3.6)
  EXPECT_GE(hybrid->transfer().stats_snapshot().exports, 2u);
}

TEST_F(HybridTest, CustomFlowsPerCell) {
  init();
  // an FPGA-style flow without the simulation step (cf. [Seep94b])
  auto fpga = hybrid->define_flow("fpga_flow", {"enter_schematic", "enter_layout"},
                                  {{"enter_schematic", "enter_layout"}});
  ASSERT_TRUE(fpga.ok()) << fpga.error().to_text();
  EXPECT_TRUE(*hybrid->jcf().flow_frozen(*fpga));

  ASSERT_TRUE(hybrid->create_cell("p", "fpga_blk", alice).ok());
  ASSERT_TRUE(hybrid->set_cell_flow("p", "fpga_blk", "fpga_flow").ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "fpga_blk", alice).ok());
  ASSERT_TRUE(
      hybrid->run_activity("p", "fpga_blk", "enter_schematic", alice, tiny_schematic()).ok());
  // layout directly after schematic: legal in this flow, no force needed
  auto lay = hybrid->run_activity("p", "fpga_blk", "enter_layout", alice,
                                  {{"add-layer", {"m1"}},
                                   {"draw-rect", {"m1", "0", "0", "10", "10"}}});
  ASSERT_TRUE(lay.ok()) << lay.error().to_text();
  EXPECT_TRUE(lay->consistency_windows.empty());
  // simulate is NOT part of the fpga flow
  auto sim = hybrid->run_activity("p", "fpga_blk", "simulate", alice,
                                  {{"set-dut", {"fpga_blk", "schematic"}}, {"run", {}}});
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.error().code, Errc::flow_violation);
  // cyclic custom flows are refused at freeze
  auto cyclic = hybrid->define_flow("bad", {"enter_schematic", "simulate"},
                                    {{"enter_schematic", "simulate"},
                                     {"simulate", "enter_schematic"}});
  ASSERT_FALSE(cyclic.ok());
  EXPECT_EQ(cyclic.error().code, Errc::consistency_violation);
}

TEST_F(HybridTest, DrcGateBlocksDirtyLayoutCheckin) {
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic()).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "simulate", alice,
                                   {{"set-dut", {"c", "schematic"}}, {"run", {}}})
                  .ok());
  // overlapping rectangles on different nets + a DRC gate: the whole
  // activity aborts, nothing is checked in, the exec is aborted
  auto dirty = hybrid->run_activity("p", "c", "enter_layout", alice,
                                    {{"add-layer", {"m1"}},
                                     {"draw-rect", {"m1", "0", "0", "10", "10", "a"}},
                                     {"draw-rect", {"m1", "5", "5", "15", "15", "b"}},
                                     {"check-drc", {"3"}}});
  ASSERT_FALSE(dirty.ok());
  EXPECT_EQ(dirty.error().code, Errc::consistency_violation);
  // with legal spacing the same gate passes
  auto clean = hybrid->run_activity("p", "c", "enter_layout", alice,
                                    {{"add-layer", {"m1"}},
                                     {"draw-rect", {"m1", "0", "0", "10", "10", "a"}},
                                     {"draw-rect", {"m1", "20", "0", "30", "10", "b"}},
                                     {"check-drc", {"3"}}});
  ASSERT_TRUE(clean.ok()) << clean.error().to_text();
}

TEST_F(HybridTest, ConfigResolverPinsVersionsWhileLatestMovesOn) {
  init();
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic()).ok());

  auto& jcf = hybrid->jcf();
  auto project = *jcf.find_project("p");
  auto cell = *jcf.find_cell(project, "c");
  auto cv = *jcf.latest_cell_version(cell);
  auto variant = *jcf.find_variant(cv, "work");
  auto dobj = *jcf.find_design_object(variant, "schematic");
  auto v1 = *jcf.latest_dov(dobj);
  // freeze a configuration at version 1
  auto config = *jcf.create_config(cv, "golden");
  ASSERT_TRUE(jcf.add_config_member(config, v1).ok());

  // the design moves on: a second schematic version with an extra gate
  ASSERT_TRUE(hybrid
                  ->run_activity("p", "c", "enter_schematic", alice,
                                 {{"add-prim", {"g9", "NOT"}}})
                  .ok());

  auto pinned = coupling::make_jcf_config_resolver(&jcf, config, alice);
  auto latest = coupling::make_jcf_resolver(&jcf, project, alice);
  auto sch_pinned = pinned({"c", "schematic"});
  auto sch_latest = latest({"c", "schematic"});
  ASSERT_TRUE(sch_pinned.ok()) << sch_pinned.error().to_text();
  ASSERT_TRUE(sch_latest.ok());
  EXPECT_EQ(sch_pinned->primitives.size(), 1u);  // frozen at v1
  EXPECT_EQ(sch_latest->primitives.size(), 2u);  // follows the head
  // unpinned cells fail without a fallback, resolve with one
  EXPECT_FALSE(pinned({"ghost", "schematic"}).ok());
  auto chained = coupling::make_jcf_config_resolver(&jcf, config, alice, latest);
  EXPECT_TRUE(chained({"c", "schematic"}).ok());
}

TEST_F(HybridTest, DirectTransferAblationMovesFewerBytes) {
  HybridConfig direct;
  direct.copy_through_filesystem = false;
  init(direct);
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic()).ok());
  EXPECT_EQ(hybrid->transfer().stats_snapshot().staging_copies, 0u);
}

TEST(MultiLibraryResolver, SimulatesAcrossLibrarySearchPath) {
  // a design library whose top instantiates an inverter that lives in a
  // separate standard-cell library; elaboration + simulation must
  // resolve across the search path
  support::SimClock clock;
  vfs::FileSystem fs(&clock);
  ASSERT_TRUE(fs.mkdirs(vfs::Path().child("libs")).ok());
  auto make_lib = [&](const std::string& name) {
    auto lib = fmcad::Library::create(&fs, &clock, vfs::Path().child("libs"), name);
    EXPECT_TRUE(lib.ok());
    fmcad::DesignerSession admin(*lib, "admin");
    EXPECT_TRUE(admin.define_view("schematic", "schematic").ok());
    return *lib;
  };
  auto put = [&](fmcad::Library& lib, const std::string& cell, const tools::Schematic& sch) {
    fmcad::DesignerSession session(std::shared_ptr<fmcad::Library>(&lib, [](fmcad::Library*) {}),
                                   "builder");
    ASSERT_TRUE(session.create_cell(cell).ok());
    fmcad::CellViewKey key{cell, "schematic"};
    ASSERT_TRUE(session.create_cellview(key).ok());
    fmcad::DesignFile file;
    file.cell = cell;
    file.view = "schematic";
    file.viewtype = "schematic";
    file.payload = sch.serialize();
    tools::sync_uses_from_schematic(file, sch);
    ASSERT_TRUE(session.checkout(key).ok());
    ASSERT_TRUE(session.write_working(key, file.serialize()).ok());
    ASSERT_TRUE(session.checkin(key).ok());
  };

  auto stdcells = make_lib("stdcells");
  auto design = make_lib("design");
  tools::Schematic inv;
  inv.ports = {{"a", tools::PortDir::in}, {"y", tools::PortDir::out}};
  inv.nets = {"a", "y"};
  inv.primitives = {{"g", "NOT"}};
  inv.connections = {{"a", "g", "a"}, {"y", "g", "y"}};
  put(*stdcells, "inv", inv);
  tools::Schematic top;
  top.ports = {{"in", tools::PortDir::in}, {"out", tools::PortDir::out}};
  top.nets = {"in", "out"};
  top.instances = {{"u0", "inv", "schematic"}};
  top.connections = {{"in", "u0", "a"}, {"out", "u0", "y"}};
  put(*design, "top", top);

  fmcad::LibrarySet path;
  path.add(design.get());
  path.add(stdcells.get());
  auto resolver = make_fmcad_resolver(path);
  auto resolved_top = resolver({"top", "schematic"});
  ASSERT_TRUE(resolved_top.ok()) << resolved_top.error().to_text();
  auto circuit = tools::elaborate(*resolved_top, "top", resolver);
  ASSERT_TRUE(circuit.ok()) << circuit.error().to_text();
  tools::Simulator sim(std::move(*circuit));
  ASSERT_TRUE(sim.inject(0, "in", tools::Logic::L0).ok());
  ASSERT_TRUE(sim.run(10).ok());
  EXPECT_EQ(*sim.value("out"), tools::Logic::L1);
}

TEST_F(HybridTest, CheckoutHierarchyExportsWholeCompOfClosure) {
  HybridConfig config;
  config.content_addressed_cache = true;
  init(config);
  for (const char* cell : {"top", "alu", "regfile"}) {
    ASSERT_TRUE(hybrid->create_cell("p", cell, alice).ok());
    ASSERT_TRUE(hybrid->reserve_cell("p", cell, alice).ok());
    auto run = hybrid->run_activity("p", cell, "enter_schematic", alice, tiny_schematic());
    ASSERT_TRUE(run.ok()) << run.error().to_text();
  }
  ASSERT_TRUE(hybrid->declare_child("p", "top", "alu").ok());
  ASSERT_TRUE(hybrid->declare_child("p", "top", "regfile").ok());

  auto dst = vfs::Path().child("scratch").child("co");
  auto report = hybrid->checkout_hierarchy("p", "top", alice, dst);
  ASSERT_TRUE(report.ok()) << report.error().to_text();
  EXPECT_EQ(report->cells, 3u);
  EXPECT_EQ(report->requested, 3u);  // one schematic per cell, other views empty
  EXPECT_EQ(report->exported, 3u);
  EXPECT_TRUE(report->failures.empty());
  EXPECT_GT(report->bytes_exported, 0u);
  for (const char* cell : {"top", "alu", "regfile"}) {
    auto content = hybrid->fs().read_file(dst.child(std::string(cell) + "_schematic"));
    ASSERT_TRUE(content.ok()) << cell;
    EXPECT_FALSE(content->empty());
  }

  // A second checkout of the unchanged hierarchy rides the change
  // feed: nothing changed since the cursor epoch, so the three known
  // cellviews are skipped before any lock or cache probe.
  hybrid->fs().reset_counters();
  auto warm = hybrid->checkout_hierarchy("p", "top", alice, dst);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->incremental);
  EXPECT_EQ(warm->requested, 0u);
  EXPECT_EQ(warm->skipped, 3u);
  EXPECT_EQ(hybrid->fs().counters().bytes_copied, 0u);
  EXPECT_EQ(hybrid->fs().counters().bytes_written, 0u);

  // The full-walk ablation still probes every cellview and answers
  // from the content-addressed cache: zero bytes move either way.
  auto full = hybrid->checkout_hierarchy_full("p", "top", alice, dst);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->incremental);
  EXPECT_EQ(full->cache_hits, 3u);
  EXPECT_EQ(hybrid->fs().counters().bytes_copied, 0u);
  EXPECT_EQ(hybrid->fs().counters().bytes_written, 0u);
}

TEST_F(HybridTest, CachedReadOnlyOpenSkipsTheSecondCopy) {
  HybridConfig config;
  config.content_addressed_cache = true;
  init(config);
  ASSERT_TRUE(hybrid->create_cell("p", "c", alice).ok());
  ASSERT_TRUE(hybrid->reserve_cell("p", "c", alice).ok());
  auto run = hybrid->run_activity("p", "c", "enter_schematic", alice, tiny_schematic());
  ASSERT_TRUE(run.ok()) << run.error().to_text();

  auto cold = hybrid->open_read_only("p", "c", "schematic", alice);
  ASSERT_TRUE(cold.ok());
  hybrid->fs().reset_counters();
  auto warm = hybrid->open_read_only("p", "c", "schematic", alice);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm, *cold);
  EXPECT_EQ(hybrid->fs().counters().bytes_copied, 0u);
  EXPECT_EQ(hybrid->fs().counters().bytes_written, 0u);
  EXPECT_EQ(hybrid->transfer().stats_snapshot().cache_hits, 1u);

  // After a new version lands, the next open re-copies the fresh bytes.
  auto run2 = hybrid->run_activity("p", "c", "enter_schematic", alice,
                                   {{"add-net", {"extra"}}});
  ASSERT_TRUE(run2.ok()) << run2.error().to_text();
  auto fresh = hybrid->open_read_only("p", "c", "schematic", alice);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, *cold);
  EXPECT_NE(fresh->find("extra"), std::string::npos);
}

}  // namespace
}  // namespace jfm::coupling
