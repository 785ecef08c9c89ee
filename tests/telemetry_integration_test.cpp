// End-to-end observability: a desktop checkout traced across the
// coupling -> jcf -> oms -> vfs layers, the stats/trace desktop
// commands, and registry counters agreeing with TransferStats.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "jfm/coupling/desktop.hpp"
#include "jfm/support/telemetry.hpp"
#include "jfm/workload/generators.hpp"

namespace jfm::coupling {
namespace {

namespace telemetry = support::telemetry;

class TelemetryIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::Tracer::global().disable();
    ASSERT_TRUE(hybrid.bootstrap().ok());
    auto user = hybrid.add_designer("alice");
    ASSERT_TRUE(user.ok());
    alice = *user;
    ASSERT_TRUE(hybrid.create_project("proj").ok());
    shell = std::make_unique<DesktopShell>(&hybrid);
  }

  void TearDown() override { telemetry::Tracer::global().disable(); }

  // A cell with real schematic data in OMS: created, reserved, and one
  // design object version written into the reserved workspace.
  void make_populated_cell(const std::string& name) {
    ASSERT_TRUE(hybrid.create_cell("proj", name, alice).ok());
    ASSERT_TRUE(hybrid.reserve_cell("proj", name, alice).ok());
    auto& jcf = hybrid.jcf();
    auto project = jcf.find_project("proj");
    ASSERT_TRUE(project.ok());
    auto cell = jcf.find_cell(*project, name);
    ASSERT_TRUE(cell.ok());
    auto cv = jcf.latest_cell_version(*cell);
    ASSERT_TRUE(cv.ok());
    auto variant = jcf.find_variant(*cv, "work");
    ASSERT_TRUE(variant.ok());
    auto vt = jcf.find_viewtype("schematic");
    ASSERT_TRUE(vt.ok());
    auto dobj = jcf.create_design_object(*variant, "schematic", *vt, alice);
    ASSERT_TRUE(dobj.ok());
    auto dov = jcf.create_dov(*dobj, "design-data-for-" + name, alice);
    ASSERT_TRUE(dov.ok());
  }

  static std::string transcript_text(const DesktopResult& result) {
    std::string all;
    for (const auto& line : result.transcript) all += line + "\n";
    return all;
  }

  HybridFramework hybrid;
  jcf::UserRef alice;
  std::unique_ptr<DesktopShell> shell;
};

TEST_F(TelemetryIntegrationTest, TracedCheckoutSpansAllFourLayers) {
  make_populated_cell("top");
  auto result = shell->run_script(R"(
    trace on
    checkout proj top alice
    trace dump
    trace off
  )");
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  const std::string text = transcript_text(*result);
  EXPECT_NE(text.find("checked out top hierarchy"), std::string::npos) << text;
  // One checkout decomposes into hierarchy closure + batch export, and
  // the trace reaches down through jcf and oms to the vfs leaves.
  EXPECT_NE(text.find("[coupling] checkout_hierarchy"), std::string::npos) << text;
  EXPECT_NE(text.find("[coupling] hierarchy_closure"), std::string::npos) << text;
  EXPECT_NE(text.find("[coupling] transfer.export_batch"), std::string::npos) << text;
  EXPECT_NE(text.find("[coupling] transfer.export"), std::string::npos) << text;
  EXPECT_NE(text.find("[jcf] dov_data"), std::string::npos) << text;
  EXPECT_NE(text.find("[oms] read_blob"), std::string::npos) << text;
  EXPECT_NE(text.find("[vfs] copy_file"), std::string::npos) << text;
}

TEST_F(TelemetryIntegrationTest, TracedCheckoutNestsSpansCorrectly) {
  make_populated_cell("top");
  auto& tracer = telemetry::Tracer::global();
  tracer.enable();
  auto report = hybrid.checkout_hierarchy("proj", "top", alice,
                                          vfs::Path().child("scratch").child("co"));
  tracer.disable();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->exported, 1u);

  auto spans = tracer.snapshot();
  ASSERT_FALSE(spans.empty());
  auto find = [&](const std::string& name) -> const telemetry::SpanRecord* {
    for (const auto& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const auto* checkout = find("checkout_hierarchy");
  const auto* closure = find("hierarchy_closure");
  const auto* batch = find("transfer.export_batch");
  const auto* export_span = find("transfer.export");
  const auto* dov_data = find("dov_data");
  const auto* read_blob = find("read_blob");
  ASSERT_NE(checkout, nullptr);
  ASSERT_NE(closure, nullptr);
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(export_span, nullptr);
  ASSERT_NE(dov_data, nullptr);
  ASSERT_NE(read_blob, nullptr);
  EXPECT_EQ(checkout->parent, 0u);
  EXPECT_EQ(checkout->subsystem, "coupling");
  EXPECT_EQ(closure->parent, checkout->id);
  EXPECT_EQ(batch->parent, checkout->id);
  EXPECT_EQ(dov_data->subsystem, "jcf");
  EXPECT_EQ(dov_data->parent, export_span->id);
  EXPECT_EQ(read_blob->subsystem, "oms");
  EXPECT_EQ(read_blob->parent, dov_data->id);
  // The export chain hangs off the batch span directly, whichever
  // thread ran it: executor tasks inherit the submitter's span context.
  EXPECT_EQ(export_span->parent, batch->id);
}

TEST_F(TelemetryIntegrationTest, StatsCommandDumpsRegistryTableAndJson) {
  make_populated_cell("top");
  auto result = shell->run_script(R"(
    checkout proj top alice
    stats coupling.transfer.
  )");
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  const std::string text = transcript_text(*result);
  EXPECT_NE(text.find("coupling.transfer.export.count"), std::string::npos) << text;
  EXPECT_NE(text.find("coupling.transfer.export.bytes"), std::string::npos) << text;

  DesktopResult json_result;
  ASSERT_TRUE(shell->execute_line("stats json", json_result).ok());
  ASSERT_EQ(json_result.transcript.size(), 1u);
  const std::string& json = json_result.transcript[0];
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"coupling.transfer.export.count\""), std::string::npos);
}

TEST_F(TelemetryIntegrationTest, TraceOffDumpsNothingNew) {
  make_populated_cell("top");
  auto result = shell->run_script(R"(
    trace on
    trace off
    checkout proj top alice
    trace dump
  )");
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  const std::string text = transcript_text(*result);
  EXPECT_NE(text.find("0 span(s)"), std::string::npos) << text;
  EXPECT_EQ(text.find("[coupling] checkout_hierarchy"), std::string::npos) << text;
}

TEST_F(TelemetryIntegrationTest, RegistryCountersAgreeWithTransferStats) {
  make_populated_cell("top");
  auto& registry = telemetry::Registry::global();
  const auto snap_before = registry.snapshot();
  const auto stats_before = hybrid.transfer().stats_snapshot();

  ASSERT_TRUE(hybrid
                  .checkout_hierarchy("proj", "top", alice,
                                      vfs::Path().child("scratch").child("agree"))
                  .ok());
  ASSERT_TRUE(hybrid.open_read_only("proj", "top", "schematic", alice).ok());

  const auto snap_after = registry.snapshot();
  const auto stats_after = hybrid.transfer().stats_snapshot();
  auto counter_delta = [&](const std::string& name) {
    auto before_it = snap_before.counters.find(name);
    auto after_it = snap_after.counters.find(name);
    const std::uint64_t before = before_it == snap_before.counters.end() ? 0 : before_it->second;
    return (after_it == snap_after.counters.end() ? 0 : after_it->second) - before;
  };
  EXPECT_EQ(counter_delta("coupling.transfer.export.count"),
            stats_after.exports - stats_before.exports);
  EXPECT_EQ(counter_delta("coupling.transfer.export.bytes"),
            stats_after.bytes_exported - stats_before.bytes_exported);
  EXPECT_EQ(counter_delta("coupling.transfer.staging.count"),
            stats_after.staging_copies - stats_before.staging_copies);
  EXPECT_GT(stats_after.exports, stats_before.exports);
}

TEST_F(TelemetryIntegrationTest, ExportLatencyHistogramTracksExports) {
  make_populated_cell("top");
  auto& h = telemetry::Registry::global().latency_histogram("coupling.transfer.export.micros");
  const std::uint64_t before = h.count();
  const auto stats_before = hybrid.transfer().stats_snapshot();
  ASSERT_TRUE(hybrid.open_read_only("proj", "top", "schematic", alice).ok());
  const auto stats_after = hybrid.transfer().stats_snapshot();
  EXPECT_EQ(h.count() - before, stats_after.exports - stats_before.exports);
}

// A tool session parses the payload once, at its first edit, and
// serializes it once, at save -- however many edits run in between.
// Per-command reparsing (one parse and one serialize per edit) fails
// this test.
TEST_F(TelemetryIntegrationTest, SchematicActivityParsesAndSerializesOnce) {
  support::Rng rng(3);
  const tools::Schematic leaf = workload::random_schematic(rng, 16);
  std::vector<ToolCommand> entry;
  for (const auto& p : leaf.ports) {
    entry.push_back({"add-port", {p.name, std::string(tools::to_string(p.dir))}});
  }
  for (const auto& n : leaf.nets) {
    if (leaf.find_port(n) == nullptr) entry.push_back({"add-net", {n}});
  }
  for (const auto& g : leaf.primitives) entry.push_back({"add-prim", {g.name, g.gate}});
  for (const auto& c : leaf.connections) entry.push_back({"connect", {c.net, c.element, c.pin}});
  ASSERT_TRUE(hybrid.create_cell("proj", "leaf", alice).ok());
  ASSERT_TRUE(hybrid.reserve_cell("proj", "leaf", alice).ok());
  auto first = hybrid.run_activity("proj", "leaf", "enter_schematic", alice, entry);
  ASSERT_TRUE(first.ok()) << first.error().to_text();

  // 8 disconnect/connect pairs: 16 edits on the stored netlist.
  std::vector<ToolCommand> rewire;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& c = leaf.connections[i];
    rewire.push_back({"disconnect", {c.net, c.element, c.pin}});
    rewire.push_back({"connect", {c.net, c.element, c.pin}});
  }
  auto& registry = telemetry::Registry::global();
  auto& parses = registry.counter("tools.document.parse.count");
  auto& serializations = registry.counter("tools.document.serialize.count");
  const std::uint64_t parses_before = parses.value();
  const std::uint64_t serializations_before = serializations.value();
  auto& tracer = telemetry::Tracer::global();
  tracer.enable();
  auto run = hybrid.run_activity("proj", "leaf", "enter_schematic", alice, rewire);
  tracer.disable();
  ASSERT_TRUE(run.ok()) << run.error().to_text();
  EXPECT_EQ(parses.value() - parses_before, 1u);
  EXPECT_EQ(serializations.value() - serializations_before, 1u);

  std::map<std::string, int> tool_spans;
  for (const auto& span : tracer.snapshot()) {
    if (span.subsystem == "tools") ++tool_spans[span.name];
  }
  EXPECT_EQ(tool_spans["open"], 1);
  EXPECT_EQ(tool_spans["edit"], 16);
  EXPECT_EQ(tool_spans["save"], 1);
}

}  // namespace
}  // namespace jfm::coupling
