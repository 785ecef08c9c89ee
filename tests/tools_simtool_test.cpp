// The digital simulator as an FMCAD tool: testbench documents, the
// resolver injection, and full runs.

#include <gtest/gtest.h>

#include <map>

#include "jfm/tools/sim_tool.hpp"

namespace jfm::tools {
namespace {

using support::Errc;
using support::Result;

Schematic and_cell() {
  Schematic sch;
  sch.ports = {{"a", PortDir::in}, {"b", PortDir::in}, {"y", PortDir::out}};
  sch.nets = {"a", "b", "y"};
  sch.primitives = {{"g", "AND"}};
  sch.connections = {{"a", "g", "a"}, {"b", "g", "b"}, {"y", "g", "y"}};
  return sch;
}

SchematicResolver one_cell_resolver(const std::string& name, Schematic sch) {
  return [name, sch = std::move(sch)](const fmcad::CellViewKey& key) -> Result<Schematic> {
    if (key.cell != name) return Result<Schematic>::failure(Errc::not_found, key.cell);
    return sch;
  };
}

TEST(Testbench, SerializeParseRoundTrip) {
  Testbench tb;
  tb.dut = {"alu", "schematic"};
  tb.stimuli = {{0, "a", Logic::L1}, {5, "b", Logic::X}};
  tb.watches = {"y"};
  tb.runtime = 77;
  tb.results = {{"y", Logic::L0}};
  tb.trace_text = {"3 y 0"};
  tb.events = 9;
  tb.has_results = true;
  auto parsed = Testbench::parse(tb.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->serialize(), tb.serialize());
  EXPECT_EQ(parsed->dut.cell, "alu");
  EXPECT_EQ(parsed->stimuli[1].value, Logic::X);
  EXPECT_EQ(parsed->runtime, 77u);
  EXPECT_EQ(parsed->events, 9u);
}

TEST(Testbench, ParseErrors) {
  EXPECT_EQ(Testbench::parse("what 1 2").code(), Errc::parse_error);
  EXPECT_EQ(Testbench::parse("stim x a 1").code(), Errc::parse_error);
  EXPECT_EQ(Testbench::parse("stim 0 a Q").code(), Errc::parse_error);
  // trailing garbage and negative numbers are rejected, not truncated
  // or wrapped around
  EXPECT_EQ(Testbench::parse("runtime 12abc").code(), Errc::parse_error);
  EXPECT_EQ(Testbench::parse("runtime -5").code(), Errc::parse_error);
  EXPECT_EQ(Testbench::parse("stim 3x a 1").code(), Errc::parse_error);
  EXPECT_EQ(Testbench::parse("stim -1 a 1").code(), Errc::parse_error);
  EXPECT_EQ(Testbench::parse("events 9z").code(), Errc::parse_error);
  EXPECT_EQ(Testbench::parse("events -9").code(), Errc::parse_error);
}

class SimToolTest : public ::testing::Test {
 protected:
  fmcad::DesignFile doc() {
    fmcad::DesignFile d;
    d.cell = "tb";
    d.view = "simulate";
    d.viewtype = "simulate";
    return d;
  }
  fmcad::DesignFile apply_ok(fmcad::DesignFile d, const std::string& cmd,
                             const std::vector<std::string>& args) {
    auto out = tool.apply(d, cmd, args);
    EXPECT_TRUE(out.ok()) << cmd << ": " << (out.ok() ? "" : out.error().to_text());
    return out.ok() ? *out : d;
  }
  SimulatorTool tool;
};

TEST_F(SimToolTest, RunProducesResultsAndTrace) {
  tool.set_resolver(one_cell_resolver("andcell", and_cell()));
  auto d = doc();
  d = apply_ok(d, "set-dut", {"andcell", "schematic"});
  d = apply_ok(d, "add-stim", {"1", "a", "1"});
  d = apply_ok(d, "add-stim", {"1", "b", "1"});
  d = apply_ok(d, "add-stim", {"10", "b", "0"});
  d = apply_ok(d, "add-watch", {"y"});
  d = apply_ok(d, "set-runtime", {"50"});
  d = apply_ok(d, "run", {});
  auto tb = Testbench::parse(d.payload);
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(tb->has_results);
  ASSERT_EQ(tb->results.size(), 1u);
  EXPECT_EQ(tb->results[0].second, Logic::L0);  // b dropped to 0
  // the trace captured y's transitions: X->1->0
  ASSERT_EQ(tb->trace_text.size(), 2u);
  EXPECT_EQ(tb->trace_text[0], "2 y 1");
  EXPECT_EQ(tb->trace_text[1], "11 y 0");
  EXPECT_GT(tb->events, 0u);
  // uses advertises the DUT
  ASSERT_EQ(d.uses.size(), 1u);
  EXPECT_EQ(d.uses[0].cell, "andcell");
}

TEST_F(SimToolTest, RunFailsWithoutResolverOrDut) {
  auto d = doc();
  EXPECT_EQ(tool.apply(d, "run", {}).code(), Errc::invalid_argument);
  tool.set_resolver(one_cell_resolver("andcell", and_cell()));
  EXPECT_EQ(tool.apply(d, "run", {}).code(), Errc::invalid_argument);  // no DUT
  d = apply_ok(d, "set-dut", {"ghost", "schematic"});
  EXPECT_EQ(tool.apply(d, "run", {}).code(), Errc::not_found);
}

TEST_F(SimToolTest, MalformedTimesAreRejected) {
  auto d = doc();
  for (const char* bad : {"12abc", "-5", "", "x"}) {
    EXPECT_EQ(tool.apply(d, "set-runtime", {bad}).code(), Errc::invalid_argument) << bad;
    EXPECT_EQ(tool.apply(d, "add-stim", {bad, "a", "1"}).code(), Errc::invalid_argument)
        << bad;
  }
}

TEST_F(SimToolTest, BadStimulusSignalReported) {
  tool.set_resolver(one_cell_resolver("andcell", and_cell()));
  auto d = doc();
  d = apply_ok(d, "set-dut", {"andcell", "schematic"});
  d = apply_ok(d, "add-stim", {"1", "ghost_signal", "1"});
  EXPECT_EQ(tool.apply(d, "run", {}).code(), Errc::not_found);
}

TEST_F(SimToolTest, ClearResultsAndSetDutInvalidateResults) {
  tool.set_resolver(one_cell_resolver("andcell", and_cell()));
  auto d = doc();
  d = apply_ok(d, "set-dut", {"andcell", "schematic"});
  d = apply_ok(d, "add-watch", {"y"});
  d = apply_ok(d, "run", {});
  ASSERT_TRUE(Testbench::parse(d.payload)->has_results);
  d = apply_ok(d, "clear-results", {});
  EXPECT_FALSE(Testbench::parse(d.payload)->has_results);
  d = apply_ok(d, "run", {});
  d = apply_ok(d, "set-dut", {"andcell", "schematic"});
  EXPECT_FALSE(Testbench::parse(d.payload)->has_results);
}

TEST_F(SimToolTest, HierarchyCommandsRefused) {
  auto d = doc();
  EXPECT_EQ(tool.apply(d, "add-instance", {"u", "c", "v"}).code(), Errc::not_supported);
  EXPECT_EQ(tool.apply(d, "remove-instance", {"u"}).code(), Errc::not_supported);
}

TEST_F(SimToolTest, ValidateChecksDutInUses) {
  auto d = doc();
  d = apply_ok(d, "set-dut", {"andcell", "schematic"});
  EXPECT_TRUE(tool.validate(d).ok());
  d.uses.clear();
  EXPECT_EQ(tool.validate(d).code(), Errc::consistency_violation);
}

}  // namespace
}  // namespace jfm::tools
