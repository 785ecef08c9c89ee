// The JCF desktop as a scriptable command surface (s3.4).

#include <gtest/gtest.h>

#include "jfm/coupling/desktop.hpp"
#include "jfm/support/executor.hpp"
#include "jfm/support/faultsim.hpp"

namespace jfm::coupling {
namespace {

using support::Errc;

class DesktopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(hybrid.bootstrap().ok());
    shell = std::make_unique<DesktopShell>(&hybrid);
  }
  HybridFramework hybrid;
  std::unique_ptr<DesktopShell> shell;
};

TEST_F(DesktopTest, FullSessionScript) {
  const char* script = R"(
    # a complete design session from the desktop
    designer alice
    project demo
    cell demo counter alice
    reserve demo counter alice
    edit add-port a in
    edit add-port y out
    edit add-prim g0 BUF
    edit connect a g0 a
    edit connect y g0 y
    run demo counter enter_schematic alice
    edit set-dut counter schematic
    edit add-stim 1 a 1
    edit add-watch y
    edit run
    run demo counter simulate alice
    publish demo counter alice
    derivations demo counter
    check demo
  )";
  auto result = shell->run_script(script);
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  EXPECT_EQ(result->commands_executed, 18u);  // each command line = one desktop step
  // transcript carries the derivation row and a clean check
  bool saw_derivation = false;
  bool saw_clean_check = false;
  for (const auto& line : result->transcript) {
    if (line.find("simulate v1 <- schematic v1") != std::string::npos) saw_derivation = true;
    if (line.find("demo: 0 consistency problem(s)") != std::string::npos) saw_clean_check = true;
  }
  EXPECT_TRUE(saw_derivation);
  EXPECT_TRUE(saw_clean_check);
}

TEST_F(DesktopTest, ErrorsStopTheScriptByDefault) {
  const char* script = R"(
    designer alice
    reserve nosuch cell alice
    designer bob
  )";
  auto result = shell->run_script(script);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::not_found);
  // bob was never created
  EXPECT_FALSE(hybrid.jcf().find_user("bob").ok());
  // keep_going mode pushes through
  auto lenient = shell->run_script(script, /*keep_going=*/true);
  ASSERT_TRUE(lenient.ok());
  EXPECT_TRUE(hybrid.jcf().find_user("bob").ok());
}

TEST_F(DesktopTest, UnknownAndMalformedCommands) {
  DesktopResult result;
  EXPECT_EQ(shell->execute_line("frobnicate x", result).code(), Errc::not_found);
  EXPECT_EQ(shell->execute_line("designer", result).code(), Errc::invalid_argument);
  EXPECT_EQ(shell->execute_line("run a b", result).code(), Errc::invalid_argument);
  // comments and blanks execute as no-ops
  EXPECT_TRUE(shell->execute_line("# comment", result).ok());
  EXPECT_TRUE(shell->execute_line("   ", result).ok());
  EXPECT_EQ(result.commands_executed, 3u);  // only real commands count
}

TEST_F(DesktopTest, CustomFlowThroughTheShell) {
  const char* script = R"(
    designer alice
    project p
    define-flow quick_flow enter_schematic,enter_layout enter_schematic>enter_layout
    cell p blk alice
    set-flow p blk quick_flow
    reserve p blk alice
    edit add-net n1
    run p blk enter_schematic alice
    edit add-layer m1
    edit draw-rect m1 0 0 10 10
    run p blk enter_layout alice
  )";
  auto result = shell->run_script(script);
  ASSERT_TRUE(result.ok()) << result.error().to_text();
}

TEST_F(DesktopTest, ForcedRunReportsWindow) {
  const char* script = R"(
    designer alice
    project p
    cell p blk alice
    reserve p blk alice
    edit add-net n1
    run p blk enter_schematic alice
    edit add-layer m1
    run p blk enter_layout alice force
  )";
  auto result = shell->run_script(script);
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  bool saw_window = false;
  for (const auto& line : result->transcript) {
    if (line.find("[window]") != std::string::npos) saw_window = true;
  }
  EXPECT_TRUE(saw_window);
}

TEST_F(DesktopTest, EditsAreConsumedPerRun) {
  DesktopResult result;
  ASSERT_TRUE(shell->execute_line("designer alice", result).ok());
  ASSERT_TRUE(shell->execute_line("project p", result).ok());
  ASSERT_TRUE(shell->execute_line("cell p c alice", result).ok());
  ASSERT_TRUE(shell->execute_line("reserve p c alice", result).ok());
  ASSERT_TRUE(shell->execute_line("edit add-net n1", result).ok());
  ASSERT_TRUE(shell->execute_line("run p c enter_schematic alice", result).ok());
  // a second run has no queued edits: it just re-opens and checks in
  ASSERT_TRUE(shell->execute_line("run p c enter_schematic alice", result).ok());
  bool saw_zero_edits = false;
  for (const auto& line : result.transcript) {
    if (line.find("0 edits") != std::string::npos) saw_zero_edits = true;
  }
  EXPECT_TRUE(saw_zero_edits);
}

TEST_F(DesktopTest, CheckoutCommandExportsHierarchyInOneStep) {
  const char* script = R"(
    designer alice
    project p
    cell p top alice
    cell p leaf alice
    reserve p top alice
    reserve p leaf alice
    edit add-net n1
    run p top enter_schematic alice
    edit add-net n2
    run p leaf enter_schematic alice
    declare-child p top leaf
    checkout p top alice
  )";
  auto result = shell->run_script(script);
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  bool saw_checkout = false;
  for (const auto& line : result->transcript) {
    if (line.find("checked out top hierarchy: 2/2 cellviews from 2 cell(s)") !=
        std::string::npos) {
      saw_checkout = true;
    }
  }
  EXPECT_TRUE(saw_checkout);
  // the batch really materialized both cells' schematics
  auto& fs = hybrid.fs();
  auto dir = vfs::Path().child("scratch").child("checkout_top");
  EXPECT_TRUE(fs.exists(dir.child("top_schematic")));
  EXPECT_TRUE(fs.exists(dir.child("leaf_schematic")));
}

TEST_F(DesktopTest, CheckoutCommandUsageErrors) {
  DesktopResult result;
  auto st = shell->execute_line("checkout p", result);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::invalid_argument);
  // a fifth word other than --incremental is rejected too
  EXPECT_EQ(shell->execute_line("checkout p top alice --wrong", result).code(),
            Errc::invalid_argument);
}

TEST_F(DesktopTest, IncrementalCheckoutRidesTheChangeFeed) {
  const char* script = R"(
    designer alice
    project p
    cell p top alice
    cell p leaf alice
    reserve p top alice
    reserve p leaf alice
    edit add-net n1
    run p top enter_schematic alice
    edit add-net n2
    run p leaf enter_schematic alice
    declare-child p top leaf
    checkout p top alice
    checkout p top alice --incremental
  )";
  auto result = shell->run_script(script);
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  // The repeat sync with --incremental finds nothing changed: zero
  // requests, both known cellviews skipped.
  bool saw_delta = false;
  bool saw_skipped = false;
  for (const auto& line : result->transcript) {
    if (line.find("checked out top delta: 0/0 cellviews") != std::string::npos) {
      saw_delta = true;
    }
    if (line.find("skipped 2 unchanged cellview(s)") != std::string::npos) {
      saw_skipped = true;
    }
  }
  EXPECT_TRUE(saw_delta);
  EXPECT_TRUE(saw_skipped);

  DesktopResult stats;
  ASSERT_TRUE(shell->execute_line("stats changes", stats).ok());
  bool saw_epochs = false, saw_feed = false, saw_counts = false, saw_cursor = false;
  for (const auto& line : stats.transcript) {
    if (line.rfind("epochs: store=", 0) == 0) saw_epochs = true;
    if (line.rfind("feed: served=", 0) == 0) saw_feed = true;
    if (line.rfind("checkout: incremental=", 0) == 0) saw_counts = true;
    if (line.find("incremental) last_feed=") != std::string::npos &&
        line.find("checkout_top") != std::string::npos) {
      saw_cursor = true;
    }
  }
  EXPECT_TRUE(saw_epochs);
  EXPECT_TRUE(saw_feed);
  EXPECT_TRUE(saw_counts);
  EXPECT_TRUE(saw_cursor);
}

TEST_F(DesktopTest, StatsIndexSummarizesIndexEffectiveness) {
  const char* script = R"(
    designer alice
    project demo
    cell demo counter alice
    stats index
  )";
  auto result = shell->run_script(script);
  ASSERT_TRUE(result.ok()) << result.error().to_text();
  bool saw_entries = false;
  bool saw_queries = false;
  bool saw_find_one = false;
  bool saw_maintenance = false;
  for (const auto& line : result->transcript) {
    if (line.rfind("oms index entries: class=", 0) == 0) saw_entries = true;
    if (line.rfind("queries: indexed=", 0) == 0) saw_queries = true;
    if (line.rfind("find_one: hits=", 0) == 0) saw_find_one = true;
    if (line.rfind("maintenance: adds=", 0) == 0) saw_maintenance = true;
  }
  EXPECT_TRUE(saw_entries);
  EXPECT_TRUE(saw_queries);
  EXPECT_TRUE(saw_find_one);
  EXPECT_TRUE(saw_maintenance);
  // creating designers/projects/cells populated the name indexes, and
  // the uniqueness probes inside create_named answered through them
  DesktopResult one;
  ASSERT_TRUE(shell->execute_line("stats index", one).ok());
  ASSERT_FALSE(one.transcript.empty());
  EXPECT_NE(one.transcript[0].find("class="), std::string::npos);
}

TEST_F(DesktopTest, FaultCommandsArmDigestAndDisarm) {
  auto& injector = support::faultsim::Injector::global();
  DesktopResult result;
  // arm with an explicit schedule; the transcript echoes seed + sites
  ASSERT_TRUE(shell->execute_line("faults seed=5;vfs.write=0.5;oms.commit@2", result).ok());
  EXPECT_TRUE(support::faultsim::Injector::armed());
  EXPECT_EQ(injector.seed(), 5u);
  ASSERT_FALSE(result.transcript.empty());
  EXPECT_NE(result.transcript.back().find("seed 5, 2 site(s)"), std::string::npos);

  DesktopResult digest;
  ASSERT_TRUE(shell->execute_line("stats faults", digest).ok());
  bool saw_armed = false, saw_faults = false, saw_transfer = false, saw_checkout = false;
  for (const auto& line : digest.transcript) {
    if (line.rfind("injector: armed (seed 5)", 0) == 0) saw_armed = true;
    if (line.rfind("faults: evaluated=", 0) == 0) saw_faults = true;
    if (line.rfind("transfer: retries=", 0) == 0) saw_transfer = true;
    if (line.rfind("checkout: rollbacks=", 0) == 0) saw_checkout = true;
  }
  EXPECT_TRUE(saw_armed);
  EXPECT_TRUE(saw_faults);
  EXPECT_TRUE(saw_transfer);
  EXPECT_TRUE(saw_checkout);

  // a malformed plan is rejected and leaves the previous plan armed
  DesktopResult bad;
  EXPECT_FALSE(shell->execute_line("faults vfs.write=nonsense", bad).ok());
  EXPECT_TRUE(support::faultsim::Injector::armed());

  DesktopResult off;
  ASSERT_TRUE(shell->execute_line("faults off", off).ok());
  EXPECT_FALSE(support::faultsim::Injector::armed());
  DesktopResult disarmed;
  ASSERT_TRUE(shell->execute_line("stats faults", disarmed).ok());
  ASSERT_FALSE(disarmed.transcript.empty());
  EXPECT_EQ(disarmed.transcript.front(), "injector: disarmed");
  // usage error on a bare `faults`
  DesktopResult usage;
  EXPECT_EQ(shell->execute_line("faults", usage).code(), Errc::invalid_argument);
}

TEST_F(DesktopTest, StatsExecutorSummarizesThePool) {
  DesktopResult result;
  ASSERT_TRUE(shell->execute_line("stats executor", result).ok());
  bool saw_pool = false, saw_tasks = false, saw_steals = false;
  for (const auto& line : result.transcript) {
    if (line.rfind("pool: workers=", 0) == 0) saw_pool = true;
    if (line.rfind("tasks: submitted=", 0) == 0) saw_tasks = true;
    if (line.rfind("steals: ", 0) == 0) saw_steals = true;
  }
  EXPECT_TRUE(saw_pool);
  EXPECT_TRUE(saw_tasks);
  EXPECT_TRUE(saw_steals);

  // Drive real work through the pool and require the task counters to
  // be visible (and balanced) in the digest afterwards.
  auto& exec = support::executor::Executor::global();
  (void)exec.parallel_for(64, 4, [](std::size_t) -> support::Status { return {}; });
  DesktopResult after;
  ASSERT_TRUE(shell->execute_line("stats executor", after).ok());
  bool saw_started = false;
  for (const auto& line : after.transcript) {
    if (line.find("(started)") != std::string::npos) saw_started = true;
    if (line.rfind("tasks: submitted=", 0) == 0) {
      EXPECT_EQ(line.find("submitted=0 "), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_started);
  // the unknown-subcommand path still falls through to the prefix table
  DesktopResult usage;
  EXPECT_EQ(shell->execute_line("stats a b c", usage).code(), Errc::invalid_argument);
}

}  // namespace
}  // namespace jfm::coupling
