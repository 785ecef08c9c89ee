// Failure-atomic activities (docs/fault-injection.md, "Failure-atomic
// activities"). The property, per seed: arm ONE fault -- every faultsim
// site at every ordinal 1..12 the operation reaches -- during
// reserve_cell, run_activity (enter_schematic, simulate, enter_layout)
// or publish_cell on a fresh copy of a seed-built design. Afterwards
//   1. no FMCAD checkout is held,
//   2. no activity execution is left running,
//   3. every cellview's FMCAD default hashes to its work variant's
//      latest-DOV fingerprint (no DOV agrees with no default, or with an
//      empty one: the tools open both as an empty document),
// and when the call failed, a fault-free retry succeeds. Either way the
// design state ends byte-identical to a fault-free oracle run of the
// same operation.
//
// "Design state" is everything a designer reads: per design object the
// DOV count, the latest DOV's bytes and publish flag; per variant every
// activity's progress; every cell version's reservation; per FMCAD
// cellview the default version's bytes, both through the live library
// and through a library re-opened from its .meta. Histories are not
// compared: a failed run legitimately leaves an aborted execution and,
// after a re-stage, extra FMCAD versions holding the master's data.
//
// Replay one seed: JFM_TEST_SEED=<n> ./coupling_activity_fault_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "jfm/coupling/hybrid.hpp"
#include "jfm/jcf/schema.hpp"
#include "jfm/support/faultsim.hpp"
#include "jfm/support/hash.hpp"
#include "jfm/support/rng.hpp"
#include "jfm/workload/generators.hpp"
#include "test_seed.hpp"

namespace jfm::coupling {
namespace {

namespace faultsim = support::faultsim;

// Every hook point faultsim knows; sites an operation never reaches
// draw no ordinal and are skipped after ordinal 1.
constexpr const char* kSites[] = {
    "vfs.read",      "vfs.write",    "vfs.append.torn",      "vfs.copy",
    "oms.commit",    "oms.wal.flush", "oms.snapshot",        "transfer.export_item",
    "transfer.import",
};
constexpr int kMaxOrdinal = 12;

std::vector<ToolCommand> entry_commands(const tools::Schematic& sch) {
  std::vector<ToolCommand> out;
  for (const auto& p : sch.ports) {
    out.push_back({"add-port", {p.name, std::string(tools::to_string(p.dir))}});
  }
  for (const auto& n : sch.nets) {
    if (sch.find_port(n) == nullptr) out.push_back({"add-net", {n}});
  }
  for (const auto& g : sch.primitives) out.push_back({"add-prim", {g.name, g.gate}});
  for (const auto& c : sch.connections) out.push_back({"connect", {c.net, c.element, c.pin}});
  return out;
}

std::vector<ToolCommand> testbench(const std::string& cell) {
  return {{"set-dut", {cell, "schematic"}}, {"add-stim", {"0", "a", "0"}},
          {"add-stim", {"0", "b", "1"}},    {"add-stim", {"10", "a", "1"}},
          {"add-watch", {"y"}},             {"set-runtime", {"20"}},
          {"run", {}}};
}

/// The value of a lookup the test relies on; a failure is reported and
/// yields an empty value, so one bad lookup does not abort the sweep.
template <typename T>
T must(support::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    ADD_FAILURE() << what << ": " << result.error().to_text();
    return T{};
  }
  return std::move(result).take();
}

struct Operation {
  std::string name;
  std::function<support::Status(HybridFramework&, jcf::UserRef)> run;
};

support::Status status_of(const support::Result<ActivityRunReport>& run) {
  return run.ok() ? support::Status{} : support::Status(run.error());
}

/// The operations under test. Their edits derive from the seed, so one
/// seed always replays the same calls.
std::vector<Operation> operations(std::uint32_t seed) {
  support::Rng rng(seed ^ 0x5eedu);
  const auto fresh = entry_commands(workload::random_schematic(rng, 1 + rng.below(4)));
  const std::string extra = "x" + std::to_string(rng.below(100));
  const std::vector<ToolCommand> top_edit = {{"add-net", {extra}},
                                             {"add-prim", {extra + "_buf", "BUF"}},
                                             {"connect", {"a", extra + "_buf", "a"}},
                                             {"connect", {extra, extra + "_buf", "y"}}};
  const std::vector<ToolCommand> layout = {
      {"add-layer", {"metal1"}},
      {"add-instance", {"i0", "leaf", "layout", "0", "0"}},
      {"draw-rect", {"metal1", "0", "0", std::to_string(5 + rng.below(20)), "5"}}};
  auto activity = [](std::string cell, std::string name, std::vector<ToolCommand> edits) {
    return [cell, name, edits](HybridFramework& hy, jcf::UserRef user) {
      return status_of(hy.run_activity("p", cell, name, user, edits));
    };
  };
  return {
      {"reserve_cell leaf",
       [](HybridFramework& hy, jcf::UserRef user) { return hy.reserve_cell("p", "leaf", user); }},
      {"enter_schematic top (repeat)", activity("top", "enter_schematic", top_edit)},
      {"enter_schematic fresh (first)", activity("fresh", "enter_schematic", fresh)},
      {"simulate top (repeat)", activity("top", "simulate", testbench("top"))},
      {"enter_layout top (first)", activity("top", "enter_layout", layout)},
      {"publish_cell top",
       [](HybridFramework& hy, jcf::UserRef user) { return hy.publish_cell("p", "top", user); }},
  };
}

class ActivityFaultProperty : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void TearDown() override { faultsim::Injector::global().disarm(); }

  /// leaf (published schematic), top (reserved; schematic instantiating
  /// leaf, simulated once) and fresh (reserved, no data), all with the
  /// injector disarmed so every copy of the world is identical.
  void build_world(std::uint32_t seed) {
    faultsim::Injector::global().disarm();
    support::Rng rng(seed);
    HybridConfig config;
    config.durable_store = true;
    config.content_addressed_cache = seed % 2 == 0;
    hybrid = std::make_unique<HybridFramework>(config);
    auto& hy = *hybrid;
    ASSERT_TRUE(hy.open_store().ok());
    ASSERT_TRUE(hy.bootstrap().ok());
    alice = must(hy.add_designer("alice"), "add_designer");
    ASSERT_TRUE(hy.create_project("p").ok());
    for (const char* cell : {"leaf", "top", "fresh"}) {
      ASSERT_TRUE(hy.create_cell("p", cell, alice).ok());
      ASSERT_TRUE(hy.reserve_cell("p", cell, alice).ok());
    }
    ASSERT_TRUE(hy.declare_child("p", "top", "leaf").ok());
    auto run = hy.run_activity("p", "leaf", "enter_schematic", alice,
                               entry_commands(workload::random_schematic(rng, 1 + rng.below(4))));
    ASSERT_TRUE(run.ok()) << run.error().to_text();
    ASSERT_TRUE(hy.publish_cell("p", "leaf", alice).ok());
    auto top = entry_commands(workload::random_schematic(rng, 1 + rng.below(4)));
    top.push_back({"add-net", {"w"}});
    top.push_back({"add-instance", {"u0", "leaf", "schematic"}});
    top.push_back({"connect", {"a", "u0", "a"}});
    top.push_back({"connect", {"b", "u0", "b"}});
    top.push_back({"connect", {"w", "u0", "y"}});
    run = hy.run_activity("p", "top", "enter_schematic", alice, top);
    ASSERT_TRUE(run.ok()) << run.error().to_text();
    run = hy.run_activity("p", "top", "simulate", alice, testbench("top"));
    ASSERT_TRUE(run.ok()) << run.error().to_text();
  }

  void arm(const std::string& plan_text) {
    auto plan = faultsim::parse_plan(plan_text);
    ASSERT_TRUE(plan.ok()) << plan.error().to_text();
    faultsim::Injector::global().arm(std::move(*plan));
  }

  std::optional<jcf::VariantRef> work_variant(const std::string& cell) {
    auto& jcf = hybrid->jcf();
    auto c = jcf.find_cell(must(jcf.find_project("p"), "project p"), cell);
    if (!c.ok()) return std::nullopt;
    auto cv = jcf.latest_cell_version(*c);
    if (!cv.ok()) return std::nullopt;
    auto variant = jcf.find_variant(*cv, "work");
    if (!variant.ok()) return std::nullopt;
    return *variant;
  }

  /// FMCAD defaults as "fmcad/<cell>/<view>" -> bytes ("-" = no version).
  void add_slave_state(const fmcad::Library& library, const std::string& prefix,
                       std::map<std::string, std::string>& out) {
    for (const auto& [key, record] : library.meta().cellviews) {
      std::string text = "-";
      if (const auto* version = record.default_version()) {
        auto bytes = hybrid->fs().read_file(library.cellview_dir(key).child(version->file));
        text = bytes.ok() ? *bytes : "<unreadable>";
      }
      out[prefix + key.str()] = text;
    }
  }

  std::map<std::string, std::string> design_state() {
    std::map<std::string, std::string> out;
    auto& jcf = hybrid->jcf();
    auto project = must(jcf.find_project("p"), "project p");
    for (auto cell : must(jcf.cells(project), "cells of p")) {
      const std::string cname = must(jcf.name_of(cell.id), "cell name");
      for (auto cv : must(jcf.cell_versions(cell), "cell versions of " + cname)) {
        const int number = must(jcf.version_number(cv), "version of " + cname);
        const std::string cv_key = "jcf/" + cname + "/v" + std::to_string(number);
        out[cv_key + "/reserved_by"] = must(jcf.reserved_by(cv), "reservation of " + cv_key);
        for (auto variant : must(jcf.variants(cv), "variants of " + cv_key)) {
          const std::string v_key = cv_key + "/" + must(jcf.name_of(variant.id), "variant name");
          for (const char* activity : {"enter_schematic", "simulate", "enter_layout"}) {
            auto act = must(jcf.find_activity(activity), activity);
            auto progress = must(jcf.activity_progress(variant, act), v_key + " " + activity);
            out[v_key + "/progress/" + activity] = std::to_string(static_cast<int>(progress));
          }
          for (auto dobj : must(jcf.design_objects(variant), "design objects of " + v_key)) {
            const std::string d_key = v_key + "/" + must(jcf.name_of(dobj.id), "design object");
            auto dovs = must(jcf.dov_versions(dobj), "DOVs of " + d_key);
            out[d_key + "/dovs"] = std::to_string(dovs.size());
            auto dov = jcf.latest_dov(dobj);
            if (!dov.ok()) continue;
            auto data = jcf.dov_data(*dov, alice);
            out[d_key + "/latest"] = data.ok() ? *data : "<unreadable>";
            auto published = jcf.store().get_bool(dov->id, "published");
            out[d_key + "/published"] = published.ok() && *published ? "1" : "0";
          }
        }
      }
    }
    auto library = hybrid->library("p");
    add_slave_state(*library, "fmcad/", out);
    auto reopened = fmcad::Library::open(&hybrid->fs(), &hybrid->clock(), library->root());
    EXPECT_TRUE(reopened.ok());
    if (reopened.ok()) add_slave_state(**reopened, "fmcad.meta/", out);
    return out;
  }

  void expect_consistent(const std::string& context) {
    auto& jcf = hybrid->jcf();
    // 1. no FMCAD checkout held, in memory or in the .meta on disk
    auto library = hybrid->library("p");
    auto reopened = fmcad::Library::open(&hybrid->fs(), &hybrid->clock(), library->root());
    ASSERT_TRUE(reopened.ok()) << context;
    for (const auto* meta : {&library->meta(), &(*reopened)->meta()}) {
      for (const auto& [key, record] : meta->cellviews) {
        EXPECT_FALSE(record.checkout.has_value())
            << context << ": " << key.str() << " left checked out";
      }
    }
    // 2. no execution left running
    for (auto id : jcf.store().objects_of(jcf::cls::Exec)) {
      auto state = jcf.exec_state(jcf::ExecRef(id));
      ASSERT_TRUE(state.ok()) << context;
      EXPECT_NE(*state, jcf::ExecState::running) << context << ": execution left running";
    }
    // 3. slave default == master latest DOV, by fingerprint
    for (const auto& [key, record] : library->meta().cellviews) {
      std::optional<std::uint64_t> slave;
      if (const auto* version = record.default_version()) {
        auto text = hybrid->fs().read_file(library->cellview_dir(key).child(version->file));
        ASSERT_TRUE(text.ok()) << context;
        if (!text->empty()) slave = support::fnv1a(*text);
      }
      std::optional<std::uint64_t> master;
      if (auto variant = work_variant(key.cell)) {
        if (auto dobj = jcf.find_design_object(*variant, key.view); dobj.ok()) {
          if (auto dov = jcf.latest_dov(*dobj); dov.ok()) {
            auto fingerprint = jcf.dov_fingerprint(*dov, alice);
            ASSERT_TRUE(fingerprint.ok()) << context;
            master = fingerprint->content_hash;
          }
        }
      }
      EXPECT_EQ(slave, master) << context << ": FMCAD " << key.str()
                               << " disagrees with its latest DOV";
    }
  }

  std::unique_ptr<HybridFramework> hybrid;
  jcf::UserRef alice;
};

/// First key whose value differs between two design states ("" = none).
std::string first_difference(const std::map<std::string, std::string>& got,
                             const std::map<std::string, std::string>& want) {
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    if (it == got.end()) return key + " missing";
    if (it->second != value) return key + " differs";
  }
  for (const auto& [key, value] : got) {
    if (!want.contains(key)) return key + " unexpected";
  }
  return "";
}

TEST_P(ActivityFaultProperty, FailedCallsLeaveMasterAndSlaveInAgreement) {
  const std::uint32_t seed = GetParam();
  std::size_t faulted_runs = 0;
  std::size_t failed_calls = 0;
  for (const auto& op : operations(seed)) {
    build_world(seed);
    if (HasFatalFailure()) return;
    expect_consistent("world before " + op.name);
    auto clean = op.run(*hybrid, alice);
    ASSERT_TRUE(clean.ok()) << op.name << ": " << clean.error().to_text();
    const auto oracle = design_state();

    for (const char* site : kSites) {
      for (int n = 1; n <= kMaxOrdinal; ++n) {
        const std::string context = op.name + " with " + site + "@" + std::to_string(n);
        build_world(seed);
        if (HasFatalFailure()) return;
        arm("seed=" + std::to_string(seed) + ";" + site + "@" + std::to_string(n));
        const auto st = op.run(*hybrid, alice);
        const std::uint64_t injected = faultsim::Injector::global().injected();
        faultsim::Injector::global().disarm();
        // The operation drew fewer than n ordinals at this site; higher
        // ordinals cannot fire either.
        if (injected == 0) break;
        ++faulted_runs;
        expect_consistent(context);
        if (!st.ok()) {
          ++failed_calls;
          auto retry = op.run(*hybrid, alice);
          ASSERT_TRUE(retry.ok()) << context << ": fault-free retry failed: "
                                  << retry.error().to_text() << " (after "
                                  << st.error().to_text() << ")";
          expect_consistent(context + ", retried");
        }
        EXPECT_EQ(first_difference(design_state(), oracle), "") << context;
      }
    }
  }
  std::fprintf(stderr, "[ActivityFaultProperty] seed=%u: %zu faulted runs, %zu failed calls\n",
               seed, faulted_runs, failed_calls);
  // The schedule must actually break runs, or the property is vacuous.
  EXPECT_GT(failed_calls, 0u);
}

// Hierarchy admission reads the other structural views' defaults. When
// one of those reads fails, the run fails with that error instead of
// admitting the document unchecked, and the guard rolls it back. top
// has both a schematic and a layout hierarchy here; the sweep arms
// vfs.read at each ordinal of an enter_schematic run and finds the
// failures the layout-default read in the isomorphism check caused: the
// run shows them in a consistency window (the admission step's refusal)
// before failing.
TEST_P(ActivityFaultProperty, UnreadableOtherViewFailsHierarchyAdmission) {
  const std::uint32_t seed = GetParam();
  const auto ops = operations(seed);
  const auto find_op = [&](const std::string& name) {
    return *std::find_if(ops.begin(), ops.end(), [&](const Operation& op) { return op.name == name; });
  };
  const Operation layout = find_op("enter_layout top (first)");
  const Operation edit = find_op("enter_schematic top (repeat)");
  std::size_t admission_failures = 0;
  for (int n = 1; n <= 3 * kMaxOrdinal; ++n) {
    const std::string context = "vfs.read@" + std::to_string(n);
    build_world(seed);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(layout.run(*hybrid, alice).ok());
    const std::size_t windows_before = hybrid->consistency_log().size();
    arm("seed=" + std::to_string(seed) + ";vfs.read@" + std::to_string(n));
    const auto st = edit.run(*hybrid, alice);
    const std::uint64_t injected = faultsim::Injector::global().injected();
    faultsim::Injector::global().disarm();
    if (injected == 0) break;
    const auto& log = hybrid->consistency_log();
    if (log.size() > windows_before &&
        log.back().find("injected fault at vfs.read") != std::string::npos) {
      ++admission_failures;
      ASSERT_FALSE(st.ok()) << context << ": admitted despite an unreadable layout default";
      EXPECT_EQ(st.error().code, support::Errc::io_error) << context;
    }
    expect_consistent(context);
    if (!st.ok()) {
      auto retry = edit.run(*hybrid, alice);
      ASSERT_TRUE(retry.ok()) << context << ": fault-free retry failed: "
                              << retry.error().to_text();
      expect_consistent(context + ", retried");
    }
  }
  EXPECT_EQ(admission_failures, 1u);
}

// A first enter_layout that fails after its FMCAD checkin is undone by
// re-staging the variant's latest layout DOV; there is none, so the
// layout default becomes an empty version. Hierarchy admission treats
// that like "no version yet": a hierarchical enter_schematic on the
// same cell, run right after the failure, must still be admitted.
TEST_P(ActivityFaultProperty, EmptyRestagedViewDoesNotBlockHierarchyAdmission) {
  const std::uint32_t seed = GetParam();
  const auto ops = operations(seed);
  const auto find_op = [&](const std::string& name) {
    return *std::find_if(ops.begin(), ops.end(), [&](const Operation& op) { return op.name == name; });
  };
  const Operation layout = find_op("enter_layout top (first)");
  const Operation edit = find_op("enter_schematic top (repeat)");
  const auto layout_default_is_empty = [&] {
    auto library = hybrid->library("p");
    const fmcad::CellViewKey key{"top", "layout"};
    const auto* record = library->meta().find_cellview(key);
    const auto* version = record != nullptr ? record->default_version() : nullptr;
    if (version == nullptr) return false;
    auto text = hybrid->fs().read_file(library->cellview_dir(key).child(version->file));
    return text.ok() && text->empty();
  };
  std::size_t empty_restages = 0;
  for (const char* site : kSites) {
    for (int n = 1; n <= kMaxOrdinal; ++n) {
      const std::string context = std::string("enter_layout with ") + site + "@" + std::to_string(n);
      build_world(seed);
      if (HasFatalFailure()) return;
      arm("seed=" + std::to_string(seed) + ";" + site + "@" + std::to_string(n));
      const auto st = layout.run(*hybrid, alice);
      const std::uint64_t injected = faultsim::Injector::global().injected();
      faultsim::Injector::global().disarm();
      if (injected == 0) break;
      if (st.ok() || !layout_default_is_empty()) continue;
      ++empty_restages;
      expect_consistent(context);
      auto run = edit.run(*hybrid, alice);
      ASSERT_TRUE(run.ok()) << context << ", then " << edit.name << ": "
                            << run.error().to_text();
      expect_consistent(context + ", then " + edit.name);
    }
  }
  // Some fault must land after the layout checkin, or nothing was shown.
  EXPECT_GT(empty_restages, 0u);
}

// The guard cancels only the checkouts its run opened: a working copy
// the designer already holds survives a run that fails on it.
TEST(ActivityGuard, LeavesCheckoutsHeldBeforeTheRun) {
  HybridFramework hy;
  ASSERT_TRUE(hy.bootstrap().ok());
  auto alice = hy.add_designer("alice");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(hy.create_project("p").ok());
  ASSERT_TRUE(hy.create_cell("p", "c", *alice).ok());
  ASSERT_TRUE(hy.reserve_cell("p", "c", *alice).ok());
  fmcad::DesignerSession desk(hy.library("p"), "alice");
  const fmcad::CellViewKey key{"c", "schematic"};
  ASSERT_TRUE(desk.checkout(key).ok());
  ASSERT_TRUE(desk.write_working(key, "work in progress").ok());

  auto run = hy.run_activity("p", "c", "enter_schematic", *alice, {});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, support::Errc::already_exists);
  desk.refresh();
  auto kept = desk.read_working(key);
  ASSERT_TRUE(kept.ok()) << kept.error().to_text();
  EXPECT_EQ(*kept, "work in progress");
  for (auto id : hy.jcf().store().objects_of(jcf::cls::Exec)) {
    EXPECT_EQ(*hy.jcf().exec_state(jcf::ExecRef(id)), jcf::ExecState::aborted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ActivityFaultProperty,
    ::testing::ValuesIn(jfm::testing::test_seeds<std::uint32_t>("ActivityFaultProperty",
                                                                {3, 17, 42, 1995})));

}  // namespace
}  // namespace jfm::coupling
