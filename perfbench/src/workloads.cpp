// The three designer workloads. Each drives coupling::HybridFramework
// from one client thread in a closed loop; inputs come only from the
// pass seed (workload::random_schematic over support::Rng), never from
// workload::build_hierarchical_design, whose Rng ignores any seed.

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include "bench.hpp"
#include "jfm/coupling/resolvers.hpp"
#include "jfm/fmcad/hierarchy.hpp"
#include "jfm/support/hash.hpp"
#include "jfm/tools/sim_tool.hpp"
#include "jfm/workload/generators.hpp"

namespace perfbench {
namespace {

using namespace jfm;
using coupling::HybridFramework;
using coupling::ToolCommand;

const vfs::Path kProbeRoot = vfs::Path().child("perfbench");

struct TreeShape {
  int depth = 0;
  int fanout = 0;
  std::size_t leaf_gates = 0;
};

// design_session and restart share one design; team_sync has its own.
constexpr TreeShape kSessionTree{3, 4, 128};  // 85 cells, 64 leaves
constexpr TreeShape kTeamTree{4, 5, 8};       // 781 cells, 625 leaves

void must(const support::Status& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.error().to_text());
}

template <typename T>
T must(support::Result<T> r, const std::string& what) {
  if (!r.ok()) throw std::runtime_error(what + ": " + r.error().to_text());
  return std::move(*r);
}

std::string key_of(const std::string& cell, const std::string& view) { return cell + "/" + view; }

/// A built design inside one framework plus what the store must hold.
struct Design {
  Design() : hy(bench_config()) {}

  HybridFramework hy;
  std::string project = "chip";
  jcf::ProjectRef project_ref;
  std::string top;
  std::vector<std::string> cells;  ///< bottom-up, top last
  std::vector<std::string> leaves;
  std::vector<jcf::UserRef> users;
  /// Leaf schematics as the benchmark edited them (the oracle).
  std::map<std::string, tools::Schematic> expected;
  /// "cell/view" -> the DOV each activity produced (the oracle).
  std::map<std::string, jcf::DovRef> latest;
  std::set<std::string> testbenches;
  /// Traced passes: a second engine with the same options mirrors the
  /// read path's cache behaviour without disturbing the real cache.
  std::unique_ptr<coupling::TransferEngine> probe_engine;
};

// ---- generated inputs -------------------------------------------------------

struct PlannedCell {
  std::string name;
  std::vector<std::string> children;
};

std::vector<PlannedCell> plan_tree(const TreeShape& shape) {
  struct Node {
    std::string name;
    int level;
    std::vector<std::string> children;
  };
  std::vector<Node> nodes{{"top", 0, {}}};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].level >= shape.depth) continue;
    for (int k = 0; k < shape.fanout; ++k) {
      std::string child =
          "c" + std::to_string(nodes[i].level + 1) + "_" + std::to_string(nodes.size());
      nodes[i].children.push_back(child);
      nodes.push_back({child, nodes[i].level + 1, {}});
    }
  }
  std::vector<PlannedCell> out;
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) out.push_back({it->name, it->children});
  return out;
}

/// Non-leaf cell: instantiates each child and ANDs their outputs. (The
/// generators library keeps its equivalent private to
/// build_hierarchical_design, which this benchmark cannot use.)
tools::Schematic glue_schematic(const std::vector<std::string>& children) {
  tools::Schematic sch;
  sch.ports = {{"a", tools::PortDir::in}, {"b", tools::PortDir::in}, {"y", tools::PortDir::out}};
  sch.nets = {"a", "b", "y"};
  std::string acc;
  for (std::size_t k = 0; k < children.size(); ++k) {
    const std::string inst = "u" + std::to_string(k);
    const std::string out = "n" + std::to_string(k);
    sch.nets.push_back(out);
    sch.instances.push_back({inst, children[k], "schematic"});
    sch.connections.push_back({"a", inst, "a"});
    sch.connections.push_back({"b", inst, "b"});
    sch.connections.push_back({out, inst, "y"});
    if (k == 0) {
      acc = out;
      continue;
    }
    const std::string gate = "g" + std::to_string(k);
    const std::string result = k + 1 == children.size() ? "y" : "m" + std::to_string(k);
    if (result != "y") sch.nets.push_back(result);
    sch.primitives.push_back({gate, "AND"});
    sch.connections.push_back({acc, gate, "a"});
    sch.connections.push_back({out, gate, "b"});
    sch.connections.push_back({result, gate, "y"});
    acc = result;
  }
  return sch;
}

std::vector<ToolCommand> entry_commands(const tools::Schematic& sch) {
  std::vector<ToolCommand> out;
  for (const auto& p : sch.ports) {
    out.push_back({"add-port", {p.name, std::string(tools::to_string(p.dir))}});
  }
  for (const auto& n : sch.nets) {
    if (sch.find_port(n) == nullptr) out.push_back({"add-net", {n}});
  }
  for (const auto& g : sch.primitives) out.push_back({"add-prim", {g.name, g.gate}});
  for (const auto& i : sch.instances) {
    out.push_back({"add-instance", {i.name, i.master_cell, i.master_view}});
  }
  for (const auto& c : sch.connections) out.push_back({"connect", {c.net, c.element, c.pin}});
  return out;
}

/// `pairs` disconnect/connect pairs that move random gate inputs of a
/// random_schematic leaf to another earlier net: the netlist stays
/// acyclic and its size stays fixed. Applies the same change to `sch`.
std::vector<ToolCommand> rewire(tools::Schematic& sch, support::Rng& rng, int pairs) {
  std::vector<ToolCommand> out;
  const std::size_t gates = sch.primitives.size();
  for (int p = 0; p < pairs; ++p) {
    const std::size_t i = rng.below(gates);
    const std::string gate = "g" + std::to_string(i);
    const std::string pin = rng.chance(0.5) ? "a" : "b";
    auto it = std::find_if(sch.connections.begin(), sch.connections.end(),
                           [&](const tools::Connection& c) {
                             return c.element == gate && c.pin == pin;
                           });
    if (it == sch.connections.end()) throw std::runtime_error("rewire: no pin " + gate + "." + pin);
    std::string net;
    do {
      const std::size_t k = rng.below(2 + i);  // a, b, n0 .. n(i-1)
      if (k < 2) {
        net = k == 0 ? "a" : "b";
      } else {
        net = "n";
        net += std::to_string(k - 2);
      }
    } while (net == it->net);
    out.push_back({"disconnect", {it->net, gate, pin}});
    out.push_back({"connect", {net, gate, pin}});
    it->net = net;
  }
  return out;
}

std::vector<ToolCommand> testbench_commands(const std::string& cell) {
  return {{"set-dut", {cell, "schematic"}}, {"add-stim", {"0", "a", "0"}},
          {"add-stim", {"0", "b", "0"}},    {"add-stim", {"10", "a", "1"}},
          {"add-stim", {"20", "b", "1"}},   {"add-stim", {"30", "a", "0"}},
          {"add-watch", {"y"}},             {"set-runtime", {"40"}},
          {"run", {}}};
}

using ConnKey = std::tuple<std::string, std::string, std::string>;

std::vector<ConnKey> sorted_connections(const tools::Schematic& sch) {
  std::vector<ConnKey> out;
  for (const auto& c : sch.connections) out.emplace_back(c.net, c.element, c.pin);
  std::sort(out.begin(), out.end());
  return out;
}

// ---- set-up -------------------------------------------------------------------

std::unique_ptr<coupling::TransferEngine> make_probe_engine(HybridFramework& hy) {
  must(hy.fs().mkdirs(kProbeRoot.child("ro")), "mkdirs probe dir");
  return std::make_unique<coupling::TransferEngine>(&hy.jcf(), &hy.fs(), kProbeRoot.child("transfer"),
                                                    hy.transfer().options());
}

std::unique_ptr<Design> build_design(Pass& pass, const TreeShape& shape,
                                     const std::vector<std::string>& designers,
                                     support::Rng& rng, bool time_open) {
  auto d = std::make_unique<Design>();
  auto& hy = d->hy;
  const auto t0 = Clock::now();
  must(hy.open_store(), "open_store");
  if (time_open) pass.record_probe("oms.open", us_between(t0, Clock::now()));
  must(hy.bootstrap(), "bootstrap");
  for (const auto& name : designers) d->users.push_back(must(hy.add_designer(name), name));
  d->project_ref = must(hy.create_project(d->project), "create_project");
  const auto plan = plan_tree(shape);
  const jcf::UserRef owner = d->users.front();
  for (const auto& cell : plan) {
    must(hy.create_cell(d->project, cell.name, owner), "create_cell " + cell.name);
    d->cells.push_back(cell.name);
    if (cell.children.empty()) d->leaves.push_back(cell.name);
  }
  for (const auto& cell : plan) {
    for (const auto& child : cell.children) {
      must(hy.declare_child(d->project, cell.name, child), "declare_child " + child);
    }
  }
  for (const auto& cell : plan) {
    tools::Schematic sch = cell.children.empty()
                               ? workload::random_schematic(rng, shape.leaf_gates)
                               : glue_schematic(cell.children);
    must(hy.reserve_cell(d->project, cell.name, owner), "reserve " + cell.name);
    auto run = must(
        hy.run_activity(d->project, cell.name, "enter_schematic", owner, entry_commands(sch)),
        "enter_schematic " + cell.name);
    must(hy.publish_cell(d->project, cell.name, owner), "publish " + cell.name);
    d->latest[key_of(cell.name, "schematic")] = run.output;
    pass.stats().user_bytes += run.bytes_imported;
    if (cell.children.empty()) d->expected[cell.name] = std::move(sch);
  }
  d->top = plan.back().name;
  if (pass.traced()) d->probe_engine = make_probe_engine(hy);
  return d;
}

jcf::VariantRef work_variant(jcf::JcfFramework& jcf, jcf::ProjectRef project,
                             const std::string& cell) {
  auto c = must(jcf.find_cell(project, cell), "find_cell " + cell);
  auto cv = must(jcf.latest_cell_version(c), "latest_cell_version " + cell);
  return must(jcf.find_variant(cv, "work"), "work variant " + cell);
}

// ---- layer probes (traced passes) ----------------------------------------------

fmcad::DesignFile read_doc(HybridFramework& hy, jcf::DovRef dov, jcf::UserRef user) {
  auto text = must(hy.jcf().dov_data(dov, user), "dov_data");
  return must(fmcad::DesignFile::parse(text), "DesignFile::parse");
}

/// tools / fmcad / coupling split of one enter_schematic activity.
/// `meta_writes` is how many library checkouts and checkins the activity
/// made; each rewrites the FMCAD library's whole meta file.
void probe_schematic(Pass& pass, Design& d, const std::string& leaf, jcf::UserRef user,
                     const fmcad::DesignFile& before, const std::vector<ToolCommand>& edits,
                     jcf::DovRef output, double activity_us, double meta_writes) {
  if (!pass.traced()) return;
  tools::SchematicTool tool;
  fmcad::DesignFile doc = before;
  const double apply_us = pass.probe("tools.schematic_apply", [&] {
    for (const auto& e : edits) doc = must(tool.apply(doc, e.command, e.args), "apply " + e.command);
  });
  const std::string text = must(d.hy.jcf().dov_data(output, user), "dov_data");
  support::Result<fmcad::DesignFile> parsed = fmcad::DesignFile{};
  const double parse_us =
      pass.probe("fmcad.designfile_parse", [&] { parsed = fmcad::DesignFile::parse(text); });
  if (!parsed.ok()) oracle_fail("schematic of " + leaf + " does not parse");
  std::string again;
  const double serialize_us =
      pass.probe("fmcad.designfile_serialize", [&] { again = parsed->serialize(); });
  if (again != doc.serialize()) oracle_fail("replayed edits of " + leaf + " differ from the store");
  const auto library = d.hy.library(d.project);
  const double meta_us = pass.probe("fmcad.library_meta_serialize",
                                    [&] { (void)library->meta().serialize(); });
  pass.add_total("fmcad.meta_writes", meta_writes);
  pass.record_probe("coupling.activity_residual",
                    activity_us - apply_us - parse_us - serialize_us - meta_us * meta_writes);
}

void probe_simulate(Pass& pass, Design& d, jcf::UserRef user, const fmcad::DesignFile& bench) {
  if (!pass.traced()) return;
  tools::SimulatorTool tool;
  tool.set_resolver(coupling::make_jcf_resolver(&d.hy.jcf(), d.project_ref, user));
  pass.probe("tools.simulate", [&] { must(tool.apply(bench, "run", {}), "simulate run"); });
}

void probe_latest(Pass& pass, Design& d, const std::string& cell) {
  if (!pass.traced()) return;
  const auto variant = work_variant(d.hy.jcf(), d.project_ref, cell);
  pass.probe("jcf.latest_dov", [&] {
    auto dobj = must(d.hy.jcf().find_design_object(variant, "schematic"), "find_design_object");
    (void)must(d.hy.jcf().latest_dov(dobj), "latest_dov");
  });
}

/// Change feed a reader polling at this workload's cadence would consume.
void probe_feed(Pass& pass, HybridFramework& hy, std::uint64_t since) {
  if (!pass.traced()) return;
  std::size_t rows = 0;
  pass.probe("jcf.changes_feed", [&] { rows = hy.jcf().dovs_changed_since(since).size(); });
  pass.add_total("feed.rows", static_cast<double>(rows));
  pass.add_total("feed.polls", 1);
}

void probe_snapshot(Pass& pass, HybridFramework& hy) {
  pass.probe("oms.snapshot", [&] { must(hy.jcf().store().snapshot(), "snapshot"); });
}

// ---- designer operations --------------------------------------------------------

/// One timed open_read_only, checked against the DOV the store must
/// serve, plus the read-path probes.
void read_cell(Pass& pass, HybridFramework& hy, const std::string& project,
               coupling::TransferEngine* probe_engine, const std::string& cell,
               const std::string& view, jcf::UserRef user, jcf::DovRef expected) {
  std::string content;
  const bool ok = pass.op("open_ro", [&] {
    auto r = hy.open_read_only(project, cell, view, user);
    if (!r.ok()) return false;
    content = std::move(*r);
    return true;
  });
  if (!ok) return;
  auto fp = hy.jcf().dov_fingerprint(expected, user);
  if (!fp.ok() || fp->size != content.size() ||
      fp->content_hash != support::fnv1a(content)) {
    oracle_fail("open_read_only " + key_of(cell, view) + " does not match its latest DOV");
  }
  if (!pass.traced()) return;
  if (probe_engine != nullptr) {
    pass.probe("coupling.transfer.export", [&] {
      must(probe_engine->export_dov(expected, user, kProbeRoot.child("ro").child(cell + "_" + view)),
           "probe export");
    });
  }
  pass.probe("jcf.dov_fingerprint", [&] { (void)hy.jcf().dov_fingerprint(expected, user); });
  const vfs::Path file = vfs::Path().child("scratch").child("ro_" + cell + "_" + view);
  const vfs::Path copy = kProbeRoot.child("copy");
  pass.probe("vfs.read_file", [&] { (void)must(hy.fs().read_file(file), "read_file"); });
  pass.probe("vfs.copy_file", [&] { must(hy.fs().copy_file(file, copy), "copy_file"); });
  (void)hy.fs().remove(copy);
}

/// reserve -> enter_schematic (`pairs` rewires) -> [simulate] -> publish.
void edit_cell(Pass& pass, Design& d, const std::string& leaf, jcf::UserRef user,
               support::Rng& rng, int pairs, bool simulate) {
  auto& hy = d.hy;
  if (!pass.op("reserve", [&] { return hy.reserve_cell(d.project, leaf, user).ok(); })) return;

  tools::Schematic next = d.expected.at(leaf);
  const auto edits = rewire(next, rng, pairs);
  fmcad::DesignFile before;
  if (pass.traced()) before = read_doc(hy, d.latest.at(key_of(leaf, "schematic")), user);
  coupling::ActivityRunReport run;
  const CounterSnap counters_before = pass.traced() ? read_counters() : CounterSnap{};
  const bool entered = pass.op("schematic", [&] {
    auto r = hy.run_activity(d.project, leaf, "enter_schematic", user, edits);
    if (!r.ok()) return false;
    run = std::move(*r);
    return true;
  });
  if (entered) {
    const double activity_us = pass.last_us();
    const CounterSnap counters_after = pass.traced() ? read_counters() : CounterSnap{};
    d.expected[leaf] = std::move(next);
    d.latest[key_of(leaf, "schematic")] = run.output;
    pass.stats().user_bytes += run.bytes_imported;
    const fmcad::DesignFile stored = read_doc(hy, run.output, user);
    auto sch = tools::Schematic::parse(stored.payload);
    if (!sch.ok() || sorted_connections(*sch) != sorted_connections(d.expected[leaf])) {
      oracle_fail("schematic of " + leaf + " does not hold the expected connections");
    }
    const double meta_writes =
        static_cast<double>(counters_after[kFmcadCheckout] - counters_before[kFmcadCheckout] +
                            counters_after[kFmcadCheckin] - counters_before[kFmcadCheckin]);
    probe_schematic(pass, d, leaf, user, before, edits, run.output, activity_us, meta_writes);
  }

  if (entered && simulate) {
    const bool first = !d.testbenches.contains(leaf);
    const auto commands = first ? testbench_commands(leaf)
                                : std::vector<ToolCommand>{{"clear-results", {}}, {"run", {}}};
    coupling::ActivityRunReport sim;
    const bool ran = pass.op("simulate", [&] {
      auto r = hy.run_activity(d.project, leaf, "simulate", user, commands);
      if (!r.ok()) return false;
      sim = std::move(*r);
      return true;
    });
    if (ran) {
      d.testbenches.insert(leaf);
      d.latest[key_of(leaf, "simulate")] = sim.output;
      pass.stats().user_bytes += sim.bytes_imported;
      const fmcad::DesignFile bench = read_doc(hy, sim.output, user);
      auto tb = tools::Testbench::parse(bench.payload);
      if (!tb.ok() || !tb->has_results || tb->dut.cell != leaf) {
        oracle_fail("testbench of " + leaf + " has no results");
      }
      probe_simulate(pass, d, user, bench);
    }
  }
  (void)pass.op("publish", [&] { return hy.publish_cell(d.project, leaf, user).ok(); });
}

void record_store(Pass& pass, HybridFramework& hy) {
  auto& stats = pass.stats();
  stats.store_bytes = must(hy.fs().tree_size(vfs::Path().child("oms")), "tree_size /oms");
  const auto wal = hy.jcf().store().wal_stats();
  stats.counts["objects"] = hy.jcf().store().object_count();
  stats.counts["wal_bytes"] = wal.appended_bytes;
  stats.counts["wal_records"] = wal.appended_records;
  stats.counts["store_bytes"] = stats.store_bytes;
  stats.counts["user_bytes"] = stats.user_bytes;
  stats.counts["attempted"] = stats.attempted;
  stats.counts["failed"] = stats.failed;
  pass.add_total("wal.bytes", static_cast<double>(wal.appended_bytes));
  pass.add_total("wal.flushes", static_cast<double>(wal.flushes));
  pass.add_total("wal.records", static_cast<double>(wal.appended_records));
}

void record_transfer(Pass& pass, const coupling::TransferStats& before,
                     const coupling::TransferStats& after, coupling::TransferEngine* probe_engine) {
  pass.add_total("transfer.hits", static_cast<double>(after.cache_hits - before.cache_hits));
  pass.add_total("transfer.misses",
                 static_cast<double>(after.cache_misses - before.cache_misses));
  if (probe_engine != nullptr) {
    const auto mirror = probe_engine->stats_snapshot();
    pass.add_total("read.hits", static_cast<double>(mirror.cache_hits));
    pass.add_total("read.misses", static_cast<double>(mirror.cache_misses));
  }
}

std::uint64_t wal_records(HybridFramework& hy) {
  return hy.jcf().store().wal_stats().appended_records;
}

}  // namespace

// ---- design_session ---------------------------------------------------------------
// Write path: four designers take turns on disjoint leaf sets of an
// 85-cell hierarchy whose cellviews fit the 128-entry transfer cache.

void design_session(Pass& pass) {
  support::Rng rng(pass.seed() * 0x9E3779B97F4A7C15ull + 1);
  auto d = build_design(pass, kSessionTree, {"d0", "d1", "d2", "d3"}, rng, true);
  std::vector<std::vector<std::string>> owned(d->users.size());
  for (std::size_t i = 0; i < d->leaves.size(); ++i) {
    owned[i % owned.size()].push_back(d->leaves[i]);
  }
  const auto transfer_before = d->hy.transfer().stats_snapshot();
  const std::uint64_t records_before = wal_records(d->hy);
  pass.end_setup();

  std::uint64_t feed_epoch = d->hy.jcf().store().epoch();
  for (std::size_t c = 0; c < pass.iterations(); ++c) {
    const std::size_t who = c % d->users.size();
    const jcf::UserRef user = d->users[who];
    const std::string leaf = rng.pick(owned[who]);
    pass.begin_cycle();
    edit_cell(pass, *d, leaf, user, rng, 8, true);
    for (int r = 0; r < 4; ++r) {
      const std::string& cell = rng.pick(d->cells);
      read_cell(pass, d->hy, d->project, d->probe_engine.get(), cell, "schematic", user,
                d->latest.at(key_of(cell, "schematic")));
    }
    pass.end_cycle();
    probe_feed(pass, d->hy, feed_epoch);
    probe_latest(pass, *d, leaf);
    feed_epoch = d->hy.jcf().store().epoch();
  }
  record_transfer(pass, transfer_before, d->hy.transfer().stats_snapshot(), d->probe_engine.get());
  pass.add_total("wal.loop_records", static_cast<double>(wal_records(d->hy) - records_before));
  record_store(pass, d->hy);
  probe_snapshot(pass, d->hy);
}

// ---- team_sync ------------------------------------------------------------------
// Read path: a writer touches ~1% of 625 leaves per round, a reader
// syncs the 781-cell tree incrementally and browses; the cellviews
// overflow the 128-entry cache.

namespace {

vfs::Path workspace(const std::string& name) { return vfs::Path().child("ws").child(name); }

/// Every materialized file hashes to the fingerprint of the DOV the
/// benchmark expects to be latest.
void check_workspace(Design& d, const vfs::Path& dir, jcf::UserRef reader) {
  for (const auto& cell : d.cells) {
    const auto dov = d.latest.at(key_of(cell, "schematic"));
    auto fp = d.hy.jcf().dov_fingerprint(dov, reader);
    auto hash = d.hy.fs().content_hash(dir.child(cell + "_schematic"));
    if (!fp.ok() || !hash.ok() || *hash != fp->content_hash) {
      oracle_fail("workspace file " + cell + "_schematic is stale after sync");
    }
  }
}

void check_identical(Design& d, const vfs::Path& a, const vfs::Path& b) {
  auto la = must(d.hy.fs().list(a), "list");
  auto lb = must(d.hy.fs().list(b), "list");
  std::sort(la.begin(), la.end());
  std::sort(lb.begin(), lb.end());
  if (la != lb) oracle_fail("fresh checkout lists different files than the synced workspace");
  for (const auto& name : la) {
    if (must(d.hy.fs().read_file(a.child(name)), "read") !=
        must(d.hy.fs().read_file(b.child(name)), "read")) {
      oracle_fail("fresh checkout differs from the synced workspace at " + name);
    }
  }
}

using CheckoutReport = HybridFramework::CheckoutReport;

bool checkout(Pass& pass, Design& d, const std::string& op, jcf::UserRef user,
              const vfs::Path& dst, CheckoutReport& report) {
  return pass.op(op, [&] {
    auto r = d.hy.checkout_hierarchy(d.project, d.top, user, dst, pass.workers());
    if (!r.ok() || r->rolled_back) return false;
    report = std::move(*r);
    return true;
  });
}

}  // namespace

void team_sync(Pass& pass) {
  support::Rng rng(pass.seed() * 0x9E3779B97F4A7C15ull + 2);
  auto d = build_design(pass, kTeamTree, {"writer", "reader"}, rng, true);
  const jcf::UserRef writer = d->users[0];
  const jcf::UserRef reader = d->users[1];
  const vfs::Path mine = workspace("reader");
  if (!d->hy.checkout_hierarchy(d->project, d->top, reader, mine, pass.workers()).ok()) {
    throw std::runtime_error("initial checkout failed");
  }
  check_workspace(*d, mine, reader);
  const std::size_t edits_per_round = std::max<std::size_t>(1, d->leaves.size() / 100);
  const auto transfer_before = d->hy.transfer().stats_snapshot();
  const std::uint64_t records_before = wal_records(d->hy);
  pass.end_setup();

  auto& counts = pass.stats().counts;
  std::uint64_t feed_epoch = d->hy.jcf().store().epoch();
  for (std::size_t round = 0; round < pass.iterations(); ++round) {
    std::set<std::string> touched;
    while (touched.size() < edits_per_round) touched.insert(rng.pick(d->leaves));
    pass.begin_cycle();
    for (const auto& leaf : touched) {
      edit_cell(pass, *d, leaf, writer, rng, 1, false);
      if (pass.traced()) {
        fmcad::DesignFile bench;
        bench.cell = leaf;
        bench.view = "simulate";
        bench.viewtype = "simulate";
        tools::SimulatorTool tool;
        for (const auto& cmd : testbench_commands(leaf)) {
          if (cmd.command != "run") bench = must(tool.apply(bench, cmd.command, cmd.args), "tb");
        }
        probe_simulate(pass, *d, writer, bench);
        probe_latest(pass, *d, leaf);
      }
    }
    probe_feed(pass, d->hy, feed_epoch);
    CheckoutReport sync;
    if (checkout(pass, *d, "sync", reader, mine, sync)) {
      feed_epoch = d->hy.jcf().store().epoch();
      counts["sync_feed_rows"] += sync.feed_size;
      counts["sync_skipped"] += sync.skipped;
      counts["sync_requested"] += sync.requested;
      counts["sync_incremental"] += sync.incremental ? 1 : 0;
      pass.add_total("sync.skipped", static_cast<double>(sync.skipped));
      pass.add_total("sync.requested", static_cast<double>(sync.requested));
      check_workspace(*d, mine, reader);
    }
    for (int r = 0; r < 16; ++r) {
      const std::string& cell = rng.pick(d->cells);
      read_cell(pass, d->hy, d->project, d->probe_engine.get(), cell, "schematic", reader,
                d->latest.at(key_of(cell, "schematic")));
    }
    if (round % 10 == 9) {
      const vfs::Path fresh = workspace("fresh_" + std::to_string(round));
      CheckoutReport full;
      if (checkout(pass, *d, "checkout_full", reader, fresh, full)) {
        counts["full_requested"] += full.requested;
        check_identical(*d, fresh, mine);
      }
      (void)d->hy.fs().remove(fresh, true);
    }
    pass.end_cycle();
  }
  record_transfer(pass, transfer_before, d->hy.transfer().stats_snapshot(), d->probe_engine.get());
  pass.add_total("wal.loop_records", static_cast<double>(wal_records(d->hy) - records_before));
  record_store(pass, d->hy);
  probe_snapshot(pass, d->hy);
}

// ---- restart --------------------------------------------------------------------
// OMS persistence: recover the design_session design from snapshot +
// WAL tail into a fresh framework, adopt it, and read from it.

namespace {

constexpr std::size_t kHistoryCycles = 256;

struct Fingerprint {
  std::uint64_t dov = 0;
  std::uint64_t hash = 0;
  std::uint64_t size = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Latest-DOV fingerprint of every (cell, view) with data, found by
/// walking JCF from the project down.
std::map<std::string, Fingerprint> latest_fingerprints(HybridFramework& hy,
                                                      const std::string& project,
                                                      const std::vector<std::string>& cells,
                                                      jcf::UserRef reader) {
  auto& jcf = hy.jcf();
  const auto proj = must(jcf.find_project(project), "find_project");
  std::map<std::string, Fingerprint> out;
  for (const auto& cell : cells) {
    const auto variant = work_variant(jcf, proj, cell);
    for (const std::string view : {"schematic", "simulate"}) {
      auto dobj = jcf.find_design_object(variant, view);
      if (!dobj.ok()) continue;
      const auto dov = must(jcf.latest_dov(*dobj), "latest_dov");
      const auto fp = must(jcf.dov_fingerprint(dov, reader), "dov_fingerprint");
      out[key_of(cell, view)] = {dov.id.raw(), fp.content_hash, fp.size};
    }
  }
  return out;
}

}  // namespace

void restart(Pass& pass) {
  support::Rng rng(pass.seed() * 0x9E3779B97F4A7C15ull + 3);
  const std::vector<std::string> names = {"d0", "d1", "d2", "d3"};
  auto d = build_design(pass, kSessionTree, names, rng, false);
  std::vector<std::vector<std::string>> owned(d->users.size());
  for (std::size_t i = 0; i < d->leaves.size(); ++i) {
    owned[i % owned.size()].push_back(d->leaves[i]);
  }
  std::uint64_t tail_epoch = 0;
  for (std::size_t c = 0; c < kHistoryCycles; ++c) {
    const std::size_t who = c % d->users.size();
    const std::string leaf = rng.pick(owned[who]);
    edit_cell(pass, *d, leaf, d->users[who], rng, 8, true);
    probe_latest(pass, *d, leaf);
    if (c + 1 == kHistoryCycles / 2) {
      const auto t0 = Clock::now();
      must(d->hy.jcf().store().snapshot(), "snapshot");
      pass.record_probe("oms.snapshot", us_between(t0, Clock::now()));
      tail_epoch = d->hy.jcf().store().epoch();
    }
  }
  must(d->hy.jcf().store().flush_wal(), "flush_wal");
  record_store(pass, d->hy);

  // The crash image: only the flushed /oms bytes survive.
  const auto before = latest_fingerprints(d->hy, d->project, d->cells, d->users[0]);
  for (const auto& [key, dov] : d->latest) {
    if (before.at(key).dov != dov.id.raw()) oracle_fail("pre-crash latest DOV of " + key);
  }
  const std::size_t objects = d->hy.jcf().store().object_count();
  std::vector<std::pair<vfs::Path, std::string>> image;
  for (const auto& path : must(d->hy.fs().walk_files(vfs::Path().child("oms")), "walk /oms")) {
    image.emplace_back(path, must(d->hy.fs().read_file(path), "read " + path.str()));
  }
  const std::vector<std::string> cells = d->cells;
  const std::string project = d->project;
  d.reset();
  pass.end_setup();

  for (std::size_t it = 0; it < pass.iterations(); ++it) {
    HybridFramework hy(bench_config());
    for (const auto& [path, bytes] : image) {
      must(hy.fs().mkdirs(path.parent()), "mkdirs");
      must(hy.fs().write_file(path, bytes), "write " + path.str());
    }
    std::vector<jcf::UserRef> users;
    pass.begin_cycle();
    const bool recovered = pass.op("recover", [&] {
      const auto t0 = Clock::now();
      if (!hy.open_store().ok()) return false;
      pass.record_probe("oms.open", us_between(t0, Clock::now()));
      if (!hy.bootstrap().ok()) return false;
      for (const auto& name : names) {
        auto user = hy.add_designer(name);
        if (!user.ok()) return false;
        users.push_back(*user);
      }
      return hy.create_project(project).ok();
    });
    if (!recovered) {
      pass.end_cycle();
      continue;
    }
    pass.add_total("oms.replayed", static_cast<double>(hy.jcf().store().wal_stats().replayed_records));
    pass.add_total("oms.recoveries", 1);
    if (hy.jcf().store().object_count() != objects) {
      oracle_fail("recovered object_count " + std::to_string(hy.jcf().store().object_count()) +
                  " != " + std::to_string(objects));
    }
    const std::string& cell = rng.pick(cells);
    const auto transfer_before = hy.transfer().stats_snapshot();
    std::unique_ptr<coupling::TransferEngine> probe_engine;
    if (pass.traced()) probe_engine = make_probe_engine(hy);
    read_cell(pass, hy, project, probe_engine.get(), cell, "schematic", users[it % users.size()],
              jcf::DovRef(oms::ObjectId(before.at(key_of(cell, "schematic")).dov)));
    pass.end_cycle();
    record_transfer(pass, transfer_before, hy.transfer().stats_snapshot(), probe_engine.get());
    pass.add_total("wal.loop_records", static_cast<double>(wal_records(hy)));
    if (latest_fingerprints(hy, project, cells, users[0]) != before) {
      oracle_fail("recovered latest-DOV fingerprints differ from the pre-crash store");
    }
    probe_feed(pass, hy, tail_epoch);
  }
}

}  // namespace perfbench
