#include "jfm/coupling/desktop.hpp"

#include "jfm/support/executor.hpp"
#include "jfm/support/faultsim.hpp"
#include "jfm/support/strings.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::coupling {

using support::Errc;
using support::Result;
using support::Status;

namespace {
Status usage(const std::string& what) {
  return support::fail(Errc::invalid_argument, "usage: " + what);
}
}  // namespace

Status DesktopShell::execute_line(const std::string& line, DesktopResult& result) {
  std::string_view trimmed = support::trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return {};
  auto words = support::split_ws(trimmed);
  auto st = dispatch(words, result);
  ++result.commands_executed;
  if (!st.ok()) {
    result.transcript.push_back("error: " + st.error().to_text());
  }
  return st;
}

Result<DesktopResult> DesktopShell::run_script(const std::string& script, bool keep_going) {
  DesktopResult result;
  for (const auto& line : support::split(script, '\n')) {
    auto st = execute_line(line, result);
    if (!st.ok() && !keep_going) {
      return Result<DesktopResult>::failure(st.error().code,
                                            st.error().message + " (line: '" +
                                                std::string(support::trim(line)) + "')");
    }
  }
  return result;
}

Status DesktopShell::dispatch(const std::vector<std::string>& words, DesktopResult& result) {
  const std::string& cmd = words[0];
  auto say = [&result](std::string text) { result.transcript.push_back(std::move(text)); };

  if (cmd == "echo") {
    std::vector<std::string> rest(words.begin() + 1, words.end());
    say(support::join(rest, " "));
    return {};
  }
  if (cmd == "designer") {
    if (words.size() != 2) return usage("designer <name>");
    auto user = hybrid_->add_designer(words[1]);
    if (!user.ok()) return Status(user.error());
    say("designer " + words[1] + " joined team designers");
    return {};
  }
  if (cmd == "project") {
    if (words.size() != 2) return usage("project <name>");
    auto project = hybrid_->create_project(words[1]);
    if (!project.ok()) return Status(project.error());
    say("project " + words[1] + " created (JCF project + FMCAD library)");
    return {};
  }
  if (cmd == "cell") {
    if (words.size() != 4) return usage("cell <project> <cell> <designer>");
    auto user = hybrid_->jcf().find_user(words[3]);
    if (!user.ok()) return Status(user.error());
    if (auto st = hybrid_->create_cell(words[1], words[2], *user); !st.ok()) return st;
    say("cell " + words[2] + " created in " + words[1]);
    return {};
  }
  if (cmd == "declare-child") {
    if (words.size() != 4) return usage("declare-child <project> <parent> <child>");
    if (auto st = hybrid_->declare_child(words[1], words[2], words[3]); !st.ok()) return st;
    say(words[2] + " contains " + words[3] + " (CompOf)");
    return {};
  }
  if (cmd == "define-flow") {
    if (words.size() != 3 && words.size() != 4) {
      return usage("define-flow <name> <a1,a2,...> [a>b,c>d]");
    }
    auto activities = support::split(words[2], ',');
    std::vector<std::pair<std::string, std::string>> order;
    if (words.size() == 4) {
      for (const auto& pair : support::split(words[3], ',')) {
        auto parts = support::split(pair, '>');
        if (parts.size() != 2) return usage("precedence pairs look like before>after");
        order.emplace_back(parts[0], parts[1]);
      }
    }
    auto flow = hybrid_->define_flow(words[1], activities, order);
    if (!flow.ok()) return Status(flow.error());
    say("flow " + words[1] + " frozen (" + std::to_string(activities.size()) + " activities)");
    return {};
  }
  if (cmd == "set-flow") {
    if (words.size() != 4) return usage("set-flow <project> <cell> <flow>");
    if (auto st = hybrid_->set_cell_flow(words[1], words[2], words[3]); !st.ok()) return st;
    say(words[2] + " now follows flow " + words[3]);
    return {};
  }
  if (cmd == "reserve" || cmd == "publish") {
    if (words.size() != 4) return usage(cmd + " <project> <cell> <designer>");
    auto user = hybrid_->jcf().find_user(words[3]);
    if (!user.ok()) return Status(user.error());
    auto st = cmd == "reserve" ? hybrid_->reserve_cell(words[1], words[2], *user)
                               : hybrid_->publish_cell(words[1], words[2], *user);
    if (!st.ok()) return st;
    say(words[2] + (cmd == "reserve" ? " reserved into " : " published by ") + words[3] +
        (cmd == "reserve" ? "'s workspace" : ""));
    return {};
  }
  if (cmd == "share") {
    if (words.size() != 4) return usage("share <to-project> <from-project> <cell>");
    if (auto st = hybrid_->share_cell(words[1], words[2], words[3]); !st.ok()) return st;
    say(words[3] + " of " + words[2] + " shared into " + words[1]);
    return {};
  }
  if (cmd == "edit") {
    if (words.size() < 2) return usage("edit <tool-command> [args...]");
    ToolCommand edit;
    edit.command = words[1];
    edit.args.assign(words.begin() + 2, words.end());
    pending_edits_.push_back(std::move(edit));
    return {};
  }
  if (cmd == "run") {
    if (words.size() != 5 && words.size() != 6) {
      return usage("run <project> <cell> <activity> <designer> [force]");
    }
    bool force = words.size() == 6 && words[5] == "force";
    auto user = hybrid_->jcf().find_user(words[4]);
    if (!user.ok()) return Status(user.error());
    std::vector<ToolCommand> edits;
    edits.swap(pending_edits_);  // one run consumes the queued edits
    auto run = hybrid_->run_activity(words[1], words[2], words[3], *user, edits, force);
    if (!run.ok()) return Status(run.error());
    say(words[3] + " on " + words[2] + ": checked in FMCAD v" +
        std::to_string(run->fmcad_version) + ", " + std::to_string(edits.size()) + " edits, " +
        std::to_string(run->consistency_windows.size()) + " consistency window(s)");
    for (const auto& window : run->consistency_windows) say("  [window] " + window);
    return {};
  }
  if (cmd == "checkout") {
    // Plain checkout always re-walks the full hierarchy; with
    // --incremental, repeat checkouts of the same cell ride the change
    // feed and sync only what changed (docs/incremental-checkout.md).
    const bool incremental = words.size() == 5 && words[4] == "--incremental";
    if (words.size() != 4 && !incremental) {
      return usage("checkout <project> <cell> <designer> [--incremental]");
    }
    auto user = hybrid_->jcf().find_user(words[3]);
    if (!user.ok()) return Status(user.error());
    vfs::Path dst = vfs::Path().child("scratch").child("checkout_" + words[2]);
    auto report = incremental
                      ? hybrid_->checkout_hierarchy(words[1], words[2], *user, dst)
                      : hybrid_->checkout_hierarchy_full(words[1], words[2], *user, dst);
    if (!report.ok()) return Status(report.error());
    say(std::string("checked out ") + words[2] +
        (report->incremental ? " delta: " : " hierarchy: ") +
        std::to_string(report->exported) + "/" + std::to_string(report->requested) +
        " cellviews from " + std::to_string(report->cells) + " cell(s), " +
        std::to_string(report->bytes_exported) + " bytes, " +
        std::to_string(report->cache_hits) + " cache hit(s)");
    if (report->incremental) {
      say("  feed " + std::to_string(report->feed_size) + " change(s), skipped " +
          std::to_string(report->skipped) + " unchanged cellview(s)");
    }
    for (const auto& failure : report->failures) say("  [failed] " + failure);
    return {};
  }
  if (cmd == "derivations") {
    if (words.size() != 3) return usage("derivations <project> <cell>");
    auto rows = hybrid_->derivation_report(words[1], words[2]);
    if (!rows.ok()) return Status(rows.error());
    say(words[2] + ": " + std::to_string(rows->size()) + " derivation relation(s)");
    for (const auto& row : *rows) say("  " + row);
    return {};
  }
  if (cmd == "check") {
    if (words.size() != 2) return usage("check <project>");
    auto problems = hybrid_->check_consistency(words[1]);
    if (!problems.ok()) return Status(problems.error());
    say(words[1] + ": " + std::to_string(problems->size()) + " consistency problem(s)");
    for (const auto& p : *problems) say("  " + p);
    return {};
  }
  if (cmd == "stats") {
    // stats [json] [index|faults|cow|executor|changes|wal] [prefix] --
    // dump the process-wide metrics registry; `stats index` summarizes
    // OMS index effectiveness, `stats faults` the fault-injection /
    // recovery digest (docs/fault-injection.md), `stats cow` the
    // extent-sharing digest (docs/vfs-cow.md), `stats executor` the
    // shared work-stealing pool (docs/executor.md), `stats changes`
    // the change-tracking spine and the per-workspace checkout cursors
    // (docs/incremental-checkout.md), `stats wal` the durable-store
    // journal digest (docs/persistence.md).
    if (words.size() > 3) {
      return usage("stats [json|index|faults|cow|executor|changes|wal] [prefix]");
    }
    namespace telemetry = support::telemetry;
    if (words.size() == 2 && words[1] == "cow") {
      // cow_snapshot() walks the live tree and refreshes the
      // vfs.cow.live.* gauges as a side effect.
      const vfs::CowStats cow = hybrid_->fs().cow_snapshot();
      const vfs::IoCounters io = hybrid_->fs().counters();
      say(std::string("extents: mode=") +
          (hybrid_->fs().options().cow_extents ? "cow" : "physical") +
          " live=" + std::to_string(cow.live_extents) + " shared=" +
          std::to_string(cow.live_shared_extents) + " files=" +
          std::to_string(cow.live_files));
      say("bytes: logical=" + std::to_string(cow.logical_bytes) + " physical=" +
          std::to_string(cow.physical_bytes));
      say("events: shared_copies=" + std::to_string(cow.shared_copies) + " breaks=" +
          std::to_string(cow.broken_extents) + " saved_bytes=" +
          std::to_string(cow.bytes_saved) + " cloned_bytes=" +
          std::to_string(cow.bytes_cloned));
      say("io: copied_logical=" + std::to_string(io.bytes_copied) + " copied_physical=" +
          std::to_string(io.bytes_physical_copied) + " written_logical=" +
          std::to_string(io.bytes_written) + " written_physical=" +
          std::to_string(io.bytes_physical_written));
      return {};
    }
    if (words.size() == 2 && words[1] == "wal") {
      const oms::Store::WalStats wal = hybrid_->jcf().store().wal_stats();
      if (!wal.attached) {
        say("journal: detached (durable_store is off)");
        return {};
      }
      say("journal: attached commit_seq=" + std::to_string(wal.commit_seq) +
          " snapshot_seq=" + std::to_string(wal.snapshot_seq) + " pending=" +
          std::to_string(wal.pending_records));
      say("appends: records=" + std::to_string(wal.appended_records) + " bytes=" +
          std::to_string(wal.appended_bytes) + " flushes=" + std::to_string(wal.flushes) +
          " failures=" + std::to_string(wal.flush_failures));
      say("recovery: replayed=" + std::to_string(wal.replayed_records) +
          " discarded_bytes=" + std::to_string(wal.discarded_bytes));
      say("snapshots: written=" + std::to_string(wal.snapshots_written) + " loaded=" +
          std::to_string(wal.snapshots_loaded));
      return {};
    }
    auto snapshot = telemetry::Registry::global().snapshot();
    if (words.size() == 2 && words[1] == "faults") {
      auto counter = [&snapshot](const char* name) -> std::uint64_t {
        auto it = snapshot.counters.find(name);
        return it == snapshot.counters.end() ? 0 : it->second;
      };
      auto& injector = support::faultsim::Injector::global();
      if (support::faultsim::Injector::armed()) {
        say("injector: armed (seed " + std::to_string(injector.seed()) + ")");
        for (const auto& [site, count] : injector.injected_by_site()) {
          say("  site " + site + ": " + std::to_string(count) + " injected");
        }
      } else {
        say("injector: disarmed");
      }
      say("faults: evaluated=" + std::to_string(counter("faults.evaluated.count")) +
          " injected=" + std::to_string(counter("faults.injected.count")));
      say("transfer: retries=" + std::to_string(counter("coupling.transfer.retry.count")) +
          " timeouts=" + std::to_string(counter("coupling.transfer.timeout.count")));
      say("checkout: rollbacks=" +
          std::to_string(counter("coupling.checkout.rollback.count")) + " restored=" +
          std::to_string(counter("coupling.checkout.rollback.restored.count")));
      return {};
    }
    if (words.size() == 2 && words[1] == "executor") {
      auto counter = [&snapshot](const char* name) -> std::uint64_t {
        auto it = snapshot.counters.find(name);
        return it == snapshot.counters.end() ? 0 : it->second;
      };
      auto gauge = [&snapshot](const char* name) -> std::int64_t {
        auto it = snapshot.gauges.find(name);
        return it == snapshot.gauges.end() ? 0 : it->second;
      };
      auto& exec = support::executor::Executor::global();
      say(std::string("pool: workers=") + std::to_string(exec.workers()) +
          (exec.started() ? " (started)" : " (not started)"));
      const std::uint64_t submitted = counter("executor.task.submitted.count");
      const std::uint64_t completed = counter("executor.task.completed.count");
      say("tasks: submitted=" + std::to_string(submitted) + " completed=" +
          std::to_string(completed) + " queued=" +
          std::to_string(gauge("executor.queue.depth")));
      say("steals: " + std::to_string(counter("executor.steal.count")));
      return {};
    }
    if (words.size() == 2 && words[1] == "index") {
      auto counter = [&snapshot](const char* name) -> std::uint64_t {
        auto it = snapshot.counters.find(name);
        return it == snapshot.counters.end() ? 0 : it->second;
      };
      auto gauge = [&snapshot](const char* name) -> std::int64_t {
        auto it = snapshot.gauges.find(name);
        return it == snapshot.gauges.end() ? 0 : it->second;
      };
      const std::uint64_t indexed = counter("oms.query.indexed.count");
      const std::uint64_t hits = counter("oms.query.find_one.hit.count");
      const std::uint64_t misses = counter("oms.query.find_one.miss.count");
      say("oms index entries: class=" + std::to_string(gauge("oms.index.class.entries")) +
          " attr=" + std::to_string(gauge("oms.index.attr.entries")) +
          " edge=" + std::to_string(gauge("oms.index.edge.entries")));
      say("queries: indexed=" + std::to_string(indexed));
      say("find_one: hits=" + std::to_string(hits) + " misses=" + std::to_string(misses));
      say("maintenance: adds=" + std::to_string(counter("oms.index.add.count")) +
          " removes=" + std::to_string(counter("oms.index.remove.count")));
      return {};
    }
    if (words.size() == 2 && words[1] == "changes") {
      auto counter = [&snapshot](const char* name) -> std::uint64_t {
        auto it = snapshot.counters.find(name);
        return it == snapshot.counters.end() ? 0 : it->second;
      };
      say("epochs: store=" + std::to_string(hybrid_->jcf().store().epoch()) +
          " structure=" + std::to_string(hybrid_->jcf().structure_epoch()));
      say("feed: served=" + std::to_string(counter("jcf.changes.feed.count")));
      say("checkout: incremental=" +
          std::to_string(counter("coupling.checkout.incremental.count")) + " skipped=" +
          std::to_string(counter("coupling.checkout.skipped.count")));
      const auto cursors = hybrid_->checkout_cursors();
      say("cursors: " + std::to_string(cursors.size()));
      for (const auto& [key, cur] : cursors) {
        say("  " + key + ": epoch=" + std::to_string(cur.epoch) + " structure=" +
            std::to_string(cur.structure_epoch) + " known=" +
            std::to_string(cur.known.size()) + " syncs=" + std::to_string(cur.syncs) +
            " (" + std::to_string(cur.incremental_syncs) + " incremental) last_feed=" +
            std::to_string(cur.last_feed) + " last_skipped=" +
            std::to_string(cur.last_skipped));
      }
      return {};
    }
    const bool json = words.size() >= 2 && words[1] == "json";
    if (json) {
      say(snapshot.to_json());
      return {};
    }
    const std::string prefix = words.size() == 2 ? words[1]
                               : words.size() == 3 ? words[2]
                                                   : std::string();
    for (const auto& line : support::split(snapshot.to_table(prefix), '\n')) {
      if (!line.empty()) say(line);
    }
    return {};
  }
  if (cmd == "faults") {
    // faults <plan>|off -- arm or disarm the process-wide fault
    // injector from the desktop (the JFM_FAULTS grammar, e.g.
    // "faults seed=7;vfs.write=0.05;transfer.export_item@3,9").
    if (words.size() < 2) return usage("faults <plan>|off");
    auto& injector = support::faultsim::Injector::global();
    if (words[1] == "off") {
      injector.disarm();
      say("fault injector disarmed");
      return {};
    }
    std::vector<std::string> rest(words.begin() + 1, words.end());
    auto plan = support::faultsim::parse_plan(support::join(rest, ";"));
    if (!plan.ok()) return Status(plan.error());
    const std::size_t sites = plan->sites.size();
    const std::uint64_t seed = plan->seed;
    injector.arm(std::move(*plan));
    say("fault injector armed: seed " + std::to_string(seed) + ", " +
        std::to_string(sites) + " site(s)");
    return {};
  }
  if (cmd == "trace") {
    if (words.size() < 2 || words.size() > 3) return usage("trace on|off|dump [json]");
    namespace telemetry = support::telemetry;
    auto& tracer = telemetry::Tracer::global();
    const std::string& sub = words[1];
    if (sub == "on") {
      tracer.enable();
      say("tracing enabled (ring capacity " + std::to_string(tracer.capacity()) + " spans)");
      return {};
    }
    if (sub == "off") {
      tracer.disable();
      say("tracing disabled");
      return {};
    }
    if (sub == "dump") {
      auto spans = tracer.snapshot();
      const bool json = words.size() == 3 && words[2] == "json";
      if (json) {
        say(telemetry::Tracer::to_json(spans, tracer.dropped()));
        return {};
      }
      say(std::to_string(spans.size()) + " span(s), " + std::to_string(tracer.dropped()) +
          " dropped");
      for (const auto& line : support::split(telemetry::Tracer::to_tree(spans), '\n')) {
        if (!line.empty()) say(line);
      }
      return {};
    }
    return usage("trace on|off|dump [json]");
  }
  return support::fail(Errc::not_found, "unknown desktop command '" + cmd + "'");
}

}  // namespace jfm::coupling
