#pragma once
// HybridFramework: the JCF-FMCAD coupled environment (the paper's
// contribution). JCF is the master -- it owns design management,
// workspaces, flows and all design data (in OMS); FMCAD is the slave --
// its libraries act as the tool-facing staging area, its tools
// (schematic entry, layout editor, digital simulator) are encapsulated
// as JCF activities through wrappers that:
//   * copy the required data from OMS to the FMCAD library through the
//     file system before the tool starts, and copy results back after
//     checkin (TransferEngine; even read-only access pays the copy,
//     s3.6);
//   * enforce the prescribed flow; `force` executes an activity whose
//     predecessor has not finished, at the price of an extra
//     "consistency window" (s2.4);
//   * guard and lock menu points through the FMCAD extension language
//     so hierarchy stays consistent with JCF's CompOf metadata (s2.4,
//     s3.3): removal of instances is locked, adding an instance whose
//     cell was not declared via the JCF desktop is vetoed (manual mode)
//     or auto-submitted (procedural-interface mode, the paper's future
//     work);
//   * reject non-isomorphic hierarchies unless the future-JCF extension
//     is enabled;
//   * record every derivation relation in JCF (s3.5).

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "jfm/coupling/hierarchy_sync.hpp"
#include "jfm/coupling/transfer.hpp"
#include "jfm/extlang/interpreter.hpp"
#include "jfm/fmcad/itc.hpp"
#include "jfm/fmcad/tool.hpp"
#include "jfm/jcf/framework.hpp"
#include "jfm/tools/layout_tool.hpp"
#include "jfm/tools/lvs.hpp"
#include "jfm/tools/schematic_tool.hpp"
#include "jfm/tools/sim_tool.hpp"
#include "jfm/tools/timing.hpp"

namespace jfm::coupling {

struct HybridConfig {
  /// Paper behaviour: stage every transfer through the file system.
  bool copy_through_filesystem = true;
  /// This repo's fix for the s3.6 read-only copy tax: content-addressed
  /// transfer cache -- re-opening an unchanged design object version
  /// moves zero bytes. Off by default so the paper's measured behaviour
  /// stays the baseline; bench_s36 reports the ablation.
  bool content_addressed_cache = false;
  /// Copy-on-write payload extents in the hybrid's file system
  /// (docs/vfs-cow.md): logical copies are O(1) refcount bumps, and a
  /// cold checkout physically moves zero payload bytes. false restores
  /// the paper-faithful physical duplication on every copy -- the
  /// bench_s36/bench_parallel_checkout ablation, bit-identical results.
  bool cow_extents = true;
  /// Durable OMS (docs/persistence.md): the JCF store journals every
  /// committed transaction into a write-ahead log under /oms in the
  /// hybrid's file system, and open_store() recovers the image after a
  /// crash. false = the paper's volatile in-memory prototype, and the
  /// bit-identical ablation for bench_wal_overhead.
  bool durable_store = false;
  /// Future work (s3.3): tools pass hierarchy to JCF procedurally.
  bool procedural_hierarchy_interface = false;
  /// Future JCF releases: accept non-isomorphic hierarchies.
  bool allow_non_isomorphic = false;
  /// Future work (s3.1): "data sharing between projects ... access to
  /// cells of other projects". Off = the paper's prototype.
  bool allow_project_data_sharing = false;
};

struct ToolCommand {
  std::string command;
  std::vector<std::string> args;
};

struct ActivityRunReport {
  jcf::ExecRef exec;
  jcf::DovRef output;
  int fmcad_version = 0;
  std::uint64_t bytes_exported = 0;  ///< OMS -> FMCAD for this run
  std::uint64_t bytes_imported = 0;  ///< FMCAD -> OMS for this run
  std::vector<std::string> consistency_windows;
};

class HybridFramework {
 public:
  explicit HybridFramework(HybridConfig config = {});

  // -- subsystem access (benches, tests, examples) -------------------------
  jcf::JcfFramework& jcf() noexcept { return jcf_; }
  vfs::FileSystem& fs() noexcept { return fs_; }
  support::SimClock& clock() noexcept { return clock_; }
  TransferEngine& transfer() noexcept { return *transfer_; }
  HierarchySubmitter& hierarchy() noexcept { return *hierarchy_; }
  fmcad::ItcBus& itc() noexcept { return itc_; }
  extlang::Interpreter& interpreter() noexcept { return interp_; }
  fmcad::ToolRegistry& tools() noexcept { return tools_; }
  const HybridConfig& config() const noexcept { return config_; }

  /// The standard resource set: viewtypes schematic/layout/simulate,
  /// the three tools, activities (enter_schematic -> simulate ->
  /// enter_layout) and the frozen flow "asic_flow"; team "designers".
  support::Status bootstrap();
  support::Result<jcf::UserRef> add_designer(const std::string& name);
  /// Attach the (empty) JCF store to /oms in this hybrid's file system
  /// and recover whatever a previous incarnation journalled there:
  /// latest valid snapshot plus the committed WAL tail
  /// (docs/persistence.md). Requires durable_store; call before
  /// bootstrap(), which resolves recovered resources instead of
  /// re-creating them.
  support::Status open_store();
  jcf::FlowRef standard_flow() const noexcept { return flow_; }
  jcf::TeamRef designers() const noexcept { return team_; }
  support::Result<jcf::ActivityRef> activity(const std::string& name) const;

  /// Define and freeze a custom flow over the bootstrap activities
  /// (project managers tailor flows per design style -- the companion
  /// work [Seep94b] modelled an FPGA flow in JCF this way). `order`
  /// lists (before, after) precedence pairs.
  support::Result<jcf::FlowRef> define_flow(
      const std::string& name, const std::vector<std::string>& activities,
      const std::vector<std::pair<std::string, std::string>>& order);
  /// Attach a different (frozen) flow to the latest version of a cell.
  support::Status set_cell_flow(const std::string& project, const std::string& cell,
                                const std::string& flow_name);

  // -- projects and cells ------------------------------------------------
  /// A JCF project plus its slave FMCAD library.
  support::Result<jcf::ProjectRef> create_project(const std::string& name);
  std::shared_ptr<fmcad::Library> library(const std::string& project) const;
  /// JCF cell (+version 1 + variant "work") and the FMCAD cell with a
  /// cellview per standard view. Reserves nothing.
  support::Status create_cell(const std::string& project, const std::string& cell,
                              jcf::UserRef creator);
  /// Manual hierarchy declaration via the JCF desktop (one step each).
  support::Status declare_child(const std::string& project, const std::string& parent,
                                const std::string& child);
  /// Share a published cell of `from_project` into `to_project` so its
  /// designs can reference it. Fails with not_supported unless the
  /// future-work extension is enabled (s3.1: "Not yet possible in JCF
  /// or in the combined framework is data sharing between projects").
  support::Status share_cell(const std::string& to_project, const std::string& from_project,
                             const std::string& cell);

  /// Open a read-only FMCAD tool window on a cellview (browsing /
  /// cross-probing). The caller owns the session; it participates in
  /// ITC, so probes from other windows of the same cell highlight here.
  support::Result<std::unique_ptr<fmcad::ToolSession>> open_viewer(const std::string& project,
                                                                   const std::string& cell,
                                                                   const std::string& view,
                                                                   jcf::UserRef user);

  // -- workspaces -------------------------------------------------------------
  support::Status reserve_cell(const std::string& project, const std::string& cell,
                               jcf::UserRef user);
  support::Status publish_cell(const std::string& project, const std::string& cell,
                               jcf::UserRef user);

  // -- variants (the second versioning level, s2.1) ------------------------
  /// Derive a named variant inside the (reserved) latest cell version:
  /// "the users have the ability to derive many different variants of
  /// the same flow in one cell version ... to select the optimal design
  /// solution".
  support::Status create_variant(const std::string& project, const std::string& cell,
                                 const std::string& variant_name, jcf::UserRef user);

  // -- encapsulated activity execution ------------------------------------
  /// Runs in the default variant ("work", or the first one).
  support::Result<ActivityRunReport> run_activity(const std::string& project,
                                                  const std::string& cell,
                                                  const std::string& activity_name,
                                                  jcf::UserRef user,
                                                  const std::vector<ToolCommand>& edits,
                                                  bool force = false);
  /// Runs in an explicit variant; each variant carries its own design
  /// objects, flow progress and derivation history.
  support::Result<ActivityRunReport> run_activity_in_variant(
      const std::string& project, const std::string& cell, const std::string& variant_name,
      const std::string& activity_name, jcf::UserRef user,
      const std::vector<ToolCommand>& edits, bool force = false);

  /// Read the latest data of (cell, view) through the hybrid: the data
  /// are copied out of OMS even though nothing is modified (s3.6).
  /// With content_addressed_cache enabled, a repeated open of an
  /// unchanged version skips the copy entirely.
  support::Result<std::string> open_read_only(const std::string& project,
                                              const std::string& cell, const std::string& view,
                                              jcf::UserRef user);

  /// Batched checkout of a whole CompOf hierarchy: every view of
  /// `root_cell` and its transitive children is exported into
  /// `dst_dir/<cell>_<view>` through TransferEngine::export_batch's
  /// worker pool -- one call instead of one desktop round-trip per
  /// cellview.
  ///
  /// The checkout is ALL-OR-NOTHING (docs/fault-injection.md): before
  /// any byte moves, a two-phase journal captures the pre-image of
  /// every destination the batch may touch. If any item fails (fault,
  /// timeout, permission), the journal is replayed and dst_dir is
  /// restored bit-identical to its pre-checkout state; the report then
  /// carries rolled_back = true plus the per-item failures. A caller
  /// that retries the whole checkout after a rollback is guaranteed to
  /// start from clean state. `timeout_us` > 0 arms a per-batch
  /// deadline (see TransferEngine::export_batch).
  struct CheckoutReport {
    std::size_t cells = 0;           ///< cells visited (root + children)
    std::size_t requested = 0;       ///< cellviews with data to export
    std::size_t exported = 0;        ///< successful exports (before any rollback)
    std::uint64_t bytes_exported = 0;
    /// Bytes the exports physically duplicated (zero under COW; see
    /// TransferStats::bytes_exported_physical for the accounting rules).
    std::uint64_t bytes_exported_physical = 0;
    std::uint64_t cache_hits = 0;    ///< exports served without moving bytes
    std::uint64_t retries = 0;       ///< export attempts repeated after transient failures
    std::uint64_t timeouts = 0;      ///< items abandoned at the batch deadline
    bool rolled_back = false;        ///< failures occurred; dst_dir was restored
    std::size_t restored = 0;        ///< journal entries replayed by the rollback
    std::vector<std::string> failures;  ///< "cell/view: message"
    /// Incremental sync (docs/incremental-checkout.md): this checkout
    /// was served from the change feed instead of a full walk.
    bool incremental = false;
    std::size_t skipped = 0;    ///< known cellviews skipped as unchanged
    std::size_t feed_size = 0;  ///< change-feed rows consumed (incremental only)
  };
  /// Repeat checkouts of the same (project, root, user, dst_dir) ride
  /// the change feed (docs/incremental-checkout.md): the request list
  /// is built from DOVs changed since the workspace's cursor, unchanged
  /// cellviews are skipped before any lock or cache probe, and the
  /// first sync / a hierarchy-shape change / a restore fall back to the
  /// full walk. Materialized files are bit-identical to the full walk
  /// either way.
  support::Result<CheckoutReport> checkout_hierarchy(const std::string& project,
                                                     const std::string& root_cell,
                                                     jcf::UserRef user, const vfs::Path& dst_dir,
                                                     std::size_t workers = 4,
                                                     std::uint64_t timeout_us = 0);
  /// Always performs the full hierarchy walk (the first-sync path, and
  /// the repair tool when dst_dir was modified behind the framework's
  /// back). Still records the sync cursor, so a later
  /// checkout_hierarchy can continue incrementally.
  support::Result<CheckoutReport> checkout_hierarchy_full(
      const std::string& project, const std::string& root_cell, jcf::UserRef user,
      const vfs::Path& dst_dir, std::size_t workers = 4, std::uint64_t timeout_us = 0);

  /// Per-workspace sync cursor: one per (project, root cell, user,
  /// dst_dir), advanced only by a SUCCESSFUL checkout -- a rolled-back
  /// delta leaves the cursor unmoved, so the failed delta is re-synced
  /// next time.
  struct CheckoutCursor {
    std::uint64_t epoch = 0;            ///< store epoch of the last successful sync
    std::uint64_t structure_epoch = 0;  ///< hierarchy shape at that sync
    std::size_t cells = 0;              ///< cells enumerated by the last full walk
    std::set<std::string> known;        ///< "cell/view" labels materialized in dst
    std::uint64_t syncs = 0;            ///< successful syncs through this cursor
    std::uint64_t incremental_syncs = 0;
    std::uint64_t last_feed = 0;     ///< feed rows consumed by the last sync
    std::uint64_t last_skipped = 0;  ///< cellviews skipped by the last sync
  };
  /// Snapshot of every workspace cursor, keyed
  /// "project|root|user#<id>|dst" (the desktop's `stats changes`).
  std::map<std::string, CheckoutCursor> checkout_cursors() const;

  // -- analysis on the master's data ---------------------------------------
  /// Layout-versus-schematic comparison of a cell's two views, read out
  /// of the JCF database (the inter-view consistency s3.2 celebrates).
  support::Result<tools::LvsReport> run_lvs(const std::string& project,
                                            const std::string& cell, jcf::UserRef user);
  /// Static timing of a cell's (flattened) schematic: critical path and
  /// delay over the gate propagation delays.
  support::Result<tools::TimingReport> report_timing(const std::string& project,
                                                     const std::string& cell,
                                                     jcf::UserRef user,
                                                     std::string* path_text = nullptr);

  // -- queries ------------------------------------------------------------------
  /// "what was derived from what": derivation rows for one cell, as
  /// "output<view vN> <- input<view vM>" strings.
  support::Result<std::vector<std::string>> derivation_report(const std::string& project,
                                                              const std::string& cell);
  support::Result<std::vector<std::string>> check_consistency(const std::string& project);
  /// All consistency windows ever shown (the s2.4 "additional windows").
  const std::vector<std::string>& consistency_log() const noexcept { return consistency_log_; }

  /// Total menu points vs locked ones in the last tool session (s3.4).
  struct UiBurden {
    std::size_t menu_items = 0;
    std::size_t locked_items = 0;
    std::size_t desktops = 2;  ///< the designer faces JCF *and* FMCAD UIs
  };
  const UiBurden& last_ui_burden() const noexcept { return ui_burden_; }

  static const std::vector<std::string>& standard_views();

 private:
  struct ProjectCtx {
    jcf::ProjectRef ref;
    std::shared_ptr<fmcad::Library> library;
    std::map<std::string, std::unique_ptr<fmcad::DesignerSession>> sessions;
  };

  ProjectCtx* project_ctx(const std::string& name);
  const ProjectCtx* project_ctx(const std::string& name) const;
  support::Result<ActivityRunReport> run_activity_on(ProjectCtx* ctx, jcf::VariantRef variant,
                                                     const std::string& cell,
                                                     const std::string& activity_name,
                                                     jcf::UserRef user,
                                                     const std::vector<ToolCommand>& edits,
                                                     bool force);
  fmcad::DesignerSession* session_for(ProjectCtx& ctx, const std::string& user);
  /// Make the FMCAD default version of `key` equal `text`: one
  /// checkout, write and checkin when they differ, nothing otherwise. A
  /// failure after the checkout cancels it again.
  support::Status stage_default(fmcad::DesignerSession& session, const fmcad::CellViewKey& key,
                                const std::string& text);
  /// The bytes of `dov` as the transfer engine materializes them:
  /// export to /scratch/<scratch_name>, read, remove.
  support::Result<std::string> export_text(jcf::DovRef dov, jcf::UserRef user,
                                           const std::string& scratch_name);
  /// Undoes a failed activity run (defined in hybrid.cpp).
  class ActivityGuard;
  support::Result<jcf::VariantRef> work_variant(const std::string& project,
                                                const std::string& cell) const;
  /// Shared body of checkout_hierarchy / checkout_hierarchy_full.
  support::Result<CheckoutReport> checkout_sync(const std::string& project,
                                                const std::string& root_cell, jcf::UserRef user,
                                                const vfs::Path& dst_dir, std::size_t workers,
                                                std::uint64_t timeout_us,
                                                bool allow_incremental);
  void install_guards();
  void show_window(const std::string& message, std::vector<std::string>* run_log);

  HybridConfig config_;
  support::SimClock clock_;
  vfs::FileSystem fs_;
  jcf::JcfFramework jcf_;
  fmcad::ItcBus itc_;
  extlang::Interpreter interp_;
  fmcad::ToolRegistry tools_;
  std::shared_ptr<tools::SimulatorTool> sim_tool_;
  std::unique_ptr<TransferEngine> transfer_;
  std::unique_ptr<HierarchySubmitter> hierarchy_;

  jcf::TeamRef team_;
  jcf::FlowRef flow_;
  std::map<std::string, ProjectCtx> projects_;
  /// Workspace sync cursors (docs/incremental-checkout.md). Guarded by
  /// cursors_mu_: concurrent checkouts into distinct destinations are
  /// legal and each owns its own entry.
  mutable std::mutex cursors_mu_;
  std::map<std::string, CheckoutCursor> cursors_;
  std::vector<std::string> consistency_log_;
  UiBurden ui_burden_;

  // current-run context consulted by the extension-language guards
  ProjectCtx* guard_ctx_ = nullptr;
  std::string guard_cell_;
  std::vector<std::string>* guard_run_log_ = nullptr;
};

}  // namespace jfm::coupling
