#pragma once
// JcfFramework: the JCF 3.0 "desktop" -- the only interface to the
// framework's data (paper s2.1: direct access to the stored data is not
// possible). It implements:
//   * resources: users, teams, tools, viewtypes, activities, flows --
//     defined in advance by the framework administrator; flows are
//     frozen before use and cannot be modified afterwards;
//   * project data: projects, cells, cell versions (version mechanism
//     one), variants (version mechanism two), design objects and their
//     versions (data stored *in* the OMS database), configurations,
//     the CompOf hierarchy and the equivalent/derived relations;
//   * the workspace concept: a cell version is reserved by exactly one
//     user; everyone else reads published data only;
//   * flow management: activities with Needs/Creates viewtype sets,
//     per-flow precedence, execution tracking and automatic recording
//     of derivation relations.
//
// All metadata and design data live in one OMS store.
//
// Thread-safety (docs/concurrency.md): read paths (dov_data, the
// find_*/name_of lookups, hierarchy queries) may run concurrently --
// they ride the OMS store's reader lock and the workspace counters are
// atomic. Mutations (create_*, reserve/publish, the flow engine) must
// be driven by one writer at a time; TransferEngine enforces exactly
// that for the encapsulation data path. Listener registration is
// setup-time only, as documented on add_dov_created_listener.

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "jfm/jcf/refs.hpp"
#include "jfm/vfs/filesystem.hpp"
#include "jfm/jcf/schema.hpp"
#include "jfm/support/clock.hpp"
#include "jfm/support/result.hpp"

namespace jfm::jcf {

enum class ExecState { running, done, aborted };
std::string_view to_string(ExecState state);

/// Per-activity progress within one variant.
enum class ActivityProgress { not_started, running, done };

/// Point-in-time copy of the workspace accounting; workspace_stats()
/// returns one by value. The live counters are atomics because the
/// read path (dov_data) bumps read_denials while parallel exporters
/// share the framework.
struct WorkspaceStats {
  std::uint64_t reservations = 0;
  std::uint64_t reservation_conflicts = 0;
  std::uint64_t publishes = 0;
  std::uint64_t read_denials = 0;
  /// Design-data bytes handed out by dov_data/dov_extent: every read
  /// counts its full payload here (the paper's cost model) ...
  std::uint64_t dov_read_bytes_logical = 0;
  /// ... and only reads that materialized a private copy count here.
  /// dov_extent shares the store's buffer, so under COW this stays at
  /// zero while the logical twin keeps the books comparable
  /// (docs/vfs-cow.md).
  std::uint64_t dov_read_bytes_physical = 0;
};

class JcfFramework {
 public:
  explicit JcfFramework(support::SimClock* clock, oms::StoreOptions store_options = {});

  /// The underlying store, for administrative export/checkpoint only
  /// (oms::Dump). Application code must use the typed API.
  oms::Store& store() noexcept { return store_; }
  const oms::Store& store() const noexcept { return store_; }

  // ======================= resources (admin) =============================
  support::Result<UserRef> create_user(const std::string& name);
  support::Result<TeamRef> create_team(const std::string& name);
  support::Status add_member(TeamRef team, UserRef user);
  support::Result<bool> is_member(TeamRef team, UserRef user) const;
  support::Result<ToolRef> register_tool(const std::string& name);
  support::Result<ViewTypeRef> create_viewtype(const std::string& name);
  support::Result<ActivityRef> create_activity(const std::string& name, ToolRef tool,
                                               const std::vector<ViewTypeRef>& needs,
                                               const std::vector<ViewTypeRef>& creates);
  support::Result<FlowRef> create_flow(const std::string& name,
                                       const std::vector<ActivityRef>& activities);
  /// Add "before precedes after" to a (not yet frozen) flow.
  support::Status add_precedence(FlowRef flow, ActivityRef before, ActivityRef after);
  /// Validate the flow (acyclic, edges within the flow) and fix it;
  /// only frozen flows can be attached to cells. "Flows are fixed and
  /// cannot be modified" (s2.1).
  support::Status freeze_flow(FlowRef flow);
  support::Result<bool> flow_frozen(FlowRef flow) const;

  // name lookups (resources are uniquely named)
  support::Result<UserRef> find_user(const std::string& name) const;
  support::Result<TeamRef> find_team(const std::string& name) const;
  support::Result<ViewTypeRef> find_viewtype(const std::string& name) const;
  support::Result<ActivityRef> find_activity(const std::string& name) const;
  support::Result<FlowRef> find_flow(const std::string& name) const;
  support::Result<ToolRef> find_tool(const std::string& name) const;

  support::Result<std::string> name_of(oms::ObjectId id) const;
  template <typename Tag>
  support::Result<std::string> name_of(Ref<Tag> ref) const {
    return name_of(ref.id);
  }

  support::Result<std::vector<ActivityRef>> flow_activities(FlowRef flow) const;
  support::Result<std::vector<ViewTypeRef>> activity_needs(ActivityRef activity) const;
  support::Result<std::vector<ViewTypeRef>> activity_creates(ActivityRef activity) const;
  support::Result<ToolRef> activity_tool(ActivityRef activity) const;
  /// Direct predecessors of `activity` in `flow`.
  support::Result<std::vector<ActivityRef>> predecessors(FlowRef flow,
                                                         ActivityRef activity) const;

  // ======================= project structure ==============================
  support::Result<ProjectRef> create_project(const std::string& name, TeamRef team);
  support::Result<ProjectRef> find_project(const std::string& name) const;
  /// Creating a cell attaches the flow (must be frozen) and the team.
  support::Result<CellRef> create_cell(ProjectRef project, const std::string& name, FlowRef flow,
                                       TeamRef team);
  /// Finds own cells first, then cells shared into the project.
  support::Result<CellRef> find_cell(ProjectRef project, const std::string& name) const;
  support::Result<std::vector<CellRef>> cells(ProjectRef project) const;

  /// Data sharing between projects. The paper (s3.1) lists this as
  /// missing from both JCF 3.0 and the hybrid ("it would be helpful to
  /// also provide access to cells of other projects"); this is the
  /// future-JCF mechanism the hybrid's ablation flag switches on.
  /// The cell must belong to a different project and have at least one
  /// published version.
  support::Status share_cell(ProjectRef borrower, CellRef cell);
  support::Result<std::vector<CellRef>> shared_cells(ProjectRef project) const;
  /// The project a cell natively belongs to.
  support::Result<ProjectRef> project_of(CellRef cell) const;

  /// New cell version; inherits the cell's flow/team (both overridable
  /// per version, s2.1), numbered 1.. and linked precedes-wise.
  support::Result<CellVersionRef> create_cell_version(CellRef cell, UserRef creator);
  support::Result<std::vector<CellVersionRef>> cell_versions(CellRef cell) const;
  support::Result<CellVersionRef> latest_cell_version(CellRef cell) const;
  support::Result<int> version_number(CellVersionRef cv) const;
  support::Status override_flow(CellVersionRef cv, FlowRef flow);
  support::Status override_team(CellVersionRef cv, TeamRef team);
  support::Result<FlowRef> effective_flow(CellVersionRef cv) const;
  support::Result<TeamRef> effective_team(CellVersionRef cv) const;
  support::Result<CellRef> cell_of(CellVersionRef cv) const;

  /// Variants: the second versioning mechanism inside a cell version.
  support::Result<VariantRef> create_variant(CellVersionRef cv, const std::string& name,
                                             UserRef user);
  support::Result<std::vector<VariantRef>> variants(CellVersionRef cv) const;
  support::Result<VariantRef> find_variant(CellVersionRef cv, const std::string& name) const;
  support::Result<CellVersionRef> cell_version_of(VariantRef variant) const;

  support::Result<DesignObjectRef> create_design_object(VariantRef variant,
                                                        const std::string& name,
                                                        ViewTypeRef viewtype, UserRef user);
  support::Result<std::vector<DesignObjectRef>> design_objects(VariantRef variant) const;
  support::Result<DesignObjectRef> find_design_object(VariantRef variant,
                                                      const std::string& name) const;
  /// The variant a design object belongs to (reverse of design_objects).
  support::Result<VariantRef> variant_of(DesignObjectRef dobj) const;
  support::Result<ViewTypeRef> viewtype_of(DesignObjectRef dobj) const;

  /// Store design data as a new version of `dobj` (workspace required).
  support::Result<DovRef> create_dov(DesignObjectRef dobj, std::string data, UserRef user);
  /// Zero-copy overload: the store adopts the caller's extent
  /// (oms::Store::set_text), so an import from the file system shares
  /// one buffer between the source file and the new version's data.
  support::Result<DovRef> create_dov(DesignObjectRef dobj, oms::TextExtent data, UserRef user);
  /// Version-change notification: invoked after every successful
  /// create_dov with the design object and its new version. The
  /// coupling layer's transfer cache uses this to invalidate entries
  /// the moment a new version supersedes the cached one. Listeners are
  /// called synchronously on the creating thread; registration is not
  /// thread-safe (register during setup, before concurrent use).
  using DovCreatedListener = std::function<void(DesignObjectRef, DovRef)>;
  std::uint64_t add_dov_created_listener(DovCreatedListener listener);
  void remove_dov_created_listener(std::uint64_t token);
  support::Result<std::vector<DovRef>> dov_versions(DesignObjectRef dobj) const;
  support::Result<DovRef> latest_dov(DesignObjectRef dobj) const;
  support::Result<int> dov_number(DovRef dov) const;
  support::Result<DesignObjectRef> design_object_of(DovRef dov) const;
  /// Read design data; honors the workspace visibility rules.
  support::Result<std::string> dov_data(DovRef dov, UserRef reader);
  /// Zero-copy twin of dov_data: same visibility rules, same logical
  /// accounting, but the payload comes back as the store's refcounted
  /// immutable extent (oms::Store::get_text_extent) -- no bytes are
  /// materialized. DOVs are immutable once created, so the extent is
  /// bit-stable for as long as the caller holds it.
  support::Result<oms::TextExtent> dov_extent(DovRef dov, UserRef reader);
  /// Constant-size payload summary: memoized content hash + size.
  struct DovFingerprint {
    std::uint64_t content_hash = 0;
    std::uint64_t size = 0;
  };
  /// The zero-rehash warm path: same visibility rules as dov_extent,
  /// but NO payload access and NO dov read-byte accounting -- a warm
  /// cache probe must not look like a read. Counted under
  /// jcf.dov.fingerprint.count. O(1) once the store's hash memo for
  /// the DOV's buffer is populated (DOVs are immutable, so it never
  /// invalidates).
  support::Result<DovFingerprint> dov_fingerprint(DovRef dov, UserRef reader);

  /// One row of the DOV change feed: a design-object version whose OMS
  /// object mutated after the consumer's epoch -- created, published or
  /// superseded (gaining a dov_precedes successor stamps the
  /// predecessor too). Carries everything a sync consumer needs to
  /// decide staleness without walking project->cell->version->DOV.
  struct DovChange {
    DovRef dov;
    DesignObjectRef dobj;
    /// store epoch of the DOV's last mutation
    std::uint64_t modified = 0;
    bool published = false;
    DovFingerprint fingerprint;
  };
  /// Everything that changed in the DOV population since `epoch`
  /// (exclusive), in id order -- served from the store's per-class
  /// epoch index, O(changed), no payload reads. Administrative feed
  /// for sync consumers (the coupling layer's incremental checkout):
  /// no visibility gate -- readers enforce visibility when they fetch
  /// data. Counted under jcf.changes.feed.count. Pair with
  /// store().epoch() snapshotted BEFORE consuming the feed.
  std::vector<DovChange> dovs_changed_since(std::uint64_t epoch) const;
  /// Monotonic counter of hierarchy-shape changes: cells, cell
  /// versions, variants, CompOf edges, cross-project shares. A sync
  /// consumer whose cursor predates a shape change cannot trust the
  /// change feed alone (the set of cells under its root may differ)
  /// and must fall back to a full walk. reserve/publish do NOT bump
  /// it -- workspace churn is exactly what the feed covers.
  std::uint64_t structure_epoch() const noexcept {
    return structure_epoch_.load(std::memory_order_acquire);
  }

  support::Status set_equivalent(DovRef a, DovRef b);
  support::Result<bool> is_equivalent(DovRef a, DovRef b) const;

  // hierarchy (CompOf): must stay acyclic
  support::Status add_child(CellVersionRef parent, CellVersionRef child);
  support::Status remove_child(CellVersionRef parent, CellVersionRef child);
  support::Result<std::vector<CellVersionRef>> children(CellVersionRef parent) const;
  support::Result<std::vector<CellVersionRef>> parents(CellVersionRef child) const;

  // configurations
  support::Result<ConfigRef> create_config(CellVersionRef cv, const std::string& name);
  support::Status add_config_member(ConfigRef config, DovRef dov);
  support::Status add_config_child(ConfigRef parent, ConfigRef child);
  support::Result<std::vector<DovRef>> config_members(ConfigRef config) const;

  // ======================= workspaces =====================================
  /// Reserve a cell version into `user`'s private workspace. Requires
  /// team membership; fails with Errc::locked if someone else holds it.
  support::Status reserve(CellVersionRef cv, UserRef user);
  /// Publish: all design data under the cell version become visible,
  /// the reservation is released.
  support::Status publish(CellVersionRef cv, UserRef user);
  /// Name of the reserving user, or "" when free.
  support::Result<std::string> reserved_by(CellVersionRef cv) const;
  WorkspaceStats workspace_stats() const noexcept {
    WorkspaceStats s;
    s.reservations = ws_stats_.reservations.load(std::memory_order_relaxed);
    s.reservation_conflicts = ws_stats_.reservation_conflicts.load(std::memory_order_relaxed);
    s.publishes = ws_stats_.publishes.load(std::memory_order_relaxed);
    s.read_denials = ws_stats_.read_denials.load(std::memory_order_relaxed);
    s.dov_read_bytes_logical =
        ws_stats_.dov_read_bytes_logical.load(std::memory_order_relaxed);
    s.dov_read_bytes_physical =
        ws_stats_.dov_read_bytes_physical.load(std::memory_order_relaxed);
    return s;
  }

  // ======================= flow engine ====================================
  /// Start an activity execution in a variant. Enforces: workspace
  /// reserved by `user`, activity part of the effective (frozen) flow,
  /// all flow predecessors completed in this variant, and all needed
  /// viewtypes present. `force` skips the predecessor check -- the
  /// hybrid wrappers use it and show a consistency window instead
  /// (paper s2.4).
  support::Result<ExecRef> start_activity(VariantRef variant, ActivityRef activity, UserRef user,
                                          bool force = false);
  /// Complete: verifies outputs' viewtypes against the activity's
  /// Creates set and records output-derived-from-input relations.
  support::Status complete_activity(ExecRef exec, const std::vector<DovRef>& outputs);
  support::Status abort_activity(ExecRef exec);
  support::Result<ExecState> exec_state(ExecRef exec) const;
  support::Result<std::vector<DovRef>> exec_inputs(ExecRef exec) const;
  support::Result<ActivityProgress> activity_progress(VariantRef variant,
                                                      ActivityRef activity) const;
  /// The inputs a DOV was derived from (the what-belongs-to-what record
  /// FMCAD cannot provide, s3.5).
  support::Result<std::vector<DovRef>> derivation_sources(DovRef dov) const;
  /// DOVs derived from `dov` (forward closure, direct only).
  support::Result<std::vector<DovRef>> derived_from_this(DovRef dov) const;

  // ======================= persistence ====================================
  /// Write the whole OMS database (metadata AND design data -- the JCF
  /// deployment model, s2.1) to a file on the virtual file system.
  support::Status checkpoint(vfs::FileSystem& fs, const vfs::Path& file) const;
  /// Load a checkpoint into this (still empty) framework.
  support::Status restore(const vfs::FileSystem& fs, const vfs::Path& file);
  /// Attach the (empty, durability=wal) store to `dir` and recover
  /// whatever committed state it holds -- snapshot plus WAL tail
  /// (oms::Store::open, docs/persistence.md). Bumps structure_epoch():
  /// recovered hierarchy invalidates every incremental-sync cursor,
  /// exactly like restore().
  support::Status open_store(vfs::FileSystem& fs, const vfs::Path& dir);

  // ======================= consistency ====================================
  /// Framework-wide invariant sweep over one project; returns human-
  /// readable problem descriptions (empty = consistent).
  support::Result<std::vector<std::string>> check_consistency(ProjectRef project) const;

 private:
  friend struct FrameworkPrivate;  // shared helpers across the .cpp files

  /// Shared visibility gate of every DOV read path (dov_extent,
  /// dov_fingerprint): published data is visible to
  /// everyone, unpublished data only to the workspace holder. Counts
  /// the denial when it fails.
  support::Status check_dov_visibility(DovRef dov, UserRef reader);

  struct AtomicWorkspaceStats {
    std::atomic<std::uint64_t> reservations{0};
    std::atomic<std::uint64_t> reservation_conflicts{0};
    std::atomic<std::uint64_t> publishes{0};
    std::atomic<std::uint64_t> read_denials{0};
    std::atomic<std::uint64_t> dov_read_bytes_logical{0};
    std::atomic<std::uint64_t> dov_read_bytes_physical{0};
  };

  oms::Store store_;
  support::SimClock* clock_;
  AtomicWorkspaceStats ws_stats_;
  std::atomic<std::uint64_t> structure_epoch_{0};
  std::vector<std::pair<std::uint64_t, DovCreatedListener>> dov_listeners_;
  std::uint64_t next_listener_token_ = 0;
};

}  // namespace jfm::jcf
