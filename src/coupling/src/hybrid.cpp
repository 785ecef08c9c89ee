#include "jfm/coupling/hybrid.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>

#include <chrono>

#include "jfm/coupling/resolvers.hpp"
#include "jfm/support/executor.hpp"
#include "jfm/support/strings.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::coupling {

using support::Errc;
using support::Result;
using support::Status;

namespace {
namespace telemetry = support::telemetry;

vfs::Path root_path(const char* name) {
  return vfs::Path().child(name);
}

// Views whose documents carry hierarchy; the simulator's uses-list is
// a DUT *reference*, not a CompOf relation.
const std::vector<std::string>& structural_views() {
  static const std::vector<std::string> kViews = {"schematic", "layout"};
  return kViews;
}

oms::StoreOptions store_options_for(const HybridConfig& config) {
  oms::StoreOptions opts;
  if (config.durable_store) opts.durability = oms::StoreOptions::Durability::wal;
  return opts;
}
}  // namespace

const std::vector<std::string>& HybridFramework::standard_views() {
  static const std::vector<std::string> kViews = {"schematic", "layout", "simulate"};
  return kViews;
}

HybridFramework::HybridFramework(HybridConfig config)
    : config_(config), fs_(&clock_, vfs::FsOptions{.cow_extents = config.cow_extents}),
      jcf_(&clock_, store_options_for(config)) {
  (void)fs_.mkdirs(root_path("fmcad"));
  (void)fs_.mkdirs(root_path("transfer"));
  (void)fs_.mkdirs(root_path("scratch"));
  TransferOptions transfer_options;
  transfer_options.copy_through_filesystem = config_.copy_through_filesystem;
  transfer_options.content_addressed_cache = config_.content_addressed_cache;
  transfer_ = std::make_unique<TransferEngine>(&jcf_, &fs_, root_path("transfer"),
                                               transfer_options);
  hierarchy_ = std::make_unique<HierarchySubmitter>(
      &jcf_, config_.procedural_hierarchy_interface, config_.allow_non_isomorphic);
  auto sch = std::make_shared<tools::SchematicTool>();
  auto lay = std::make_shared<tools::LayoutTool>();
  sim_tool_ = std::make_shared<tools::SimulatorTool>();
  (void)tools_.add(sch);
  (void)tools_.add(lay);
  (void)tools_.add(sim_tool_);
  install_guards();
}

void HybridFramework::install_guards() {
  // Host builtins the customization procedures consult. They read the
  // guard context the wrapper sets around each encapsulated run.
  interp_.define_builtin(
      "jcf-activity-active",
      [this](extlang::Interpreter&, extlang::ValueList&) -> Result<extlang::Value> {
        return extlang::Value(guard_ctx_ != nullptr);
      });
  interp_.define_builtin(
      "jcf-child-declared",
      [this](extlang::Interpreter&, extlang::ValueList& args) -> Result<extlang::Value> {
        if (guard_ctx_ == nullptr) return extlang::Value(false);
        if (args.size() != 1 || !args[0].is_string()) {
          return Result<extlang::Value>::failure(Errc::invalid_argument,
                                                 "jcf-child-declared expects a cell name");
        }
        return extlang::Value(
            hierarchy_->declared_children(guard_ctx_->ref, guard_cell_).contains(
                args[0].as_string()));
      });
  interp_.define_builtin(
      "jcf-show-window",
      [this](extlang::Interpreter&, extlang::ValueList& args) -> Result<extlang::Value> {
        std::string message = "consistency window";
        if (!args.empty() && args[0].is_string()) message = args[0].as_string();
        show_window(message, guard_run_log_);
        return extlang::Value::nil();
      });

  // Customization procedures, written in the FMCAD extension language
  // exactly as the paper's encapsulation did (s2.4).
  const char* kGuards = R"fml(
    ; Saving is only legal while a JCF activity controls the tool: the
    ; wrapper guarantees data flows back into the OMS database.
    (define (jcf-pre-save cell view)
      (if (jcf-activity-active)
          #t
          (begin
            (jcf-show-window (string-append "save of " cell "/" view
                                            " outside JCF control refused"))
            #f)))
  )fml";
  auto result = interp_.eval_text(kGuards);
  if (result.ok()) {
    auto guard = interp_.global("jcf-pre-save");
    if (guard.ok()) interp_.add_trigger("pre-save", *guard);
  }

  // Menu guard as a host builtin trigger: "add-instance" of a child the
  // JCF desktop does not know about is vetoed in manual mode (the
  // designer must declare it first) and admitted in procedural mode.
  interp_.define_builtin(
      "jcf-menu-guard",
      [this](extlang::Interpreter& in, extlang::ValueList& args) -> Result<extlang::Value> {
        if (args.size() < 2 || !args[1].is_string()) return extlang::Value(true);
        const std::string& command = args[1].as_string();
        if (command != "add-instance") return extlang::Value(true);
        if (config_.procedural_hierarchy_interface) return extlang::Value(true);
        // schematic: (name cell view); layout: (name cell view x y)
        if (args.size() < 4 || !args[3].is_string()) return extlang::Value(true);
        extlang::ValueList query{args[3]};
        auto declared = in.apply(*in.global("jcf-child-declared"), query);
        if (declared.ok() && declared->truthy()) return extlang::Value(true);
        show_window("add-instance " + args[3].as_string() +
                        " vetoed: declare the child via the JCF desktop first",
                    guard_run_log_);
        return extlang::Value(false);
      });
  auto menu_guard = interp_.global("jcf-menu-guard");
  if (menu_guard.ok()) interp_.add_trigger("menu", *menu_guard);
}

void HybridFramework::show_window(const std::string& message, std::vector<std::string>* run_log) {
  consistency_log_.push_back(message);
  if (run_log != nullptr) run_log->push_back(message);
}

Status HybridFramework::open_store() {
  if (!config_.durable_store) {
    return support::fail(Errc::invalid_argument, "open_store requires durable_store");
  }
  (void)fs_.mkdirs(root_path("oms"));
  return jcf_.open_store(fs_, root_path("oms"));
}

Status HybridFramework::bootstrap() {
  // Resolve-or-create: when open_store() recovered a durable image the
  // standard resources already exist, and bootstrap() must adopt them
  // instead of failing on the duplicates (docs/persistence.md). The
  // flow is created last, so its presence implies the full set.
  if (auto team = jcf_.find_team("designers"); team.ok()) {
    team_ = *team;
    if (auto flow = jcf_.find_flow("asic_flow"); flow.ok()) {
      flow_ = *flow;
      return {};
    }
    return support::fail(Errc::consistency_violation,
                         "partial bootstrap image: team exists without asic_flow");
  }
  auto team = jcf_.create_team("designers");
  if (!team.ok()) return Status(team.error());
  team_ = *team;

  std::map<std::string, jcf::ViewTypeRef> vts;
  for (const auto& view : standard_views()) {
    auto vt = jcf_.create_viewtype(view);
    if (!vt.ok()) return Status(vt.error());
    vts[view] = *vt;
  }
  auto sch_tool = jcf_.register_tool("schematic_entry");
  auto sim_tool = jcf_.register_tool("digital_simulator");
  auto lay_tool = jcf_.register_tool("layout_editor");
  if (!sch_tool.ok() || !sim_tool.ok() || !lay_tool.ok()) {
    return support::fail(Errc::internal, "tool registration failed");
  }
  auto enter_sch = jcf_.create_activity("enter_schematic", *sch_tool, {}, {vts["schematic"]});
  if (!enter_sch.ok()) return Status(enter_sch.error());
  auto simulate =
      jcf_.create_activity("simulate", *sim_tool, {vts["schematic"]}, {vts["simulate"]});
  if (!simulate.ok()) return Status(simulate.error());
  auto enter_lay =
      jcf_.create_activity("enter_layout", *lay_tool, {vts["schematic"]}, {vts["layout"]});
  if (!enter_lay.ok()) return Status(enter_lay.error());

  auto flow = jcf_.create_flow("asic_flow", {*enter_sch, *simulate, *enter_lay});
  if (!flow.ok()) return Status(flow.error());
  if (auto st = jcf_.add_precedence(*flow, *enter_sch, *simulate); !st.ok()) return st;
  if (auto st = jcf_.add_precedence(*flow, *simulate, *enter_lay); !st.ok()) return st;
  if (auto st = jcf_.freeze_flow(*flow); !st.ok()) return st;
  flow_ = *flow;
  return {};
}

Result<jcf::UserRef> HybridFramework::add_designer(const std::string& name) {
  // Adopt a user recovered from the durable store rather than failing
  // on the duplicate; membership links are idempotent the same way.
  auto user = jcf_.find_user(name);
  if (!user.ok()) user = jcf_.create_user(name);
  if (!user.ok()) return user;
  auto member = jcf_.is_member(team_, *user);
  if (member.ok() && *member) return user;
  if (auto st = jcf_.add_member(team_, *user); !st.ok()) {
    return st.error();
  }
  return user;
}

Result<jcf::ActivityRef> HybridFramework::activity(const std::string& name) const {
  return jcf_.find_activity(name);
}

Result<jcf::FlowRef> HybridFramework::define_flow(
    const std::string& name, const std::vector<std::string>& activities,
    const std::vector<std::pair<std::string, std::string>>& order) {
  std::vector<jcf::ActivityRef> acts;
  for (const auto& act_name : activities) {
    auto act = jcf_.find_activity(act_name);
    if (!act.ok()) return act.error();
    acts.push_back(*act);
  }
  auto flow = jcf_.create_flow(name, acts);
  if (!flow.ok()) return flow;
  for (const auto& [before, after] : order) {
    auto b = jcf_.find_activity(before);
    auto a = jcf_.find_activity(after);
    if (!b.ok()) return b.error();
    if (!a.ok()) return a.error();
    if (auto st = jcf_.add_precedence(*flow, *b, *a); !st.ok()) {
      return st.error();
    }
  }
  if (auto st = jcf_.freeze_flow(*flow); !st.ok()) {
    return st.error();
  }
  return flow;
}

Status HybridFramework::set_cell_flow(const std::string& project, const std::string& cell,
                                      const std::string& flow_name) {
  const ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto jcf_cell = jcf_.find_cell(ctx->ref, cell);
  if (!jcf_cell.ok()) return Status(jcf_cell.error());
  auto cv = jcf_.latest_cell_version(*jcf_cell);
  if (!cv.ok()) return Status(cv.error());
  auto flow = jcf_.find_flow(flow_name);
  if (!flow.ok()) return Status(flow.error());
  return jcf_.override_flow(*cv, *flow);
}

Result<jcf::ProjectRef> HybridFramework::create_project(const std::string& name) {
  if (projects_.contains(name)) return support::fail(Errc::already_exists, "project " + name);
  // A recovered store already holds the JCF project; re-attach a fresh
  // slave library to it (the FMCAD side lives in this instance's file
  // system and is rebuilt on demand, docs/persistence.md).
  auto project = jcf_.find_project(name);
  if (!project.ok()) project = jcf_.create_project(name, team_);
  if (!project.ok()) return project;
  auto library = fmcad::Library::create(&fs_, &clock_, root_path("fmcad"), name);
  if (!library.ok()) return library.error();
  // Declare the standard views in the slave library (view name ==
  // viewtype name under the Table-1 mapping).
  fmcad::DesignerSession admin(*library, "jcf_admin");
  for (const auto& view : standard_views()) {
    auto tool = tools_.by_viewtype(view);
    if (auto st = admin.define_view(view, tool != nullptr ? tool->viewtype() : view); !st.ok()) {
      return st.error();
    }
  }
  ProjectCtx ctx;
  ctx.ref = *project;
  ctx.library = *library;
  projects_.emplace(name, std::move(ctx));
  return project;
}

std::shared_ptr<fmcad::Library> HybridFramework::library(const std::string& project) const {
  auto it = projects_.find(project);
  return it == projects_.end() ? nullptr : it->second.library;
}

HybridFramework::ProjectCtx* HybridFramework::project_ctx(const std::string& name) {
  auto it = projects_.find(name);
  return it == projects_.end() ? nullptr : &it->second;
}

const HybridFramework::ProjectCtx* HybridFramework::project_ctx(const std::string& name) const {
  auto it = projects_.find(name);
  return it == projects_.end() ? nullptr : &it->second;
}

fmcad::DesignerSession* HybridFramework::session_for(ProjectCtx& ctx, const std::string& user) {
  auto it = ctx.sessions.find(user);
  if (it == ctx.sessions.end()) {
    it = ctx.sessions
             .emplace(user, std::make_unique<fmcad::DesignerSession>(ctx.library, user))
             .first;
  }
  if (it->second->stale()) it->second->refresh();  // the wrapper keeps sessions fresh
  return it->second.get();
}

Status HybridFramework::create_cell(const std::string& project, const std::string& cell,
                                    jcf::UserRef creator) {
  ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  // Adopt a cell recovered from the durable store (version, variant and
  // flow state survived in the OMS); a genuine same-instance duplicate
  // still fails below when the FMCAD cell already exists.
  if (auto existing = jcf_.find_cell(ctx->ref, cell); !existing.ok()) {
    auto jcf_cell = jcf_.create_cell(ctx->ref, cell, flow_, team_);
    if (!jcf_cell.ok()) return Status(jcf_cell.error());
    auto cv = jcf_.create_cell_version(*jcf_cell, creator);
    if (!cv.ok()) return Status(cv.error());
    if (auto st = jcf_.reserve(*cv, creator); !st.ok()) return st;
    auto variant = jcf_.create_variant(*cv, "work", creator);
    if (!variant.ok()) return Status(variant.error());
    if (auto st = jcf_.publish(*cv, creator); !st.ok()) return st;
  }

  fmcad::DesignerSession* session = session_for(*ctx, "jcf_admin");
  if (auto st = session->create_cell(cell); !st.ok()) return st;
  for (const auto& view : standard_views()) {
    if (auto st = session->create_cellview({cell, view}); !st.ok()) return st;
  }
  return {};
}

Status HybridFramework::declare_child(const std::string& project, const std::string& parent,
                                      const std::string& child) {
  ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto parent_cell = jcf_.find_cell(ctx->ref, parent);
  if (!parent_cell.ok()) return Status(parent_cell.error());
  auto child_cell = jcf_.find_cell(ctx->ref, child);
  if (!child_cell.ok()) return Status(child_cell.error());
  auto parent_cv = jcf_.latest_cell_version(*parent_cell);
  if (!parent_cv.ok()) return Status(parent_cv.error());
  auto child_cv = jcf_.latest_cell_version(*child_cell);
  if (!child_cv.ok()) return Status(child_cv.error());
  return hierarchy_->declare(*parent_cv, *child_cv);
}

Status HybridFramework::share_cell(const std::string& to_project,
                                   const std::string& from_project, const std::string& cell) {
  if (!config_.allow_project_data_sharing) {
    return support::fail(Errc::not_supported,
                         "data sharing between projects is not yet possible in JCF or in "
                         "the combined framework (paper s3.1; enable "
                         "allow_project_data_sharing for the future-work extension)");
  }
  ProjectCtx* to = project_ctx(to_project);
  ProjectCtx* from = project_ctx(from_project);
  if (to == nullptr || from == nullptr) {
    return support::fail(Errc::not_found, "no such project");
  }
  auto jcf_cell = jcf_.find_cell(from->ref, cell);
  if (!jcf_cell.ok()) return Status(jcf_cell.error());
  return jcf_.share_cell(to->ref, *jcf_cell);
}

Result<std::unique_ptr<fmcad::ToolSession>> HybridFramework::open_viewer(
    const std::string& project, const std::string& cell, const std::string& view,
    jcf::UserRef user) {
  ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto uname = jcf_.name_of(user.id);
  if (!uname.ok()) return uname.error();
  fmcad::ToolInterface* tool = tools_.by_viewtype(view);
  if (tool == nullptr) return support::fail(Errc::not_found, "no FMCAD tool for viewtype " + view);
  // Browsing still pays the copy: the latest data leave OMS through the
  // transfer engine into the slave library before the window opens
  // (s3.6 applies to read-only access too).
  auto content = open_read_only(project, cell, view, user);
  if (!content.ok()) return content.error();
  fmcad::DesignerSession* session = session_for(*ctx, *uname);
  fmcad::CellViewKey key{cell, view};
  if (auto st = stage_default(*session, key, *content); !st.ok()) return st.error();
  auto viewer = std::make_unique<fmcad::ToolSession>(session, tool, &itc_, &interp_);
  if (auto st = viewer->open(key, /*read_only=*/true); !st.ok()) return st.error();
  return viewer;
}

Status HybridFramework::stage_default(fmcad::DesignerSession& session,
                                      const fmcad::CellViewKey& key, const std::string& text) {
  // A cellview without versions already agrees with empty text: the
  // tool opens an empty document either way.
  auto current = session.read_default(key);
  const bool same = current.ok() ? *current == text
                                 : text.empty() && current.error().code == Errc::not_found;
  if (same) return {};
  if (auto work = session.checkout(key); !work.ok()) return work.error();
  auto st = session.write_working(key, text);
  if (st.ok()) {
    auto version = session.checkin(key);
    if (version.ok()) return {};
    st = version.error();
  }
  (void)session.cancel_checkout(key);  // best effort; a run's guard retries it
  return st;
}

Result<std::string> HybridFramework::export_text(jcf::DovRef dov, jcf::UserRef user,
                                                 const std::string& scratch_name) {
  vfs::Path scratch = root_path("scratch").child(scratch_name);
  if (auto st = transfer_->export_dov(dov, user, scratch); !st.ok()) return st.error();
  auto text = fs_.read_file(scratch);
  (void)fs_.remove(scratch);
  return text;
}

// One activity run as a transaction (docs/fault-injection.md,
// "Failure-atomic activities"). Created right after start_activity; it
// also scopes the extension-language guard context. Unless commit() is
// reached, destruction undoes the run so JCF (master) and FMCAD (slave)
// agree again: the tool session is discarded, every FMCAD checkout the
// run opened is cancelled, a target the tool already checked in is
// re-staged from the variant's latest DOV, and the execution is
// aborted.
class HybridFramework::ActivityGuard {
 public:
  ActivityGuard(HybridFramework* hybrid, ProjectCtx* ctx, fmcad::DesignerSession* session,
                fmcad::ToolSession* tool, jcf::VariantRef variant, jcf::UserRef user,
                fmcad::CellViewKey target, ActivityRunReport* report)
      : hybrid_(hybrid), session_(session), tool_(tool), variant_(variant), user_(user),
        target_(std::move(target)), report_(report) {
    // Checkouts this user already held are not the run's to cancel.
    for (const auto& view : standard_views()) {
      if (held({target_.cell, view})) held_before_.insert(view);
    }
    hybrid_->guard_ctx_ = ctx;
    hybrid_->guard_cell_ = target_.cell;
    hybrid_->guard_run_log_ = &report->consistency_windows;
  }
  ActivityGuard(const ActivityGuard&) = delete;
  ActivityGuard& operator=(const ActivityGuard&) = delete;

  ~ActivityGuard() {
    hybrid_->guard_ctx_ = nullptr;
    hybrid_->guard_run_log_ = nullptr;
    if (committed_) return;
    static auto& rollbacks =
        telemetry::Registry::global().counter("coupling.activity.rollback.count");
    rollbacks.add(1);
    // Every undo step passes back through the fault hooks, so an undo
    // may draw a fault itself; each attempt draws fresh ordinals and the
    // steps are idempotent, so a bounded retry converges.
    for (int attempt = 0; attempt < 16; ++attempt) {
      if (undo().ok()) return;
    }
  }

  /// The FMCAD target := this variant's latest DOV, or empty text when
  /// the variant has none. The slave library is shared by all variants,
  /// so this seeds the tool and, after a failure, restores agreement.
  Status stage_target() {
    std::string text;
    auto dobj = hybrid_->jcf_.find_design_object(variant_, target_.view);
    if (dobj.ok()) {
      if (auto dov = hybrid_->jcf_.latest_dov(*dobj); dov.ok()) {
        auto exported = hybrid_->export_text(*dov, user_,
                                             "seed_" + target_.cell + "_" + target_.view);
        if (!exported.ok()) return exported.error();
        text = std::move(*exported);
      }
    }
    return hybrid_->stage_default(*session_, target_, text);
  }

  void commit() { committed_ = true; }

 private:
  bool held(const fmcad::CellViewKey& key) const {
    const auto* record = session_->library().meta().find_cellview(key);
    return record != nullptr && record->checkout && record->checkout->user == session_->user();
  }

  Status undo() {
    if (session_->stale()) session_->refresh();
    if (tool_->is_open()) {
      if (auto st = tool_->discard(); !st.ok()) return st;
    }
    for (const auto& view : standard_views()) {
      fmcad::CellViewKey key{target_.cell, view};
      if (held_before_.contains(view) || !held(key)) continue;
      if (auto st = session_->cancel_checkout(key); !st.ok()) return st;
    }
    // The tool's version reached FMCAD but not OMS.
    if (report_->fmcad_version != 0) {
      if (auto st = stage_target(); !st.ok()) return st;
    }
    auto state = hybrid_->jcf_.exec_state(report_->exec);
    if (state.ok() && *state == jcf::ExecState::running) {
      return hybrid_->jcf_.abort_activity(report_->exec);
    }
    return {};
  }

  HybridFramework* hybrid_;
  fmcad::DesignerSession* session_;
  fmcad::ToolSession* tool_;
  jcf::VariantRef variant_;
  jcf::UserRef user_;
  fmcad::CellViewKey target_;
  ActivityRunReport* report_;
  std::set<std::string> held_before_;
  bool committed_ = false;
};

Result<jcf::VariantRef> HybridFramework::work_variant(const std::string& project,
                                                      const std::string& cell) const {
  const ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto jcf_cell = jcf_.find_cell(ctx->ref, cell);
  if (!jcf_cell.ok()) return jcf_cell.error();
  auto cv = jcf_.latest_cell_version(*jcf_cell);
  if (!cv.ok()) return cv.error();
  auto variant = jcf_.find_variant(*cv, "work");
  if (variant.ok()) return variant;
  auto all = jcf_.variants(*cv);
  if (!all.ok() || all->empty()) {
    return support::fail(Errc::not_found, "cell " + cell + " has no variants");
  }
  return all->front();
}

Status HybridFramework::reserve_cell(const std::string& project, const std::string& cell,
                                     jcf::UserRef user) {
  const ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto jcf_cell = jcf_.find_cell(ctx->ref, cell);
  if (!jcf_cell.ok()) return Status(jcf_cell.error());
  auto cv = jcf_.latest_cell_version(*jcf_cell);
  if (!cv.ok()) return Status(cv.error());
  return jcf_.reserve(*cv, user);
}

Status HybridFramework::publish_cell(const std::string& project, const std::string& cell,
                                     jcf::UserRef user) {
  const ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto jcf_cell = jcf_.find_cell(ctx->ref, cell);
  if (!jcf_cell.ok()) return Status(jcf_cell.error());
  auto cv = jcf_.latest_cell_version(*jcf_cell);
  if (!cv.ok()) return Status(cv.error());
  return jcf_.publish(*cv, user);
}

Status HybridFramework::create_variant(const std::string& project, const std::string& cell,
                                       const std::string& variant_name, jcf::UserRef user) {
  const ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto jcf_cell = jcf_.find_cell(ctx->ref, cell);
  if (!jcf_cell.ok()) return Status(jcf_cell.error());
  auto cv = jcf_.latest_cell_version(*jcf_cell);
  if (!cv.ok()) return Status(cv.error());
  auto variant = jcf_.create_variant(*cv, variant_name, user);
  return variant.ok() ? Status{} : Status(variant.error());
}

Result<ActivityRunReport> HybridFramework::run_activity(const std::string& project,
                                                        const std::string& cell,
                                                        const std::string& activity_name,
                                                        jcf::UserRef user,
                                                        const std::vector<ToolCommand>& edits,
                                                        bool force) {
  ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto variant = work_variant(project, cell);
  if (!variant.ok()) return variant.error();
  return run_activity_on(ctx, *variant, cell, activity_name, user, edits, force);
}

Result<ActivityRunReport> HybridFramework::run_activity_in_variant(
    const std::string& project, const std::string& cell, const std::string& variant_name,
    const std::string& activity_name, jcf::UserRef user, const std::vector<ToolCommand>& edits,
    bool force) {
  ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto jcf_cell = jcf_.find_cell(ctx->ref, cell);
  if (!jcf_cell.ok()) return jcf_cell.error();
  auto cv = jcf_.latest_cell_version(*jcf_cell);
  if (!cv.ok()) return cv.error();
  auto variant = jcf_.find_variant(*cv, variant_name);
  if (!variant.ok()) return variant.error();
  return run_activity_on(ctx, *variant, cell, activity_name, user, edits, force);
}

Result<ActivityRunReport> HybridFramework::run_activity_on(
    ProjectCtx* ctx, jcf::VariantRef variant, const std::string& cell,
    const std::string& activity_name, jcf::UserRef user, const std::vector<ToolCommand>& edits,
    bool force) {
  JFM_SPAN("coupling", "run_activity");
  const auto run_started = std::chrono::steady_clock::now();
  static auto& runs = telemetry::Registry::global().counter("coupling.activity.run.count");
  static auto& run_micros =
      telemetry::Registry::global().latency_histogram("coupling.activity.run.micros");
  runs.add(1);
  struct RunTimer {
    std::chrono::steady_clock::time_point start;
    telemetry::Histogram* hist;
    ~RunTimer() {
      hist->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
  } run_timer{run_started, &run_micros};
  auto uname = jcf_.name_of(user.id);
  if (!uname.ok()) return uname.error();
  auto act = jcf_.find_activity(activity_name);
  if (!act.ok()) return act.error();
  auto creates = jcf_.activity_creates(*act);
  if (!creates.ok() || creates->empty()) {
    return support::fail(Errc::internal, "activity creates no viewtype");
  }
  auto target_view = jcf_.name_of(creates->front().id);
  if (!target_view.ok()) return target_view.error();
  fmcad::ToolInterface* tool = tools_.by_viewtype(*target_view);
  if (tool == nullptr) {
    return support::fail(Errc::not_found, "no FMCAD tool for viewtype " + *target_view);
  }

  ActivityRunReport report;

  // Forced execution shows the s2.4 consistency window instead of a
  // hard flow stop.
  if (force) {
    auto cv = jcf_.cell_version_of(variant);
    if (cv.ok()) {
      auto flow = jcf_.effective_flow(*cv);
      if (flow.ok()) {
        auto preds = jcf_.predecessors(*flow, *act);
        if (preds.ok()) {
          for (auto pred : *preds) {
            auto progress = jcf_.activity_progress(variant, pred);
            if (progress.ok() && *progress != jcf::ActivityProgress::done) {
              auto pname = jcf_.name_of(pred.id);
              show_window("activity " + activity_name + " started although predecessor " +
                              (pname.ok() ? *pname : "?") + " has not finished",
                          &report.consistency_windows);
            }
          }
        }
      }
    }
  }

  auto exec = jcf_.start_activity(variant, *act, user, force);
  if (!exec.ok()) return exec.error();
  report.exec = *exec;
  fmcad::DesignerSession* session = session_for(*ctx, *uname);
  const fmcad::CellViewKey target{cell, *target_view};
  fmcad::ToolSession tool_session(session, tool, &itc_, &interp_);
  // From here on every return other than the last undoes the run.
  ActivityGuard guard(this, ctx, session, &tool_session, variant, user, target, &report);
  const auto transfer_before = transfer_->stats_snapshot();

  // ---- copy required data from OMS into the slave library -----------------
  auto inputs = jcf_.exec_inputs(*exec);
  if (!inputs.ok()) return inputs.error();
  for (auto input : *inputs) {
    auto dobj = jcf_.design_object_of(input);
    if (!dobj.ok()) return dobj.error();
    auto view_name = jcf_.name_of(dobj->id);
    if (!view_name.ok()) return view_name.error();
    auto staged = export_text(input, user, "in_" + cell + "_" + *view_name);
    if (!staged.ok()) return staged.error();
    if (auto st = stage_default(*session, {cell, *view_name}, *staged); !st.ok()) {
      return st.error();
    }
  }
  if (tool == sim_tool_.get()) {
    // The simulator reads its design data out of the master's database.
    sim_tool_->set_resolver(make_jcf_resolver(&jcf_, ctx->ref, user));
  }

  // ---- seed the target cellview from THIS variant's state -----------------
  // Whatever ran last left its data in the shared slave library; JCF is
  // the master, so the tool starts from this variant's own latest
  // design object version (or from emptiness if it has none yet).
  if (auto st = guard.stage_target(); !st.ok()) return st.error();

  // ---- open the encapsulated tool and replay the edits ---------------------
  if (auto st = tool_session.open(target, /*read_only=*/false); !st.ok()) return st.error();
  // Lock the menu points whose effects JCF could not track (s2.4).
  (void)tool_session.set_menu_enabled("Hierarchy", "Remove Instance",
                                      config_.procedural_hierarchy_interface);
  ui_burden_.menu_items = tool_session.menu_item_count(false);
  ui_burden_.locked_items =
      tool_session.menu_item_count(false) - tool_session.menu_item_count(true);
  ui_burden_.desktops = 2;

  for (const auto& edit : edits) {
    Status st;
    if (edit.command == "add-instance") {
      st = tool_session.invoke_menu("Hierarchy", "Add Instance", edit.args);
    } else if (edit.command == "remove-instance") {
      st = tool_session.invoke_menu("Hierarchy", "Remove Instance", edit.args);
    } else {
      st = tool_session.edit(edit.command, edit.args);
    }
    if (!st.ok()) return st.error();
  }

  // ---- hierarchy consistency before the data leave the tool ---------------
  // Only structural views carry hierarchy; the simulator's uses-list is
  // a DUT *reference*, not a CompOf relation. document() serializes the
  // edits once; the checkin below writes that same envelope.
  if (tool != sim_tool_.get()) {
    if (auto st = hierarchy_->admit(*ctx->library, ctx->ref, tool_session.document(),
                                    structural_views());
        !st.ok()) {
      show_window(st.error().message, &report.consistency_windows);
      return st.error();
    }
  }

  // ---- save, check in, copy the result back into OMS ----------------------
  auto version = tool_session.checkin();
  if (!version.ok()) return version.error();
  report.fmcad_version = *version;

  const auto* record = ctx->library->meta().find_cellview(target);
  const auto* vinfo = record != nullptr ? record->version(*version) : nullptr;
  if (vinfo == nullptr) return support::fail(Errc::internal, "checked-in version vanished");
  auto dobj = jcf_.find_design_object(variant, *target_view);
  if (!dobj.ok()) {
    dobj = jcf_.create_design_object(variant, *target_view, creates->front(), user);
    if (!dobj.ok()) return dobj.error();
  }
  auto dov = transfer_->import_file(ctx->library->cellview_dir(target).child(vinfo->file),
                                    *dobj, user);
  if (!dov.ok()) return dov.error();
  report.output = *dov;

  if (auto st = jcf_.complete_activity(*exec, {*dov}); !st.ok()) return st.error();
  guard.commit();

  const auto transfer_after = transfer_->stats_snapshot();
  report.bytes_exported = transfer_after.bytes_exported - transfer_before.bytes_exported;
  report.bytes_imported = transfer_after.bytes_imported - transfer_before.bytes_imported;
  return report;
}

Result<std::string> HybridFramework::open_read_only(const std::string& project,
                                                    const std::string& cell,
                                                    const std::string& view, jcf::UserRef user) {
  auto variant = work_variant(project, cell);
  if (!variant.ok()) return variant.error();
  auto dobj = jcf_.find_design_object(*variant, view);
  if (!dobj.ok()) return dobj.error();
  auto dov = jcf_.latest_dov(*dobj);
  if (!dov.ok()) return dov.error();
  JFM_SPAN("coupling", "open_read_only");
  // Even a read-only access copies the data out of the database and
  // through the file system (s3.6).
  vfs::Path scratch = root_path("scratch").child("ro_" + cell + "_" + view);
  if (auto st = transfer_->export_dov(*dov, user, scratch); !st.ok()) {
    return st.error();
  }
  auto content = fs_.read_file(scratch);
  // With the cache on, the materialized file IS the cache body for the
  // next open of this version; without it, mimic the paper and clean up.
  if (!config_.content_addressed_cache) (void)fs_.remove(scratch);
  return content;
}

Result<HybridFramework::CheckoutReport> HybridFramework::checkout_hierarchy(
    const std::string& project, const std::string& root_cell, jcf::UserRef user,
    const vfs::Path& dst_dir, std::size_t workers, std::uint64_t timeout_us) {
  return checkout_sync(project, root_cell, user, dst_dir, workers, timeout_us,
                       /*allow_incremental=*/true);
}

Result<HybridFramework::CheckoutReport> HybridFramework::checkout_hierarchy_full(
    const std::string& project, const std::string& root_cell, jcf::UserRef user,
    const vfs::Path& dst_dir, std::size_t workers, std::uint64_t timeout_us) {
  return checkout_sync(project, root_cell, user, dst_dir, workers, timeout_us,
                       /*allow_incremental=*/false);
}

std::map<std::string, HybridFramework::CheckoutCursor> HybridFramework::checkout_cursors()
    const {
  std::lock_guard<std::mutex> lock(cursors_mu_);
  return cursors_;
}

Result<HybridFramework::CheckoutReport> HybridFramework::checkout_sync(
    const std::string& project, const std::string& root_cell, jcf::UserRef user,
    const vfs::Path& dst_dir, std::size_t workers, std::uint64_t timeout_us,
    bool allow_incremental) {
  JFM_SPAN("coupling", "checkout_hierarchy");
  const ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto root = jcf_.find_cell(ctx->ref, root_cell);
  if (!root.ok()) return root.error();
  if (auto st = fs_.mkdirs(dst_dir); !st.ok()) return st.error();

  // Snapshot both epochs BEFORE enumerating anything: a mutation that
  // slips in after the snapshot is re-examined by the next sync (the
  // cursor only advances to the snapshot), so the delta protocol is
  // at-least-once and never loses a change.
  const std::string cursor_key = project + "|" + root_cell + "|user#" +
                                 std::to_string(user.id.raw()) + "|" + dst_dir.str();
  const std::uint64_t store_epoch_now = jcf_.store().epoch();
  const std::uint64_t structure_now = jcf_.structure_epoch();
  std::optional<CheckoutCursor> cursor;
  {
    std::lock_guard<std::mutex> lock(cursors_mu_);
    if (auto it = cursors_.find(cursor_key); it != cursors_.end()) cursor = it->second;
  }
  // Cursor invalidation (docs/incremental-checkout.md): fall back to
  // the full walk on the first sync, after any hierarchy-shape change,
  // and when the cursor claims an epoch the store has never reached (a
  // restore reset the epoch history).
  const bool incremental = allow_incremental && cursor.has_value() &&
                           cursor->structure_epoch == structure_now &&
                           cursor->epoch <= store_epoch_now;

  std::vector<ExportRequest> requests;
  std::vector<std::string> labels;
  CheckoutReport report;
  report.incremental = incremental;
  if (incremental) {
    // O(changed): the request list comes from the change feed alone --
    // no project->cell->version->DOV walk, no per-cellview lock or
    // cache probe for unchanged subtrees.
    JFM_SPAN("coupling", "checkout_delta");
    const auto feed = jcf_.dovs_changed_since(cursor->epoch);
    report.feed_size = feed.size();
    // Membership in the root's CompOf closure, resolved UPWARD from
    // the changed cell with memoization: the downward walk visits a
    // cell when some ancestor chain of latest cell versions leads to
    // the root, so the probe follows parents() and only accepts
    // parents that are their cell's latest version.
    std::map<std::uint64_t, bool> member_memo;
    auto in_subtree = [&](jcf::CellRef cell, auto&& self) -> bool {
      if (cell == *root) return true;
      if (auto it = member_memo.find(cell.id.raw()); it != member_memo.end()) {
        return it->second;
      }
      member_memo[cell.id.raw()] = false;  // cycle guard; CompOf is acyclic anyway
      bool found = false;
      auto cvs = jcf_.cell_versions(cell);
      if (cvs.ok()) {
        for (auto cv : *cvs) {
          auto parents = jcf_.parents(cv);
          if (!parents.ok()) continue;
          for (auto parent : *parents) {
            auto parent_cell = jcf_.cell_of(parent);
            if (!parent_cell.ok()) continue;
            auto parent_latest = jcf_.latest_cell_version(*parent_cell);
            if (!parent_latest.ok() || !(*parent_latest == parent)) continue;
            if (self(*parent_cell, self)) {
              found = true;
              break;
            }
          }
          if (found) break;
        }
      }
      member_memo[cell.id.raw()] = found;
      return found;
    };
    const auto& views = standard_views();
    std::set<std::uint64_t> dobjs_seen;
    std::set<std::string> delta_cells;
    for (const auto& change : feed) {
      // Several feed rows may map to one design object (a new DOV
      // stamps the superseded predecessor too); each dobj resolves to
      // at most one request, always for its latest version.
      if (!dobjs_seen.insert(change.dobj.id.raw()).second) continue;
      auto view = jcf_.name_of(change.dobj);
      if (!view.ok() || std::find(views.begin(), views.end(), *view) == views.end()) continue;
      auto variant = jcf_.variant_of(change.dobj);
      if (!variant.ok()) continue;
      auto cv = jcf_.cell_version_of(*variant);
      if (!cv.ok()) continue;
      auto cell = jcf_.cell_of(*cv);
      if (!cell.ok()) continue;
      auto cell_name = jcf_.name_of(cell->id);
      if (!cell_name.ok()) continue;
      // Only the work variant of the cell's latest version is checked
      // out; data in other variants/versions never reaches dst.
      auto work = work_variant(project, *cell_name);
      if (!work.ok() || !(*work == *variant)) continue;
      if (!in_subtree(*cell, in_subtree)) continue;
      auto dov = jcf_.latest_dov(change.dobj);
      if (!dov.ok()) continue;
      requests.push_back({*dov, user, dst_dir.child(*cell_name + "_" + *view)});
      labels.push_back(*cell_name + "/" + *view);
      delta_cells.insert(*cell_name);
    }
    report.cells = delta_cells.size();
    // Everything the cursor knows about and the delta does not touch
    // is skipped outright -- before any lock or cache probe.
    for (const auto& known : cursor->known) {
      if (std::find(labels.begin(), labels.end(), known) == labels.end()) ++report.skipped;
    }
  } else {
    // Full walk: collect the CompOf closure -- root cell + transitive
    // children, each cell once (diamonds are legal in the hierarchy).
    std::vector<std::string> cells;
    JFM_SPAN("coupling", "hierarchy_closure");
    std::set<std::string> seen;
    std::vector<jcf::CellRef> frontier{*root};
    while (!frontier.empty()) {
      jcf::CellRef cell = frontier.back();
      frontier.pop_back();
      auto name = jcf_.name_of(cell.id);
      if (!name.ok() || !seen.insert(*name).second) continue;
      cells.push_back(*name);
      auto cv = jcf_.latest_cell_version(cell);
      if (!cv.ok()) continue;
      auto kids = jcf_.children(*cv);
      if (!kids.ok()) continue;
      for (auto kid : *kids) {
        auto kid_cell = jcf_.cell_of(kid);
        if (kid_cell.ok()) frontier.push_back(*kid_cell);
      }
    }

    report.cells = cells.size();
    // The view list is identical for every cell; enumerate it once.
    const auto& views = standard_views();
    for (const auto& cell : cells) {
      auto variant = work_variant(project, cell);
      if (!variant.ok()) continue;
      for (const auto& view : views) {
        auto dobj = jcf_.find_design_object(*variant, view);
        if (!dobj.ok()) continue;
        auto dov = jcf_.latest_dov(*dobj);
        if (!dov.ok()) continue;  // view declared but never populated
        requests.push_back({*dov, user, dst_dir.child(cell + "_" + view)});
        labels.push_back(cell + "/" + view);
      }
    }
  }
  report.requested = requests.size();
  static auto& checkouts =
      telemetry::Registry::global().counter("coupling.checkout.count");
  static auto& checkout_cells =
      telemetry::Registry::global().counter("coupling.checkout.cells.count");
  static auto& checkout_files =
      telemetry::Registry::global().counter("coupling.checkout.files.count");
  static auto& checkout_skipped =
      telemetry::Registry::global().counter("coupling.checkout.skipped.count");
  static auto& checkout_incremental =
      telemetry::Registry::global().counter("coupling.checkout.incremental.count");
  checkouts.add(1);
  checkout_cells.add(report.cells);
  checkout_files.add(report.requested);
  checkout_skipped.add(report.skipped);
  if (report.incremental) checkout_incremental.add(1);

  // Phase 1 (journal): capture the pre-image of every destination this
  // batch may touch, BEFORE any byte moves. Three cases per item:
  //   * peek_cached true -- the export is a guaranteed cache hit and
  //     cannot change dst; no journal entry, no byte traffic. This is
  //     the whole warm path: a repeat checkout journals nothing.
  //   * dst absent -- journal "remove on rollback" (an exists() probe,
  //     no byte traffic).
  //   * dst present and not guaranteed unchanged -- journal its bytes.
  // A capture failure aborts the checkout before anything mutated, so
  // the pre-state trivially survives.
  // Pre-images are extents: read_extent pins the destination's current
  // payload buffer with a refcount bump instead of copying it, and the
  // buffer is immutable, so the journal stays bit-correct no matter
  // what the batch overwrites -- a later write_extent/write_file on the
  // destination installs a NEW buffer, it never touches the pinned one.
  // Under COW a journal capture therefore moves zero physical bytes;
  // the ablation behaves the same here (the pin is a read, not a copy)
  // and pays its physical duplication on the rollback write instead.
  struct JournalEntry {
    vfs::Path path;
    bool existed = false;
    vfs::Extent pre_image;
  };
  std::vector<JournalEntry> journal;
  {
    JFM_SPAN("coupling", "checkout_journal");
    // Captures are pure reads (peek / exists / extent pin), so they fan
    // out on the shared executor. Per-index slots compacted in request
    // order keep the journal -- and therefore the rollback replay --
    // byte-identical across worker counts; the lowest-index failure
    // aborts the checkout.
    std::vector<std::optional<JournalEntry>> slots(requests.size());
    auto captured = support::executor::Executor::global().parallel_for(
        requests.size(), workers, [&](std::size_t i) -> Status {
          const ExportRequest& req = requests[i];
          if (transfer_->peek_cached(req.dov, req.dst)) return {};
          JournalEntry entry{req.dst, fs_.exists(req.dst), {}};
          if (entry.existed) {
            auto pre = fs_.read_extent(req.dst);
            if (!pre.ok()) return Status(pre.error());
            entry.pre_image = std::move(*pre);
          }
          slots[i] = std::move(entry);
          return {};
        });
    if (!captured.ok()) return captured.error();
    journal.reserve(slots.size());
    for (auto& slot : slots) {
      if (slot) journal.push_back(std::move(*slot));
    }
  }

  // Phase 2: run the batch; on ANY failure replay the journal so the
  // checkout is all-or-nothing.
  const TransferStats before = transfer_->stats_snapshot();
  auto statuses = transfer_->export_batch(requests, workers, timeout_us);
  const TransferStats after = transfer_->stats_snapshot();
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) {
      ++report.exported;
    } else {
      report.failures.push_back(labels[i] + ": " + statuses[i].error().to_text());
    }
  }
  report.bytes_exported = after.bytes_exported - before.bytes_exported;
  report.bytes_exported_physical =
      after.bytes_exported_physical - before.bytes_exported_physical;
  report.cache_hits = after.cache_hits - before.cache_hits;
  report.retries = after.retries - before.retries;
  report.timeouts = after.timeouts - before.timeouts;

  if (!report.failures.empty()) {
    JFM_SPAN("coupling", "checkout_rollback");
    static auto& rollbacks =
        telemetry::Registry::global().counter("coupling.checkout.rollback.count");
    static auto& restored_files =
        telemetry::Registry::global().counter("coupling.checkout.rollback.restored.count");
    rollbacks.add(1);
    report.rolled_back = true;
    // Restore in reverse capture order. Each restore write passes back
    // through the vfs fault hooks, so under injection the rollback
    // itself may draw faults -- every attempt draws a fresh ordinal, so
    // a bounded retry converges (p^16 at fault rate p). remove() has no
    // fault hook and cannot fail on an existing path.
    for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
      if (!it->existed) {
        if (fs_.exists(it->path)) (void)fs_.remove(it->path);
        ++report.restored;
        restored_files.add(1);
        continue;
      }
      Status st;
      for (int attempt = 0; attempt < 16; ++attempt) {
        st = fs_.write_extent(it->path, it->pre_image);
        if (st.ok()) break;
      }
      if (!st.ok()) {
        return support::fail(Errc::internal,
                             "checkout rollback could not restore " + it->path.str() + ": " +
                                 st.error().to_text());
      }
      ++report.restored;
      restored_files.add(1);
    }
  }

  if (report.failures.empty()) {
    // Advance the cursor only on clean success: a rolled-back delta
    // leaves it unmoved, so the next sync re-derives the same delta
    // (plus anything newer) and retries it.
    std::lock_guard<std::mutex> lock(cursors_mu_);
    CheckoutCursor& cur = cursors_[cursor_key];
    cur.epoch = store_epoch_now;
    cur.structure_epoch = structure_now;
    if (report.incremental) {
      cur.known.insert(labels.begin(), labels.end());
      ++cur.incremental_syncs;
    } else {
      cur.known = std::set<std::string>(labels.begin(), labels.end());
      cur.cells = report.cells;
    }
    ++cur.syncs;
    cur.last_feed = report.feed_size;
    cur.last_skipped = report.skipped;
  }
  return report;
}

Result<tools::LvsReport> HybridFramework::run_lvs(const std::string& project,
                                                  const std::string& cell, jcf::UserRef user) {
  auto read_view = [&](const std::string& view) -> Result<std::string> {
    return open_read_only(project, cell, view, user);
  };
  auto sch_text = read_view("schematic");
  if (!sch_text.ok()) return sch_text.error();
  auto lay_text = read_view("layout");
  if (!lay_text.ok()) return lay_text.error();
  auto sch_file = fmcad::DesignFile::parse(*sch_text);
  if (!sch_file.ok()) return sch_file.error();
  auto lay_file = fmcad::DesignFile::parse(*lay_text);
  if (!lay_file.ok()) return lay_file.error();
  auto schematic = tools::Schematic::parse(sch_file->payload);
  if (!schematic.ok()) return schematic.error();
  auto layout = tools::Layout::parse(lay_file->payload);
  if (!layout.ok()) return layout.error();
  return tools::lvs_compare(*schematic, *layout);
}

Result<tools::TimingReport> HybridFramework::report_timing(const std::string& project,
                                                           const std::string& cell,
                                                           jcf::UserRef user,
                                                           std::string* path_text) {
  const ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  auto resolver = make_jcf_resolver(&jcf_, ctx->ref, user);
  auto top = resolver({cell, "schematic"});
  if (!top.ok()) return top.error();
  auto circuit = tools::elaborate(*top, cell, resolver);
  if (!circuit.ok()) return circuit.error();
  auto report = tools::analyze_timing(*circuit);
  if (report.ok() && path_text != nullptr) *path_text = report->describe(*circuit);
  return report;
}

Result<std::vector<std::string>> HybridFramework::derivation_report(const std::string& project,
                                                                    const std::string& cell) {
  auto variant = work_variant(project, cell);
  if (!variant.ok()) return variant.error();
  std::vector<std::string> rows;
  auto dobjs = jcf_.design_objects(*variant);
  if (!dobjs.ok()) return dobjs.error();
  for (auto dobj : *dobjs) {
    auto dname = jcf_.name_of(dobj.id);
    if (!dname.ok()) continue;
    auto dovs = jcf_.dov_versions(dobj);
    if (!dovs.ok()) continue;
    for (auto dov : *dovs) {
      auto n = jcf_.dov_number(dov);
      auto sources = jcf_.derivation_sources(dov);
      if (!n.ok() || !sources.ok()) continue;
      for (auto src : *sources) {
        auto src_dobj = jcf_.design_object_of(src);
        if (!src_dobj.ok()) continue;
        auto src_name = jcf_.name_of(src_dobj->id);
        auto src_n = jcf_.dov_number(src);
        if (!src_name.ok() || !src_n.ok()) continue;
        rows.push_back(*dname + " v" + std::to_string(*n) + " <- " + *src_name + " v" +
                       std::to_string(*src_n));
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

Result<std::vector<std::string>> HybridFramework::check_consistency(const std::string& project) {
  const ProjectCtx* ctx = project_ctx(project);
  if (ctx == nullptr) return support::fail(Errc::not_found, "project " + project);
  return jcf_.check_consistency(ctx->ref);
}

}  // namespace jfm::coupling
