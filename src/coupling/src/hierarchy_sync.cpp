#include "jfm/coupling/hierarchy_sync.hpp"

#include <algorithm>

#include "jfm/support/strings.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::coupling {

using support::Errc;
using support::Result;
using support::Status;

namespace {
// Registry mirror of HierarchyStats; counters are process-wide.
support::telemetry::Counter& hier_counter(const char* which) {
  return support::telemetry::Registry::global().counter(
      std::string("coupling.hierarchy.") + which + ".count");
}

/// The direct child cells a design file instantiates.
std::set<std::string> child_set(const fmcad::DesignFile& doc) {
  std::set<std::string> cells;
  for (const auto& use : doc.uses) cells.insert(use.cell);
  return cells;
}

/// Child set of the default version of `key`; empty when the cellview
/// does not exist, has no version yet or its default version is empty
/// text (a rolled-back run re-stages that for a variant without a DOV;
/// tools open it as an empty document). A version that cannot be read,
/// or non-empty text that does not parse, is an error.
Result<std::set<std::string>> default_children(fmcad::Library& library,
                                               const fmcad::CellViewKey& key) {
  const auto* record = library.meta().find_cellview(key);
  const auto* version = record != nullptr ? record->default_version() : nullptr;
  if (version == nullptr) return std::set<std::string>{};
  auto text = library.fs().read_file(library.cellview_dir(key).child(version->file));
  if (!text.ok()) return text.error();
  if (text->empty()) return std::set<std::string>{};
  auto file = fmcad::DesignFile::parse(*text);
  if (!file.ok()) return file.error();
  return child_set(*file);
}
}  // namespace

Result<jcf::CellVersionRef> HierarchySubmitter::latest_cv(jcf::ProjectRef project,
                                                          const std::string& cell) const {
  auto jcf_cell = jcf_->find_cell(project, cell);
  if (!jcf_cell.ok()) return jcf_cell.error();
  return jcf_->latest_cell_version(*jcf_cell);
}

Status HierarchySubmitter::add_children(jcf::CellVersionRef parent, jcf::ProjectRef project,
                                        const std::vector<std::string>& child_cells) {
  for (const auto& child : child_cells) {
    auto child_cv = latest_cv(project, child);
    if (!child_cv.ok()) {
      return support::fail(Errc::consistency_violation,
                           "hierarchy submission: child cell " + child +
                               " must be defined in JCF before the design starts");
    }
    // Already declared? CompOf is idempotent here.
    auto existing = jcf_->children(parent);
    bool present = existing.ok() && std::find(existing->begin(), existing->end(), *child_cv) !=
                                        existing->end();
    if (present) continue;
    if (!procedural_interface_) {
      // Manual mode: the designer walks to the JCF desktop for every
      // relation (paper s3.3: "all hierarchical manipulations must be
      // done manually via the JCF desktop").
      ++stats_.desktop_steps;
      hier_counter("desktop_step").add(1);
    }
    if (auto st = jcf_->add_child(parent, *child_cv); !st.ok()) return st;
    ++stats_.relations_submitted;
    hier_counter("relation_submitted").add(1);
  }
  return {};
}

Status HierarchySubmitter::submit(fmcad::Library& library, const fmcad::CellViewKey& root,
                                  jcf::ProjectRef project) {
  auto child_cells = default_children(library, root);
  if (!child_cells.ok()) return child_cells.error();
  auto parent_cv = latest_cv(project, root.cell);
  if (!parent_cv.ok()) {
    return support::fail(Errc::consistency_violation,
                         "hierarchy submission: parent cell " + root.cell +
                             " is not registered in JCF: " + parent_cv.error().message);
  }
  if (procedural_interface_) {
    ++stats_.procedural_calls;
    hier_counter("procedural_call").add(1);
  }
  return add_children(*parent_cv, project, {child_cells->begin(), child_cells->end()});
}

Status HierarchySubmitter::declare(jcf::CellVersionRef parent, jcf::CellVersionRef child) {
  ++stats_.desktop_steps;
  hier_counter("desktop_step").add(1);
  if (auto st = jcf_->add_child(parent, child); !st.ok()) return st;
  ++stats_.relations_submitted;
  hier_counter("relation_submitted").add(1);
  return {};
}

Status HierarchySubmitter::submit_children(jcf::ProjectRef project,
                                           const std::string& parent_cell,
                                           const std::vector<std::string>& child_cells) {
  if (!procedural_interface_) {
    return support::fail(Errc::not_supported,
                         "JCF 3.0 has no procedural hierarchy interface (future work)");
  }
  auto parent_cv = latest_cv(project, parent_cell);
  if (!parent_cv.ok()) return parent_cv.error();
  ++stats_.procedural_calls;
  hier_counter("procedural_call").add(1);
  return add_children(*parent_cv, project, child_cells);
}

std::set<std::string> HierarchySubmitter::declared_children(jcf::ProjectRef project,
                                                            const std::string& cell) const {
  std::set<std::string> declared;
  auto cv = latest_cv(project, cell);
  if (!cv.ok()) return declared;
  auto kids = jcf_->children(*cv);
  if (!kids.ok()) return declared;
  for (auto kid : *kids) {
    auto kid_cell = jcf_->cell_of(kid);
    if (!kid_cell.ok()) continue;
    auto name = jcf_->name_of(kid_cell->id);
    if (name.ok()) declared.insert(*name);
  }
  return declared;
}

std::vector<std::string> HierarchySubmitter::undeclared_children(
    jcf::ProjectRef project, const fmcad::DesignFile& doc) const {
  std::vector<std::string> missing;
  if (doc.uses.empty()) return missing;
  const auto declared = declared_children(project, doc.cell);
  for (const auto& child : child_set(doc)) {
    if (!declared.contains(child)) missing.push_back(child);
  }
  return missing;
}

Status HierarchySubmitter::check_isomorphic(fmcad::Library& library,
                                            const fmcad::DesignFile& doc,
                                            const std::vector<std::string>& views) {
  if (allow_non_isomorphic_) return {};  // future JCF releases support this
  const auto children = child_set(doc);
  if (children.empty()) return {};
  for (const auto& view : views) {
    if (view == doc.view) continue;
    auto other = default_children(library, {doc.cell, view});
    if (!other.ok()) return other.error();
    if (other->empty()) continue;  // no data, or hierarchy not entered yet
    if (*other != children) {
      ++stats_.non_isomorphic_rejections;
      hier_counter("non_isomorphic_rejection").add(1);
      return support::fail(Errc::not_supported,
                           "non-isomorphic hierarchies between " + doc.view + " and " + view +
                               " of " + doc.cell + " (not supported by JCF 3.0)");
    }
  }
  return {};
}

Status HierarchySubmitter::admit(fmcad::Library& library, jcf::ProjectRef project,
                                 const fmcad::DesignFile& doc,
                                 const std::vector<std::string>& views) {
  auto undeclared = undeclared_children(project, doc);
  if (!undeclared.empty()) {
    if (!procedural_interface_) {
      return support::fail(Errc::consistency_violation,
                           "hierarchy of " + doc.cell + "/" + doc.view +
                               " uses undeclared children " + support::join(undeclared, ", ") +
                               "; submit them via the JCF desktop first");
    }
    if (auto st = submit_children(project, doc.cell, undeclared); !st.ok()) return st;
  }
  return check_isomorphic(library, doc, views);
}

}  // namespace jfm::coupling
