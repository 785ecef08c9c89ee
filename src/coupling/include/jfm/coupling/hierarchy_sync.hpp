#pragma once
// Hierarchy handling in the hybrid framework (paper s2.3 / s3.3).
//
// FMCAD keeps hierarchy inside design files; JCF keeps it as CompOf
// metadata that "must be submitted manually via the JCF desktop" before
// design starts. This component implements both:
//  * manual mode (the paper's prototype): each parent->child relation
//    costs one desktop step, counted in the stats;
//  * procedural mode (the paper's future work): a procedural interface
//    tools use to pass hierarchy information to JCF in bulk.
//
// It also owns the two rules the activity wrapper applies to a
// structural document before it leaves the tool (admit()): children
// JCF has not declared are submitted or refused, and non-isomorphic
// hierarchies (schematic vs layout structure differing) are rejected
// with Errc::not_supported unless `allow_non_isomorphic` models a
// future JCF release.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "jfm/fmcad/hierarchy.hpp"
#include "jfm/jcf/framework.hpp"

namespace jfm::coupling {

struct HierarchyStats {
  std::uint64_t desktop_steps = 0;       ///< manual submissions performed
  std::uint64_t procedural_calls = 0;    ///< bulk submissions
  std::uint64_t relations_submitted = 0;
  std::uint64_t non_isomorphic_rejections = 0;
};

class HierarchySubmitter {
 public:
  HierarchySubmitter(jcf::JcfFramework* jcf, bool procedural_interface,
                     bool allow_non_isomorphic)
      : jcf_(jcf),
        procedural_interface_(procedural_interface),
        allow_non_isomorphic_(allow_non_isomorphic) {}

  /// Extract the direct children of (cell, view) from the FMCAD design
  /// file and submit the parent->child relations to JCF's CompOf
  /// metadata. `project` supplies the JCF cells; children must already
  /// have cell versions ("defined and passed to JCF first", s2.3).
  /// In manual mode each relation costs one desktop step.
  support::Status submit(fmcad::Library& library, const fmcad::CellViewKey& root,
                         jcf::ProjectRef project);

  /// One manual declaration at the JCF desktop: parent contains child.
  /// Costs one desktop step regardless of mode -- this is what the
  /// designer does *before* the design starts in the prototype.
  support::Status declare(jcf::CellVersionRef parent, jcf::CellVersionRef child);

  /// Bulk submission of explicit child-cell names through the
  /// procedural interface (future work); fails when it is disabled.
  support::Status submit_children(jcf::ProjectRef project, const std::string& parent_cell,
                                  const std::vector<std::string>& child_cells);

  // -- the save-time hierarchy rules ---------------------------------------
  /// Cells JCF's CompOf metadata records as direct children of the
  /// latest version of `cell` (empty when JCF does not know the cell).
  std::set<std::string> declared_children(jcf::ProjectRef project,
                                          const std::string& cell) const;
  /// Rule 1: the cells `doc` instantiates that JCF has not declared as
  /// children of doc.cell, in name order (empty = consistent).
  std::vector<std::string> undeclared_children(jcf::ProjectRef project,
                                               const fmcad::DesignFile& doc) const;
  /// Rule 2: the child set of `doc` must equal that of the default
  /// version of every other view in `views` that already has instances
  /// in `library` (views without data or without instances are skipped:
  /// their hierarchy is not entered yet). A mismatch counts one
  /// rejection and fails with not_supported, unless the future-JCF
  /// extension is on. A default version that cannot be read or parsed
  /// fails the check with that error.
  support::Status check_isomorphic(fmcad::Library& library, const fmcad::DesignFile& doc,
                                   const std::vector<std::string>& views);
  /// Both rules, as the activity wrapper applies them before `doc`
  /// leaves the tool: undeclared children go through the procedural
  /// interface when it is on and are refused with consistency_violation
  /// otherwise; then rule 2 over `views`.
  support::Status admit(fmcad::Library& library, jcf::ProjectRef project,
                        const fmcad::DesignFile& doc, const std::vector<std::string>& views);

  const HierarchyStats& stats() const noexcept { return stats_; }
  bool procedural_interface() const noexcept { return procedural_interface_; }

 private:
  support::Result<jcf::CellVersionRef> latest_cv(jcf::ProjectRef project,
                                                 const std::string& cell) const;
  /// CompOf parent->child for each named child not yet declared; in
  /// manual mode each new relation costs one desktop step.
  support::Status add_children(jcf::CellVersionRef parent, jcf::ProjectRef project,
                               const std::vector<std::string>& child_cells);

  jcf::JcfFramework* jcf_;
  bool procedural_interface_;
  bool allow_non_isomorphic_;
  HierarchyStats stats_;
};

}  // namespace jfm::coupling
