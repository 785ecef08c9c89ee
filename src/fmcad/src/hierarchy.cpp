#include "jfm/fmcad/hierarchy.hpp"

#include <algorithm>

#include "jfm/support/strings.hpp"

namespace jfm::fmcad {

using support::Errc;
using support::Result;
using support::Status;

std::string DesignFile::serialize() const {
  std::string out = "cvfile 1\n";
  out += "cellview " + cell + " " + view + " " + viewtype + "\n";
  for (const auto& use : uses) out += "uses " + use.cell + " " + use.view + "\n";
  out += "payload\n";
  out += payload;
  return out;
}

Result<DesignFile> DesignFile::parse(const std::string& text) {
  auto fail = [](const std::string& why) {
    return Result<DesignFile>::failure(Errc::parse_error, "design file: " + why);
  };
  DesignFile out;
  bool saw_header = false;
  bool saw_cellview = false;
  support::LineTokenizer t(text);
  while (t.next()) {
    const std::string_view line = t.line();
    if (!saw_header) {
      if (line != "cvfile 1") return fail("bad header");
      saw_header = true;
      continue;
    }
    if (line == "payload") {
      out.payload = std::string(t.rest());
      if (!saw_cellview) return fail("missing cellview record");
      return out;
    }
    if (t.size() == 0) continue;
    if (t[0] == "cellview" && t.size() == 4) {
      out.cell = std::string(t[1]);
      out.view = std::string(t[2]);
      out.viewtype = std::string(t[3]);
      saw_cellview = true;
    } else if (t[0] == "uses" && t.size() == 3) {
      out.uses.push_back({std::string(t[1]), std::string(t[2])});
    } else {
      return fail("bad record '" + std::string(line) + "'");
    }
  }
  return fail("truncated (no payload marker)");
}

Library* LibrarySet::owner_of(const CellViewKey& key) const {
  for (Library* library : libraries_) {
    const CellViewRecord* record = library->meta().find_cellview(key);
    if (record != nullptr && record->default_version() != nullptr) return library;
  }
  return nullptr;
}

Library* LibrarySet::declaring_library(const CellViewKey& key) const {
  for (Library* library : libraries_) {
    if (library->meta().find_cellview(key) != nullptr) return library;
  }
  return nullptr;
}

Result<std::string> LibrarySet::read_default_text(const CellViewKey& key) const {
  Library* owner = owner_of(key);
  if (owner == nullptr) {
    return Result<std::string>::failure(Errc::not_found,
                                        "cellview " + key.str() + " not found in any library");
  }
  const CellViewRecord* record = owner->meta().find_cellview(key);
  return owner->fs().read_file(owner->cellview_dir(key).child(record->default_version()->file));
}

std::size_t HierarchyNode::node_count() const {
  std::size_t n = 1;
  for (const auto& c : children) n += c.node_count();
  return n;
}

int HierarchyNode::depth() const {
  int d = 0;
  for (const auto& c : children) d = std::max(d, c.depth());
  return d + 1;
}

HierarchyBinder::HierarchyBinder(Library* library) : owned_(library) {
  libraries_ = &owned_;
}

Result<BindResult> HierarchyBinder::expand(const CellViewKey& root) const {
  BindResult result;
  result.root.key = root;
  std::set<CellViewKey> on_path;
  if (auto st = expand_into(root, result.root, result.dangling, on_path, 0); !st.ok()) {
    return Result<BindResult>::failure(st.error().code, st.error().message);
  }
  if (result.root.bound_version == 0) {
    return Result<BindResult>::failure(Errc::not_found,
                                       "cellview " + root.str() + " has no versions");
  }
  return result;
}

Status HierarchyBinder::expand_into(const CellViewKey& key, HierarchyNode& node,
                                    std::vector<std::string>& dangling,
                                    std::set<CellViewKey>& on_path, int depth) const {
  if (depth > 64) {
    return support::fail(Errc::consistency_violation, "hierarchy deeper than 64 levels");
  }
  if (on_path.contains(key)) {
    return support::fail(Errc::consistency_violation,
                         "hierarchy cycle through " + key.str());
  }
  Library* owner = libraries_->owner_of(key);
  if (owner == nullptr) {
    // Dangling reference: FMCAD binds lazily and tolerates it.
    dangling.push_back(key.str());
    node.bound_version = 0;
    return {};
  }
  const CellViewRecord* record = owner->meta().find_cellview(key);
  const VersionInfo* ver = record->default_version();
  node.bound_version = ver->number;
  auto text = owner->fs().read_file(owner->cellview_dir(key).child(ver->file));
  if (!text.ok()) return Status(text.error());
  auto file = DesignFile::parse(*text);
  if (!file.ok()) {
    return support::fail(file.error().code, key.str() + ": " + file.error().message);
  }
  on_path.insert(key);
  for (const auto& use : file->uses) {
    HierarchyNode child;
    child.key = use;
    if (auto st = expand_into(use, child, dangling, on_path, depth + 1); !st.ok()) return st;
    node.children.push_back(std::move(child));
  }
  on_path.erase(key);
  return {};
}

namespace {
std::string node_signature(const HierarchyNode& node) {
  std::vector<std::string> child_sigs;
  child_sigs.reserve(node.children.size());
  for (const auto& c : node.children) child_sigs.push_back(node_signature(c));
  std::sort(child_sigs.begin(), child_sigs.end());
  std::string out = "(" + node.key.cell;
  for (const auto& s : child_sigs) out += " " + s;
  out += ")";
  return out;
}
}  // namespace

Result<std::string> HierarchyBinder::signature(const CellViewKey& root) const {
  auto bound = expand(root);
  if (!bound.ok()) return Result<std::string>::failure(bound.error().code, bound.error().message);
  return node_signature(bound->root);
}

Result<bool> isomorphic(Library& library, const std::string& cell, const std::string& view_a,
                        const std::string& view_b) {
  HierarchyBinder binder(&library);
  auto sig_a = binder.signature({cell, view_a});
  if (!sig_a.ok()) return Result<bool>::failure(sig_a.error().code, sig_a.error().message);
  auto sig_b = binder.signature({cell, view_b});
  if (!sig_b.ok()) return Result<bool>::failure(sig_b.error().code, sig_b.error().message);
  return *sig_a == *sig_b;
}

}  // namespace jfm::fmcad
