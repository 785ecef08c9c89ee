#include "jfm/tools/layout_tool.hpp"

#include <algorithm>
#include <set>

#include "jfm/support/strings.hpp"

namespace jfm::tools {

using fmcad::CellViewKey;
using fmcad::DesignFile;
using support::Errc;
using support::parse_integer;
using support::Result;
using support::Status;

namespace {

/// The open layout, edited in place. Layers and placements are few per
/// cell, so the Layout's own linear lookups serve.
class LayoutDocument final : public fmcad::ToolDocument {
 public:
  LayoutDocument(const DesignFile& file, Layout layout)
      : ToolDocument(file), layout_(std::move(layout)) {}

  Status validate() const override {
    if (viewtype() != "layout") {
      return support::fail(Errc::invalid_argument, "not a layout document");
    }
    if (auto st = layout_.validate(); !st.ok()) return st;
    if (!uses_match(masters())) {
      return support::fail(Errc::consistency_violation,
                           "envelope uses-list does not match placed masters");
    }
    return {};
  }

 protected:
  Status apply(const std::string& command, const std::vector<std::string>& args) override;
  std::string serialize() const override { return layout_.serialize(); }
  std::vector<CellViewKey> masters() const override {
    std::set<CellViewKey> masters;
    for (const auto& p : layout_.placements) masters.insert({p.master_cell, p.master_view});
    return {masters.begin(), masters.end()};
  }

 private:
  Layout layout_;
};

Status LayoutDocument::apply(const std::string& command, const std::vector<std::string>& args) {
  auto fail = [](Errc code, std::string msg) { return support::fail(code, std::move(msg)); };

  if (command == "add-layer") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "add-layer <name>");
    if (layout_.has_layer(args[0])) return fail(Errc::already_exists, "layer " + args[0]);
    layout_.layers.push_back(args[0]);
  } else if (command == "draw-rect") {
    if (args.size() != 5 && args.size() != 6) {
      return fail(Errc::invalid_argument, "draw-rect <layer> <x1> <y1> <x2> <y2> [net]");
    }
    if (!layout_.has_layer(args[0])) return fail(Errc::not_found, "layer " + args[0]);
    Rect r;
    r.layer = args[0];
    if (!parse_integer(args[1], r.x1) || !parse_integer(args[2], r.y1) ||
        !parse_integer(args[3], r.x2) || !parse_integer(args[4], r.y2)) {
      return fail(Errc::invalid_argument, "draw-rect: bad coordinate");
    }
    if (r.x1 > r.x2) std::swap(r.x1, r.x2);
    if (r.y1 > r.y2) std::swap(r.y1, r.y2);
    if (r.width() <= 0 || r.height() <= 0) {
      return fail(Errc::invalid_argument, "draw-rect: degenerate rectangle");
    }
    if (args.size() == 6) r.net = args[5];
    layout_.rects.push_back(std::move(r));
  } else if (command == "move-rect") {
    if (args.size() != 3) return fail(Errc::invalid_argument, "move-rect <index> <dx> <dy>");
    std::int64_t index = 0, dx = 0, dy = 0;
    if (!parse_integer(args[0], index) || !parse_integer(args[1], dx) ||
        !parse_integer(args[2], dy)) {
      return fail(Errc::invalid_argument, "move-rect: bad number");
    }
    if (index < 0 || static_cast<std::size_t>(index) >= layout_.rects.size()) {
      return fail(Errc::not_found, "rect #" + args[0]);
    }
    Rect& r = layout_.rects[static_cast<std::size_t>(index)];
    r.x1 += dx;
    r.x2 += dx;
    r.y1 += dy;
    r.y2 += dy;
  } else if (command == "delete-rect") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "delete-rect <index>");
    std::int64_t index = 0;
    if (!parse_integer(args[0], index) || index < 0 ||
        static_cast<std::size_t>(index) >= layout_.rects.size()) {
      return fail(Errc::not_found, "rect #" + args[0]);
    }
    layout_.rects.erase(layout_.rects.begin() + index);
  } else if (command == "add-instance") {
    // Hierarchy menu verb: place a master layout.
    if (args.size() != 5) {
      return fail(Errc::invalid_argument, "add-instance <name> <cell> <view> <x> <y>");
    }
    if (layout_.find_placement(args[0]) != nullptr) {
      return fail(Errc::already_exists, "placement " + args[0]);
    }
    if (args[1] == cell()) {
      return fail(Errc::consistency_violation, "a cell cannot place itself");
    }
    Placement p;
    p.name = args[0];
    p.master_cell = args[1];
    p.master_view = args[2];
    if (!parse_integer(args[3], p.x) || !parse_integer(args[4], p.y)) {
      return fail(Errc::invalid_argument, "add-instance: bad coordinate");
    }
    layout_.placements.push_back(std::move(p));
  } else if (command == "remove-instance") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "remove-instance <name>");
    auto it = std::find_if(layout_.placements.begin(), layout_.placements.end(),
                           [&](const Placement& p) { return p.name == args[0]; });
    if (it == layout_.placements.end()) return fail(Errc::not_found, "placement " + args[0]);
    layout_.placements.erase(it);
  } else if (command == "check-drc") {
    // A quality gate: the command fails when the spacing rule is
    // violated, so a flow can force a clean DRC before checkin.
    if (args.size() != 1) return fail(Errc::invalid_argument, "check-drc <min_space>");
    std::int64_t min_space = 0;
    if (!parse_integer(args[0], min_space) || min_space <= 0) {
      return fail(Errc::invalid_argument, "check-drc: bad spacing rule");
    }
    auto violations = layout_.drc_spacing(min_space);
    if (!violations.empty()) {
      std::string msg = "DRC: " + std::to_string(violations.size()) + " violation(s); first: " +
                        violations.front().describe();
      return fail(Errc::consistency_violation, std::move(msg));
    }
  } else {
    return fail(Errc::not_found, "layout tool: unknown command " + command);
  }
  return {};
}

}  // namespace

Result<std::unique_ptr<fmcad::ToolDocument>> LayoutTool::parse(const DesignFile& file) const {
  auto layout = Layout::parse(file.payload);
  if (!layout.ok()) return layout.error();
  return std::unique_ptr<fmcad::ToolDocument>(
      std::make_unique<LayoutDocument>(file, std::move(*layout)));
}

}  // namespace jfm::tools
