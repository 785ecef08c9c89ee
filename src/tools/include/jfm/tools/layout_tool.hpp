#pragma once
// The FMCAD layout editor (second encapsulated tool, paper s2.4).
// Opens DesignFiles of viewtype "layout" as an in-memory Layout; the
// saved envelope's `uses` list is derived from the placed masters.

#include "jfm/fmcad/tool.hpp"
#include "jfm/tools/layout.hpp"

namespace jfm::tools {

class LayoutTool final : public fmcad::ToolInterface {
 public:
  std::string name() const override { return "layout_editor"; }
  std::string viewtype() const override { return "layout"; }
  std::string empty_payload() const override { return ""; }

  std::vector<std::string> commands() const override {
    return {"add-layer", "draw-rect", "move-rect", "delete-rect", "check-drc"};
  }

 protected:
  support::Result<std::unique_ptr<fmcad::ToolDocument>> parse(
      const fmcad::DesignFile& file) const override;
};

}  // namespace jfm::tools
