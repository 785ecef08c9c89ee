#pragma once
// The FMCAD schematic entry tool (one of the three encapsulated tools,
// paper s2.4). Opens DesignFiles of viewtype "schematic" whose payload
// is a Schematic netlist as an indexed in-memory document; the saved
// envelope's `uses` list is derived from the hierarchical instances so
// the hierarchy binder sees the truth.

#include "jfm/fmcad/tool.hpp"
#include "jfm/tools/schematic.hpp"

namespace jfm::tools {

class SchematicTool final : public fmcad::ToolInterface {
 public:
  /// "The viewtype concept is very flexible and it allows viewtypes to
  /// be easily switched with the same tool" (s2.2): the same engine can
  /// be registered under another viewtype (e.g. a "symbol" editor).
  explicit SchematicTool(std::string viewtype = "schematic",
                         std::string name = "schematic_entry")
      : viewtype_(std::move(viewtype)), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  std::string viewtype() const override { return viewtype_; }
  std::string empty_payload() const override { return ""; }

  std::vector<std::string> commands() const override {
    return {"add-port", "add-net", "add-prim", "connect", "disconnect", "rename-net"};
  }

 protected:
  support::Result<std::unique_ptr<fmcad::ToolDocument>> parse(
      const fmcad::DesignFile& file) const override;

 private:
  std::string viewtype_;
  std::string name_;
};

/// Rebuild the envelope `uses` list from the instances in the payload.
void sync_uses_from_schematic(fmcad::DesignFile& doc, const Schematic& sch);

}  // namespace jfm::tools
