#include "jfm/tools/schematic_tool.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace jfm::tools {

using fmcad::CellViewKey;
using fmcad::DesignFile;
using support::Errc;
using support::Result;
using support::Status;

namespace {

/// The master cellviews `sch` instantiates, sorted and unique.
std::vector<CellViewKey> masters_of(const Schematic& sch) {
  std::set<CellViewKey> masters;
  for (const auto& inst : sch.instances) {
    masters.insert({inst.master_cell, inst.master_view});
  }
  return {masters.begin(), masters.end()};
}

/// Key -> number of records carrying it. An opened payload may hold
/// duplicates (validate() rejects them at save), so lookups count.
template <typename Key, typename Hash = std::hash<Key>>
class Counts {
 public:
  void reserve(std::size_t n) { counts_.reserve(n); }
  bool contains(const Key& key) const { return counts_.contains(key); }
  void add(const Key& key) { ++counts_[key]; }
  /// Requires contains(key).
  void remove(const Key& key) {
    auto it = counts_.find(key);
    if (--it->second == 0) counts_.erase(it);
  }

 private:
  std::unordered_map<Key, std::size_t, Hash> counts_;
};

using PinKey = std::pair<std::string, std::string>;  ///< (element, pin)

/// The open schematic: the netlist vectors in file order (so the
/// payload serializes exactly as the per-command text round trip did)
/// plus hash indexes every edit keeps current, which make each lookup
/// an edit needs O(1).
class SchematicDocument final : public fmcad::ToolDocument {
 public:
  SchematicDocument(const DesignFile& file, Schematic sch, std::string tool_viewtype)
      : ToolDocument(file), sch_(std::move(sch)), tool_viewtype_(std::move(tool_viewtype)) {
    ports_.reserve(sch_.ports.size());
    nets_.reserve(sch_.nets.size());
    prims_.reserve(sch_.primitives.size());
    pins_.reserve(sch_.connections.size());
    for (const auto& p : sch_.ports) ports_.insert(p.name);
    for (const auto& n : sch_.nets) nets_.add(n);
    for (const auto& g : sch_.primitives) prims_.insert(g.name);
    for (const auto& i : sch_.instances) insts_.add(i.name);
    for (const auto& c : sch_.connections) pins_.add({c.element, c.pin});
  }

  Status validate() const override {
    if (viewtype() != tool_viewtype_) {
      return support::fail(Errc::invalid_argument, "not a schematic document");
    }
    if (auto st = sch_.validate(); !st.ok()) return st;
    // The envelope must advertise exactly the masters the netlist uses;
    // the hierarchy binder depends on it.
    if (!uses_match(masters_of(sch_))) {
      return support::fail(Errc::consistency_violation,
                           "envelope uses-list does not match instantiated masters");
    }
    return {};
  }

 protected:
  Status apply(const std::string& command, const std::vector<std::string>& args) override;
  std::string serialize() const override { return sch_.serialize(); }
  std::vector<CellViewKey> masters() const override { return masters_of(sch_); }

 private:
  bool is_element(const std::string& name) const {
    return prims_.contains(name) || insts_.contains(name);
  }

  Schematic sch_;
  std::string tool_viewtype_;
  std::unordered_set<std::string> ports_;
  Counts<std::string> nets_;
  std::unordered_set<std::string> prims_;
  Counts<std::string> insts_;
  Counts<PinKey, PinHash> pins_;
};

Status SchematicDocument::apply(const std::string& command, const std::vector<std::string>& args) {
  auto fail = [](Errc code, std::string msg) { return support::fail(code, std::move(msg)); };

  if (command == "add-port") {
    if (args.size() != 2) return fail(Errc::invalid_argument, "add-port <name> <in|out|inout>");
    auto dir = port_dir_from(args[1]);
    if (!dir.ok()) return Status(dir.error());
    if (ports_.contains(args[0])) return fail(Errc::already_exists, "port " + args[0]);
    sch_.ports.push_back({args[0], *dir});
    ports_.insert(args[0]);
    if (!nets_.contains(args[0])) {
      sch_.nets.push_back(args[0]);
      nets_.add(args[0]);
    }
  } else if (command == "add-net") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "add-net <name>");
    if (nets_.contains(args[0])) return fail(Errc::already_exists, "net " + args[0]);
    sch_.nets.push_back(args[0]);
    nets_.add(args[0]);
  } else if (command == "add-prim") {
    if (args.size() != 2) return fail(Errc::invalid_argument, "add-prim <name> <gate>");
    if (!is_known_gate(args[1])) return fail(Errc::invalid_argument, "unknown gate " + args[1]);
    if (is_element(args[0])) return fail(Errc::already_exists, "element " + args[0]);
    sch_.primitives.push_back({args[0], args[1]});
    prims_.insert(args[0]);
  } else if (command == "add-instance") {
    if (args.size() != 3) return fail(Errc::invalid_argument, "add-instance <name> <cell> <view>");
    if (is_element(args[0])) return fail(Errc::already_exists, "element " + args[0]);
    if (args[1] == cell()) {
      return fail(Errc::consistency_violation, "a cell cannot instantiate itself");
    }
    sch_.instances.push_back({args[0], args[1], args[2]});
    insts_.add(args[0]);
  } else if (command == "remove-instance") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "remove-instance <name>");
    if (!insts_.contains(args[0])) return fail(Errc::not_found, "instance " + args[0]);
    sch_.instances.erase(std::find_if(sch_.instances.begin(), sch_.instances.end(),
                                      [&](const SchInstance& i) { return i.name == args[0]; }));
    insts_.remove(args[0]);
    std::erase_if(sch_.connections, [&](const Connection& c) {
      if (c.element != args[0]) return false;
      pins_.remove({c.element, c.pin});
      return true;
    });
  } else if (command == "connect") {
    if (args.size() != 3) return fail(Errc::invalid_argument, "connect <net> <element> <pin>");
    if (!nets_.contains(args[0])) return fail(Errc::not_found, "net " + args[0]);
    if (!is_element(args[1])) return fail(Errc::not_found, "element " + args[1]);
    if (pins_.contains({args[1], args[2]})) {
      return fail(Errc::already_exists, "pin " + args[1] + "." + args[2] + " already connected");
    }
    sch_.connections.push_back({args[0], args[1], args[2]});
    pins_.add({args[1], args[2]});
  } else if (command == "disconnect") {
    if (args.size() != 3) return fail(Errc::invalid_argument, "disconnect <net> <element> <pin>");
    const PinKey pin{args[1], args[2]};
    auto it = !pins_.contains(pin)
                  ? sch_.connections.end()
                  : std::find_if(sch_.connections.begin(), sch_.connections.end(),
                                 [&](const Connection& c) {
                                   return c.net == args[0] && c.element == args[1] &&
                                          c.pin == args[2];
                                 });
    if (it == sch_.connections.end()) return fail(Errc::not_found, "no such connection");
    sch_.connections.erase(it);
    pins_.remove(pin);
  } else if (command == "rename-net") {
    if (args.size() != 2) return fail(Errc::invalid_argument, "rename-net <old> <new>");
    if (!nets_.contains(args[0])) return fail(Errc::not_found, "net " + args[0]);
    if (nets_.contains(args[1])) return fail(Errc::already_exists, "net " + args[1]);
    if (ports_.contains(args[0])) {
      return fail(Errc::consistency_violation, "cannot rename a port net");
    }
    *std::find(sch_.nets.begin(), sch_.nets.end(), args[0]) = args[1];
    nets_.remove(args[0]);
    nets_.add(args[1]);
    for (auto& c : sch_.connections) {
      if (c.net == args[0]) c.net = args[1];
    }
  } else {
    return fail(Errc::not_found, "schematic tool: unknown command " + command);
  }
  return {};
}

}  // namespace

void sync_uses_from_schematic(DesignFile& doc, const Schematic& sch) {
  doc.uses = masters_of(sch);
}

Result<std::unique_ptr<fmcad::ToolDocument>> SchematicTool::parse(const DesignFile& file) const {
  auto sch = Schematic::parse(file.payload);
  if (!sch.ok()) return sch.error();
  return std::unique_ptr<fmcad::ToolDocument>(
      std::make_unique<SchematicDocument>(file, std::move(*sch), viewtype_));
}

}  // namespace jfm::tools
