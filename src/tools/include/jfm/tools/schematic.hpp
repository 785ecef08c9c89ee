#pragma once
// Schematic model: the document edited by the FMCAD schematic entry tool.
//
// A schematic is a netlist: ports (the cell's interface), primitive
// gates, hierarchical instances of other cells, nets and pin-to-net
// connections. The payload grammar (inside the cvfile envelope):
//
//   port <name> <in|out|inout>
//   net <name>
//   prim <name> <gate>                 ; AND OR NOT NAND NOR XOR XNOR BUF DFF
//   inst <name> <master_cell> <master_view>
//   conn <net> <instance-or-prim> <pin>
//
// Pin conventions: unary gates a->y; binary gates a,b->y; DFF d,clk->q.
// Hierarchical instance pins are the child cell's port names; a child
// port named p is attached to the net named p inside the child.

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "jfm/support/result.hpp"

namespace jfm::tools {

enum class PortDir { in, out, inout };

struct Port {
  std::string name;
  PortDir dir = PortDir::in;
};

struct Primitive {
  std::string name;
  std::string gate;  ///< gate type name, validated against the simulator's set
};

struct SchInstance {
  std::string name;
  std::string master_cell;
  std::string master_view;
};

struct Connection {
  std::string net;
  std::string element;  ///< primitive or instance name
  std::string pin;
};

/// Hash of an (element, pin) pair, the key of the pin indexes. Takes a
/// pair of views, so a pair of std::string hashes the same way.
struct PinHash {
  std::size_t operator()(std::pair<std::string_view, std::string_view> pin) const noexcept {
    const std::hash<std::string_view> h;
    return h(pin.first) * 31 + h(pin.second);
  }
};

struct Schematic {
  std::vector<Port> ports;
  std::vector<std::string> nets;
  std::vector<Primitive> primitives;
  std::vector<SchInstance> instances;
  std::vector<Connection> connections;

  std::string serialize() const;
  static support::Result<Schematic> parse(const std::string& payload);

  const Port* find_port(std::string_view name) const;
  const Primitive* find_primitive(std::string_view name) const;
  const SchInstance* find_instance(std::string_view name) const;
  bool has_net(std::string_view name) const;
  /// Net connected to (element, pin), if any.
  std::optional<std::string> net_of(std::string_view element, std::string_view pin) const;

  /// Structural consistency: names unique, connections reference
  /// existing nets/elements, each pin connected at most once, gate
  /// types known, port names don't collide with nets they imply.
  support::Status validate() const;
};

/// Known primitive gates and their pin lists.
bool is_known_gate(std::string_view gate);
std::vector<std::string> gate_input_pins(std::string_view gate);
std::string gate_output_pin(std::string_view gate);

std::string_view to_string(PortDir dir);
support::Result<PortDir> port_dir_from(std::string_view text);

}  // namespace jfm::tools
