#include "jfm/tools/schematic.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <unordered_set>

#include "jfm/support/strings.hpp"

namespace jfm::tools {

using support::Errc;
using support::Result;
using support::Status;

namespace {
/// Pin conventions of one gate type: unary gates a->y, binary gates
/// a,b->y, DFF d,clk->q.
struct GatePins {
  std::array<std::string_view, 2> inputs;
  std::size_t input_count;
  std::string_view output;
};

GatePins pins_of(std::string_view gate) {
  if (gate == "NOT" || gate == "BUF") return {{"a", ""}, 1, "y"};
  if (gate == "DFF") return {{"d", "clk"}, 2, "q"};
  return {{"a", "b"}, 2, "y"};
}

bool gate_has_pin(std::string_view gate, std::string_view pin) {
  const GatePins pins = pins_of(gate);
  if (pin == pins.output) return true;
  for (std::size_t i = 0; i < pins.input_count; ++i) {
    if (pin == pins.inputs[i]) return true;
  }
  return false;
}
}  // namespace

bool is_known_gate(std::string_view gate) {
  static const char* kGates[] = {"AND", "OR",  "NOT", "NAND", "NOR",
                                 "XOR", "XNOR", "BUF", "DFF"};
  return std::any_of(std::begin(kGates), std::end(kGates),
                     [gate](const char* g) { return gate == g; });
}

std::vector<std::string> gate_input_pins(std::string_view gate) {
  const GatePins pins = pins_of(gate);
  return {pins.inputs.begin(), pins.inputs.begin() + static_cast<std::ptrdiff_t>(pins.input_count)};
}

std::string gate_output_pin(std::string_view gate) { return std::string(pins_of(gate).output); }

std::string_view to_string(PortDir dir) {
  switch (dir) {
    case PortDir::in: return "in";
    case PortDir::out: return "out";
    case PortDir::inout: return "inout";
  }
  return "?";
}

Result<PortDir> port_dir_from(std::string_view text) {
  if (text == "in") return PortDir::in;
  if (text == "out") return PortDir::out;
  if (text == "inout") return PortDir::inout;
  return Result<PortDir>::failure(Errc::parse_error, "bad port direction '" + std::string(text) + "'");
}

std::string Schematic::serialize() const {
  std::string out;
  auto record = [&out](std::initializer_list<std::string_view> fields) {
    const char* sep = "";
    for (std::string_view f : fields) {
      out.append(sep).append(f);
      sep = " ";
    }
    out.push_back('\n');
  };
  for (const auto& p : ports) record({"port", p.name, to_string(p.dir)});
  for (const auto& n : nets) record({"net", n});
  for (const auto& g : primitives) record({"prim", g.name, g.gate});
  for (const auto& i : instances) record({"inst", i.name, i.master_cell, i.master_view});
  for (const auto& c : connections) record({"conn", c.net, c.element, c.pin});
  return out;
}

Result<Schematic> Schematic::parse(const std::string& payload) {
  Schematic out;
  support::LineTokenizer t(payload);
  while (t.next()) {
    const std::string_view line = t.line();
    if (line.empty() || line[0] == '#') continue;
    auto field = [&t](std::size_t i) { return std::string(t[i]); };
    if (t[0] == "port" && t.size() == 3) {
      auto dir = port_dir_from(t[2]);
      if (!dir.ok()) return Result<Schematic>::failure(dir.error().code, dir.error().message);
      out.ports.push_back({field(1), *dir});
    } else if (t[0] == "net" && t.size() == 2) {
      out.nets.push_back(field(1));
    } else if (t[0] == "prim" && t.size() == 3) {
      out.primitives.push_back({field(1), field(2)});
    } else if (t[0] == "inst" && t.size() == 4) {
      out.instances.push_back({field(1), field(2), field(3)});
    } else if (t[0] == "conn" && t.size() == 4) {
      out.connections.push_back({field(1), field(2), field(3)});
    } else {
      return Result<Schematic>::failure(Errc::parse_error,
                                        "schematic: bad record '" + std::string(line) + "'");
    }
  }
  return out;
}

const Port* Schematic::find_port(std::string_view name) const {
  for (const auto& p : ports) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const Primitive* Schematic::find_primitive(std::string_view name) const {
  for (const auto& g : primitives) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const SchInstance* Schematic::find_instance(std::string_view name) const {
  for (const auto& i : instances) {
    if (i.name == name) return &i;
  }
  return nullptr;
}

bool Schematic::has_net(std::string_view name) const {
  return std::find(nets.begin(), nets.end(), name) != nets.end();
}

std::optional<std::string> Schematic::net_of(std::string_view element,
                                             std::string_view pin) const {
  for (const auto& c : connections) {
    if (c.element == element && c.pin == pin) return c.net;
  }
  return std::nullopt;
}

Status Schematic::validate() const {
  // One pass per vector over hash sets of views into this schematic;
  // the first error reported is the one a check in record order finds.
  std::unordered_set<std::string_view> net_set;
  net_set.reserve(nets.size());
  const std::string* bad_net = nullptr;
  bool bad_net_is_duplicate = false;
  for (const auto& n : nets) {
    const bool duplicate = !net_set.insert(n).second;
    if (bad_net == nullptr && (!support::is_identifier(n) || duplicate)) {
      bad_net = &n;
      bad_net_is_duplicate = support::is_identifier(n);
    }
  }
  std::unordered_set<std::string_view> port_set;
  port_set.reserve(ports.size());
  for (const auto& p : ports) {
    if (!support::is_identifier(p.name)) {
      return support::fail(Errc::invalid_argument, "bad port name '" + p.name + "'");
    }
    if (!port_set.insert(p.name).second) {
      return support::fail(Errc::already_exists, "duplicate port " + p.name);
    }
    // a port implies a net of the same name; it must exist
    if (!net_set.contains(p.name)) {
      return support::fail(Errc::consistency_violation,
                           "port " + p.name + " has no matching net");
    }
  }
  if (bad_net != nullptr) {
    return bad_net_is_duplicate
               ? support::fail(Errc::already_exists, "duplicate net " + *bad_net)
               : support::fail(Errc::invalid_argument, "bad net name '" + *bad_net + "'");
  }
  // element name -> its gate type (nullptr for a hierarchical instance)
  std::unordered_map<std::string_view, const std::string*> elements;
  elements.reserve(primitives.size() + instances.size());
  for (const auto& g : primitives) {
    if (!is_known_gate(g.gate)) {
      return support::fail(Errc::invalid_argument, "unknown gate type " + g.gate);
    }
    if (!elements.emplace(g.name, &g.gate).second) {
      return support::fail(Errc::already_exists, "duplicate element " + g.name);
    }
  }
  for (const auto& i : instances) {
    if (!elements.emplace(i.name, nullptr).second) {
      return support::fail(Errc::already_exists, "duplicate element " + i.name);
    }
  }
  std::unordered_set<std::pair<std::string_view, std::string_view>, PinHash> pins_used;
  pins_used.reserve(connections.size());
  for (const auto& c : connections) {
    if (!net_set.contains(c.net)) {
      return support::fail(Errc::consistency_violation,
                           "connection references unknown net " + c.net);
    }
    auto element = elements.find(c.element);
    if (element == elements.end()) {
      return support::fail(Errc::consistency_violation,
                           "connection references unknown element " + c.element);
    }
    if (const std::string* gate = element->second;
        gate != nullptr && !gate_has_pin(*gate, c.pin)) {
      return support::fail(Errc::invalid_argument,
                           "gate " + c.element + " (" + *gate + ") has no pin " + c.pin);
    }
    if (!pins_used.emplace(c.element, c.pin).second) {
      return support::fail(Errc::consistency_violation,
                           "pin " + c.element + "." + c.pin + " connected twice");
    }
  }
  return {};
}

}  // namespace jfm::tools
