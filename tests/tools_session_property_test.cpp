// Tool sessions hold the design open (docs/architecture.md, "Tool
// sessions: open, edit, save"). The property, per seed and per tool
// (schematic entry, layout editor, simulator): a random edit script --
// valid and invalid commands, hierarchy verbs included -- run through a
// ToolSession on a random starting document behaves exactly like the
// per-command text round trip the tools used before: parse the whole
// payload, apply one command to a copy, serialize it back. After every
// command the status code and message agree; at save the checkin
// verdict (the validate() result) agrees, and so do the stored bytes,
// uses-list included. The stateless ToolInterface::apply wrapper is
// replayed over the same script and must agree as well.
//
// The oracle below is that per-command code, kept here verbatim as the
// naive reference: split()/split_ws() parsers, the record-at-a-time
// serializer, the quadratic Schematic::validate and one apply per
// command on a fresh parse.
//
// Replay one seed: JFM_TEST_SEED=<n> ./tools_session_property_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "jfm/fmcad/tool.hpp"
#include "jfm/support/rng.hpp"
#include "jfm/support/strings.hpp"
#include "jfm/tools/layout_tool.hpp"
#include "jfm/tools/schematic_tool.hpp"
#include "jfm/tools/sim_tool.hpp"
#include "test_seed.hpp"

namespace jfm::tools {
namespace {

using fmcad::CellViewKey;
using fmcad::DesignFile;
using support::Errc;
using support::Result;
using support::Status;

// ======================= the naive oracle ===================================

namespace oracle {

Result<DesignFile> parse_file(const std::string& text) {
  auto fail = [](const std::string& why) {
    return Result<DesignFile>::failure(Errc::parse_error, "design file: " + why);
  };
  DesignFile out;
  std::size_t pos = 0;
  bool saw_header = false;
  bool saw_cellview = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string_view line = support::trim(std::string_view(text).substr(pos, eol - pos));
    pos = eol + 1;
    if (!saw_header) {
      if (line != "cvfile 1") return fail("bad header");
      saw_header = true;
      continue;
    }
    if (line == "payload") {
      out.payload = pos <= text.size() ? text.substr(std::min(pos, text.size())) : "";
      if (!saw_cellview) return fail("missing cellview record");
      return out;
    }
    auto f = support::split_ws(line);
    if (f.empty()) continue;
    if (f[0] == "cellview" && f.size() == 4) {
      out.cell = f[1];
      out.view = f[2];
      out.viewtype = f[3];
      saw_cellview = true;
    } else if (f[0] == "uses" && f.size() == 3) {
      out.uses.push_back({f[1], f[2]});
    } else {
      return fail("bad record '" + std::string(line) + "'");
    }
  }
  return fail("truncated (no payload marker)");
}

// ---- schematic ----------------------------------------------------------------

std::string serialize(const Schematic& sch) {
  std::string out;
  for (const auto& p : sch.ports) {
    out += "port " + p.name + " " + std::string(to_string(p.dir)) + "\n";
  }
  for (const auto& n : sch.nets) out += "net " + n + "\n";
  for (const auto& g : sch.primitives) out += "prim " + g.name + " " + g.gate + "\n";
  for (const auto& i : sch.instances) {
    out += "inst " + i.name + " " + i.master_cell + " " + i.master_view + "\n";
  }
  for (const auto& c : sch.connections) {
    out += "conn " + c.net + " " + c.element + " " + c.pin + "\n";
  }
  return out;
}

Result<Schematic> parse_schematic(const std::string& payload) {
  Schematic out;
  for (const auto& raw : support::split(payload, '\n')) {
    std::string_view line = support::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    auto f = support::split_ws(line);
    if (f[0] == "port" && f.size() == 3) {
      auto dir = port_dir_from(f[2]);
      if (!dir.ok()) return Result<Schematic>::failure(dir.error().code, dir.error().message);
      out.ports.push_back({f[1], *dir});
    } else if (f[0] == "net" && f.size() == 2) {
      out.nets.push_back(f[1]);
    } else if (f[0] == "prim" && f.size() == 3) {
      out.primitives.push_back({f[1], f[2]});
    } else if (f[0] == "inst" && f.size() == 4) {
      out.instances.push_back({f[1], f[2], f[3]});
    } else if (f[0] == "conn" && f.size() == 4) {
      out.connections.push_back({f[1], f[2], f[3]});
    } else {
      return Result<Schematic>::failure(Errc::parse_error,
                                        "schematic: bad record '" + std::string(line) + "'");
    }
  }
  return out;
}

Status validate_schematic_model(const Schematic& sch) {
  std::set<std::string> names;
  for (const auto& p : sch.ports) {
    if (!support::is_identifier(p.name)) {
      return support::fail(Errc::invalid_argument, "bad port name '" + p.name + "'");
    }
    if (!names.insert("port:" + p.name).second) {
      return support::fail(Errc::already_exists, "duplicate port " + p.name);
    }
    if (!sch.has_net(p.name)) {
      return support::fail(Errc::consistency_violation,
                           "port " + p.name + " has no matching net");
    }
  }
  std::set<std::string> net_set;
  for (const auto& n : sch.nets) {
    if (!support::is_identifier(n)) {
      return support::fail(Errc::invalid_argument, "bad net name '" + n + "'");
    }
    if (!net_set.insert(n).second) {
      return support::fail(Errc::already_exists, "duplicate net " + n);
    }
  }
  std::set<std::string> elements;
  for (const auto& g : sch.primitives) {
    if (!is_known_gate(g.gate)) {
      return support::fail(Errc::invalid_argument, "unknown gate type " + g.gate);
    }
    if (!elements.insert(g.name).second) {
      return support::fail(Errc::already_exists, "duplicate element " + g.name);
    }
  }
  for (const auto& i : sch.instances) {
    if (!elements.insert(i.name).second) {
      return support::fail(Errc::already_exists, "duplicate element " + i.name);
    }
  }
  std::set<std::pair<std::string, std::string>> pins_used;
  for (const auto& c : sch.connections) {
    if (!net_set.contains(c.net)) {
      return support::fail(Errc::consistency_violation,
                           "connection references unknown net " + c.net);
    }
    if (!elements.contains(c.element)) {
      return support::fail(Errc::consistency_violation,
                           "connection references unknown element " + c.element);
    }
    if (const Primitive* g = sch.find_primitive(c.element); g != nullptr) {
      auto inputs = gate_input_pins(g->gate);
      bool known_pin = c.pin == gate_output_pin(g->gate) ||
                       std::find(inputs.begin(), inputs.end(), c.pin) != inputs.end();
      if (!known_pin) {
        return support::fail(Errc::invalid_argument,
                             "gate " + g->name + " (" + g->gate + ") has no pin " + c.pin);
      }
    }
    if (!pins_used.insert({c.element, c.pin}).second) {
      return support::fail(Errc::consistency_violation,
                           "pin " + c.element + "." + c.pin + " connected twice");
    }
  }
  return {};
}

void sync_uses(DesignFile& doc, const Schematic& sch) {
  std::set<CellViewKey> masters;
  for (const auto& inst : sch.instances) masters.insert({inst.master_cell, inst.master_view});
  doc.uses.assign(masters.begin(), masters.end());
}

Status validate_schematic(const DesignFile& doc) {
  if (doc.viewtype != "schematic") {
    return support::fail(Errc::invalid_argument, "not a schematic document");
  }
  auto sch = parse_schematic(doc.payload);
  if (!sch.ok()) return Status(sch.error());
  if (auto st = validate_schematic_model(*sch); !st.ok()) return st;
  DesignFile expected = doc;
  sync_uses(expected, *sch);
  std::set<CellViewKey> actual(doc.uses.begin(), doc.uses.end());
  std::set<CellViewKey> wanted(expected.uses.begin(), expected.uses.end());
  if (actual != wanted) {
    return support::fail(Errc::consistency_violation,
                         "envelope uses-list does not match instantiated masters");
  }
  return {};
}

Result<DesignFile> apply_schematic(const DesignFile& doc, const std::string& command,
                                   const std::vector<std::string>& args) {
  auto fail = [](Errc code, std::string msg) {
    return Result<DesignFile>::failure(code, std::move(msg));
  };
  auto parsed = parse_schematic(doc.payload);
  if (!parsed.ok()) return fail(parsed.error().code, parsed.error().message);
  Schematic sch = std::move(*parsed);

  if (command == "add-port") {
    if (args.size() != 2) return fail(Errc::invalid_argument, "add-port <name> <in|out|inout>");
    auto dir = port_dir_from(args[1]);
    if (!dir.ok()) return fail(dir.error().code, dir.error().message);
    if (sch.find_port(args[0]) != nullptr) {
      return fail(Errc::already_exists, "port " + args[0]);
    }
    sch.ports.push_back({args[0], *dir});
    if (!sch.has_net(args[0])) sch.nets.push_back(args[0]);
  } else if (command == "add-net") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "add-net <name>");
    if (sch.has_net(args[0])) return fail(Errc::already_exists, "net " + args[0]);
    sch.nets.push_back(args[0]);
  } else if (command == "add-prim") {
    if (args.size() != 2) return fail(Errc::invalid_argument, "add-prim <name> <gate>");
    if (!is_known_gate(args[1])) return fail(Errc::invalid_argument, "unknown gate " + args[1]);
    if (sch.find_primitive(args[0]) != nullptr || sch.find_instance(args[0]) != nullptr) {
      return fail(Errc::already_exists, "element " + args[0]);
    }
    sch.primitives.push_back({args[0], args[1]});
  } else if (command == "add-instance") {
    if (args.size() != 3) return fail(Errc::invalid_argument, "add-instance <name> <cell> <view>");
    if (sch.find_primitive(args[0]) != nullptr || sch.find_instance(args[0]) != nullptr) {
      return fail(Errc::already_exists, "element " + args[0]);
    }
    if (args[1] == doc.cell) {
      return fail(Errc::consistency_violation, "a cell cannot instantiate itself");
    }
    sch.instances.push_back({args[0], args[1], args[2]});
  } else if (command == "remove-instance") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "remove-instance <name>");
    auto it = std::find_if(sch.instances.begin(), sch.instances.end(),
                           [&](const SchInstance& i) { return i.name == args[0]; });
    if (it == sch.instances.end()) return fail(Errc::not_found, "instance " + args[0]);
    sch.instances.erase(it);
    sch.connections.erase(std::remove_if(sch.connections.begin(), sch.connections.end(),
                                         [&](const Connection& c) {
                                           return c.element == args[0];
                                         }),
                          sch.connections.end());
  } else if (command == "connect") {
    if (args.size() != 3) return fail(Errc::invalid_argument, "connect <net> <element> <pin>");
    if (!sch.has_net(args[0])) return fail(Errc::not_found, "net " + args[0]);
    if (sch.find_primitive(args[1]) == nullptr && sch.find_instance(args[1]) == nullptr) {
      return fail(Errc::not_found, "element " + args[1]);
    }
    if (sch.net_of(args[1], args[2]).has_value()) {
      return fail(Errc::already_exists, "pin " + args[1] + "." + args[2] + " already connected");
    }
    sch.connections.push_back({args[0], args[1], args[2]});
  } else if (command == "disconnect") {
    if (args.size() != 3) return fail(Errc::invalid_argument, "disconnect <net> <element> <pin>");
    auto it = std::find_if(sch.connections.begin(), sch.connections.end(),
                           [&](const Connection& c) {
                             return c.net == args[0] && c.element == args[1] && c.pin == args[2];
                           });
    if (it == sch.connections.end()) return fail(Errc::not_found, "no such connection");
    sch.connections.erase(it);
  } else if (command == "rename-net") {
    if (args.size() != 2) return fail(Errc::invalid_argument, "rename-net <old> <new>");
    auto it = std::find(sch.nets.begin(), sch.nets.end(), args[0]);
    if (it == sch.nets.end()) return fail(Errc::not_found, "net " + args[0]);
    if (sch.has_net(args[1])) return fail(Errc::already_exists, "net " + args[1]);
    if (sch.find_port(args[0]) != nullptr) {
      return fail(Errc::consistency_violation, "cannot rename a port net");
    }
    *it = args[1];
    for (auto& c : sch.connections) {
      if (c.net == args[0]) c.net = args[1];
    }
  } else {
    return fail(Errc::not_found, "schematic tool: unknown command " + command);
  }

  DesignFile updated = doc;
  updated.payload = serialize(sch);
  sync_uses(updated, sch);
  return updated;
}

// ---- layout -------------------------------------------------------------------

Result<Layout> parse_layout(const std::string& payload) {
  Layout out;
  for (const auto& raw : support::split(payload, '\n')) {
    std::string_view line = support::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    auto f = support::split_ws(line);
    auto bad_number = [&] {
      return Result<Layout>::failure(Errc::parse_error,
                                     "layout: bad number in '" + std::string(line) + "'");
    };
    if (f[0] == "layer" && f.size() == 2) {
      out.layers.push_back(f[1]);
    } else if (f[0] == "rect" && (f.size() == 6 || f.size() == 7)) {
      Rect r;
      r.layer = f[1];
      if (!support::parse_integer(f[2], r.x1) || !support::parse_integer(f[3], r.y1) ||
          !support::parse_integer(f[4], r.x2) || !support::parse_integer(f[5], r.y2)) {
        return bad_number();
      }
      if (f.size() == 7) r.net = f[6];
      if (r.x1 > r.x2) std::swap(r.x1, r.x2);
      if (r.y1 > r.y2) std::swap(r.y1, r.y2);
      out.rects.push_back(std::move(r));
    } else if (f[0] == "place" && f.size() == 6) {
      Placement p;
      p.name = f[1];
      p.master_cell = f[2];
      p.master_view = f[3];
      if (!support::parse_integer(f[4], p.x) || !support::parse_integer(f[5], p.y)) {
        return bad_number();
      }
      out.placements.push_back(std::move(p));
    } else {
      return Result<Layout>::failure(Errc::parse_error,
                                     "layout: bad record '" + std::string(line) + "'");
    }
  }
  return out;
}

void sync_uses(DesignFile& doc, const Layout& layout) {
  std::set<CellViewKey> masters;
  for (const auto& p : layout.placements) masters.insert({p.master_cell, p.master_view});
  doc.uses.assign(masters.begin(), masters.end());
}

Status validate_layout(const DesignFile& doc) {
  if (doc.viewtype != "layout") {
    return support::fail(Errc::invalid_argument, "not a layout document");
  }
  auto layout = parse_layout(doc.payload);
  if (!layout.ok()) return Status(layout.error());
  if (auto st = layout->validate(); !st.ok()) return st;
  DesignFile expected = doc;
  sync_uses(expected, *layout);
  std::set<CellViewKey> actual(doc.uses.begin(), doc.uses.end());
  std::set<CellViewKey> wanted(expected.uses.begin(), expected.uses.end());
  if (actual != wanted) {
    return support::fail(Errc::consistency_violation,
                         "envelope uses-list does not match placed masters");
  }
  return {};
}

Result<DesignFile> apply_layout(const DesignFile& doc, const std::string& command,
                                const std::vector<std::string>& args) {
  using support::parse_integer;
  auto fail = [](Errc code, std::string msg) {
    return Result<DesignFile>::failure(code, std::move(msg));
  };
  auto parsed = parse_layout(doc.payload);
  if (!parsed.ok()) return fail(parsed.error().code, parsed.error().message);
  Layout layout = std::move(*parsed);

  if (command == "add-layer") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "add-layer <name>");
    if (layout.has_layer(args[0])) return fail(Errc::already_exists, "layer " + args[0]);
    layout.layers.push_back(args[0]);
  } else if (command == "draw-rect") {
    if (args.size() != 5 && args.size() != 6) {
      return fail(Errc::invalid_argument, "draw-rect <layer> <x1> <y1> <x2> <y2> [net]");
    }
    if (!layout.has_layer(args[0])) return fail(Errc::not_found, "layer " + args[0]);
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
    layout.rects.push_back(std::move(r));
  } else if (command == "move-rect") {
    if (args.size() != 3) return fail(Errc::invalid_argument, "move-rect <index> <dx> <dy>");
    std::int64_t index = 0, dx = 0, dy = 0;
    if (!parse_integer(args[0], index) || !parse_integer(args[1], dx) ||
        !parse_integer(args[2], dy)) {
      return fail(Errc::invalid_argument, "move-rect: bad number");
    }
    if (index < 0 || static_cast<std::size_t>(index) >= layout.rects.size()) {
      return fail(Errc::not_found, "rect #" + args[0]);
    }
    Rect& r = layout.rects[static_cast<std::size_t>(index)];
    r.x1 += dx;
    r.x2 += dx;
    r.y1 += dy;
    r.y2 += dy;
  } else if (command == "delete-rect") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "delete-rect <index>");
    std::int64_t index = 0;
    if (!parse_integer(args[0], index) || index < 0 ||
        static_cast<std::size_t>(index) >= layout.rects.size()) {
      return fail(Errc::not_found, "rect #" + args[0]);
    }
    layout.rects.erase(layout.rects.begin() + index);
  } else if (command == "add-instance") {
    if (args.size() != 5) {
      return fail(Errc::invalid_argument, "add-instance <name> <cell> <view> <x> <y>");
    }
    if (layout.find_placement(args[0]) != nullptr) {
      return fail(Errc::already_exists, "placement " + args[0]);
    }
    if (args[1] == doc.cell) {
      return fail(Errc::consistency_violation, "a cell cannot place itself");
    }
    Placement p;
    p.name = args[0];
    p.master_cell = args[1];
    p.master_view = args[2];
    if (!parse_integer(args[3], p.x) || !parse_integer(args[4], p.y)) {
      return fail(Errc::invalid_argument, "add-instance: bad coordinate");
    }
    layout.placements.push_back(std::move(p));
  } else if (command == "remove-instance") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "remove-instance <name>");
    auto it = std::find_if(layout.placements.begin(), layout.placements.end(),
                           [&](const Placement& p) { return p.name == args[0]; });
    if (it == layout.placements.end()) return fail(Errc::not_found, "placement " + args[0]);
    layout.placements.erase(it);
  } else if (command == "check-drc") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "check-drc <min_space>");
    std::int64_t min_space = 0;
    if (!parse_integer(args[0], min_space) || min_space <= 0) {
      return fail(Errc::invalid_argument, "check-drc: bad spacing rule");
    }
    auto violations = layout.drc_spacing(min_space);
    if (!violations.empty()) {
      std::string msg = "DRC: " + std::to_string(violations.size()) + " violation(s); first: " +
                        violations.front().describe();
      return fail(Errc::consistency_violation, std::move(msg));
    }
  } else {
    return fail(Errc::not_found, "layout tool: unknown command " + command);
  }

  DesignFile updated = doc;
  updated.payload = layout.serialize();
  sync_uses(updated, layout);
  return updated;
}

// ---- simulator ----------------------------------------------------------------

Result<Testbench> parse_testbench(const std::string& payload) {
  Testbench out;
  for (const auto& raw : support::split(payload, '\n')) {
    std::string_view line = support::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    auto f = support::split_ws(line);
    auto fail = [&](const std::string& why) {
      return Result<Testbench>::failure(Errc::parse_error, "testbench: " + why);
    };
    auto bad_number = [&] { return fail("bad number in '" + std::string(line) + "'"); };
    if (f[0] == "dut" && f.size() == 3) {
      out.dut = {f[1], f[2]};
    } else if (f[0] == "stim" && f.size() == 4 && f[2].size() >= 1 && f[3].size() == 1) {
      auto v = logic_from(f[3][0]);
      if (!v.ok()) return fail(v.error().message);
      SimTime time = 0;
      if (!support::parse_integer(f[1], time)) return bad_number();
      out.stimuli.push_back({time, f[2], *v});
    } else if (f[0] == "watch" && f.size() == 2) {
      out.watches.push_back(f[1]);
    } else if (f[0] == "runtime" && f.size() == 2) {
      if (!support::parse_integer(f[1], out.runtime)) return bad_number();
    } else if (f[0] == "result" && f.size() == 3 && f[2].size() == 1) {
      auto v = logic_from(f[2][0]);
      if (!v.ok()) return fail(v.error().message);
      out.results.emplace_back(f[1], *v);
      out.has_results = true;
    } else if (f[0] == "trace" && f.size() == 4) {
      out.trace_text.push_back(f[1] + " " + f[2] + " " + f[3]);
      out.has_results = true;
    } else if (f[0] == "events" && f.size() == 2) {
      if (!support::parse_integer(f[1], out.events)) return bad_number();
      out.has_results = true;
    } else {
      return fail("bad record '" + std::string(line) + "'");
    }
  }
  return out;
}

Status validate_testbench(const DesignFile& doc) {
  if (doc.viewtype != "simulate") {
    return support::fail(Errc::invalid_argument, "not a testbench document");
  }
  auto tb = parse_testbench(doc.payload);
  if (!tb.ok()) return Status(tb.error());
  if (!tb->dut.cell.empty()) {
    bool listed = std::find(doc.uses.begin(), doc.uses.end(), tb->dut) != doc.uses.end();
    if (!listed) {
      return support::fail(Errc::consistency_violation,
                           "envelope uses-list does not include the DUT");
    }
  }
  return {};
}

Result<DesignFile> apply_testbench(const SchematicResolver& resolver, const DesignFile& doc,
                                   const std::string& command,
                                   const std::vector<std::string>& args) {
  auto fail = [](Errc code, std::string msg) {
    return Result<DesignFile>::failure(code, std::move(msg));
  };
  auto parsed = parse_testbench(doc.payload);
  if (!parsed.ok()) return fail(parsed.error().code, parsed.error().message);
  Testbench tb = std::move(*parsed);

  if (command == "set-dut") {
    if (args.size() != 2) return fail(Errc::invalid_argument, "set-dut <cell> <view>");
    tb.dut = {args[0], args[1]};
    tb.has_results = false;
    tb.results.clear();
    tb.trace_text.clear();
  } else if (command == "add-stim") {
    if (args.size() != 3 || args[2].size() != 1) {
      return fail(Errc::invalid_argument, "add-stim <time> <signal> <0|1|X|Z>");
    }
    auto v = logic_from(args[2][0]);
    if (!v.ok()) return fail(v.error().code, v.error().message);
    SimTime time = 0;
    if (!support::parse_integer(args[0], time)) {
      return fail(Errc::invalid_argument, "add-stim: bad time");
    }
    tb.stimuli.push_back({time, args[1], *v});
  } else if (command == "add-watch") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "add-watch <signal>");
    tb.watches.push_back(args[0]);
  } else if (command == "set-runtime") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "set-runtime <t>");
    if (!support::parse_integer(args[0], tb.runtime)) {
      return fail(Errc::invalid_argument, "set-runtime: bad time");
    }
  } else if (command == "clear-results") {
    tb.has_results = false;
    tb.results.clear();
    tb.trace_text.clear();
    tb.events = 0;
  } else if (command == "run") {
    if (!resolver) return fail(Errc::invalid_argument, "simulator has no design-data resolver");
    if (tb.dut.cell.empty()) return fail(Errc::invalid_argument, "no DUT set");
    auto top = resolver(tb.dut);
    if (!top.ok()) return fail(top.error().code, "cannot load DUT: " + top.error().message);
    auto circuit = elaborate(*top, tb.dut.cell, resolver);
    if (!circuit.ok()) return fail(circuit.error().code, circuit.error().message);
    Simulator sim(std::move(*circuit));
    for (const auto& stim : tb.stimuli) {
      if (auto st = sim.inject(stim.time, stim.signal, stim.value); !st.ok()) {
        return fail(st.error().code, "stimulus: " + st.error().message);
      }
    }
    auto run = sim.run(tb.runtime);
    if (!run.ok()) return fail(run.error().code, run.error().message);
    tb.results.clear();
    tb.trace_text.clear();
    for (const auto& w : tb.watches) {
      auto v = sim.value(w);
      if (!v.ok()) return fail(v.error().code, "watch: " + v.error().message);
      tb.results.emplace_back(w, *v);
    }
    for (const auto& change : sim.trace()) {
      const std::string& name = sim.circuit().signal_names[static_cast<std::size_t>(change.signal)];
      if (std::find(tb.watches.begin(), tb.watches.end(), name) == tb.watches.end()) continue;
      tb.trace_text.push_back(std::to_string(change.time) + " " + name + " " +
                              to_char(change.value));
    }
    tb.events = sim.stats().events_processed;
    tb.has_results = true;
  } else if (command == "add-instance" || command == "remove-instance") {
    return fail(Errc::not_supported, "the simulator does not edit hierarchy");
  } else {
    return fail(Errc::not_found, "simulator tool: unknown command " + command);
  }

  DesignFile updated = doc;
  updated.payload = tb.serialize();
  updated.uses.clear();
  if (!tb.dut.cell.empty()) updated.uses.push_back(tb.dut);
  return updated;
}

}  // namespace oracle

// ======================= random scripts =====================================

struct Command {
  std::string name;
  std::vector<std::string> args;
};

std::string describe(const Command& cmd) {
  std::string out = cmd.name;
  for (const auto& a : cmd.args) out += " " + a;
  return out;
}

std::string pick(support::Rng& rng, const std::vector<std::string>& pool) {
  return pool[rng.below(pool.size())];
}

/// A tool under test, its per-command oracle, and its random commands.
struct ToolCase {
  std::string view;
  std::function<Result<DesignFile>(const DesignFile&, const Command&)> oracle_apply;
  std::function<Status(const DesignFile&)> oracle_validate;
  std::function<Command(support::Rng&)> command;
};

// Small name pools so commands collide: duplicates, renames onto
// existing names and reconnects happen often. "9bad" is not an
// identifier, so validate() has something to reject.
const std::vector<std::string> kNets = {"n0", "n1", "n2", "n3", "a", "b", "y", "9bad"};
const std::vector<std::string> kElements = {"g0", "g1", "u0", "u1"};
const std::vector<std::string> kPins = {"a", "b", "y", "clk", "zz"};
const std::vector<std::string> kGates = {"AND", "OR", "NOT", "BUF", "DFF", "XOR", "FROB"};
const std::vector<std::string> kMasters = {"c0", "c1", "c2", "top"};  // top = the cell itself
const std::vector<std::string> kViews = {"schematic", "layout", "symbol"};

Command schematic_command(support::Rng& rng) {
  switch (rng.below(15)) {
    case 0: return {"add-port", {pick(rng, kNets), pick(rng, {"in", "out", "inout", "weird"})}};
    case 1: return {"add-net", {pick(rng, kNets)}};
    case 2: return {"add-prim", {pick(rng, kElements), pick(rng, kGates)}};
    case 3:
    case 4: return {"add-instance", {pick(rng, kElements), pick(rng, kMasters), pick(rng, kViews)}};
    case 5:
    case 6: return {"remove-instance", {pick(rng, kElements)}};
    case 7:
    case 8:
    case 9: return {"connect", {pick(rng, kNets), pick(rng, kElements), pick(rng, kPins)}};
    case 10:
    case 11: return {"disconnect", {pick(rng, kNets), pick(rng, kElements), pick(rng, kPins)}};
    case 12: return {"rename-net", {pick(rng, kNets), pick(rng, kNets)}};
    case 13: return {"add-net", {}};  // wrong arity
    default: return {"frobnicate", {"x"}};
  }
}

std::string coord(support::Rng& rng) {
  if (rng.below(12) == 0) return pick(rng, {"1x", "--3"});
  return std::to_string(rng.range(-10, 49));
}

Command layout_command(support::Rng& rng) {
  const std::vector<std::string> layers = {"m1", "m2", "poly"};
  switch (rng.below(10)) {
    case 0: return {"add-layer", {pick(rng, layers)}};
    case 1:
    case 2: {
      Command c{"draw-rect", {pick(rng, layers), coord(rng), coord(rng), coord(rng), coord(rng)}};
      if (rng.below(2) == 0) c.args.push_back(pick(rng, kNets));
      return c;
    }
    case 3: return {"move-rect", {std::to_string(rng.range(-1, 4)), coord(rng), coord(rng)}};
    case 4: return {"delete-rect", {std::to_string(rng.range(-1, 4))}};
    case 5:
      return {"add-instance",
              {pick(rng, kElements), pick(rng, kMasters), pick(rng, kViews), coord(rng), coord(rng)}};
    case 6: return {"remove-instance", {pick(rng, kElements)}};
    case 7: return {"check-drc", {pick(rng, {"1", "3", "40", "0", "x"})}};
    case 8: return {"draw-rect", {"m1", "0"}};  // wrong arity
    default: return {"erase-all", {}};
  }
}

Command testbench_command(support::Rng& rng) {
  const std::vector<std::string> signals = {"a", "b", "y", "ghost"};
  switch (rng.below(11)) {
    case 0: return {"set-dut", {pick(rng, {"andcell", "andcell", "nocell"}), "schematic"}};
    case 1:
    case 2:
      return {"add-stim", {pick(rng, {"0", "3", "10", "x1"}), pick(rng, signals),
                           pick(rng, {"0", "1", "X", "Z", "Q", "10"})}};
    case 3: return {"add-watch", {pick(rng, signals)}};
    case 4: return {"set-runtime", {pick(rng, {"20", "50", "-5", "12abc"})}};
    case 5: return {"clear-results", {}};
    case 6:
    case 7: return {"run", {}};
    case 8: return {"add-instance", {"u", "c", "v"}};
    case 9: return {"remove-instance", {"u"}};
    default: return {"step", {}};
  }
}

Schematic and_cell() {
  Schematic sch;
  sch.ports = {{"a", PortDir::in}, {"b", PortDir::in}, {"y", PortDir::out}};
  sch.nets = {"a", "b", "y"};
  sch.primitives = {{"g", "AND"}};
  sch.connections = {{"a", "g", "a"}, {"b", "g", "b"}, {"y", "g", "y"}};
  return sch;
}

SchematicResolver and_cell_resolver() {
  return [sch = and_cell()](const CellViewKey& key) -> Result<Schematic> {
    if (key.cell != "andcell") return Result<Schematic>::failure(Errc::not_found, key.cell);
    return sch;
  };
}

/// Perturb a payload the way hand-edited or foreign files look: comment
/// and blank lines, tabs, runs of spaces, CR line ends -- and sometimes
/// a record no grammar accepts, or a duplicated record.
std::string perturb(support::Rng& rng, const std::string& payload) {
  std::string out;
  for (const auto& line : support::split(payload, '\n')) {
    if (line.empty()) continue;
    switch (rng.below(8)) {
      case 0: out += "# note\n"; break;
      case 1: out += "\n   \n"; break;
      default: break;
    }
    std::string spaced;
    for (char c : line) {
      if (c == ' ') {
        spaced += rng.below(2) == 0 ? "\t " : "  ";
      } else {
        spaced += c;
      }
    }
    out += rng.below(4) == 0 ? "  " + spaced + " \r\n" : line + "\n";
    if (rng.below(25) == 0) out += line + "\n";  // duplicate record
  }
  if (rng.below(15) == 0) out += "bogus record here\n";
  if (rng.below(3) == 0 && !out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

class ToolSessionProperty : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs.mkdirs(vfs::Path().child("libs")).ok());
    auto lib = fmcad::Library::create(&fs, &clock, vfs::Path().child("libs"), "work");
    ASSERT_TRUE(lib.ok());
    library = *lib;
    designer = std::make_unique<fmcad::DesignerSession>(library, "alice");
    ASSERT_TRUE(designer->define_view("schematic", "schematic").ok());
    ASSERT_TRUE(designer->define_view("layout", "layout").ok());
    ASSERT_TRUE(designer->define_view("simulate", "simulate").ok());
    ASSERT_TRUE(designer->create_cell("top").ok());
    for (const char* view : {"schematic", "layout", "simulate"}) {
      ASSERT_TRUE(designer->create_cellview({"top", view}).ok());
    }
    sim_tool.set_resolver(and_cell_resolver());
  }

  /// The starting file of one script: empty, or grown by valid-or-not
  /// commands through the oracle, then perturbed; the envelope's
  /// uses-list is sometimes tampered with.
  std::string initial_text(support::Rng& rng, const ToolCase& tc) {
    if (rng.below(6) == 0) return "";
    DesignFile file;
    file.cell = "top";
    file.view = tc.view;
    file.viewtype = tc.view;
    const std::uint64_t steps = rng.below(40);
    for (std::uint64_t i = 0; i < steps; ++i) {
      auto next = tc.oracle_apply(file, tc.command(rng));
      if (next.ok()) file = std::move(*next);
    }
    file.payload = perturb(rng, file.payload);
    switch (rng.below(10)) {
      case 0: file.uses.clear(); break;
      case 1: file.uses.push_back({"c9", "schematic"}); break;
      case 2: std::reverse(file.uses.begin(), file.uses.end()); break;
      default: break;
    }
    return file.serialize();
  }

  void run_scripts(const ToolCase& tc, fmcad::ToolInterface& tool, std::uint32_t seed) {
    support::Rng rng(seed * 7919ull + tc.view.size());
    const CellViewKey key{"top", tc.view};
    std::size_t edits_ok = 0, edits_failed = 0, saves_ok = 0, saves_refused = 0;
    for (int script = 0; script < 120; ++script) {
      const std::string text = initial_text(rng, tc);
      ASSERT_TRUE(designer->checkout(key).ok());
      ASSERT_TRUE(designer->write_working(key, text).ok());
      ASSERT_TRUE(designer->checkin(key).ok());

      // The oracle's document, as the old session held it.
      DesignFile expected;
      if (text.empty()) {
        expected.cell = "top";
        expected.view = tc.view;
        expected.viewtype = tool.viewtype();
      } else {
        auto parsed = oracle::parse_file(text);
        ASSERT_TRUE(parsed.ok()) << parsed.error().to_text();
        expected = std::move(*parsed);
      }
      const DesignFile initial = expected;
      DesignFile stateless = expected;

      fmcad::ToolSession session(designer.get(), &tool, &bus, &interp);
      ASSERT_TRUE(session.open(key, /*read_only=*/false).ok());
      const std::uint64_t length = rng.below(60);
      for (std::uint64_t i = 0; i < length; ++i) {
        const Command cmd = tc.command(rng);
        const std::string context = tc.view + " script " + std::to_string(script) + " step " +
                                    std::to_string(i) + ": " + describe(cmd);
        auto want = tc.oracle_apply(expected, cmd);
        const Status got = session.edit(cmd.name, cmd.args);
        ASSERT_EQ(got.code(), want.code()) << context;
        if (!want.ok()) {
          ASSERT_EQ(got.error().message, want.error().message) << context;
          ++edits_failed;
        } else {
          expected = std::move(*want);
          ++edits_ok;
        }
        auto replayed = tool.apply(stateless, cmd.name, cmd.args);
        ASSERT_EQ(replayed.code(), got.code()) << context << " (stateless apply)";
        if (replayed.ok()) stateless = std::move(*replayed);
      }
      ASSERT_EQ(stateless.serialize(), expected.serialize()) << tc.view << " script " << script;

      const std::string context = tc.view + " script " + std::to_string(script) + " save";
      const Status verdict = tc.oracle_validate(expected);
      ASSERT_EQ(tool.validate(expected).code(), verdict.code()) << context;
      auto version = session.checkin();
      ASSERT_EQ(version.code(), verdict.code()) << context;
      if (!verdict.ok()) {
        ASSERT_EQ(version.error().message, verdict.error().message) << context;
        ASSERT_TRUE(session.discard().ok()) << context;
        ++saves_refused;
        continue;
      }
      ++saves_ok;
      auto stored = designer->read_default(key);
      ASSERT_TRUE(stored.ok()) << context;
      ASSERT_EQ(*stored, expected.serialize()) << context << "\nfrom:\n" << initial.serialize();
    }
    std::fprintf(stderr,
                 "[ToolSessionProperty] seed=%u %s: %zu edits ok, %zu refused; %zu saves ok, "
                 "%zu refused\n",
                 seed, tc.view.c_str(), edits_ok, edits_failed, saves_ok, saves_refused);
    // Both outcomes must occur, or the comparison is one-sided.
    EXPECT_GT(edits_ok, 0u);
    EXPECT_GT(edits_failed, 0u);
    EXPECT_GT(saves_ok, 0u);
    EXPECT_GT(saves_refused, 0u);
  }

  support::SimClock clock;
  vfs::FileSystem fs{&clock};
  std::shared_ptr<fmcad::Library> library;
  std::unique_ptr<fmcad::DesignerSession> designer;
  fmcad::ItcBus bus;
  extlang::Interpreter interp;
  SchematicTool schematic_tool;
  LayoutTool layout_tool;
  SimulatorTool sim_tool;
};

TEST_P(ToolSessionProperty, SchematicSessionMatchesPerCommandRoundTrip) {
  ToolCase tc{"schematic",
              [](const DesignFile& d, const Command& c) {
                return oracle::apply_schematic(d, c.name, c.args);
              },
              oracle::validate_schematic, schematic_command};
  run_scripts(tc, schematic_tool, GetParam());
}

TEST_P(ToolSessionProperty, LayoutSessionMatchesPerCommandRoundTrip) {
  ToolCase tc{"layout",
              [](const DesignFile& d, const Command& c) {
                return oracle::apply_layout(d, c.name, c.args);
              },
              oracle::validate_layout, layout_command};
  run_scripts(tc, layout_tool, GetParam());
}

TEST_P(ToolSessionProperty, SimulatorSessionMatchesPerCommandRoundTrip) {
  const SchematicResolver resolver = and_cell_resolver();
  ToolCase tc{"simulate",
              [resolver](const DesignFile& d, const Command& c) {
                return oracle::apply_testbench(resolver, d, c.name, c.args);
              },
              oracle::validate_testbench, testbench_command};
  run_scripts(tc, sim_tool, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ToolSessionProperty,
    ::testing::ValuesIn(jfm::testing::test_seeds<std::uint32_t>("ToolSessionProperty",
                                                                {3, 17, 42, 1995})));

}  // namespace
}  // namespace jfm::tools
