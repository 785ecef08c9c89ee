#include "jfm/tools/sim_tool.hpp"

#include <algorithm>

#include "jfm/support/strings.hpp"

namespace jfm::tools {

using fmcad::DesignFile;
using support::Errc;
using support::Result;
using support::Status;

std::string Testbench::serialize() const {
  std::string out;
  if (!dut.cell.empty()) out += "dut " + dut.cell + " " + dut.view + "\n";
  for (const auto& s : stimuli) {
    out += "stim " + std::to_string(s.time) + " " + s.signal + " " + to_char(s.value) + "\n";
  }
  for (const auto& w : watches) out += "watch " + w + "\n";
  out += "runtime " + std::to_string(runtime) + "\n";
  if (has_results) {
    for (const auto& [signal, value] : results) {
      out += "result " + signal + " " + to_char(value) + "\n";
    }
    for (const auto& row : trace_text) out += "trace " + row + "\n";
    out += "events " + std::to_string(events) + "\n";
  }
  return out;
}

Result<Testbench> Testbench::parse(const std::string& payload) {
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

Status SimulatorTool::validate(const DesignFile& doc) const {
  if (doc.viewtype != viewtype()) {
    return support::fail(Errc::invalid_argument, "not a testbench document");
  }
  auto tb = Testbench::parse(doc.payload);
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

Result<DesignFile> SimulatorTool::apply(const DesignFile& doc, const std::string& command,
                                        const std::vector<std::string>& args) const {
  auto fail = [](Errc code, std::string msg) {
    return Result<DesignFile>::failure(code, std::move(msg));
  };
  auto parsed = Testbench::parse(doc.payload);
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
    auto v = logic_from(args[1 + 1][0]);
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
    if (!resolver_) {
      return fail(Errc::invalid_argument, "simulator has no design-data resolver");
    }
    if (tb.dut.cell.empty()) return fail(Errc::invalid_argument, "no DUT set");
    auto top = resolver_(tb.dut);
    if (!top.ok()) {
      return fail(top.error().code, "cannot load DUT: " + top.error().message);
    }
    auto circuit = elaborate(*top, tb.dut.cell, resolver_);
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

}  // namespace jfm::tools
