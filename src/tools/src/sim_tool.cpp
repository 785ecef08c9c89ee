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
  support::LineTokenizer t(payload);
  while (t.next()) {
    const std::string_view line = t.line();
    if (line.empty() || line[0] == '#') continue;
    auto fail = [&](const std::string& why) {
      return Result<Testbench>::failure(Errc::parse_error, "testbench: " + why);
    };
    auto bad_number = [&] { return fail("bad number in '" + std::string(line) + "'"); };
    if (t[0] == "dut" && t.size() == 3) {
      out.dut = {std::string(t[1]), std::string(t[2])};
    } else if (t[0] == "stim" && t.size() == 4 && t[2].size() >= 1 && t[3].size() == 1) {
      auto v = logic_from(t[3][0]);
      if (!v.ok()) return fail(v.error().message);
      SimTime time = 0;
      if (!support::parse_integer(t[1], time)) return bad_number();
      out.stimuli.push_back({time, std::string(t[2]), *v});
    } else if (t[0] == "watch" && t.size() == 2) {
      out.watches.emplace_back(t[1]);
    } else if (t[0] == "runtime" && t.size() == 2) {
      if (!support::parse_integer(t[1], out.runtime)) return bad_number();
    } else if (t[0] == "result" && t.size() == 3 && t[2].size() == 1) {
      auto v = logic_from(t[2][0]);
      if (!v.ok()) return fail(v.error().message);
      out.results.emplace_back(std::string(t[1]), *v);
      out.has_results = true;
    } else if (t[0] == "trace" && t.size() == 4) {
      out.trace_text.push_back(std::string(t[1]) + " " + std::string(t[2]) + " " +
                               std::string(t[3]));
      out.has_results = true;
    } else if (t[0] == "events" && t.size() == 2) {
      if (!support::parse_integer(t[1], out.events)) return bad_number();
      out.has_results = true;
    } else {
      return fail("bad record '" + std::string(line) + "'");
    }
  }
  return out;
}

namespace {

/// The open testbench, edited in place. `run` reads the tool's resolver
/// when it runs, so a resolver set after open() is the one used.
class TestbenchDocument final : public fmcad::ToolDocument {
 public:
  TestbenchDocument(const DesignFile& file, Testbench tb, const SchematicResolver& resolver)
      : ToolDocument(file), tb_(std::move(tb)), resolver_(resolver) {}

  Status validate() const override {
    if (viewtype() != "simulate") {
      return support::fail(Errc::invalid_argument, "not a testbench document");
    }
    if (!tb_.dut.cell.empty()) {
      const auto listed = uses();
      if (std::find(listed.begin(), listed.end(), tb_.dut) == listed.end()) {
        return support::fail(Errc::consistency_violation,
                             "envelope uses-list does not include the DUT");
      }
    }
    return {};
  }

 protected:
  Status apply(const std::string& command, const std::vector<std::string>& args) override;
  std::string serialize() const override { return tb_.serialize(); }
  std::vector<fmcad::CellViewKey> masters() const override {
    if (tb_.dut.cell.empty()) return {};
    return {tb_.dut};
  }

 private:
  /// Simulate the DUT and replace the results; all-or-nothing.
  Status run();
  void clear_results() {
    tb_.has_results = false;
    tb_.results.clear();
    tb_.trace_text.clear();
    tb_.events = 0;
  }

  Testbench tb_;
  const SchematicResolver& resolver_;
};

Status TestbenchDocument::apply(const std::string& command, const std::vector<std::string>& args) {
  auto fail = [](Errc code, std::string msg) { return support::fail(code, std::move(msg)); };

  if (command == "set-dut") {
    if (args.size() != 2) return fail(Errc::invalid_argument, "set-dut <cell> <view>");
    tb_.dut = {args[0], args[1]};
    clear_results();
  } else if (command == "add-stim") {
    if (args.size() != 3 || args[2].size() != 1) {
      return fail(Errc::invalid_argument, "add-stim <time> <signal> <0|1|X|Z>");
    }
    auto v = logic_from(args[2][0]);
    if (!v.ok()) return Status(v.error());
    SimTime time = 0;
    if (!support::parse_integer(args[0], time)) {
      return fail(Errc::invalid_argument, "add-stim: bad time");
    }
    tb_.stimuli.push_back({time, args[1], *v});
  } else if (command == "add-watch") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "add-watch <signal>");
    tb_.watches.push_back(args[0]);
  } else if (command == "set-runtime") {
    if (args.size() != 1) return fail(Errc::invalid_argument, "set-runtime <t>");
    if (!support::parse_integer(args[0], tb_.runtime)) {
      return fail(Errc::invalid_argument, "set-runtime: bad time");
    }
  } else if (command == "clear-results") {
    clear_results();
  } else if (command == "run") {
    return run();
  } else if (command == "add-instance" || command == "remove-instance") {
    return fail(Errc::not_supported, "the simulator does not edit hierarchy");
  } else {
    return fail(Errc::not_found, "simulator tool: unknown command " + command);
  }
  return {};
}

Status TestbenchDocument::run() {
  auto fail = [](Errc code, std::string msg) { return support::fail(code, std::move(msg)); };
  if (!resolver_) return fail(Errc::invalid_argument, "simulator has no design-data resolver");
  if (tb_.dut.cell.empty()) return fail(Errc::invalid_argument, "no DUT set");
  auto top = resolver_(tb_.dut);
  if (!top.ok()) return fail(top.error().code, "cannot load DUT: " + top.error().message);
  auto circuit = elaborate(*top, tb_.dut.cell, resolver_);
  if (!circuit.ok()) return Status(circuit.error());
  Simulator sim(std::move(*circuit));
  for (const auto& stim : tb_.stimuli) {
    if (auto st = sim.inject(stim.time, stim.signal, stim.value); !st.ok()) {
      return fail(st.error().code, "stimulus: " + st.error().message);
    }
  }
  auto ran = sim.run(tb_.runtime);
  if (!ran.ok()) return Status(ran.error());
  std::vector<std::pair<std::string, Logic>> results;
  for (const auto& w : tb_.watches) {
    auto v = sim.value(w);
    if (!v.ok()) return fail(v.error().code, "watch: " + v.error().message);
    results.emplace_back(w, *v);
  }
  std::vector<std::string> trace_text;
  for (const auto& change : sim.trace()) {
    const std::string& name = sim.circuit().signal_names[static_cast<std::size_t>(change.signal)];
    if (std::find(tb_.watches.begin(), tb_.watches.end(), name) == tb_.watches.end()) continue;
    trace_text.push_back(std::to_string(change.time) + " " + name + " " + to_char(change.value));
  }
  tb_.results = std::move(results);
  tb_.trace_text = std::move(trace_text);
  tb_.events = sim.stats().events_processed;
  tb_.has_results = true;
  return {};
}

}  // namespace

Result<std::unique_ptr<fmcad::ToolDocument>> SimulatorTool::parse(const DesignFile& file) const {
  auto tb = Testbench::parse(file.payload);
  if (!tb.ok()) return tb.error();
  return std::unique_ptr<fmcad::ToolDocument>(
      std::make_unique<TestbenchDocument>(file, std::move(*tb), resolver_));
}

}  // namespace jfm::tools
