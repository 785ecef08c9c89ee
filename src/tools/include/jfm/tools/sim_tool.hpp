#pragma once
// The FMCAD digital simulator tool (third encapsulated tool, s2.4).
// Opens "testbench" documents of viewtype "simulate": a DUT reference,
// stimuli, watched signals and -- after `run` -- the results.
//
// Payload grammar:
//   dut <cell> <view>
//   stim <time> <signal> <0|1|X|Z>
//   watch <signal>
//   runtime <t>
//   result <signal> <value>          ; written by run
//   trace <time> <signal> <value>    ; written by run (watched signals)
//   events <n>                       ; written by run
//
// The tool needs to read the DUT's schematic (and its children); that
// access is injected as a SchematicResolver, so the *same* tool binary
// runs against native FMCAD dynamic binding or against JCF-pinned
// configurations -- which is exactly how the hybrid framework swaps the
// hierarchy source (s3.3).

#include "jfm/fmcad/tool.hpp"
#include "jfm/tools/elaborate.hpp"

namespace jfm::tools {

struct Testbench {
  fmcad::CellViewKey dut;
  struct Stim {
    SimTime time = 0;
    std::string signal;
    Logic value = Logic::X;
  };
  std::vector<Stim> stimuli;
  std::vector<std::string> watches;
  SimTime runtime = 100;
  // results
  std::vector<std::pair<std::string, Logic>> results;
  std::vector<SignalChange> trace_lines;  ///< signal index unused; names kept separately
  std::vector<std::string> trace_text;    ///< "time signal value" rows
  std::uint64_t events = 0;
  bool has_results = false;

  std::string serialize() const;
  static support::Result<Testbench> parse(const std::string& payload);
};

class SimulatorTool final : public fmcad::ToolInterface {
 public:
  std::string name() const override { return "digital_simulator"; }
  std::string viewtype() const override { return "simulate"; }
  std::string empty_payload() const override { return ""; }

  std::vector<std::string> commands() const override {
    return {"set-dut", "add-stim", "add-watch", "set-runtime", "run", "clear-results"};
  }

  /// Where the simulator gets design data from; must be set before
  /// `run`. Open documents see a later call too.
  void set_resolver(SchematicResolver resolver) { resolver_ = std::move(resolver); }

 protected:
  support::Result<std::unique_ptr<fmcad::ToolDocument>> parse(
      const fmcad::DesignFile& file) const override;

 private:
  SchematicResolver resolver_;
};

}  // namespace jfm::tools
