// The inputs the workloads compile, and the traced replay: one compile
// re-run through the public functions the pipeline stages call, each call
// recorded as a layer span, with the artifacts kept for comparison against
// the untraced compile.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"

namespace perfbench {

struct Design {
  std::string name;
  silc::core::Flow flow = silc::core::Flow::Behavioral;
  std::string source;
};

/// counter3-6, gray2, traffic and the structural inverter chain: the
/// small mixed batch whose designs share standard cells.
[[nodiscard]] std::vector<Design> crew_designs();

/// What a reference (untraced) compile or a replay produced.
struct Artifacts {
  std::string cif;
  std::vector<silc::drc::Violation> violations;
  silc::extract::Netlist netlist;
  bool verified = false;  // every check the flow runs passed
  int pla_terms = 0;      // behavioral flow only
};

/// core::compile's own path (DesignDB + the standard pipeline), keeping the
/// netlist that compile() drops. Same options semantics as compile().
[[nodiscard]] Artifacts reference_compile(const Design& d,
                                          const silc::core::CompileOptions& o);

/// Replay `d` as one op span, through the public layer functions the
/// pipeline stages call, each call a layer span. `o` supplies the caches
/// and thread counts exactly as the pipeline would see them. For a
/// behavioral design a probe then re-runs, outside the op, the
/// minimization and the PLA layout that assemble_fsm_chip performs inside,
/// so the assemble span can be split.
/// `counters` receives the obs counter deltas over the op.
[[nodiscard]] Artifacts replay_compile(const Design& d,
                                       const silc::core::CompileOptions& o,
                                       Counters& counters);

/// True when the replay reached the reference's CIF, violations, netlist
/// and verdict.
[[nodiscard]] bool same_artifacts(const Artifacts& a, const Artifacts& b);

}  // namespace perfbench
