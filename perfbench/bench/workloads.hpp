// The three closed-loop workloads. Each runs from one process, times every
// op from outside, checks every op's result, and returns the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run, which
// records each op's layer calls as spans of the global obs::Tracer).
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Run `cfg.workload`; a traced run expects the global obs::Tracer to be
/// recording. Throws on set-up failure (an input that does not compile at
/// all).
[[nodiscard]] Report run_workload(const RunConfig& cfg);

}  // namespace perfbench
