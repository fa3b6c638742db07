// Shared env convention for every differential/fuzz harness (extract
// equivalence, DRC mode fuzz, compile chaos, incremental recompilation,
// two-level minimization):
//
//   SILC_FUZZ_TRIALS — override a harness's default trial count (the
//     nightly-style long-fuzz knob; ci.sh's gated leg sets it high).
//   SILC_FUZZ_SEED   — run ONLY this one seed, skipping the sweep. This is
//     what the printed repro command sets, so a failure reproduces in one
//     trial without re-running the whole sweep.
//
// Every trial body runs under a SCOPED_TRACE carrying the failing seed and
// a one-line repro command, so any assertion inside it prints both.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace silc_fixtures {

struct FuzzEnv {
  int trials = 0;
  bool has_seed = false;
  unsigned long long seed = 0;
};

/// Read the convention: `default_trials` unless SILC_FUZZ_TRIALS overrides,
/// plus the optional pinned SILC_FUZZ_SEED trial.
inline FuzzEnv fuzz_env(int default_trials) {
  FuzzEnv env;
  env.trials = default_trials;
  if (const char* t = std::getenv("SILC_FUZZ_TRIALS")) {
    const long v = std::strtol(t, nullptr, 10);
    if (v > 0) env.trials = static_cast<int>(v);
  }
  if (const char* s = std::getenv("SILC_FUZZ_SEED")) {
    env.has_seed = true;
    env.seed = std::strtoull(s, nullptr, 10);
  }
  return env;
}

/// The one-line repro command a failing trial prints: which env var to set
/// to which seed, and the exact binary + filter to rerun.
inline std::string fuzz_repro(const char* binary, const char* filter,
                              unsigned long long seed,
                              const char* env_var = "SILC_FUZZ_SEED") {
  return "failing seed " + std::to_string(seed) + " — repro: " + env_var +
         "=" + std::to_string(seed) + " ./" + binary + " --gtest_filter='" +
         filter + "'";
}

/// Run `body(seed)` for seeds [base_seed, base_seed + trials) — or for the
/// single pinned seed when SILC_FUZZ_SEED is set. SILC_FUZZ_TRIALS
/// overrides `trials`. Each call is traced with its repro command.
template <typename Body>
void fuzz_seeds(const char* binary, const char* filter, unsigned base_seed,
                int trials, Body&& body) {
  const FuzzEnv env = fuzz_env(trials);
  if (env.has_seed) {
    SCOPED_TRACE(fuzz_repro(binary, filter, env.seed));
    body(static_cast<unsigned>(env.seed));
    return;
  }
  for (int t = 0; t < env.trials; ++t) {
    const unsigned long long seed = base_seed + static_cast<unsigned>(t);
    SCOPED_TRACE(fuzz_repro(binary, filter, seed));
    body(static_cast<unsigned>(seed));
  }
}

}  // namespace silc_fixtures
