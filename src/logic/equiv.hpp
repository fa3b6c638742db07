// Symbolic two-level equivalence: prove a cube cover equal to a truth
// table (or find a concrete counterexample minterm) without simulating.
//
// The PLA personality and the tabulated FSM are both covers over the same
// Cube algebra, so "does the programmed chip compute the spec?" reduces to
// two containment questions per output bit:
//   * no cube of the cover reaches into the function's off-set, and
//   * every on-set minterm is covered.
// Both are answered by Shannon-cofactor tautology checking, the classic
// espresso primitive: a cover contains a cube iff the cover cofactored
// against that cube is a tautology. Don't-care rows constrain nothing, so
// a cover is free to go either way on them.
//
// Complexity is exponential in the worst case (tautology is coNP-complete)
// but the recursion only branches on variables some cube actually binds,
// which makes real PLA covers — already minimized, few terms, narrow —
// essentially instant; this is what lets the pipeline's pla-check stage
// return a *proof* for less than the cost of one simulated cycle. The same
// recursion generates the prime implicants logic::minimize covers with
// (all_primes), so one cube engine serves minimization and verification.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/logic.hpp"

namespace silc::logic {

/// Verdict of a cover-vs-function equivalence query. When `equal` is
/// false, `counterexample` is a concrete minterm where they disagree:
/// the function's care value there is `expected`, the cover evaluates to
/// `got`.
struct EquivVerdict {
  bool equal = true;
  std::uint32_t counterexample = 0;
  bool expected = false;  // f(counterexample), a care row
  bool got = false;       // cover(counterexample)
};

/// True when `cover` evaluates to 1 on every minterm of `cube` (the
/// containment primitive: cofactor + tautology). On failure, an uncovered
/// minterm inside `cube` is written to `*counterexample` when non-null.
[[nodiscard]] bool cube_covered(int num_inputs, const Cube& cube,
                                const std::vector<Cube>& cover,
                                std::uint32_t* counterexample = nullptr);

/// True when `cover` covers every minterm of the n-variable space.
[[nodiscard]] bool is_tautology(int num_inputs, const std::vector<Cube>& cover,
                                std::uint32_t* counterexample = nullptr);

/// Exact disjoint cover of the rows where `f.get(row) == which`, built by
/// recursive subspace merging (maximal aligned half-spaces become single
/// cubes). Unlike minimize(), the result is not minimal — it is cheap,
/// deterministic, and exact, which is what the equivalence proof wants.
[[nodiscard]] std::vector<Cube> exact_cover(const TruthTable& f, Tri which);

/// Every prime implicant of F, the union of `cover`'s cubes, each once:
/// Shannon recursion on the most-bound variable x (the tautology check's
/// branching), primes(F) = absorb{x'·p0, x·p1, p0∩p1} over the primes
/// p0, p1 of F's two cofactors, where absorb keeps only the cubes no
/// other contains. Order unspecified. logic::minimize's prime step.
[[nodiscard]] std::vector<Cube> all_primes(const std::vector<Cube>& cover);

/// Prove `cover` equal to `f` on every care row (don't-cares are free).
/// Symbolic counterpart of TruthTable::implemented_by, but returns a
/// counterexample minterm instead of a bare bool, and never enumerates
/// the 2^n row space on the success path of a tight cover.
[[nodiscard]] EquivVerdict check_cover_equiv(const TruthTable& f,
                                             const std::vector<Cube>& cover);

}  // namespace silc::logic
