// Two-level boolean logic: truth tables, cubes, covers, and minimization.
//
// PLAs are "regular blocks ... programmed for specific functions" (the
// paper's microscopic silicon compilation); what gets programmed is a
// minimized sum-of-products cover. This module provides:
//   * TruthTable  - explicit function representation (with don't-cares)
//   * Cube        - a product term as (mask, value) bit pairs
//   * minimize    - the one two-level minimizer, at every width
//   * minimize_multi - multi-output minimization with product-term sharing,
//                   the form a PLA personality wants
//
// minimize works on cubes, never on the minterm-by-minterm tabulation of
// Quine-McCluskey. It takes the exact cover of ON ∪ DC, then generates
// every prime implicant by Shannon recursion on the most-bound variable
// (all_primes in equiv.hpp, espresso's primitive): primes(F) =
// absorb{x'·p0, x·p1, p0∩p1} over the primes p0, p1 of the two cofactors. The primes are sorted by
// literal count descending, then by Cube order — exactly the order QM's
// level tabulation emitted them — and handed to one unate covering step:
// essential primes, then a minimum cover by branch-and-bound when at most
// 26 primes remain, else greedy completion. The covering step breaks ties
// by prime order, so that sort is what makes the covers cube-for-cube
// those QM produced; it is part of the output contract (PLA artwork and
// the golden netlists depend on it).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace silc::logic {

/// A product term over n variables. Bit i of `mask` set means variable i is
/// specified; `value` holds its polarity (bits outside mask are zero).
struct Cube {
  std::uint32_t mask = 0;
  std::uint32_t value = 0;

  [[nodiscard]] bool covers(std::uint32_t minterm) const {
    return (minterm & mask) == value;
  }
  /// True when this cube's minterm set contains the other's.
  [[nodiscard]] bool contains(const Cube& o) const {
    return (o.mask & mask) == mask && (o.value & mask) == value;
  }
  [[nodiscard]] int literal_count() const { return __builtin_popcount(mask); }
  /// "1-0-" style text, variable 0 leftmost.
  [[nodiscard]] std::string to_string(int num_inputs) const;

  friend bool operator==(const Cube& a, const Cube& b) = default;
  friend auto operator<=>(const Cube& a, const Cube& b) = default;
};

enum class Tri : std::uint8_t { Zero, One, DontCare };

/// Explicit truth table, up to 20 inputs (2^20 rows).
class TruthTable {
 public:
  explicit TruthTable(int num_inputs);
  [[nodiscard]] static TruthTable from_function(
      int num_inputs, const std::function<bool(std::uint32_t)>& f);
  /// Rows where `f` returns Tri::DontCare join the DC-set.
  [[nodiscard]] static TruthTable from_tri_function(
      int num_inputs, const std::function<Tri(std::uint32_t)>& f);
  /// Build from a cover (rows covered by any cube are 1).
  [[nodiscard]] static TruthTable from_cover(int num_inputs,
                                             const std::vector<Cube>& cover);

  [[nodiscard]] int num_inputs() const { return n_; }
  [[nodiscard]] std::uint32_t size() const { return 1u << n_; }
  [[nodiscard]] Tri get(std::uint32_t row) const;
  void set(std::uint32_t row, Tri v);

  [[nodiscard]] std::vector<std::uint32_t> on_set() const;
  [[nodiscard]] std::vector<std::uint32_t> off_set() const;
  [[nodiscard]] std::size_t on_count() const;

  /// True when the cover equals this function on every care row.
  [[nodiscard]] bool implemented_by(const std::vector<Cube>& cover) const;

 private:
  int n_;
  std::vector<std::uint8_t> rows_;
};

/// A cover of `f` made only of prime implicants: every ON row covered, no
/// OFF row touched, don't-cares free. Minimum-cardinality when the
/// covering problem left after essentials fits branch-and-bound, greedy
/// completion otherwise. Empty when `f` has no ON row.
[[nodiscard]] std::vector<Cube> minimize(const TruthTable& f);

// ---- multi-output ----

struct MultiFunction {
  int num_inputs = 0;
  std::vector<TruthTable> outputs;
};

/// A PLA personality: shared product terms and, per output, which terms
/// feed its OR column.
struct PlaTerms {
  int num_inputs = 0;
  std::vector<Cube> terms;
  std::vector<std::vector<int>> output_terms;  // [output] -> term indices

  [[nodiscard]] std::size_t term_count() const { return terms.size(); }
  [[nodiscard]] bool evaluate(int output, std::uint32_t minterm) const;
};

/// Minimize every output and share identical product terms.
[[nodiscard]] PlaTerms minimize_multi(const MultiFunction& f);

}  // namespace silc::logic
