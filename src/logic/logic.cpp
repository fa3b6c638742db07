#include "logic/logic.hpp"

#include "logic/equiv.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <stdexcept>

namespace silc::logic {

std::string Cube::to_string(int num_inputs) const {
  std::string s;
  for (int i = 0; i < num_inputs; ++i) {
    const std::uint32_t bit = 1u << i;
    s.push_back((mask & bit) == 0 ? '-' : ((value & bit) != 0 ? '1' : '0'));
  }
  return s;
}

TruthTable::TruthTable(int num_inputs) : n_(num_inputs) {
  if (num_inputs < 0 || num_inputs > 20) {
    throw std::invalid_argument("TruthTable supports 0..20 inputs");
  }
  rows_.assign(std::size_t{1} << n_, static_cast<std::uint8_t>(Tri::Zero));
}

TruthTable TruthTable::from_function(int num_inputs,
                                     const std::function<bool(std::uint32_t)>& f) {
  TruthTable t(num_inputs);
  for (std::uint32_t r = 0; r < t.size(); ++r) {
    t.set(r, f(r) ? Tri::One : Tri::Zero);
  }
  return t;
}

TruthTable TruthTable::from_tri_function(
    int num_inputs, const std::function<Tri(std::uint32_t)>& f) {
  TruthTable t(num_inputs);
  for (std::uint32_t r = 0; r < t.size(); ++r) t.set(r, f(r));
  return t;
}

TruthTable TruthTable::from_cover(int num_inputs, const std::vector<Cube>& cover) {
  TruthTable t(num_inputs);
  for (std::uint32_t r = 0; r < t.size(); ++r) {
    for (const Cube& c : cover) {
      if (c.covers(r)) {
        t.set(r, Tri::One);
        break;
      }
    }
  }
  return t;
}

Tri TruthTable::get(std::uint32_t row) const {
  return static_cast<Tri>(rows_[row]);
}

void TruthTable::set(std::uint32_t row, Tri v) {
  rows_[row] = static_cast<std::uint8_t>(v);
}

std::vector<std::uint32_t> TruthTable::on_set() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t r = 0; r < size(); ++r) {
    if (get(r) == Tri::One) out.push_back(r);
  }
  return out;
}

std::vector<std::uint32_t> TruthTable::off_set() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t r = 0; r < size(); ++r) {
    if (get(r) == Tri::Zero) out.push_back(r);
  }
  return out;
}

std::size_t TruthTable::on_count() const {
  std::size_t n = 0;
  for (std::uint32_t r = 0; r < size(); ++r) {
    if (get(r) == Tri::One) ++n;
  }
  return n;
}

bool TruthTable::implemented_by(const std::vector<Cube>& cover) const {
  for (std::uint32_t r = 0; r < size(); ++r) {
    const Tri want = get(r);
    if (want == Tri::DontCare) continue;
    bool covered = false;
    for (const Cube& c : cover) {
      if (c.covers(r)) {
        covered = true;
        break;
      }
    }
    if (covered != (want == Tri::One)) return false;
  }
  return true;
}

// ----------------------------------------------------------- minimizer --

namespace {

/// Largest covering problem (in primes) solved exactly by branch-and-bound.
constexpr std::size_t kBnbLimit = 26;

// Branch-and-bound minimum unate covering: pick the fewest columns
// (primes) covering all rows not yet done (ON minterms), with a node
// budget.
struct CoverSolver {
  const std::vector<std::vector<int>>& row_cols;  // per row: covering columns
  const std::vector<std::vector<int>>& col_rows;  // per column: rows covered
  std::vector<std::uint8_t> row_done;
  std::vector<int> chosen;
  std::vector<int> best;
  bool have_best = false;
  long long budget = 200000;

  void solve(std::size_t rows_left) {
    if (budget-- <= 0) return;
    if (have_best && chosen.size() + 1 >= best.size() && rows_left > 0) return;
    if (rows_left == 0) {
      if (!have_best || chosen.size() < best.size()) {
        best = chosen;
        have_best = true;
      }
      return;
    }
    // Branch on the hardest row (fewest candidate columns).
    std::size_t pick = 0;
    std::size_t fewest = SIZE_MAX;
    for (std::size_t r = 0; r < row_cols.size(); ++r) {
      if (row_done[r] == 0 && row_cols[r].size() < fewest) {
        fewest = row_cols[r].size();
        pick = r;
      }
    }
    for (const int col : row_cols[pick]) {
      std::vector<int> newly;
      for (const int r : col_rows[static_cast<std::size_t>(col)]) {
        if (row_done[static_cast<std::size_t>(r)] != 0) continue;
        row_done[static_cast<std::size_t>(r)] = 1;
        newly.push_back(r);
      }
      chosen.push_back(col);
      solve(rows_left - newly.size());
      chosen.pop_back();
      for (const int r : newly) row_done[static_cast<std::size_t>(r)] = 0;
    }
  }
};

/// Choose a cover of the ON rows from `primes`: essentials in row order,
/// then a minimum cover by branch-and-bound when at most kBnbLimit
/// primes remain, else (or when the search budget runs dry) greedy
/// completion taking the first prime covering the most rows left. Ties
/// resolve by prime order, so the result depends on it.
std::vector<Cube> cover_select(const TruthTable& f,
                               const std::vector<Cube>& primes) {
  const std::vector<std::uint32_t> ons = f.on_set();
  std::vector<std::vector<int>> row_primes(ons.size());
  std::vector<std::vector<int>> prime_rows(primes.size());
  for (std::size_t r = 0; r < ons.size(); ++r) {
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (!primes[p].covers(ons[r])) continue;
      row_primes[r].push_back(static_cast<int>(p));
      prime_rows[p].push_back(static_cast<int>(r));
    }
  }
  std::vector<std::uint8_t> done(ons.size(), 0);
  std::size_t left = ons.size();
  std::vector<Cube> chosen;
  const auto take = [&](int p) {
    chosen.push_back(primes[static_cast<std::size_t>(p)]);
    for (const int r : prime_rows[static_cast<std::size_t>(p)]) {
      if (done[static_cast<std::size_t>(r)] != 0) continue;
      done[static_cast<std::size_t>(r)] = 1;
      --left;
    }
  };

  // Essential primes: rows covered by exactly one prime. Taking one never
  // changes another row's count (it covers every row that counted it).
  for (std::size_t r = 0; r < ons.size(); ++r) {
    if (done[r] == 0 && row_primes[r].size() == 1) take(row_primes[r][0]);
  }
  const auto rows_left = [&](std::size_t p) {
    return static_cast<std::size_t>(std::count_if(
        prime_rows[p].begin(), prime_rows[p].end(),
        [&](int r) { return done[static_cast<std::size_t>(r)] == 0; }));
  };
  std::size_t useful = 0;  // primes still covering a remaining row
  for (std::size_t p = 0; p < primes.size(); ++p) useful += rows_left(p) > 0;

  if (left > 0 && useful <= kBnbLimit) {
    CoverSolver solver{row_primes, prime_rows, done, {}, {}};
    solver.solve(left);
    if (solver.have_best) {
      for (const int p : solver.best) take(p);
    }
  }
  // Greedy completion for anything left.
  while (left > 0) {
    int best_p = -1;
    std::size_t best_cover = 0;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      const std::size_t c = rows_left(p);
      if (c > best_cover) {
        best_cover = c;
        best_p = static_cast<int>(p);
      }
    }
    assert(best_p >= 0);
    take(best_p);
  }
  return chosen;
}

}  // namespace

std::vector<Cube> minimize(const TruthTable& f) {
  if (f.on_count() == 0) return {};
  std::vector<Cube> on_dc = exact_cover(f, Tri::One);
  const std::vector<Cube> dc = exact_cover(f, Tri::DontCare);
  on_dc.insert(on_dc.end(), dc.begin(), dc.end());
  std::vector<Cube> primes = all_primes(on_dc);
  // Most literals first, then cube order: the order Quine-McCluskey's
  // level-by-level tabulation emits, which cover_select's tie-breaks key on.
  std::sort(primes.begin(), primes.end(), [](const Cube& a, const Cube& b) {
    const int la = a.literal_count(), lb = b.literal_count();
    return la != lb ? la > lb : a < b;
  });
  return cover_select(f, primes);
}

// ----------------------------------------------------------- multi-output --

bool PlaTerms::evaluate(int output, std::uint32_t minterm) const {
  for (const int t : output_terms[static_cast<std::size_t>(output)]) {
    if (terms[static_cast<std::size_t>(t)].covers(minterm)) return true;
  }
  return false;
}

PlaTerms minimize_multi(const MultiFunction& f) {
  PlaTerms out;
  out.num_inputs = f.num_inputs;
  std::map<Cube, int> term_index;
  for (const TruthTable& table : f.outputs) {
    assert(table.num_inputs() == f.num_inputs);
    const std::vector<Cube> cover = minimize(table);
    std::vector<int> indices;
    indices.reserve(cover.size());
    for (const Cube& c : cover) {
      auto [it, fresh] = term_index.emplace(c, static_cast<int>(out.terms.size()));
      if (fresh) out.terms.push_back(c);
      indices.push_back(it->second);
    }
    out.output_terms.push_back(std::move(indices));
  }
  return out;
}

}  // namespace silc::logic
