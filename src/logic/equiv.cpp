#include "logic/equiv.hpp"

#include <algorithm>
#include <stdexcept>

namespace silc::logic {

namespace {

/// The variable bound by the most cubes (lowest index on ties), among the
/// `bound` ones: splitting where cubes actually constrain shrinks both
/// cofactors fastest (the espresso heuristic).
int most_bound_var(const std::vector<Cube>& cover, std::uint32_t bound) {
  int var = -1, best = -1;
  for (std::uint32_t m = bound; m != 0; m &= m - 1) {
    const int v = __builtin_ctz(m);
    int count = 0;
    for (const Cube& c : cover) count += (c.mask >> v) & 1;
    if (count > best) {
      best = count;
      var = v;
    }
  }
  return var;
}

/// Shannon-cofactor tautology over the subspace reached by `assigned`
/// (value bits of the variables fixed so far). Cubes in `cover` have had
/// the assigned variables cofactored out of their masks already. Writes an
/// uncovered minterm (free variables zero) to `*cex` on failure.
bool taut_rec(const std::vector<Cube>& cover, std::uint32_t assigned,
              std::uint32_t* cex) {
  std::uint32_t bound = 0;
  for (const Cube& c : cover) {
    if (c.mask == 0) return true;  // covers the whole subspace
    bound |= c.mask;
  }
  if (cover.empty()) {
    // Nothing covers this subspace: any completion is a counterexample.
    if (cex != nullptr) *cex = assigned;
    return false;
  }
  const std::uint32_t bit = 1u << most_bound_var(cover, bound);
  for (const std::uint32_t polarity : {0u, bit}) {
    std::vector<Cube> cof;
    cof.reserve(cover.size());
    for (const Cube& c : cover) {
      if ((c.mask & bit) != 0 && (c.value & bit) != polarity) continue;
      cof.push_back({c.mask & ~bit, c.value & ~bit});
    }
    if (!taut_rec(cof, assigned | polarity, cex)) return false;
  }
  return true;
}

/// Append one cube per maximal aligned subspace of rows [lo, lo+len) that
/// lies entirely in the target set. Returns 0 = none in set, 1 = all in
/// set (caller may merge upward, nothing emitted yet), 2 = mixed.
int cover_rec(const TruthTable& f, Tri which, std::uint32_t lo,
              std::uint32_t len, std::vector<Cube>& out) {
  if (len == 1) return f.get(lo) == which ? 1 : 0;
  const std::uint32_t half = len / 2;
  const int a = cover_rec(f, which, lo, half, out);
  const int b = cover_rec(f, which, lo + half, half, out);
  if (a == 1 && b == 1) return 1;
  const std::uint32_t space = f.size() - 1;
  if (a == 1) out.push_back({~(half - 1) & space, lo});
  if (b == 1) out.push_back({~(half - 1) & space, lo + half});
  return (a == 0 && b == 0) ? 0 : 2;
}

/// Keep only the maximal cubes: drop duplicates and every cube contained
/// in another.
void absorb(std::vector<Cube>& cubes) {
  // Fewer literals first: a cube can only be contained in one with no
  // more literals, and equal-size containment is equality.
  std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
    const int la = a.literal_count(), lb = b.literal_count();
    return la != lb ? la < lb : a < b;
  });
  cubes.erase(std::unique(cubes.begin(), cubes.end()), cubes.end());
  std::vector<Cube> kept;
  kept.reserve(cubes.size());
  for (const Cube& c : cubes) {
    if (std::none_of(kept.begin(), kept.end(),
                     [&c](const Cube& k) { return k.contains(c); })) {
      kept.push_back(c);
    }
  }
  cubes = std::move(kept);
}

}  // namespace

bool cube_covered(int num_inputs, const Cube& cube,
                  const std::vector<Cube>& cover,
                  std::uint32_t* counterexample) {
  if (num_inputs < 0 || num_inputs > 32) {
    throw std::invalid_argument("cube_covered: bad variable count");
  }
  // Cofactor the cover against the cube: drop cubes that conflict with a
  // fixed literal, free the cube's variables in the rest.
  std::vector<Cube> cof;
  cof.reserve(cover.size());
  for (const Cube& c : cover) {
    if (((c.value ^ cube.value) & c.mask & cube.mask) != 0) continue;
    cof.push_back({c.mask & ~cube.mask, c.value & ~cube.mask});
  }
  std::uint32_t free_cex = 0;
  if (taut_rec(cof, 0, counterexample == nullptr ? nullptr : &free_cex)) {
    return true;
  }
  if (counterexample != nullptr) {
    *counterexample = (free_cex & ~cube.mask) | cube.value;
  }
  return false;
}

bool is_tautology(int num_inputs, const std::vector<Cube>& cover,
                  std::uint32_t* counterexample) {
  return cube_covered(num_inputs, Cube{0, 0}, cover, counterexample);
}

std::vector<Cube> exact_cover(const TruthTable& f, Tri which) {
  std::vector<Cube> out;
  if (cover_rec(f, which, 0, f.size(), out) == 1) {
    out.push_back({0, 0});  // the whole space is one cube
  }
  return out;
}

// A prime that binds the split variable x comes from one cofactor; one
// that does not is an implicant of both, hence a product p0∩p1. Every
// other candidate is contained in some prime and absorbed.
std::vector<Cube> all_primes(const std::vector<Cube>& cover) {
  if (cover.size() <= 1) return cover;
  std::uint32_t bound = 0;
  for (const Cube& c : cover) {
    if (c.mask == 0) return {Cube{}};
    bound |= c.mask;
  }
  const std::uint32_t bit = 1u << most_bound_var(cover, bound);
  std::vector<Cube> cof[2];
  for (const Cube& c : cover) {
    const Cube freed{c.mask & ~bit, c.value & ~bit};
    if ((c.mask & bit) == 0 || (c.value & bit) == 0) cof[0].push_back(freed);
    if ((c.mask & bit) == 0 || (c.value & bit) != 0) cof[1].push_back(freed);
  }
  const std::vector<Cube> p0 = all_primes(cof[0]);
  const std::vector<Cube> p1 = all_primes(cof[1]);
  std::vector<Cube> out;
  out.reserve(p0.size() + p1.size());
  for (const Cube& a : p0) out.push_back({a.mask | bit, a.value});
  for (const Cube& b : p1) out.push_back({b.mask | bit, b.value | bit});
  for (const Cube& a : p0) {
    for (const Cube& b : p1) {
      if (((a.value ^ b.value) & a.mask & b.mask) != 0) continue;
      out.push_back({a.mask | b.mask, a.value | b.value});
    }
  }
  absorb(out);
  return out;
}

EquivVerdict check_cover_equiv(const TruthTable& f,
                               const std::vector<Cube>& cover) {
  EquivVerdict v;
  const int n = f.num_inputs();
  // Direction 1: the cover must stay out of the off-set — every cube must
  // be contained in on ∪ dc. A violation minterm is one the cover asserts
  // but the function forbids.
  std::vector<Cube> on_or_dc = exact_cover(f, Tri::One);
  {
    const std::vector<Cube> dc = exact_cover(f, Tri::DontCare);
    on_or_dc.insert(on_or_dc.end(), dc.begin(), dc.end());
  }
  for (const Cube& c : cover) {
    std::uint32_t m = 0;
    if (!cube_covered(n, c, on_or_dc, &m)) {
      v.equal = false;
      v.counterexample = m;
      v.expected = false;  // f says 0 there
      v.got = true;        // the cube asserts 1
      return v;
    }
  }
  // Direction 2: every on-set minterm must be covered.
  for (const Cube& o : exact_cover(f, Tri::One)) {
    std::uint32_t m = 0;
    if (!cube_covered(n, o, cover, &m)) {
      v.equal = false;
      v.counterexample = m;
      v.expected = true;  // f says 1 there
      v.got = false;      // no cube reaches it
      return v;
    }
  }
  return v;
}

}  // namespace silc::logic
