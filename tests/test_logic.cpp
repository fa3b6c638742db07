// Logic minimization tests: the one minimizer's covers on hand-picked
// functions, its quality pinned on every committed design, and a fuzz that
// proves each cover exact and prime — plus the symbolic equivalence
// primitives the pipeline's pla-check stage proves covers with.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "design_sources.hpp"
#include "fuzz_env.hpp"
#include "logic/equiv.hpp"
#include "logic/logic.hpp"
#include "pla/pla.hpp"
#include "rtl/rtl.hpp"
#include "synth/synth.hpp"

namespace silc::logic {
namespace {

TEST(Cube, CoverContain) {
  const Cube c{0b011, 0b001};  // x0=1, x1=0, x2=-
  EXPECT_TRUE(c.covers(0b001));
  EXPECT_TRUE(c.covers(0b101));
  EXPECT_FALSE(c.covers(0b011));
  EXPECT_FALSE(c.covers(0b000));
  EXPECT_EQ(c.literal_count(), 2);
  EXPECT_EQ(c.to_string(3), "10-");
  const Cube wider{0b001, 0b001};  // x0=1
  EXPECT_TRUE(wider.contains(c));
  EXPECT_FALSE(c.contains(wider));
  EXPECT_TRUE(c.contains(c));
}

TEST(TruthTable, Basics) {
  TruthTable t = TruthTable::from_function(3, [](std::uint32_t r) {
    return __builtin_popcount(r) >= 2;  // majority
  });
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.on_count(), 4u);
  EXPECT_EQ(t.get(0b011), Tri::One);
  EXPECT_EQ(t.get(0b001), Tri::Zero);
  EXPECT_THROW(TruthTable(21), std::invalid_argument);
  EXPECT_THROW(TruthTable(-1), std::invalid_argument);
}

TEST(Minimize, MajorityIsThreeTerms) {
  // maj(a,b,c) = ab + ac + bc: classic minimal cover.
  const TruthTable t = TruthTable::from_function(
      3, [](std::uint32_t r) { return __builtin_popcount(r) >= 2; });
  const std::vector<Cube> cover = minimize(t);
  EXPECT_EQ(cover.size(), 3u);
  EXPECT_TRUE(t.implemented_by(cover));
  for (const Cube& c : cover) EXPECT_EQ(c.literal_count(), 2);
}

TEST(Minimize, XorNeedsAllMinterms) {
  const TruthTable t = TruthTable::from_function(
      4, [](std::uint32_t r) { return (__builtin_popcount(r) & 1) != 0; });
  const std::vector<Cube> cover = minimize(t);
  EXPECT_EQ(cover.size(), 8u);  // parity has no mergeable minterms
  EXPECT_TRUE(t.implemented_by(cover));
}

TEST(Minimize, ConstantFunctions) {
  const TruthTable ones =
      TruthTable::from_function(4, [](std::uint32_t) { return true; });
  const std::vector<Cube> cover = minimize(ones);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].mask, 0u);  // tautology cube
  const TruthTable zeros =
      TruthTable::from_function(4, [](std::uint32_t) { return false; });
  EXPECT_TRUE(minimize(zeros).empty());
}

TEST(Minimize, DontCaresAreExploited) {
  // f = 1 on {1}, don't-care on {3,5,7}: a single cube x0 suffices.
  TruthTable t(3);
  t.set(1, Tri::One);
  t.set(3, Tri::DontCare);
  t.set(5, Tri::DontCare);
  t.set(7, Tri::DontCare);
  const std::vector<Cube> cover = minimize(t);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].mask, 1u);
  EXPECT_EQ(cover[0].value, 1u);
  EXPECT_TRUE(t.implemented_by(cover));
}

TEST(Minimize, QmTextbookExample) {
  // The classic QM textbook example: f = sum(4,8,10,11,12,15), dc(9,14).
  TruthTable t(4);
  for (const std::uint32_t m : {4u, 8u, 10u, 11u, 12u, 15u}) t.set(m, Tri::One);
  for (const std::uint32_t m : {9u, 14u}) t.set(m, Tri::DontCare);
  const std::vector<Cube> cover = minimize(t);
  EXPECT_TRUE(t.implemented_by(cover));
  // Known minimum: 3 terms, x2x1'x0' + x3x2' + x3x1 (x0 = bit 0).
  EXPECT_EQ(cover.size(), 3u);
}

TEST(Minimize, WideFunction) {
  // 12 inputs: two product terms, each a prime.
  const TruthTable t = TruthTable::from_function(12, [](std::uint32_t r) {
    return (r & 0xF0F) == 0xF0F || (r & 0x0F0) == 0;
  });
  const std::vector<Cube> cover = minimize(t);
  EXPECT_TRUE(t.implemented_by(cover));
  EXPECT_EQ(cover.size(), 2u);
}

TEST(MultiOutput, SharedTerms) {
  // f0 = a&b, f1 = a&b | c : the a&b term must be shared.
  MultiFunction f;
  f.num_inputs = 3;
  f.outputs.push_back(TruthTable::from_function(
      3, [](std::uint32_t r) { return (r & 3) == 3; }));
  f.outputs.push_back(TruthTable::from_function(
      3, [](std::uint32_t r) { return (r & 3) == 3 || (r & 4) != 0; }));
  const PlaTerms terms = minimize_multi(f);
  EXPECT_EQ(terms.terms.size(), 2u);  // {ab, c}
  EXPECT_EQ(terms.output_terms[0].size(), 1u);
  EXPECT_EQ(terms.output_terms[1].size(), 2u);
  for (std::uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(terms.evaluate(0, r), (r & 3) == 3);
    EXPECT_EQ(terms.evaluate(1, r), (r & 3) == 3 || (r & 4) != 0);
  }
}

TEST(MultiOutput, ElevenInputs) {
  MultiFunction f;
  f.num_inputs = 11;
  f.outputs.push_back(TruthTable::from_function(
      11, [](std::uint32_t r) { return (r & 0x41) == 0x41; }));
  const PlaTerms terms = minimize_multi(f);
  ASSERT_EQ(terms.output_terms.size(), 1u);
  EXPECT_EQ(terms.term_count(), 1u);
  for (std::uint32_t r = 0; r < (1u << 11); ++r) {
    EXPECT_EQ(terms.evaluate(0, r), (r & 0x41) == 0x41);
  }
}

// ------------------------------------------------ minimizer quality pins --

struct DesignQuality {
  std::string name;
  MultiFunction function;
  std::size_t terms;
  int literals;
};

/// The E7b 8-state ring: advance on the input, flag state 7.
synth::Fsm ring8() {
  synth::Fsm fsm;
  fsm.num_states = 8;
  fsm.num_inputs = 1;
  fsm.num_outputs = 1;
  fsm.next.assign(8, std::vector<int>(2));
  fsm.out.assign(8, std::vector<std::uint32_t>(2));
  for (std::size_t st = 0; st < 8; ++st) {
    fsm.next[st] = {static_cast<int>(st), static_cast<int>((st + 1) % 8)};
    fsm.out[st] = {st == 7 ? 1u : 0u, st == 7 ? 1u : 0u};
  }
  return fsm;
}

MultiFunction tabulated(const std::string& source) {
  return synth::tabulate(rtl::parse(source)).function;
}

/// Terms/literals of the complement covers a PLA programs, for every
/// behavioral design the compiler builds and the E7b encoding ablation.
/// counter3-9, gray2, traffic and E7b match the Quine-McCluskey covers
/// cube for cube; counter10-12 match the old wide-function heuristic's
/// counts.
TEST(MinimizeQuality, CommittedDesignsKeepTheirTermAndLiteralCounts) {
  std::vector<DesignQuality> designs;
  const std::pair<std::size_t, int> counters[] = {
      {12, 24},  {18, 38},  {25, 55},  {33, 75},   {42, 98},
      {52, 124}, {63, 153}, {75, 185}, {88, 220}, {102, 258}};
  for (int w = 3; w <= 12; ++w) {
    const auto [terms, lits] = counters[w - 3];
    designs.push_back({"counter" + std::to_string(w),
                       tabulated(silc_fixtures::counter_source(w)), terms,
                       lits});
  }
  designs.push_back({"gray2", tabulated(silc_fixtures::kGray2Source), 7, 14});
  designs.push_back(
      {"traffic", tabulated(silc_fixtures::kTrafficSource), 23, 53});
  designs.push_back({"e7b-binary",
                     synth::encode(ring8(), synth::Encoding::Binary), 12, 24});
  designs.push_back(
      {"e7b-gray", synth::encode(ring8(), synth::Encoding::Gray), 12, 25});
  designs.push_back({"e7b-one-hot",
                     synth::encode(ring8(), synth::Encoding::OneHot), 17, 33});

  for (const DesignQuality& d : designs) {
    SCOPED_TRACE(d.name);
    const MultiFunction comp = pla::complement(d.function);
    const PlaTerms p = minimize_multi(comp);
    int literals = 0;
    for (const Cube& c : p.terms) literals += c.literal_count();
    EXPECT_EQ(p.term_count(), d.terms);
    EXPECT_EQ(literals, d.literals);
    ASSERT_EQ(p.output_terms.size(), comp.outputs.size());
    for (std::size_t k = 0; k < comp.outputs.size(); ++k) {
      std::vector<Cube> cover;
      for (const int t : p.output_terms[k]) {
        cover.push_back(p.terms[static_cast<std::size_t>(t)]);
      }
      EXPECT_TRUE(check_cover_equiv(comp.outputs[k], cover).equal)
          << "output " << k;
    }
  }
}

/// Random functions of 1-12 inputs with 0-80% don't-cares: every cover
/// implements its table (exhaustively and symbolically) and every cube is
/// prime — raising any one of its literals reaches the OFF-set.
TEST(MinimizeFuzz, CoversAreExactAndPrime) {
  silc_fixtures::fuzz_seeds(
      "test_logic", "MinimizeFuzz.CoversAreExactAndPrime", 1400, 60,
      [](unsigned seed) {
        std::mt19937 rng(seed);
        const int n = std::uniform_int_distribution<int>(1, 12)(rng);
        const int dc_pct = std::uniform_int_distribution<int>(0, 80)(rng);
        const int on_pct = std::uniform_int_distribution<int>(5, 95)(rng);
        std::uniform_int_distribution<int> pct(0, 99);
        TruthTable t(n);
        for (std::uint32_t r = 0; r < t.size(); ++r) {
          if (pct(rng) < dc_pct) {
            t.set(r, Tri::DontCare);
          } else {
            t.set(r, pct(rng) < on_pct ? Tri::One : Tri::Zero);
          }
        }
        const std::vector<Cube> cover = minimize(t);
        ASSERT_TRUE(t.implemented_by(cover)) << "n=" << n;
        ASSERT_TRUE(check_cover_equiv(t, cover).equal) << "n=" << n;
        const std::vector<std::uint32_t> offs = t.off_set();
        for (const Cube& c : cover) {
          for (std::uint32_t m = c.mask; m != 0; m &= m - 1) {
            const std::uint32_t bit = m & (~m + 1u);
            const Cube raised{c.mask & ~bit, c.value & ~bit};
            EXPECT_TRUE(std::any_of(
                offs.begin(), offs.end(),
                [&raised](std::uint32_t r) { return raised.covers(r); }))
                << "cube " << c.to_string(n) << " is not prime: literal "
                << __builtin_ctz(bit) << " can be raised";
          }
        }
      });
}

// ------------------------------------------------- symbolic equivalence --

bool cover_evaluates(const std::vector<Cube>& cover, std::uint32_t m) {
  for (const Cube& c : cover) {
    if (c.covers(m)) return true;
  }
  return false;
}

TEST(Equiv, TautologyBasics) {
  std::uint32_t cex = 0;
  // x0 + x0' is a tautology over any width.
  const std::vector<Cube> split = {{1u, 1u}, {1u, 0u}};
  EXPECT_TRUE(is_tautology(3, split));
  // A single bound cube is not.
  EXPECT_FALSE(is_tautology(3, {{1u, 1u}}, &cex));
  EXPECT_EQ(cex & 1u, 0u);  // the witness has x0 = 0
  // The empty cover covers nothing.
  EXPECT_FALSE(is_tautology(2, {}, &cex));
  // The universal cube covers everything.
  EXPECT_TRUE(is_tautology(2, {{0u, 0u}}));
}

TEST(Equiv, CubeContainment) {
  // x0x1 is inside x0; x0 is not inside x0x1, and the witness minterm
  // must lie in the big cube but escape the small one.
  std::uint32_t cex = 0;
  const Cube big{1u, 1u};    // x0
  const Cube small{3u, 3u};  // x0 x1
  EXPECT_TRUE(cube_covered(4, small, {big}));
  EXPECT_FALSE(cube_covered(4, big, {small}, &cex));
  EXPECT_TRUE(big.covers(cex));
  EXPECT_FALSE(small.covers(cex));
}

TEST(Equiv, ExactCoverPartitionsEveryTriSet) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> tri(0, 9);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 1 + trial % 6;
    TruthTable t(n);
    for (std::uint32_t r = 0; r < t.size(); ++r) {
      const int x = tri(rng);
      t.set(r, x < 4 ? Tri::Zero : (x < 8 ? Tri::One : Tri::DontCare));
    }
    for (const Tri which : {Tri::Zero, Tri::One, Tri::DontCare}) {
      const std::vector<Cube> cover = exact_cover(t, which);
      for (std::uint32_t r = 0; r < t.size(); ++r) {
        EXPECT_EQ(cover_evaluates(cover, r), t.get(r) == which)
            << "n=" << n << " row=" << r;
      }
    }
  }
}

/// Differential fuzz: the symbolic verdict must agree with the truth
/// table's exhaustive implemented_by on random covers over functions with
/// don't-cares — and every counterexample must be a genuine witness.
TEST(Equiv, FuzzAgreesWithImplementedBy) {
  const silc_fixtures::FuzzEnv env = silc_fixtures::fuzz_env(400);
  int disagreements = 0;
  silc_fixtures::fuzz_seeds(
      "test_logic", "Equiv.FuzzAgreesWithImplementedBy", 2026, 400,
      [&disagreements](unsigned seed) {
        std::mt19937 rng(seed);
        const int n = std::uniform_int_distribution<int>(1, 7)(rng);
        std::uniform_int_distribution<int> tri(0, 9);
        const std::uint32_t space = (1u << n) - 1;
        TruthTable t(n);
        for (std::uint32_t r = 0; r < t.size(); ++r) {
          const int x = tri(rng);
          t.set(r, x < 4 ? Tri::Zero : (x < 8 ? Tri::One : Tri::DontCare));
        }
        std::vector<Cube> cover;
        // Even seeds check a cover that implements the function by
        // construction; odd seeds check arbitrary random covers.
        if (seed % 2 == 0) {
          cover = minimize(t);
        } else {
          const int k = std::uniform_int_distribution<int>(0, 6)(rng);
          for (int i = 0; i < k; ++i) {
            const std::uint32_t mask = rng() & space;
            cover.push_back({mask, rng() & mask});
          }
        }
        const EquivVerdict v = check_cover_equiv(t, cover);
        ASSERT_EQ(v.equal, t.implemented_by(cover)) << "n=" << n;
        if (!v.equal) {
          ++disagreements;
          EXPECT_LE(v.counterexample, space);
          EXPECT_NE(t.get(v.counterexample), Tri::DontCare);
          EXPECT_EQ(t.get(v.counterexample) == Tri::One, v.expected);
          EXPECT_EQ(cover_evaluates(cover, v.counterexample), v.got);
          EXPECT_NE(v.expected, v.got)
              << "counterexample does not witness a disagreement";
        }
      });
  // The random half of a sweep must actually exercise the failure path
  // (one pinned seed is a repro, not a sweep).
  if (!env.has_seed) EXPECT_GT(disagreements, env.trials / 8);
}

/// NOR-plane handling end to end: program the *complement* cover (what a
/// NOR-NOR PLA stores), then prove it against the complemented function —
/// and catch a perturbed plane with a witness, the way check_pla does.
TEST(Equiv, ComplementCoverRoundTripsThroughNorSemantics) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> tri(0, 9);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + trial % 5;
    TruthTable t(n);
    for (std::uint32_t r = 0; r < t.size(); ++r) {
      const int x = tri(rng);
      t.set(r, x < 4 ? Tri::Zero : (x < 8 ? Tri::One : Tri::DontCare));
    }
    const TruthTable comp = TruthTable::from_tri_function(
        n, [&t](std::uint32_t r) {
          const Tri v = t.get(r);
          if (v == Tri::One) return Tri::Zero;
          if (v == Tri::Zero) return Tri::One;
          return Tri::DontCare;
        });
    const std::vector<Cube> plane = minimize(comp);
    EXPECT_TRUE(check_cover_equiv(comp, plane).equal);
    // NOR of the plane reproduces the function on every care row.
    for (std::uint32_t r = 0; r < t.size(); ++r) {
      if (t.get(r) == Tri::DontCare) continue;
      EXPECT_EQ(!cover_evaluates(plane, r), t.get(r) == Tri::One);
    }
    // Perturb one literal of a non-trivial plane: the prover must notice
    // unless the flip lands entirely inside don't-care space.
    if (plane.empty() || plane[0].mask == 0) continue;
    std::vector<Cube> bad = plane;
    bad[0].value ^= bad[0].mask & (~bad[0].mask + 1u);
    const EquivVerdict v = check_cover_equiv(comp, bad);
    if (!v.equal) {
      EXPECT_NE(comp.get(v.counterexample), Tri::DontCare);
      EXPECT_EQ(cover_evaluates(bad, v.counterexample), v.got);
      EXPECT_NE(v.expected, v.got);
    } else {
      EXPECT_TRUE(comp.implemented_by(bad));  // flip hid in the dc-set
    }
  }
}

}  // namespace
}  // namespace silc::logic
