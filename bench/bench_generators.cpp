// E6 (paper claim C2): "regular blocks, such as memories and PLAs, are
// programmed for specific functions". Sweeps the PLA and ROM generators and
// the two-level minimizer across input widths.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <random>

#include "logic/logic.hpp"
#include "mem/mem.hpp"
#include "pla/pla.hpp"

namespace {

using silc::logic::MultiFunction;
using silc::logic::TruthTable;

MultiFunction random_function(int inputs, int outputs, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> bit(0, 5);
  MultiFunction f;
  f.num_inputs = inputs;
  for (int k = 0; k < outputs; ++k) {
    TruthTable t(inputs);
    for (std::uint32_t r = 0; r < t.size(); ++r) {
      t.set(r, bit(rng) == 0 ? silc::logic::Tri::One : silc::logic::Tri::Zero);
    }
    f.outputs.push_back(std::move(t));
  }
  return f;
}

void print_pla_table() {
  std::printf("=== E6a: PLA generator sweep (random control functions) ===\n");
  std::printf("%-8s %-8s %-7s %-9s %-14s %-10s\n", "inputs", "outputs",
              "terms", "xpoints", "area (hl^2)", "us/gen");
  for (const auto [ni, no] : {std::pair{2, 2}, {3, 2}, {4, 4}, {5, 4}, {6, 6}}) {
    const MultiFunction f =
        random_function(ni, no, static_cast<unsigned>(ni * 100 + no));
    const auto t0 = std::chrono::steady_clock::now();
    silc::layout::Library lib;
    const silc::pla::PlaResult r = silc::pla::generate(lib, f, {.name = "p"});
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::printf("%-8d %-8d %-7d %-9zu %-14lld %-10.0f\n", ni, no,
                r.stats.num_terms, r.stats.crosspoints,
                static_cast<long long>(r.stats.area()), us);
  }
}

void print_rom_table() {
  std::printf("\n=== E6b: ROM generator sweep ===\n");
  std::printf("%-10s %-6s %-8s %-14s %-12s\n", "words", "bits", "devices",
              "area (hl^2)", "area/bit");
  std::mt19937 rng(9);
  for (const auto [words, bits] : {std::pair{4, 4}, {8, 8}, {16, 8}, {32, 12}}) {
    std::vector<std::uint32_t> contents;
    std::uniform_int_distribution<std::uint32_t> w(0, (1u << bits) - 1);
    for (int i = 0; i < words; ++i) contents.push_back(w(rng));
    silc::layout::Library lib;
    const silc::mem::RomResult r =
        silc::mem::generate_rom(lib, contents, bits, {.name = "r"});
    std::printf("%-10d %-6d %-8zu %-14lld %-12.1f\n", words, bits,
                r.stats.crosspoints, static_cast<long long>(r.stats.area),
                r.stats.area_per_bit());
  }
}

void print_minimizer_table() {
  std::printf("\n=== E6c: two-level minimizer sweep (random, 1/6 ON) ===\n");
  std::printf("%-8s %-8s %-10s %-12s\n", "inputs", "terms", "literals", "us");
  for (int n = 4; n <= 12; ++n) {
    const MultiFunction f = random_function(n, 1, static_cast<unsigned>(n));
    const auto t0 = std::chrono::steady_clock::now();
    const auto cover = silc::logic::minimize(f.outputs[0]);
    const auto t1 = std::chrono::steady_clock::now();
    int literals = 0;
    for (const auto& c : cover) literals += c.literal_count();
    std::printf("%-8d %-8zu %-10d %-12.0f\n", n, cover.size(), literals,
                std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::printf("\n");
}

void BM_PlaGenerate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const MultiFunction f = random_function(n, n, static_cast<unsigned>(n));
  for (auto _ : state) {
    silc::layout::Library lib;
    benchmark::DoNotOptimize(silc::pla::generate(lib, f, {.name = "p"}));
  }
}
BENCHMARK(BM_PlaGenerate)->DenseRange(2, 6);

void BM_RomGenerate(benchmark::State& state) {
  const int words = static_cast<int>(state.range(0));
  std::vector<std::uint32_t> contents;
  for (int i = 0; i < words; ++i) {
    contents.push_back(static_cast<std::uint32_t>(i * 37) & 0xFF);
  }
  for (auto _ : state) {
    silc::layout::Library lib;
    benchmark::DoNotOptimize(silc::mem::generate_rom(lib, contents, 8, {.name = "r"}));
  }
}
BENCHMARK(BM_RomGenerate)->RangeMultiplier(2)->Range(4, 64);

void BM_Minimize(benchmark::State& state) {
  const MultiFunction f = random_function(static_cast<int>(state.range(0)), 1, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(silc::logic::minimize(f.outputs[0]));
  }
}
BENCHMARK(BM_Minimize)->DenseRange(4, 12, 2);

}  // namespace

int main(int argc, char** argv) {
  print_pla_table();
  print_rom_table();
  print_minimizer_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
