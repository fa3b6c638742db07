#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <sched.h>

#include "store/store.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// The highest percentile with at least ten samples beyond it (the
/// largest sample when there are 20 or fewer).
double highest_supported(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return v[n > 20 ? n - 11 : n - 1];
}

}  // namespace

Tail tail(const std::vector<double>& v) {
  if (v.empty()) return {};
  constexpr std::size_t kChunk = 100;
  if (v.size() < kChunk) return {highest_supported(v), v.size(), 1};
  std::vector<double> per_chunk;
  for (std::size_t at = 0; at + kChunk <= v.size(); at += kChunk) {
    per_chunk.push_back(highest_supported(
        {v.begin() + static_cast<std::ptrdiff_t>(at),
         v.begin() + static_cast<std::ptrdiff_t>(at + kChunk)}));
  }
  return {median(per_chunk), kChunk, per_chunk.size()};
}

void add_latency_metrics(Report& rep, const std::vector<double>& op_ms,
                         double designs_per_op, const char* op_name) {
  const double p50 = median(op_ms);
  const Tail t = tail(op_ms);
  const double total = std::accumulate(op_ms.begin(), op_ms.end(), 0.0);
  rep.add("latency_ms_p50", p50, "ms");
  rep.add("latency_ms_tail", t.value, "ms");
  rep.add("designs_per_s",
          total > 0 ? 1000.0 * designs_per_op *
                          static_cast<double>(op_ms.size()) / total
                    : 0.0,
          "1/s");
  char line[160];
  std::snprintf(line, sizeof line,
                "latency per %s over %zu samples: p50 %.3f ms, tail %.3f ms = "
                "median over %zu chunk(s) of %zu ops of the highest "
                "percentile with 10 samples beyond it",
                op_name, op_ms.size(), p50, t.value, t.chunks, t.chunk_ops);
  rep.notes.emplace_back(line);
}

// ---------------------------------------------------------------- spans --

double TraceSummary::layer_ms(std::string_view name) const {
  const auto it = ms.find(name);
  return it == ms.end() ? 0.0 : it->second;
}

TraceSummary summarize_trace() {
  const silc::obs::Tracer& tracer = silc::obs::Tracer::global();
  if (tracer.dropped_events() > 0) {
    throw std::runtime_error("the trace dropped " +
                             std::to_string(tracer.dropped_events()) +
                             " events");
  }
  TraceSummary out;
  for (const auto& thread : tracer.drain()) {
    for (const silc::obs::Event& e : thread.events) {
      if (e.type != silc::obs::Event::Type::Complete) continue;
      const double ms = static_cast<double>(e.dur_ns) / 1e6;
      const std::string_view cat = e.cat;
      if (cat == kOpSpan) {
        out.op_ms += ms;
      } else if (cat == kLayerSpan || cat == kProbeSpan) {
        out.ms[e.name] += ms;
        if (cat == kLayerSpan) out.covered_ms += ms;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------- counters --

std::map<std::string, long long> CounterDelta::take() const {
  std::map<std::string, long long> out;
  for (const silc::obs::MetricSample& s :
       silc::obs::delta(before_, silc::obs::Metrics::global().snapshot())) {
    out[s.name] = s.value;
  }
  return out;
}

void accumulate(Counters& into, const Counters& delta) {
  for (const auto& [name, v] : delta) into[name] += v;
}

long long get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double hit_ratio(const Counters& c, const std::string& prefix) {
  const double hits = static_cast<double>(get(c, prefix + ".cache.hits"));
  const double misses = static_cast<double>(get(c, prefix + ".cache.misses"));
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// ----------------------------------------------------------- placement --

namespace {

cpu_set_t affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
  return set;
}

}  // namespace

CpuRotation::CpuRotation() {
  const cpu_set_t set = affinity();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[at_++ % cpus_.size()], &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

// ---------------------------------------------------------- host probes --

double calibration_ms() {
  // Sattolo's algorithm gives a single cycle through every slot, so the
  // walk touches the whole buffer in an order the prefetcher cannot
  // follow: each step is one dependent cache miss.
  constexpr std::size_t kSlots = (32u << 20) / sizeof(std::uint32_t);
  constexpr std::size_t kSteps = 1u << 18;
  std::vector<std::uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  std::mt19937_64 rng(12345);
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng() % i]);
  }
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  for (std::size_t s = 0; s < kSteps; ++s) at = next[at];
  const double ms = ms_since(t0);
  if (at == kSlots) std::puts("");  // keeps the walk observable
  return ms;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::uint64_t executable_hash() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return silc::store::fnv1a(bytes);
}

}  // namespace perfbench
