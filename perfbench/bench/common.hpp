// Shared pieces of the compile benchmark: run configuration, the report a
// workload hands back, order statistics, the traced run's spans, and the
// host-context probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct RunConfig {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;       // min(nproc, 4): batch_crew's crew, edit_loop's checkers
  std::string out_dir;   // where traces and determinism records go
};

/// Stops the measurement loop: ops started before the deadline finish.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds))) {}
  [[nodiscard]] bool passed() const { return Clock::now() >= end_; }

 private:
  Clock::time_point end_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main: op counts, metrics in
/// declaration order, human-readable notes (percentile levels, sample
/// counts), and the exact counts whose run-to-run repetition is checked.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  /// Exact counts that must not depend on the seed.
  std::map<std::string, long long> seed_free_counts;
  /// Exact counts that may depend on the seed but must repeat for it.
  std::map<std::string, long long> seeded_counts;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double ok_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

// ------------------------------------------------------------ statistics --

[[nodiscard]] double median(std::vector<double> v);

/// The tail of a latency stream. The guide's tail is the highest
/// percentile with at least ten samples beyond it; over a whole run its
/// level would climb with the number of ops a build fits in, and one stall
/// burst would set it. So it is taken per chunk of 100 consecutive ops
/// (p90, the ten slowest beyond it) and the median over chunks is
/// reported. Runs shorter than one chunk use the whole sample.
struct Tail {
  double value = 0;
  std::size_t chunk_ops = 0;
  std::size_t chunks = 0;
};
[[nodiscard]] Tail tail(const std::vector<double>& v);

/// p50/tail/throughput of a stream of equally weighted ops, added to the
/// report under the shared end-to-end names.
void add_latency_metrics(Report& rep, const std::vector<double>& op_ms,
                         double designs_per_op, const char* op_name);

/// Seeded Fisher-Yates shuffle (independent of the standard library's
/// shuffle algorithm, so an order is a function of the seed alone).
template <class T>
void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng() % i);
    std::swap(v[i - 1], v[j]);
  }
}

// ---------------------------------------------------------------- spans --
//
// The traced run records its spans through the library's own obs::Tracer,
// under three categories of its own. An op span frames one timed
// operation; layer spans nest in it, never in each other, and name the
// public function that was called. Probe spans stand outside any op. The
// library's internal spans (pipeline stages, drc and extract cells, ...)
// are recorded beside them and end up in the same Chrome trace.

inline constexpr const char* kOpSpan = "perfbench.op";
inline constexpr const char* kLayerSpan = "perfbench.layer";
inline constexpr const char* kProbeSpan = "perfbench.probe";

/// Time `f()` as an obs span named `name` of category `cat` and return
/// its result.
template <class F>
decltype(auto) span(std::string_view name, const char* cat, F&& f) {
  const silc::obs::Span s(name, cat);
  return f();
}

/// What the benchmark's spans in the tracer add up to.
struct TraceSummary {
  std::map<std::string, double, std::less<>> ms;  // layer + probe spans by name
  double op_ms = 0;       // every op span
  double covered_ms = 0;  // every layer span (each lies in an op)

  [[nodiscard]] double layer_ms(std::string_view name) const;
};
/// Sum the global tracer's spans; throws when it dropped any event (a
/// summary over a truncated trace would under-count).
[[nodiscard]] TraceSummary summarize_trace();

// ---------------------------------------------------------- counters --

/// Deltas of the library's obs::Metrics counters across a region.
class CounterDelta {
 public:
  CounterDelta() : before_(silc::obs::Metrics::global().snapshot()) {}
  /// name -> after - before, for every counter that moved.
  [[nodiscard]] std::map<std::string, long long> take() const;

 private:
  std::vector<silc::obs::MetricSample> before_;
};

/// Accumulates counter deltas by name.
using Counters = std::map<std::string, long long>;
void accumulate(Counters& into, const Counters& delta);
[[nodiscard]] long long get(const Counters& c, const std::string& name);
/// hits / (hits + misses) of `<prefix>.cache.*`, 0 when neither moved.
[[nodiscard]] double hit_ratio(const Counters& c, const std::string& prefix);

// ----------------------------------------------------------- placement --

/// Moves the calling thread to the next allowed CPU, in turn, on every
/// next(). On a shared host the cores run at different speeds that drift
/// over time, and the scheduler keeps a busy single thread on one core, so
/// a single-threaded run would measure whichever core it landed on.
/// Stepping through the cores per op makes each run sample all of them.
/// The destructor restores the thread's original CPU mask (threads started
/// afterwards inherit it).
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

// ---------------------------------------------------------- host probes --

/// ms of a fixed memory-bound kernel (a dependent walk over a 32 MiB
/// random cycle): recorded at start and end of each run as host-drift
/// context, never gated.
[[nodiscard]] double calibration_ms();
/// Peak resident set of this process in MB (VmHWM), counted from the
/// last reset_peak_rss() (which drops the calibration buffer's pages from
/// the peak).
[[nodiscard]] double peak_rss_mb();
void reset_peak_rss();
/// FNV-1a of this executable's bytes: keys the determinism records so a
/// rebuilt program starts fresh ones.
[[nodiscard]] std::uint64_t executable_hash();

}  // namespace perfbench
