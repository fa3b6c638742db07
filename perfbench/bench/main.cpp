// silc_perfbench: one closed-loop workload per process.
//
//   silc_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 records every op's
// layer calls as spans of the library's obs::Tracer and reports the
// per-layer metrics, writing the trace as Chrome trace JSON under DIR at
// exit. Human-readable lines come first; the last line of stdout is the
// JSON result. The exit code is non-zero when any op failed its
// correctness check or an exact count did not repeat.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Compare `counts` with the record an earlier run of this same executable
/// left at `path`, or write the record when there is none. Returns the
/// names whose values differ.
std::vector<std::string> check_repeat(const std::string& path,
                                      const std::map<std::string, long long>& counts) {
  std::vector<std::string> differ;
  if (counts.empty()) return differ;
  std::ifstream in(path);
  if (!in) {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& [name, v] : counts) out << name << ' ' << v << '\n';
    return differ;
  }
  std::map<std::string, long long> before;
  std::string name;
  long long v = 0;
  while (in >> name >> v) before[name] = v;
  for (const auto& [n, value] : counts) {
    const auto it = before.find(n);
    if (it == before.end() || it->second != value) differ.push_back(n);
  }
  return differ;
}

/// Events the tracer may hold per thread in a traced run; a run that
/// records more fails rather than report layer figures over a truncated
/// trace.
constexpr std::size_t kTraceEvents = std::size_t{1} << 18;

int usage() {
  std::fprintf(stderr,
               "usage: silc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--out") {
      cfg.out_dir = value;
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty() || cfg.out_dir.empty() || !(cfg.seconds > 0)) {
    return usage();
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = static_cast<int>(std::min(hw, 4u));
  std::filesystem::create_directories(cfg.out_dir + "/counts");

  const double calibration_start = perfbench::calibration_ms();
  perfbench::reset_peak_rss();
  if (cfg.trace && !silc::obs::kEnabled) {
    std::fprintf(stderr, "perfbench: a traced run needs a SILC_OBS build\n");
    return 2;
  }
  silc::obs::Tracer& tracer = silc::obs::Tracer::global();
  if (cfg.trace) tracer.enable(kTraceEvents);
  Report rep;
  try {
    rep = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
    return 2;
  }

  // Exact counts must repeat: across runs of this executable with the same
  // seed, and (for the seed-free ones) across seeds.
  const std::string mode = cfg.trace ? "traced" : "untraced";
  char exe[32];
  std::snprintf(exe, sizeof exe, "%016llx",
                static_cast<unsigned long long>(perfbench::executable_hash()));
  const std::string stem =
      cfg.out_dir + "/counts/" + cfg.workload + "." + mode + "." + exe;
  std::vector<std::string> unrepeated =
      check_repeat(stem + ".txt", rep.seed_free_counts);
  for (const std::string& n :
       check_repeat(stem + ".seed" + std::to_string(cfg.seed) + ".txt",
                    rep.seeded_counts)) {
    unrepeated.push_back(n);
  }
  for (const std::string& n : unrepeated) {
    std::fprintf(stderr,
                 "perfbench: ERROR: exact count %s differs from an earlier "
                 "run of this executable\n",
                 n.c_str());
  }

  std::string trace_file;
  if (cfg.trace) {
    trace_file = cfg.out_dir + "/trace." + cfg.workload + ".seed" +
                 std::to_string(cfg.seed) + ".json";
    tracer.disable();
    rep.notes.push_back("trace: " + std::to_string(tracer.total_events()) +
                        " events");
    if (!silc::obs::write_chrome_trace(trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
      trace_file.clear();
    }
  }
  const double calibration_end = perfbench::calibration_ms();

  const bool correct = rep.failed == 0 && unrepeated.empty();
  if (rep.failed > 0) {
    std::fprintf(stderr, "perfbench: ERROR: %llu of %llu ops failed their "
                 "correctness check\n",
                 static_cast<unsigned long long>(rep.failed),
                 static_cast<unsigned long long>(rep.attempted));
  }
  std::printf("# workload %s, seed %u, %.0f s, %s\n", cfg.workload.c_str(),
              cfg.seed, cfg.seconds, mode.c_str());
  for (const std::string& note : rep.notes) std::printf("# %s\n", note.c_str());
  for (const perfbench::Metric& m : rep.metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream context;
  context << "{\"calibration_ms_start\": " << json_number(calibration_start)
          << ", \"calibration_ms_end\": " << json_number(calibration_end)
          << ", \"nproc\": " << hw << ", \"cpu\": " << json_string(cpu_model())
          << ", \"crew_threads\": " << cfg.threads
          << ", \"trace_file\": " << json_string(trace_file) << "}";
  std::printf("# context %s\n", context.str().c_str());

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    out << (i == 0 ? "" : ", ") << json_string(m.name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
