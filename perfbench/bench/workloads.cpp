#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "core/incremental.hpp"
#include "core/incremental_session.hpp"
#include "core/result_cache.hpp"
#include "design_sources.hpp"
#include "random_edits.hpp"
#include "replay.hpp"
#include "store/store.hpp"

namespace perfbench {
namespace {

namespace core = silc::core;
namespace drc = silc::drc;
namespace extract = silc::extract;
namespace layout = silc::layout;

constexpr int kSetupReps = 8;

/// The set-up's wall time. The set-up runs kSetupReps times before the
/// timed loop, and the loop may run it kSetupReps more times between its
/// ops (outside their timing), at evenly spaced moments. On a shared host,
/// contention comes in bursts about a second long, so set-ups done only at
/// the start would sample a moment the ops do not; spread over the run,
/// their median sees the same host the ops see. Each workload goes on with
/// the state the last set-up left, so a set-up must leave the state the
/// ops expect.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup)
      : setup_(std::move(setup)) {}

  void before_loop() {
    for (int i = 0; i < kSetupReps; ++i) run();
  }
  void start_loop(double seconds) {
    loop_start_ = Clock::now();
    loop_ms_ = 1000.0 * seconds;
  }
  /// Between two ops: one set-up when the next evenly spaced moment of
  /// the loop has come.
  void between_ops() {
    const double due_ms = loop_ms_ * (in_loop_ + 0.5) / kSetupReps;
    if (in_loop_ == kSetupReps || ms_since(loop_start_) < due_ms) return;
    ++in_loop_;
    run();
  }
  [[nodiscard]] double median_s() const { return median(s_); }

 private:
  void run() {
    const auto t0 = Clock::now();
    setup_();
    s_.push_back(ms_since(t0) / 1000.0);
  }

  std::function<void()> setup_;
  std::vector<double> s_;
  Clock::time_point loop_start_;
  double loop_ms_ = 0;
  int in_loop_ = 0;
};

std::vector<std::size_t> seeded_order(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  shuffle(order, rng);
  return order;
}

/// The options compile_many hands each job: one thread per design and the
/// batch's shared caches.
core::CompileOptions batch_options(drc::VerdictCache& dc,
                                   extract::NetlistCache& xc) {
  core::CompileOptions o;
  o.sim_threads = 1;
  o.drc_threads = 1;
  o.drc_cache = &dc;
  o.extract_cache = &xc;
  return o;
}

/// Output-quality counts summed over a workload's distinct designs.
struct Quality {
  long long pla_terms = 0;
  long long chip_area = 0;
  long long transistors = 0;

  void add(const core::CompileResult& r) {
    pla_terms += r.stats.pla.num_terms;
    chip_area += r.stats.area();
    transistors += static_cast<long long>(r.transistors);
  }
};

/// The end-to-end metrics every workload closes with; `rss_mb` is the peak
/// resident set read when the timed loop ended.
void add_outcome_metrics(Report& rep, const Quality& q, double rss_mb) {
  rep.add("ok_ratio", rep.ok_ratio(), "ratio");
  rep.add("peak_rss_mb", rss_mb, "MB");
  rep.add("pla_terms", static_cast<double>(q.pla_terms), "count");
  rep.add("chip_area", static_cast<double>(q.chip_area), "hlambda2");
  rep.add("transistors", static_cast<double>(q.transistors), "count");
  rep.seed_free_counts["pla_terms"] = q.pla_terms;
  rep.seed_free_counts["chip_area"] = q.chip_area;
  rep.seed_free_counts["transistors"] = q.transistors;
}

/// What a traced run gathers beside its spans.
struct LayerInputs {
  double ops = 0;           // workload ops the ms figures are averaged over
  Counters unit;            // counters over the first deterministic unit
  Counters all;             // counters over every traced op
  double untraced_ms = 0;   // untraced wall of the same work
  long long logic_terms = 0;
  double batch_wall_ms = 0;  // summed over ops
  double crew_busy_ms = 0;   // serial per-job ms, summed over ops
  int crew_threads = 1;
  long long store_file_bytes = 0;
  long long store_hits = 0;
  long long store_misses = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Every per-layer metric of BENCHMARK.json, in its order. A layer the
/// workload never calls reads 0.
void add_layer_metrics(Report& rep, const LayerInputs& in) {
  const TraceSummary trace = summarize_trace();
  const double ops = std::max(in.ops, 1.0);
  const auto per_op = [&](const char* layer) {
    return trace.layer_ms(layer) / ops;
  };
  const double minimize = per_op("logic.minimize");
  const double layout = per_op("pla.layout");
  rep.add("logic.minimize_ms", minimize, "ms");
  rep.add("logic.terms", static_cast<double>(in.logic_terms), "count");
  rep.add("pla.layout_ms", layout, "ms");
  rep.add("assemble.place_route_ms", per_op("assemble") - minimize - layout,
          "ms");
  rep.add("rtl.parse_ms", per_op("rtl.parse"), "ms");
  rep.add("synth.tabulate_ms", per_op("synth.tabulate"), "ms");
  rep.add("cif.write_ms", per_op("cif.write"), "ms");
  rep.add("lang.run_ms", per_op("lang.run"), "ms");
  rep.add("drc.check_ms", per_op("drc.check"), "ms");
  rep.add("drc.windows", static_cast<double>(get(in.unit, "drc.windows")),
          "count");
  rep.add("drc.windows_reproved",
          static_cast<double>(get(in.unit, "drc.window.reproved")), "count");
  rep.add("drc.cache_hit_ratio", hit_ratio(in.all, "drc"), "ratio");
  rep.add("extract.extract_ms", per_op("extract.extract"), "ms");
  rep.add("extract.windows",
          static_cast<double>(get(in.unit, "extract.windows")), "count");
  rep.add("extract.cache_hit_ratio", hit_ratio(in.all, "extract"), "ratio");
  rep.add("sim.gate_check_ms", per_op("sim.gate_check"), "ms");
  rep.add("sim.pla_check_ms", per_op("sim.pla_check"), "ms");
  rep.add("swsim.artwork_ms", per_op("swsim.artwork"), "ms");
  rep.add("core.batch_wall_ms", in.batch_wall_ms / ops, "ms");
  rep.add("core.crew_util",
          ratio(in.crew_busy_ms, in.batch_wall_ms * in.crew_threads), "ratio");
  rep.add("store.load_ms", per_op("store.load"), "ms");
  rep.add("store.decode_ms", per_op("store.decode"), "ms");
  rep.add("store.serve_ms", per_op("store.serve"), "ms");
  rep.add("store.encode_ms", per_op("store.encode"), "ms");
  rep.add("store.save_ms", per_op("store.save"), "ms");
  rep.add("store.file_bytes", static_cast<double>(in.store_file_bytes),
          "bytes");
  rep.add("store.result_hit_ratio",
          ratio(static_cast<double>(in.store_hits),
                static_cast<double>(in.store_hits + in.store_misses)),
          "ratio");
  rep.add("unattributed_pct",
          100.0 * ratio(trace.op_ms - trace.covered_ms, trace.op_ms), "%");
  rep.add("trace_overhead_pct",
          100.0 * ratio(trace.op_ms - in.untraced_ms, in.untraced_ms), "%");

  auto& counts = rep.seed_free_counts;
  counts["logic.terms"] = in.logic_terms;
  counts["drc.windows"] = get(in.unit, "drc.windows");
  counts["drc.windows_reproved"] = get(in.unit, "drc.window.reproved");
  counts["extract.windows"] = get(in.unit, "extract.windows");
  counts["store.file_bytes"] = in.store_file_bytes;
}

// ------------------------------------------------------------ batch_crew --
//
// Repeated compile_many batches of the crew set, seeded shuffle per batch,
// default options; compile_many gives every batch fresh shared caches.

Report batch_crew(const RunConfig& cfg) {
  Report rep;
  const std::vector<Design> designs = crew_designs();
  const std::size_t n = designs.size();
  std::mt19937_64 rng(cfg.seed);
  const auto jobs_in = [&](const std::vector<std::size_t>& order) {
    std::vector<core::BatchJob> jobs;
    for (const std::size_t i : order) {
      jobs.push_back({designs[i].flow, designs[i].source, {}});
    }
    return jobs;
  };

  // Set-up: one batch at the crew's thread count.
  std::vector<std::size_t> identity(n);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  const auto setup = [&] {
    if (core::compile_many(jobs_in(identity), cfg.threads).ok_count() != n) {
      throw std::runtime_error("batch_crew: the crew set does not compile");
    }
  };
  SetupTimer setup_time(setup);
  setup_time.before_loop();

  std::vector<double> batch_ms;
  std::optional<core::BatchResult> first;
  std::vector<std::size_t> first_pos(n);
  LayerInputs li;
  const Deadline deadline(cfg.seconds);
  setup_time.start_loop(cfg.seconds);
  do {
    if (!cfg.trace) setup_time.between_ops();
    const std::vector<std::size_t> order = seeded_order(n, rng);
    const auto t0 = Clock::now();
    core::BatchResult br = core::compile_many(jobs_in(order), cfg.threads);
    batch_ms.push_back(ms_since(t0));
    bool ok = br.results.size() == n;
    for (std::size_t k = 0; ok && k < n; ++k) {
      const core::CompileResult& r = br.results[k];
      const Design& d = designs[order[k]];
      ok = r.ok() && r.drc.ok() &&
           (d.flow != core::Flow::Behavioral || r.verified) &&
           (!first || r.same_outcome(first->results[first_pos[order[k]]]));
    }

    if (cfg.trace && ok) {
      // The same batch serially: untraced through the pipeline, then
      // replayed layer by layer, each pass with its own fresh shared
      // caches (the sharing compile_many gives its jobs).
      drc::VerdictCache ref_dc, dc;
      extract::NetlistCache ref_xc, xc;
      const core::CompileOptions ref_o = batch_options(ref_dc, ref_xc);
      const core::CompileOptions o = batch_options(dc, xc);
      double serial_ms = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const Design& d = designs[order[k]];
        const auto t1 = Clock::now();
        const Artifacts ref = reference_compile(d, ref_o);
        serial_ms += ms_since(t1);
        Counters rc;
        const Artifacts got = replay_compile(d, o, rc);
        ok = ok && same_artifacts(ref, got) && ref.cif == br.results[k].cif &&
             ref.violations == br.results[k].drc.violations &&
             ref.netlist.transistors.size() == br.results[k].transistors;
        accumulate(li.all, rc);
        if (li.ops == 0) {
          accumulate(li.unit, rc);
          li.logic_terms += got.pla_terms;
        }
      }
      li.untraced_ms += serial_ms;
      li.crew_busy_ms += serial_ms;
      li.batch_wall_ms += batch_ms.back();
      li.crew_threads = br.threads;
      li.ops += 1;
    }
    rep.check(ok);
    if (!first) {
      for (std::size_t k = 0; k < n; ++k) first_pos[order[k]] = k;
      first = std::move(br);
    }
  } while (!deadline.passed());
  const double rss_mb = peak_rss_mb();

  if (cfg.trace) {
    add_layer_metrics(rep, li);
    return rep;
  }
  Quality q;
  for (std::size_t i = 0; i < n; ++i) q.add(first->results[first_pos[i]]);
  rep.add("setup_s", setup_time.median_s(), "s");
  add_latency_metrics(rep, batch_ms, static_cast<double>(n), "batch");
  rep.notes.push_back("batch_crew: " + std::to_string(n) +
                      " designs per batch, " +
                      std::to_string(first->threads) + " crew threads");
  add_outcome_metrics(rep, q, rss_mb);
  return rep;
}

// -------------------------------------------------------------- edit_loop --
//
// An interactive session over the assembled counter10 chip: seeded random
// edits (retech excluded), one verify() per edit. Every kSegmentEdits
// edits the chip reverts to the compiled one (an untimed re-verify), so a
// long run keeps measuring edits to a whole chip rather than to whatever
// the edit stream has whittled it down to; the session's caches stay warm
// across the revert. The workload is not in BENCHMARK.json: on some edits
// the hierarchical DRC verdict differs from check_flat, so its runs fail
// their check.

constexpr int kSegmentEdits = 12;
// The session's caches grow with every edit, so peak memory is read after a
// fixed number of edits (or at the end of a shorter run), not after however
// many edits the run's speed allowed.
constexpr std::size_t kRssEdits = 120;

struct Chip {
  std::unique_ptr<layout::Library> lib;
  layout::Cell* top = nullptr;
  silc::assemble::FsmChipStats stats;
};

Chip compiled_counter10() {
  Chip c;
  c.lib = std::make_unique<layout::Library>();
  core::CompileOptions o;
  o.stop_after = "assemble";
  const core::CompileResult r = core::compile(
      *c.lib, core::Flow::Behavioral, silc_fixtures::counter_source(10), o);
  if (r.chip == nullptr) {
    throw std::runtime_error("edit_loop: counter10 does not assemble");
  }
  c.top = r.chip;
  c.stats = r.stats;
  return c;
}

/// One timed edit's verdict, kept for the check that runs after the
/// measurement: the violations as reported, the netlist as a hash of its
/// canonical text.
struct EditRecord {
  std::vector<drc::Violation> violations;
  std::uint64_t netlist_hash = 0;
};

std::uint64_t netlist_hash(const extract::Netlist& nl) {
  return silc::store::fnv1a(extract::to_text(nl));
}

/// kSegmentEdits edits from the compiled chip, replayable from the edit
/// stream's state at the segment's start.
struct Segment {
  std::mt19937 rng;
  std::vector<EditRecord> edits;
};

struct SegmentCheck {
  std::size_t failed = 0;
  std::size_t drc_differs = 0;  // verdicts whose violations differ from flat
};

/// Rebuild the segment's library states from scratch and check every
/// recorded verdict: the violations must be byte-identical to
/// drc::check_flat and the netlist to extract::extract.
SegmentCheck check_segment(Segment seg) {
  SegmentCheck out;
  Chip chip = compiled_counter10();
  for (const EditRecord& e : seg.edits) {
    (void)silc_fixtures::random_edit(*chip.lib, *chip.top, seg.rng,
                                     /*allow_retech=*/false);
    const bool same_drc =
        drc::check_flat(layout::flatten(*chip.top)).violations ==
        e.violations;
    const bool same_netlist =
        netlist_hash(extract::extract(*chip.top)) == e.netlist_hash;
    if (!same_drc) ++out.drc_differs;
    if (!same_drc || !same_netlist) ++out.failed;
  }
  return out;
}

/// check_segment over every segment on `threads` workers (nothing is
/// timed any more, so the checks may use every core).
std::vector<SegmentCheck> check_segments(const std::vector<Segment>& segs,
                                         int threads) {
  std::vector<SegmentCheck> out(segs.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < segs.size(); i = next++) {
      try {
        out[i] = check_segment(segs[i]);
      } catch (const std::exception&) {
        out[i].failed = segs[i].edits.size();
      }
    }
  };
  std::vector<std::thread> crew;
  for (int t = 1; t < threads; ++t) crew.emplace_back(work);
  work();
  for (std::thread& t : crew) t.join();
  return out;
}

/// The traced edit_loop's layer figures. The session reports how long its
/// incremental drc and extract calls took; the rest of verify() is the
/// snapshot and the diff.
struct IncrLayers {
  double ops = 0;
  double drc_ms = 0;
  double extract_ms = 0;
  double snapshot_ms = 0;
  long long reused = 0;
  long long reproved = 0;
  long long reproved_unit = 0;  // over the first segment
  long long noops = 0;
  Counters unit;  // obs counters over the first segment
  Counters all;

  void add(const core::IncrVerdict& v, double wall_ms, const Counters& c,
           bool first_segment) {
    const long long cells = static_cast<long long>(
        v.drc_stats.cells_reproved + v.extract_stats.cells_reproved);
    ops += 1;
    drc_ms += v.drc_ms;
    extract_ms += v.extract_ms;
    snapshot_ms += wall_ms - v.drc_ms - v.extract_ms;
    reused += static_cast<long long>(v.cells_reused());
    reproved += cells;
    if (v.edits.empty()) ++noops;
    accumulate(all, c);
    if (first_segment) {
      reproved_unit += cells;
      accumulate(unit, c);
    }
  }

  void report(Report& rep) const {
    const double n = std::max(ops, 1.0);
    rep.add("incr.snapshot_ms", snapshot_ms / n, "ms");
    rep.add("incr.drc_ms", drc_ms / n, "ms");
    rep.add("incr.extract_ms", extract_ms / n, "ms");
    rep.add("incr.cells_reused_ratio",
            ratio(static_cast<double>(reused),
                  static_cast<double>(reused + reproved)),
            "ratio");
    rep.add("incr.cells_reproved", static_cast<double>(reproved_unit),
            "count");
    rep.add("incr.noop_ratio", ratio(static_cast<double>(noops), ops),
            "ratio");
    rep.add("drc.windows_reproved",
            static_cast<double>(get(unit, "drc.window.reproved")), "count");
    rep.add("drc.cache_hit_ratio", hit_ratio(all, "drc"), "ratio");
    rep.add("extract.cache_hit_ratio", hit_ratio(all, "extract"), "ratio");
    rep.seeded_counts["incr.cells_reproved"] = reproved_unit;
    rep.seeded_counts["drc.windows_reproved"] =
        get(unit, "drc.window.reproved");
  }
};

Report edit_loop(const RunConfig& cfg) {
  Report rep;
  Chip chip;
  std::unique_ptr<core::IncrementalSession> session;
  long long base_transistors = 0;
  std::optional<CpuRotation> cpus(std::in_place);
  // Set-up: assemble the chip and run the session's cold verify.
  const auto setup = [&] {
    cpus->next();
    chip = compiled_counter10();
    session = std::make_unique<core::IncrementalSession>();
    base_transistors = static_cast<long long>(
        session->verify(*chip.lib, *chip.top).netlist.transistors.size());
  };
  // Every set-up runs before the loop: one between two edits would put
  // the chip back mid-segment.
  SetupTimer setup_time(setup);
  setup_time.before_loop();

  std::mt19937 rng(cfg.seed);
  std::vector<Segment> segments;
  std::vector<double> edit_ms;
  double rss_mb = 0;
  int in_segment = kSegmentEdits;
  IncrLayers layers;
  const Deadline deadline(cfg.seconds);
  // A traced run always finishes its first segment: its counts are the
  // seeded exact counts.
  while (edit_ms.empty() || !deadline.passed() ||
         (cfg.trace && segments.size() == 1 && in_segment < kSegmentEdits)) {
    if (in_segment == kSegmentEdits) {
      if (!segments.empty()) {
        chip = compiled_counter10();
        (void)session->verify(*chip.lib, *chip.top);
      }
      segments.push_back({rng, {}});
      in_segment = 0;
    }
    (void)silc_fixtures::random_edit(*chip.lib, *chip.top, rng,
                                     /*allow_retech=*/false);
    cpus->next();
    std::optional<CounterDelta> cd;
    if (cfg.trace) cd.emplace();
    const auto t0 = Clock::now();
    const core::IncrVerdict v = span("edit", kOpSpan, [&] {
      return session->verify(*chip.lib, *chip.top);
    });
    edit_ms.push_back(ms_since(t0));
    segments.back().edits.push_back(
        {v.drc.violations, netlist_hash(v.netlist)});
    if (edit_ms.size() == kRssEdits) rss_mb = peak_rss_mb();
    if (cfg.trace) {
      layers.add(v, edit_ms.back(), cd->take(), segments.size() == 1);
    }
    ++in_segment;
  }
  if (edit_ms.size() < kRssEdits) rss_mb = peak_rss_mb();
  cpus.reset();  // the checker threads get every core

  const std::vector<SegmentCheck> checks =
      check_segments(segments, cfg.threads);
  std::size_t drc_differs = 0;
  rep.attempted = edit_ms.size();
  for (const SegmentCheck& c : checks) {
    rep.failed += c.failed;
    drc_differs += c.drc_differs;
  }
  rep.notes.push_back("edit_loop: " + std::to_string(drc_differs) + " of " +
                      std::to_string(edit_ms.size()) +
                      " DRC verdicts differ from drc::check_flat");

  if (cfg.trace) {
    layers.report(rep);
    return rep;
  }
  rep.add("setup_s", setup_time.median_s(), "s");
  add_latency_metrics(rep, edit_ms, 1.0, "edit");
  add_outcome_metrics(rep, {chip.stats.pla.num_terms, chip.stats.area(),
                            base_transistors}, rss_mb);
  return rep;
}

// ----------------------------------------------------------- warm_restart --
//
// A process that finds the store an earlier one wrote: set-up runs the crew
// set cold through compile_many with a cache_dir; every op repeats that
// batch at one thread against the store (load, serve, re-save).

Report warm_restart(const RunConfig& cfg) {
  Report rep;
  const std::vector<Design> designs = crew_designs();
  const std::size_t n = designs.size();
  std::mt19937_64 rng(cfg.seed);
  const std::string dir =
      cfg.out_dir + "/warm_restart." + std::to_string(::getpid());
  const std::string path = dir + "/silc.store";
  std::vector<core::BatchJob> jobs;
  for (const std::size_t i : seeded_order(n, rng)) {
    core::BatchJob j{designs[i].flow, designs[i].source, {}};
    j.options.cache_dir = dir;
    jobs.push_back(std::move(j));
  }

  core::BatchResult cold;
  std::optional<CpuRotation> cpus(std::in_place);
  const auto setup = [&] {
    cpus->next();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    cold = core::compile_many(jobs, 1);
    if (cold.ok_count() != n || cold.store.file_bytes == 0) {
      throw std::runtime_error("warm_restart: the cold batch failed");
    }
  };
  SetupTimer setup_time(setup);
  setup_time.before_loop();

  std::vector<double> restart_ms;
  LayerInputs li;
  const Deadline deadline(cfg.seconds);
  setup_time.start_loop(cfg.seconds);
  do {
    if (!cfg.trace) setup_time.between_ops();
    cpus->next();
    const auto t0 = Clock::now();
    const core::BatchResult br = core::compile_many(jobs, 1);
    restart_ms.push_back(ms_since(t0));
    bool ok = br.results.size() == n && br.store.hits == n &&
              br.store_diags.empty();
    for (std::size_t k = 0; ok && k < n; ++k) {
      ok = br.results[k].ok() && br.results[k].same_outcome(cold.results[k]);
    }

    if (cfg.trace) {
      // The batch's store cycle, call by call (what compile_many does
      // around its crew when a job names a cache_dir).
      li.untraced_ms += restart_ms.back();
      li.batch_wall_ms += restart_ms.back();
      silc::store::Store persist;
      silc::store::Store out(persist.schema());
      drc::VerdictCache dc;
      extract::NetlistCache xc;
      core::ResultCache rc;
      std::vector<std::unique_ptr<layout::Library>> libs(n);
      std::vector<core::CompileResult> served(n);
      bool loaded = false;
      bool saved = false;
      {
        const silc::obs::Span op("restart", kOpSpan);
        loaded = span("store.load", kLayerSpan,
                      [&] { return persist.load(path); });
        span("store.decode", kLayerSpan, [&] {
          dc.load_from(persist);
          xc.load_from(persist);
          rc.load_from(persist);
        });
        const auto t1 = Clock::now();
        for (std::size_t k = 0; k < n; ++k) {
          served[k] = span("store.serve", kLayerSpan, [&] {
            libs[k] = std::make_unique<layout::Library>();
            core::CompileOptions o = batch_options(dc, xc);
            o.result_cache = &rc;
            return core::compile(*libs[k], jobs[k].flow, jobs[k].source, o);
          });
        }
        li.crew_busy_ms += ms_since(t1);
        span("store.encode", kLayerSpan, [&] {
          dc.save_to(out);
          xc.save_to(out);
          rc.save_to(out);
        });
        saved = span("store.save", kLayerSpan, [&] { return out.save(path); });
      }

      ok = ok && loaded && saved && rc.hits() == n;
      for (std::size_t k = 0; ok && k < n; ++k) {
        ok = served[k].from_cache && served[k].same_outcome(cold.results[k]);
      }
      li.store_file_bytes = static_cast<long long>(out.file_bytes());
      li.store_hits += static_cast<long long>(rc.hits());
      li.store_misses += static_cast<long long>(rc.misses());
      li.ops += 1;
    }
    rep.check(ok);
  } while (!deadline.passed());
  const double rss_mb = peak_rss_mb();
  cpus.reset();
  std::filesystem::remove_all(dir);

  if (cfg.trace) {
    add_layer_metrics(rep, li);
    return rep;
  }
  Quality q;
  for (const core::CompileResult& r : cold.results) q.add(r);
  rep.add("setup_s", setup_time.median_s(), "s");
  add_latency_metrics(rep, restart_ms, static_cast<double>(n), "restart");
  rep.notes.push_back("warm_restart: store of " +
                      std::to_string(cold.store.file_bytes) + " bytes, " +
                      std::to_string(n) + " jobs per restart");
  add_outcome_metrics(rep, q, rss_mb);
  return rep;
}

}  // namespace

Report run_workload(const RunConfig& cfg) {
  if (cfg.workload == "batch_crew") return batch_crew(cfg);
  if (cfg.workload == "edit_loop") return edit_loop(cfg);
  if (cfg.workload == "warm_restart") return warm_restart(cfg);
  throw std::invalid_argument("unknown workload " + cfg.workload);
}

}  // namespace perfbench
