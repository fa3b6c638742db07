#include "core/incremental_session.hpp"

#include <chrono>

#include "obs/obs.hpp"

namespace silc::core {

IncrementalSession::IncrementalSession(const tech::Tech& technology)
    : tech_(technology), caches_(std::make_unique<CacheSet>()) {}

void IncrementalSession::set_tech(const tech::Tech& technology) {
  tech_ = technology;
}

namespace {

/// Cache traffic of one stage's re-prove, as reuse stats.
template <class Stats>
void count_reuse(Stats& st, const obs::CacheStats& before,
                 const obs::CacheStats& after, const std::string& failure) {
  if (!failure.empty()) {
    st.fell_back_flat = true;
    st.cells_reproved = st.cells_total;
    SILC_OBS_COUNT("incr.fallback_flat", 1);
    return;
  }
  st.cells_reused = static_cast<std::size_t>(after.hits - before.hits);
  st.cells_reproved = static_cast<std::size_t>(after.misses - before.misses);
  SILC_OBS_COUNT("incr.cells_reused", static_cast<std::int64_t>(st.cells_reused));
  SILC_OBS_COUNT("incr.cells_reproved",
                 static_cast<std::int64_t>(st.cells_reproved));
}

}  // namespace

IncrVerdict IncrementalSession::verify(const layout::Library& lib,
                                       const layout::Cell& top) {
  SILC_OBS_SPAN("incr.verify", "incr");
  IncrVerdict v;
  const LibrarySnapshot after = snapshot(lib, tech_);
  const bool warm = has_baseline_ && top_name_ == top.name();
  if (warm) {
    v.edits = diff(snap_, after);
  } else {
    v.cold = true;
  }
  const std::size_t cells = layout::dependency_order(top).size();
  v.drc_stats.cells_total = cells;
  v.extract_stats.cells_total = cells;

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  if (warm && (v.edits.empty() || v.edits.naming_only())) {
    // DRC's footprint is geometry + rule signature only: the verdict
    // cannot have moved. This is the microseconds path.
    v.drc = base_drc_;
    v.drc_stats.cells_reused = cells;
    v.drc_stats.verdict_reused = true;
    SILC_OBS_COUNT("incr.cells_reused", static_cast<std::int64_t>(cells));
  } else {
    SILC_OBS_SPAN("incr.drc", "drc");
    const obs::CacheStats before = caches_->drc.stats();
    std::string failure;
    v.drc = drc::check_hier_or_flat(top, tech_, &caches_->drc, &failure,
                                    "incr.drc");
    count_reuse(v.drc_stats, before, caches_->drc.stats(), failure);
  }
  const auto t1 = Clock::now();
  if (warm && v.edits.empty()) {
    v.netlist = base_net_;
    v.extract_stats.cells_reused = cells;
    v.extract_stats.netlist_reused = true;
    SILC_OBS_COUNT("incr.cells_reused", static_cast<std::int64_t>(cells));
  } else {
    SILC_OBS_SPAN("incr.extract", "extract");
    const obs::CacheStats before = caches_->extract.stats();
    std::string failure;
    v.netlist = extract::extract_hier_or_flat(top, tech_, &caches_->extract,
                                              &failure, "incr.extract");
    count_reuse(v.extract_stats, before, caches_->extract.stats(), failure);
  }
  const auto t2 = Clock::now();
  v.drc_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  v.extract_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();

  snap_ = after;
  top_name_ = top.name();
  base_drc_ = v.drc;
  base_net_ = v.netlist;
  has_baseline_ = true;
  return v;
}

bool IncrementalSession::load_store(const std::string& cache_dir) {
  return caches_->load(cache_dir);
}

bool IncrementalSession::save_store(const std::string& cache_dir) const {
  return caches_->save(cache_dir);
}

}  // namespace silc::core
