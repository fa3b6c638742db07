// The interactive edit-verify loop: an IncrementalSession owns warm
// per-cell caches (a core::CacheSet), the last library snapshot, and the
// last verified results. Each verify() call diffs the library against the
// snapshot (core::EditSet), reuses a baseline verdict the edit cannot
// reach, re-proves everything else through the stages' hier→flat entry
// points against the warm caches, and records the new state as the next
// baseline — so an unedited verify is a verbatim baseline return, a
// one-cell edit re-proves one cell plus its interaction windows, and the
// verdict is byte-identical to a recompile from scratch at every step
// (tests/test_incremental.cpp).
//
// Invalidation footprints (see src/core/incremental.hpp conventions):
//
//   * DRC reads GEOMETRY and the DRC RULE SIGNATURE only — check_flat
//     never sees a label — so a naming-only EditSet (and an empty one)
//     reuses the baseline verdict.
//   * Extraction also reads NAMING (labels, port and instance names become
//     node names), so only an empty EditSet reuses the baseline netlist. A
//     naming-only edit re-runs, but the NetlistCache keys on naming_hash,
//     so unrenamed cells still hit.
//
// Any other edit re-proves through drc::check_hier_or_flat /
// extract::extract_hier_or_flat: unchanged cells hit their cached entries
// (their content hashes didn't move); edited cells and the windows
// touching them pay again. A failure inside the hier path (including the
// fault sites "incr.drc" / "incr.extract") degrades to a flat recompute of
// the same verdict; core::Cancelled propagates.
//
// The persistent store doubles as a cross-process baseline: load_store()
// warms the caches from a silc.store written by an earlier process, so
// even the FIRST verify of a session reuses cells.
#pragma once

#include <memory>
#include <string>

#include "core/incremental.hpp"
#include "core/result_cache.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"

namespace silc::core {

/// What verify() did with one stage: how much of the baseline survived
/// the edit. Mirrored as incr.* counters.
struct DrcReuse {
  std::size_t cells_total = 0;    ///< unique cells under top
  std::size_t cells_reused = 0;   ///< verdicts served from the warm cache
  std::size_t cells_reproved = 0; ///< verdicts recomputed (edited cells)
  bool verdict_reused = false;    ///< baseline Result returned verbatim
  bool fell_back_flat = false;    ///< degraded to a flat recompute
};
struct ExtractReuse {
  std::size_t cells_total = 0;    ///< unique cells under top
  std::size_t cells_reused = 0;   ///< partial netlists served from cache
  std::size_t cells_reproved = 0; ///< partial netlists re-extracted
  bool netlist_reused = false;    ///< baseline Netlist returned verbatim
  bool fell_back_flat = false;    ///< degraded to a flat re-extract
};

/// One verify() outcome: the verdicts plus how much of the baseline
/// survived the edit.
struct IncrVerdict {
  drc::Result drc;
  extract::Netlist netlist;
  EditSet edits;
  DrcReuse drc_stats;
  ExtractReuse extract_stats;
  /// Wall time each stage took inside this verify() — the numbers the
  /// drc.incr/extract.incr latency budgets watch (bench_flows feeds them
  /// into the budget gate).
  double drc_ms = 0;
  double extract_ms = 0;
  /// First verify of this top (no baseline existed yet).
  bool cold = false;

  /// Cells served from warm caches across both stages.
  [[nodiscard]] std::size_t cells_reused() const {
    return drc_stats.cells_reused + extract_stats.cells_reused;
  }
};

class IncrementalSession {
 public:
  explicit IncrementalSession(const tech::Tech& technology = tech::nmos());

  /// Swap the rule set (the "retech" edit): the next verify() sees the
  /// signature change through the snapshot diff and re-proves whatever
  /// the new signatures invalidate — no special casing here.
  void set_tech(const tech::Tech& technology);
  [[nodiscard]] const tech::Tech& tech() const { return tech_; }

  /// Diff `lib` against the last snapshot, re-verify `top` incrementally,
  /// and adopt the result as the next baseline. Changing `top` (by name)
  /// drops the result baseline but keeps the warm caches, so even that
  /// "cold" verify reuses every cell the two tops share.
  IncrVerdict verify(const layout::Library& lib, const layout::Cell& top);

  /// Warm the per-cell caches from `cache_dir`/silc.store (see
  /// store/store.hpp). False when the file is absent or poisoned — the
  /// session just starts cold, exactly like the batch compiler.
  bool load_store(const std::string& cache_dir);
  /// Persist the per-cell caches to `cache_dir`/silc.store. Skipped (and
  /// true) when the session learned nothing since it cleanly loaded or
  /// saved that file (core::CacheSet::save). False when the file can't be
  /// written (a warning-grade event, never fatal).
  bool save_store(const std::string& cache_dir) const;

  [[nodiscard]] drc::VerdictCache& drc_cache() { return caches_->drc; }
  [[nodiscard]] extract::NetlistCache& extract_cache() {
    return caches_->extract;
  }
  [[nodiscard]] const LibrarySnapshot& last_snapshot() const { return snap_; }

 private:
  tech::Tech tech_;
  std::unique_ptr<CacheSet> caches_;
  LibrarySnapshot snap_;
  std::string top_name_;
  drc::Result base_drc_;
  extract::Netlist base_net_;
  bool has_baseline_ = false;
};

}  // namespace silc::core
