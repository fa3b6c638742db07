// Edit tracking for incremental recompilation.
//
// A LibrarySnapshot is a cheap per-cell fingerprint of a library under a
// tech (geometry hash, naming hash, flat shape count, bbox — the same
// fields the per-cell verdict/netlist caches key on, plus the tech
// signatures). Diffing two snapshots yields an EditSet: which cells
// changed, how (geometry vs naming), and whether the tech's rule tables
// moved underneath everything.
//
// == How a stage declares its invalidation footprint ==
//
// Every verification stage that core::IncrementalSession re-runs has a
// declared footprint — the EditSet axes it reads — written down, and
// enforced, in core/incremental_session.hpp. The convention:
//
//   1. Geometry axis (`CellEdit::geometry_changed`, `EditSet::cells`
//      added/removed): invalidates any stage that consumes shapes. DRC is
//      purely geometric — `drc::check_flat` never sees a label — so DRC's
//      footprint is geometry + drc-signature only.
//   2. Naming axis (`CellEdit::naming_changed`): invalidates stages that
//      consume labels, port names, or instance names. Extraction names
//      electrical nodes from flattened labels, so its footprint is
//      geometry + naming + extract-signature. A naming-only edit therefore
//      re-runs extraction but may reuse a DRC baseline verbatim.
//   3. Tech axis (`tech_drc_changed` / `tech_extract_changed`): a changed
//      rule-table signature invalidates that stage for EVERY cell; the
//      per-cell caches already key on the signature, so the incremental
//      path degrades to a cold hierarchical run, not a wrong answer.
//
// A stage may reuse its baseline result verbatim only when every axis of
// its declared footprint is clean. Anything finer-grained (per-cell, per
// window) is the job of the stage's own cache, which the session drives
// warm — the EditSet is the coarse gate, the caches are the fine one. The house invariant holds at every grain:
// edit-then-incremental == recompile-from-scratch, byte-identical
// (tests/test_incremental.cpp enforces it over randomized edit sequences).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geom/geom.hpp"
#include "layout/layout.hpp"
#include "tech/tech.hpp"

namespace silc::core {

/// Content fingerprint of one cell, as seen through `top` (hashes are
/// hierarchical: a leaf edit changes every ancestor's fingerprint too,
/// which is exactly the invalidation the per-cell caches need).
struct CellFingerprint {
  std::uint64_t geometry = 0;
  std::uint64_t naming = 0;
  std::size_t flat_shapes = 0;
  geom::Rect bbox{};

  friend bool operator==(const CellFingerprint&,
                         const CellFingerprint&) = default;
};

/// Fingerprints of every cell in a library plus the tech signatures the
/// verification stages key on. Taking one costs a hash walk over the
/// library — microseconds, not a compile.
struct LibrarySnapshot {
  std::map<std::string, CellFingerprint> cells;
  std::uint64_t drc_signature = 0;
  std::uint64_t extract_signature = 0;

  [[nodiscard]] bool empty() const { return cells.empty(); }
};

[[nodiscard]] LibrarySnapshot snapshot(const layout::Library& lib,
                                       const tech::Tech& tech);

/// One cell's delta between two snapshots.
struct CellEdit {
  std::string cell;
  bool added = false;            ///< present in `after` only
  bool removed = false;          ///< present in `before` only
  bool geometry_changed = false; ///< geometry hash / shape count / bbox moved
  bool naming_changed = false;   ///< naming hash moved
};

/// The delta between two snapshots: the coarse invalidation gate the
/// session consults (see the conventions block above).
struct EditSet {
  std::vector<CellEdit> cells;
  bool tech_drc_changed = false;
  bool tech_extract_changed = false;

  /// Nothing moved on any axis: every stage may reuse its baseline.
  [[nodiscard]] bool empty() const {
    return cells.empty() && !tech_drc_changed && !tech_extract_changed;
  }
  /// Only the naming axis moved: stages with a geometry-only footprint
  /// (DRC) may reuse their baseline; label-consuming stages may not.
  [[nodiscard]] bool naming_only() const;
  /// True when any cell edit (or a tech change) touches geometry.
  [[nodiscard]] bool geometry_touched() const;
  /// One-line human summary for spans and diagnostics.
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] EditSet diff(const LibrarySnapshot& before,
                           const LibrarySnapshot& after);

}  // namespace silc::core
