// Rule-table-driven lambda design-rule checker.
//
// Rules are data, not code: tech::Tech carries a table of DrcRule entries
// (width / spacing+notch / cross-layer spacing with excuses / surround /
// contact / overhang / implant kinds) over named layer expressions, and
// tech::DerivedLayer defines terms like the transistor channel
// (`poly ∩ diff − buried`) that a derived-layer cache computes once per
// checked region and shares across every rule that reads them. Adding a
// rule — or a whole technology — is a table edit (see
// tech::Tech::rebuild_drc_tables()); the engine (drc/rules.hpp) stays
// untouched.
//
// Three checking modes share that one engine:
//
//   * Flat (check_flat): the exhaustive baseline — every rule against the
//     full flattened geometry, accelerated by the geometry kernel's
//     windowed queries (RectSet::covers/overlapping scan only the rects
//     near each probe instead of sweeping whole layers).
//
//   * Hier (check_hier): assembled-by-construction chips tile the same
//     cells dozens of times, so each unique layout::Cell is proved once —
//     its verdict is cached in a VerdictCache keyed by a content hash of
//     the cell's geometry (layout::geometry_hash: shapes + instance
//     transforms, so equal cells hit across libraries and across a
//     compile_many batch) — and only *interaction windows* are re-checked:
//     seams where instance bounding boxes, inflated by the max rule
//     distance (tech::Tech::max_rule_dist()), overlap each other or the
//     parent's own wiring. The decomposition recurses, so a chip's PLA is
//     itself checked cell-by-cell.
//
//   * Tiled (check_tiled): flat geometry partitioned into a fixed grid of
//     tiles, each checked with a max-rule-distance halo and fanned across
//     a worker pool. A violation is owned by the tile containing its
//     anchor corner, and results are canonicalized (sorted + deduped), so
//     output is bit-identical at any thread count.
//
// All modes agree. Violations are locally anchored — spacing reports the
// offending gap, area rules one canonical rect each, component rules a
// whole pulled component — so every report is decided by evidence the
// window of its anchor-owning tile (or seam) is guaranteed to hold, and
// windowed checks reproduce the flat verdict byte for byte: fuzzed with
// dense random soups and random hierarchies (tiled at several thread
// counts; hier under every non-transposing instance orientation). Two
// documented residuals, neither of which can drop an offence:
//   * instances reused under transposing orientations (R90 family)
//     re-slab the canonical decomposition, so hier spacing/width
//     fragments may split or merge differently than flat's (the offending
//     region is still reported; per-rule presence always matches — and no
//     generator emits transposing instances);
//   * same-layer connectivity reaching a window only through chains of
//     rects that never touch it (depth ≥ 2) can over-report — never
//     under-report — width or spacing there.
// The checker stays conservative: a clean report is trustworthy in every
// mode, and the generators must produce layouts that pass flat checking.
//
// Results are canonical: violations sorted by (rule, location, detail)
// with exact duplicates removed before the kMaxReported display cap.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "geom/rectset.hpp"
#include "layout/layout.hpp"
#include "store/content_cache.hpp"
#include "tech/tech.hpp"

namespace silc::drc {

struct Violation {
  std::string rule;     // e.g. "metal.width", "poly.space", "contact.size"
  geom::Rect where;     // location of the offence (spacing rules report the
                        // offending gap, area rules one canonical rect,
                        // component rules the component bbox)
  std::string detail;
  /// A deterministic point ON the offending geometry — every rule's
  /// decisive evidence lies within the technology halo of it (or belongs
  /// to a pulled component, see LayerTable::window). Tiled ownership and
  /// windowed re-checks key on this, never on the `where` bbox, whose
  /// corners can be far from any geometry. Not part of identity.
  geom::Point anchor{};

  /// "rule at rect (detail)" — the one-line rendering summaries and the
  /// compiler's diagnostics stream share.
  [[nodiscard]] std::string str() const;

  friend bool operator==(const Violation& a, const Violation& b) {
    return a.rule == b.rule && a.where == b.where && a.detail == b.detail;
  }
  /// Canonical order: (rule, where, detail), anchor as a final
  /// tiebreaker so deduplication keeps a deterministic survivor.
  friend bool operator<(const Violation& a, const Violation& b);
};

struct Result {
  /// Violations listed individually by summary() and the compiler's
  /// diagnostics stream before collapsing to "... and N more".
  static constexpr std::size_t kMaxReported = 20;

  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
  /// Count of violations whose rule name starts with `prefix`.
  [[nodiscard]] std::size_t count(const std::string& prefix) const;
  /// Sort violations canonically and drop exact duplicates (tiling and
  /// interaction-window checks can find the same offence twice). Every
  /// check entry point returns a canonical Result.
  void canonicalize();
};

/// Store codec of the per-cell verdict cache (store/content_cache.hpp):
/// stream "drc", obs counters drc.cache.*, fault site drc.cache.store.
/// Any change to the key or payload encoding requires a
/// store::kSchemaVersion bump.
struct VerdictCodec {
  struct Key {
    /// Identifies the rule set by content (tech::Tech::drc_signature()),
    /// not by the free-form technology name — editing a rule table
    /// invalidates cached verdicts even if the name is reused.
    std::uint64_t tech_sig = 0;
    std::uint64_t hash = 0;
    std::uint64_t shapes = 0;
    geom::Rect bbox;

    friend bool operator<(const Key& a, const Key& b) {
      if (a.hash != b.hash) return a.hash < b.hash;
      if (a.shapes != b.shapes) return a.shapes < b.shapes;
      if (a.tech_sig != b.tech_sig) return a.tech_sig < b.tech_sig;
      return std::tie(a.bbox.x0, a.bbox.y0, a.bbox.x1, a.bbox.y1) <
             std::tie(b.bbox.x0, b.bbox.y0, b.bbox.x1, b.bbox.y1);
    }
  };
  /// Violations in cell-local coordinates; instances transform them.
  using Value = std::vector<Violation>;

  static constexpr const char* kStream = "drc";
  static constexpr const char* kMetrics = "drc.cache";

  static void encode_key(store::Writer& w, const Key& k);
  static Key decode_key(store::Reader& r);
  static std::string encode(const Value& v);
  static std::shared_ptr<const Value> decode(const std::string& payload);
  static std::uint64_t checksum(const Value& v);
  static std::uint64_t bytes(const Value& v);

  /// Violation-list fields on their own (count, then rule / where /
  /// detail / anchor each), shared with the whole-result payload.
  static void write(store::Writer& w, const Value& v);
  /// False when the reader runs out or a count is implausible.
  static bool read(store::Reader& r, Value& out);
};

/// Per-cell DRC verdicts shared across hierarchical checks — and, via
/// core::compile_many, across every design of a batch. Keyed by the rule
/// signature plus a content hash of the cell's geometry (with shape count
/// and bbox folded in as collision insurance), so identical cells rebuilt
/// in different libraries hit. Thread safety, checksum-on-hit poison
/// detection, LRU bound, and persistence come from store::ContentCache.
using VerdictCache = store::ContentCache<VerdictCodec>;

/// The checking mode a caller selects (the compile pipeline's drc stage
/// reads it from core::CompileOptions::drc_mode and calls check_flat,
/// check_hier_or_flat or check_tiled).
enum class Mode : std::uint8_t { Flat, Hier, Tiled };

[[nodiscard]] const char* to_string(Mode m);

/// Check a cell, flattened internally (Mode::Flat).
[[nodiscard]] Result check(const layout::Cell& top,
                           const tech::Tech& technology = tech::nmos());

/// Check pre-flattened geometry exhaustively.
[[nodiscard]] Result check_flat(const std::vector<layout::Shape>& shapes,
                                const tech::Tech& technology = tech::nmos());

/// Check pre-flattened geometry tile-parallel: fixed grid + halo, fanned
/// across `threads` workers (0 = hardware concurrency). Bit-identical
/// results at any thread count.
[[nodiscard]] Result check_tiled(const std::vector<layout::Shape>& shapes,
                                 const tech::Tech& technology = tech::nmos(),
                                 int threads = 0);

/// Check a cell hierarchically: unique cells once (cached in `cache` when
/// given), interaction windows re-verified.
[[nodiscard]] Result check_hier(const layout::Cell& top,
                                const tech::Tech& technology = tech::nmos(),
                                VerdictCache* cache = nullptr);

/// check_hier with the one hier→flat fallback, shared by the compile
/// pipeline's drc stage and core::IncrementalSession. All modes agree, so
/// the fallback returns the same Result byte for byte (proved by
/// tests/test_fault.cpp and tests/test_incremental.cpp):
///
///   failure inside check_hier        | what happens
///   ---------------------------------+------------------------------------
///   any std::exception               | caught here, described in
///     (incl. fault::InjectedFault)   |   *failure (the caller warns or
///                                    |   counts), re-run as check_flat —
///                                    |   same Result, byte for byte
///   poisoned VerdictCache entry      | detected by checksum inside find(),
///                                    |   evicted + recomputed — no
///                                    |   fallback needed, same Result
///   core::Cancelled                  | NEVER degraded — rethrown so the
///                                    |   deadline wins (retrying on the
///                                    |   slower flat path would be worse)
///
/// `*failure` is set to "hierarchical DRC failed (<what>); falling back to
/// flat" when the fallback ran, and cleared otherwise. `fault_site`, when
/// given, names an extra fault point inside the hier attempt (the
/// session's "incr.drc").
[[nodiscard]] Result check_hier_or_flat(const layout::Cell& top,
                                        const tech::Tech& technology,
                                        VerdictCache* cache,
                                        std::string* failure = nullptr,
                                        const char* fault_site = nullptr);

}  // namespace silc::drc
