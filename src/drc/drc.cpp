#include "drc/drc.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <sstream>
#include <exception>
#include <thread>

#include "base/fnv.hpp"
#include "core/cancel.hpp"
#include "drc/rules.hpp"
#include "fault/fault.hpp"
#include "store/store.hpp"

namespace silc::drc {

using geom::Coord;
using geom::Rect;
using layout::Shape;
using tech::Tech;

// -------------------------------------------------------------- violations --

std::string Violation::str() const {
  std::string s = rule + " at " + geom::to_string(where);
  if (!detail.empty()) s += " (" + detail + ")";
  return s;
}

bool operator<(const Violation& a, const Violation& b) {
  return std::tie(a.rule, a.where.x0, a.where.y0, a.where.x1, a.where.y1,
                  a.detail, a.anchor.x, a.anchor.y) <
         std::tie(b.rule, b.where.x0, b.where.y0, b.where.x1, b.where.y1,
                  b.detail, b.anchor.x, b.anchor.y);
}

std::string Result::summary() const {
  if (ok()) return "DRC clean";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  const std::size_t show = std::min(violations.size(), kMaxReported);
  for (std::size_t i = 0; i < show; ++i) {
    os << "\n  " << violations[i].str();
  }
  if (show < violations.size()) {
    os << "\n  ... and " << violations.size() - show << " more";
  }
  return os.str();
}

std::size_t Result::count(const std::string& prefix) const {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (v.rule.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

void Result::canonicalize() {
  std::sort(violations.begin(), violations.end());
  violations.erase(std::unique(violations.begin(), violations.end()),
                   violations.end());
}

// ----------------------------------------------------------- verdict codec --

void VerdictCodec::encode_key(store::Writer& w, const Key& k) {
  w.u64(k.tech_sig);
  w.u64(k.hash);
  w.u64(k.shapes);
  w.rect(k.bbox);
}

VerdictCodec::Key VerdictCodec::decode_key(store::Reader& r) {
  Key k;
  k.tech_sig = r.u64();
  k.hash = r.u64();
  k.shapes = r.u64();
  k.bbox = r.rect();
  return k;
}

void VerdictCodec::write(store::Writer& w, const Value& v) {
  w.u64(v.size());
  for (const Violation& x : v) {
    w.str(x.rule);
    w.rect(x.where);
    w.str(x.detail);
    w.point(x.anchor);
  }
}

bool VerdictCodec::read(store::Reader& r, Value& out) {
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > r.remaining()) return false;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Violation x;
    x.rule = r.str();
    x.where = r.rect();
    x.detail = r.str();
    x.anchor = r.point();
    out.push_back(std::move(x));
  }
  return r.ok();
}

std::string VerdictCodec::encode(const Value& v) {
  store::Writer w;
  write(w, v);
  return w.take();
}

std::shared_ptr<const VerdictCodec::Value> VerdictCodec::decode(
    const std::string& payload) {
  store::Reader r(payload);
  Value v;
  if (!read(r, v) || !r.done()) return nullptr;
  return std::make_shared<const Value>(std::move(v));
}

/// Content hash over the fields that define a verdict (never raw struct
/// bytes — padding is indeterminate).
std::uint64_t VerdictCodec::checksum(const Value& v) {
  Fnv1a h;
  h.mix(v.size());
  for (const Violation& x : v) {
    h.mix_str(x.rule);
    h.mix_str(x.detail);
    h.mix(static_cast<std::uint64_t>(x.where.x0));
    h.mix(static_cast<std::uint64_t>(x.where.y0));
    h.mix(static_cast<std::uint64_t>(x.where.x1));
    h.mix(static_cast<std::uint64_t>(x.where.y1));
    h.mix(static_cast<std::uint64_t>(x.anchor.x));
    h.mix(static_cast<std::uint64_t>(x.anchor.y));
  }
  return h.value();
}

std::uint64_t VerdictCodec::bytes(const Value& v) {
  std::uint64_t b = sizeof(Value);
  for (const Violation& x : v) {
    b += sizeof(Violation) + x.rule.size() + x.detail.size();
  }
  return b;
}

// ------------------------------------------------------------ entry points --

const char* to_string(Mode m) {
  switch (m) {
    case Mode::Flat: return "flat";
    case Mode::Hier: return "hier";
    case Mode::Tiled: return "tiled";
  }
  return "?";
}

Result check_flat(const std::vector<Shape>& shapes, const Tech& technology) {
  const RuleEngine engine(technology);
  LayerTable table(shapes, technology);
  Result r;
  engine.run(table, r);
  r.canonicalize();
  return r;
}

namespace {

/// Fixed tile grid over the geometry's bounding box: side count depends on
/// the shape count only, never on the thread count, so the partition (and
/// with it the result) is identical however many workers run it.
struct TileGrid {
  Rect bbox;
  int side = 1;

  [[nodiscard]] int tiles() const { return side * side; }
  [[nodiscard]] Rect tile(int idx) const {
    const int ix = idx % side;
    const int iy = idx / side;
    const Coord w = bbox.width();
    const Coord h = bbox.height();
    return {bbox.x0 + w * ix / side, bbox.y0 + h * iy / side,
            bbox.x0 + w * (ix + 1) / side, bbox.y0 + h * (iy + 1) / side};
  }
  /// The tile owning an anchor point (clamped into the grid).
  [[nodiscard]] int owner(Coord x, Coord y) const {
    const auto clamp_idx = [this](Coord num, Coord den) {
      if (den <= 0) return Coord{0};
      return std::clamp<Coord>(num * side / den, 0, side - 1);
    };
    const Coord ix = clamp_idx(x - bbox.x0, bbox.width());
    const Coord iy = clamp_idx(y - bbox.y0, bbox.height());
    return static_cast<int>(iy) * side + static_cast<int>(ix);
  }
};

}  // namespace

Result check_tiled(const std::vector<Shape>& shapes, const Tech& technology,
                   int threads) {
  const RuleEngine engine(technology);
  constexpr std::size_t kTargetShapesPerTile = 384;

  TileGrid grid;
  for (const Shape& s : shapes) grid.bbox = grid.bbox.bound(s.rect);
  grid.side = static_cast<int>(std::ceil(std::sqrt(
      static_cast<double>(shapes.size()) / kTargetShapesPerTile)));
  grid.side = std::clamp(grid.side, 1, 64);
  if (grid.tiles() == 1) return check_flat(shapes, technology);

  const unsigned hw = std::thread::hardware_concurrency();
  int want = threads > 0 ? threads : static_cast<int>(hw);
  if (hw >= 1) want = std::min(want, static_cast<int>(hw));
  want = std::clamp(want, 1, grid.tiles());

  // Halo: geometry farther than this from a tile cannot change verdicts
  // inside it, so each tile checks the windowed evidence soup around its
  // inflated core (unclipped rects — clipping would fabricate edges) and
  // keeps the violations whose anchor corner the tile owns. The shared
  // full table is pre-warmed (canonical rects + global connectivity
  // labels) so workers only ever read it.
  const Coord halo = engine.halo() + technology.lambda;
  LayerTable full(shapes, technology);
  engine.prewarm(full);  // workers only ever read the shared table
  std::vector<Result> per_tile(static_cast<std::size_t>(grid.tiles()));
  std::atomic<int> next{0};
  // Worker threads never throw (that would std::terminate): the first
  // exception is parked and rethrown on the caller after the join, and its
  // presence — like a fired CancelToken, captured here because
  // thread-locals don't inherit — stops everyone claiming further tiles.
  const core::CancelToken* cancel = core::current_cancel();
  std::mutex fail_m;
  std::exception_ptr failure;
  std::atomic<bool> bail{false};
  const auto work = [&] {
    const core::CancelScope ambient(cancel);
    for (;;) {
      if (bail.load(std::memory_order_relaxed) ||
          core::cancel_requested()) {
        return;
      }
      const int idx = next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= grid.tiles()) return;
      try {
        SILC_OBS_SPAN("drc.tile:" + std::to_string(idx), "drc");
        SILC_OBS_COUNT("drc.tiles", 1);
        SILC_FAULT_POINT("drc.tile");
        const Rect core = grid.tile(idx);
        LayerTable soup =
            full.window(geom::RectSet(core.inflated(halo)), halo);
        Result r;
        engine.run(soup, r);
        Result& mine = per_tile[static_cast<std::size_t>(idx)];
        for (Violation& v : r.violations) {
          // Ownership by evidence anchor — a point on the offending
          // geometry, so the owning tile's window is guaranteed to hold
          // the evidence that decides the violation.
          if (grid.owner(v.anchor.x, v.anchor.y) == idx) {
            mine.violations.push_back(std::move(v));
          }
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lk(fail_m);
        if (!failure) failure = std::current_exception();
        bail.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> crew;
  for (int t = 1; t < want; ++t) crew.emplace_back(work);
  work();
  for (std::thread& t : crew) t.join();
  if (failure) std::rethrow_exception(failure);
  core::check_cancel("drc.tiled");

  Result out;
  for (Result& r : per_tile) {
    out.violations.insert(out.violations.end(),
                          std::make_move_iterator(r.violations.begin()),
                          std::make_move_iterator(r.violations.end()));
  }
  out.canonicalize();
  return out;
}

Result check_hier_or_flat(const layout::Cell& top, const Tech& technology,
                          VerdictCache* cache, std::string* failure,
                          const char* fault_site) {
  if (failure != nullptr) failure->clear();
  try {
    if (fault_site != nullptr) SILC_FAULT_POINT(fault_site);
    return check_hier(top, technology, cache);
  } catch (const core::Cancelled&) {
    throw;
  } catch (const std::exception& e) {
    if (failure != nullptr) {
      *failure = std::string("hierarchical DRC failed (") + e.what() +
                 "); falling back to flat";
    }
  }
  return check_flat(layout::flatten(top), technology);
}

Result check(const layout::Cell& top, const Tech& technology) {
  return check_flat(layout::flatten(top), technology);
}

}  // namespace silc::drc
