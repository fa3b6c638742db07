#include "geom/rectset.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <utility>

#include "base/fnv.hpp"

namespace silc::geom {
namespace {

struct Interval {
  Coord lo, hi;
};

// Merge a sorted-by-lo interval list into a disjoint, sorted union.
std::vector<Interval> merge_intervals(std::vector<Interval> in) {
  if (in.empty()) return in;
  std::sort(in.begin(), in.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> out;
  out.push_back(in.front());
  for (std::size_t i = 1; i < in.size(); ++i) {
    if (in[i].lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, in[i].hi);
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

// Set operations on disjoint sorted interval lists.
enum class Op { Union, Intersect, Subtract };

std::vector<Interval> combine(const std::vector<Interval>& a,
                              const std::vector<Interval>& b, Op op) {
  switch (op) {
    case Op::Union: {
      std::vector<Interval> all = a;
      all.insert(all.end(), b.begin(), b.end());
      return merge_intervals(std::move(all));
    }
    case Op::Intersect: {
      std::vector<Interval> out;
      std::size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        const Coord lo = std::max(a[i].lo, b[j].lo);
        const Coord hi = std::min(a[i].hi, b[j].hi);
        if (lo < hi) out.push_back({lo, hi});
        if (a[i].hi < b[j].hi) {
          ++i;
        } else {
          ++j;
        }
      }
      return out;
    }
    case Op::Subtract: {
      std::vector<Interval> out;
      std::size_t j = 0;
      for (const Interval& ia : a) {
        Coord cur = ia.lo;
        while (j < b.size() && b[j].hi <= cur) ++j;
        std::size_t k = j;
        while (k < b.size() && b[k].lo < ia.hi) {
          if (b[k].lo > cur) out.push_back({cur, b[k].lo});
          cur = std::max(cur, b[k].hi);
          ++k;
        }
        if (cur < ia.hi) out.push_back({cur, ia.hi});
      }
      return out;
    }
  }
  return {};
}

// Scanline slab decomposition over one or two rect lists: calls `emit` for
// each y-band with the op-combined interval list. Inputs need not be
// disjoint for Union; Intersect/Subtract require each input disjoint within
// any band, which holds for normalized sets.
template <typename Emit>
void sweep(const std::vector<Rect>& a, const std::vector<Rect>& b, Op op,
           Emit emit) {
  std::vector<Coord> ys;
  ys.reserve(2 * (a.size() + b.size()));
  for (const Rect& r : a) {
    ys.push_back(r.y0);
    ys.push_back(r.y1);
  }
  for (const Rect& r : b) {
    ys.push_back(r.y0);
    ys.push_back(r.y1);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  if (ys.size() < 2) return;

  // Event-driven active lists, sorted by y0.
  std::vector<Rect> sa = a, sb = b;
  std::sort(sa.begin(), sa.end(),
            [](const Rect& r, const Rect& s) { return r.y0 < s.y0; });
  std::sort(sb.begin(), sb.end(),
            [](const Rect& r, const Rect& s) { return r.y0 < s.y0; });
  std::size_t ia = 0, ib = 0;
  std::vector<Rect> act_a, act_b;

  for (std::size_t band = 0; band + 1 < ys.size(); ++band) {
    const Coord yl = ys[band], yh = ys[band + 1];
    while (ia < sa.size() && sa[ia].y0 <= yl) act_a.push_back(sa[ia++]);
    while (ib < sb.size() && sb[ib].y0 <= yl) act_b.push_back(sb[ib++]);
    std::erase_if(act_a, [yl](const Rect& r) { return r.y1 <= yl; });
    std::erase_if(act_b, [yl](const Rect& r) { return r.y1 <= yl; });

    std::vector<Interval> va, vb;
    va.reserve(act_a.size());
    vb.reserve(act_b.size());
    for (const Rect& r : act_a) va.push_back({r.x0, r.x1});
    for (const Rect& r : act_b) vb.push_back({r.x0, r.x1});
    va = merge_intervals(std::move(va));
    vb = merge_intervals(std::move(vb));
    emit(yl, yh, combine(va, vb, op));
  }
}

// Collect sweep output into canonical rects, merging vertically-adjacent
// bands whose x-extents match exactly.
class Collector {
 public:
  void band(Coord yl, Coord yh, const std::vector<Interval>& xs) {
    if (xs.empty()) {
      open_.clear();
      return;
    }
    std::map<std::pair<Coord, Coord>, std::size_t> next;
    for (const Interval& iv : xs) {
      auto it = open_.find({iv.lo, iv.hi});
      if (it != open_.end() && out_[it->second].y1 == yl) {
        out_[it->second].y1 = yh;
        next.emplace(std::pair{iv.lo, iv.hi}, it->second);
      } else {
        out_.push_back({iv.lo, yl, iv.hi, yh});
        next.emplace(std::pair{iv.lo, iv.hi}, out_.size() - 1);
      }
    }
    open_ = std::move(next);
  }
  std::vector<Rect> take() {
    std::sort(out_.begin(), out_.end(), [](const Rect& a, const Rect& b) {
      return std::tie(a.y0, a.x0, a.y1, a.x1) < std::tie(b.y0, b.x0, b.y1, b.x1);
    });
    return std::move(out_);
  }

 private:
  std::vector<Rect> out_;
  std::map<std::pair<Coord, Coord>, std::size_t> open_;
};

std::vector<Rect> run_op(const std::vector<Rect>& a, const std::vector<Rect>& b,
                         Op op) {
  Collector c;
  sweep(a, b, op, [&c](Coord yl, Coord yh, const std::vector<Interval>& xs) {
    c.band(yl, yh, xs);
  });
  return c.take();
}

}  // namespace

RectSet::RectSet(const Rect& r) {
  if (!r.empty()) rects_.push_back(r);
}

RectSet::RectSet(std::vector<Rect> rects) : rects_(std::move(rects)), dirty_(true) {
  normalize();
}

void RectSet::add(const Rect& r) {
  if (r.empty()) return;
  rects_.push_back(r);
  dirty_ = true;
  comps_done_ = false;
  comps_.clear();
}

void RectSet::normalize() const {
  if (!dirty_) return;
  std::erase_if(rects_, [](const Rect& r) { return r.empty(); });
  rects_ = run_op(rects_, {}, Op::Union);
  dirty_ = false;
}

const std::vector<Rect>& RectSet::rects() const {
  normalize();
  return rects_;
}

bool RectSet::empty() const { return rects().empty(); }

std::int64_t RectSet::area() const {
  std::int64_t total = 0;
  for (const Rect& r : rects()) total += r.area();
  return total;
}

Rect RectSet::bbox() const {
  Rect b;
  for (const Rect& r : rects()) b = b.bound(r);
  return b;
}

bool RectSet::contains(Point p) const {
  for (const Rect& r : rects()) {
    if (r.contains(p)) return true;
  }
  return false;
}

bool RectSet::covers(const Rect& r) const {
  if (r.empty()) return true;
  // Only rects overlapping `r` can contribute to covering it, and the
  // canonical list is sorted by y0, so the scan ends at the first band
  // past r — per-query cost is local, not a full-region sweep.
  std::vector<Rect> local;
  for (const Rect& s : rects()) {
    if (s.y0 >= r.y1) break;
    if (s.overlaps(r)) local.push_back(s);
  }
  return run_op({r}, local, Op::Subtract).empty();
}

bool RectSet::intersects(const Rect& r) const {
  if (r.empty()) return false;
  for (const Rect& s : rects()) {
    if (s.y0 >= r.y1) break;
    if (s.overlaps(r)) return true;
  }
  return false;
}

bool RectSet::touches(const Rect& r) const {
  if (r.x0 > r.x1 || r.y0 > r.y1) return false;
  for (const Rect& s : rects()) {
    if (s.y0 > r.y1) break;
    if (s.touches(r)) return true;
  }
  return false;
}

std::vector<Rect> RectSet::overlapping(const Rect& w) const {
  std::vector<Rect> out;
  for (const Rect& s : rects()) {
    if (s.y0 > w.y1) break;
    if (s.touches(w)) out.push_back(s);
  }
  return out;
}

RectSet RectSet::clipped(const Rect& w) const {
  RectSet out;
  for (const Rect& s : rects()) {
    if (s.y0 >= w.y1) break;
    const Rect c = s.intersect(w);
    if (!c.empty()) out.rects_.push_back(c);
  }
  out.dirty_ = true;  // clipping can expose vertical merges
  return out;
}

std::uint64_t RectSet::hash() const {
  Fnv1a h;
  for (const Rect& r : rects()) {
    h.mix(static_cast<std::uint64_t>(r.x0));
    h.mix(static_cast<std::uint64_t>(r.y0));
    h.mix(static_cast<std::uint64_t>(r.x1));
    h.mix(static_cast<std::uint64_t>(r.y1));
  }
  return h.value();
}

RectSet RectSet::unite(const RectSet& o) const {
  RectSet out;
  out.rects_ = run_op(rects(), o.rects(), Op::Union);
  return out;
}

RectSet RectSet::intersect(const RectSet& o) const {
  RectSet out;
  out.rects_ = run_op(rects(), o.rects(), Op::Intersect);
  return out;
}

RectSet RectSet::subtract(const RectSet& o) const {
  RectSet out;
  out.rects_ = run_op(rects(), o.rects(), Op::Subtract);
  return out;
}

RectSet RectSet::dilated(Coord d) const {
  if (d == 0) return *this;
  assert(d > 0);
  std::vector<Rect> grown;
  grown.reserve(rects().size());
  for (const Rect& r : rects()) grown.push_back(r.inflated(d));
  return RectSet(std::move(grown));
}

RectSet RectSet::eroded(Coord d) const {
  if (d == 0) return *this;
  assert(d > 0);
  if (empty()) return {};
  const Rect window = bbox().inflated(2 * d);
  const RectSet complement = RectSet(window).subtract(*this);
  return RectSet(window).subtract(complement.dilated(d)).intersect(*this);
}

RectSet RectSet::scaled(Coord k) const {
  assert(k > 0);
  RectSet out;
  out.rects_.reserve(rects().size());
  for (const Rect& r : rects()) {
    out.rects_.push_back({r.x0 * k, r.y0 * k, r.x1 * k, r.y1 * k});
  }
  return out;  // scaling preserves canonical form
}

const std::vector<std::vector<Rect>>& RectSet::components() const {
  if (comps_done_) return comps_;
  const std::vector<int> labels = label_components(rects());
  int n = 0;
  for (int l : labels) n = std::max(n, l + 1);
  std::vector<std::vector<Rect>> out(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < rects().size(); ++i) {
    out[static_cast<std::size_t>(labels[i])].push_back(rects()[i]);
  }
  comps_ = std::move(out);
  comps_done_ = true;
  return comps_;
}

std::vector<int> label_components(const std::vector<Rect>& rects) {
  const std::size_t n = rects.size();
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  const auto unite = [&parent, &find](int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(a)] = b;
  };

  // Sweep by x to avoid all-pairs comparison: only rects whose x-extents
  // overlap (or abut) can be edge-connected.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&rects](int a, int b) {
    return rects[static_cast<std::size_t>(a)].x0 < rects[static_cast<std::size_t>(b)].x0;
  });
  for (std::size_t i = 0; i < n; ++i) {
    const Rect& ri = rects[static_cast<std::size_t>(order[i])];
    for (std::size_t j = i + 1; j < n; ++j) {
      const Rect& rj = rects[static_cast<std::size_t>(order[j])];
      if (rj.x0 > ri.x1) break;
      if (ri.edge_connected(rj)) unite(order[i], order[j]);
    }
  }

  std::vector<int> labels(n);
  std::vector<int> remap(n, -1);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int root = find(static_cast<int>(i));
    if (remap[static_cast<std::size_t>(root)] < 0) {
      remap[static_cast<std::size_t>(root)] = next++;
    }
    labels[i] = remap[static_cast<std::size_t>(root)];
  }
  return labels;
}

}  // namespace silc::geom
