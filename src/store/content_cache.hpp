// The one in-memory content cache behind every store stream:
// drc::VerdictCache, extract::NetlistCache, and core::ResultCache are all
// ContentCache<Codec>, differing only in the codec that knows their
// payload. The template owns everything else:
//
//   * Thread safety. One mutex per cache. Concurrent misses may compute
//     the same value; the first writer wins (store() returns the entry
//     actually kept), which is harmless because cached values are
//     deterministic functions of their key.
//   * Poison detection. Every entry keeps the codec's checksum of its
//     value, verified on each hit. A mismatch (memory corruption, or the
//     injected corrupt fault at site "<stream>.cache.store", which flips
//     the stored checksum) evicts the entry and reads as a miss, so a bad
//     entry degrades to a recompute, never to a wrong answer.
//   * Bounded residency. set_capacity(n) keeps at most n entries, evicting
//     the least-recently-used (a hit refreshes the stamp); 0 = unbounded,
//     the default. Correctness never depends on residency.
//   * Accounting. Lifetime hits / misses / poisoned / evictions plus entry
//     bytes (obs::CacheStats), mirrored as the obs counters
//     "<prefix>.hits", ".misses", ".poisoned", ".evictions", ".bytes" and
//     the trace instants "<prefix>.hit", ".miss", ".poisoned".
//   * Persistence (store/store.hpp conventions). load_from decodes each
//     record's key and keeps its payload as the raw bytes the store's
//     record checksum already verified; a record is decoded on its first
//     hit, so a batch pays only for the entries it reads. A key that
//     fails to decode is dropped at load; a payload that fails to decode
//     is a poisoned entry on its first hit (evicted, counted, a miss) —
//     never served, never fatal. The "<stream>.cache.store" corrupt fault
//     poisons a loaded entry as it does a stored one. save_to writes one
//     record per entry into the codec's stream, copying a still-undecoded
//     payload unchanged. dirty() says whether the cache holds anything
//     the last load_from / save_to store lacks (a fresh insert, an
//     eviction of either kind, a dropped record), which is what lets
//     core::CacheSet skip rewriting a file nothing was learned for.
//
// A codec is a struct providing:
//
//   Key                      ordered by operator<
//   Value                    immutable once stored (readers share it); may
//                            be incomplete where the cache is only held,
//                            loaded, or saved
//   kStream                  store stream name, e.g. "drc"
//   kMetrics                 obs counter prefix, e.g. "drc.cache"
//   encode_key(Writer&, const Key&)   /  decode_key(Reader&) -> Key
//   encode(const Value&) -> std::string
//   decode(const std::string&) -> std::shared_ptr<const Value>
//                            (nullptr = malformed payload); called on the
//                            first hit of a loaded record, and
//                            encode(*decode(p)) must equal p
//   checksum(const Value&) -> std::uint64_t   deterministic content hash
//   bytes(const Value&) -> std::uint64_t      approximate in-memory size
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "store/store.hpp"

namespace silc::store {

template <class Codec>
class ContentCache {
 public:
  using Key = typename Codec::Key;
  using Value = typename Codec::Value;
  using Ptr = std::shared_ptr<const Value>;

  /// The entry under `k`, or nullptr on a miss (including a poisoned
  /// entry, which is evicted).
  [[nodiscard]] Ptr find(const Key& k) const {
    Ptr out;
    (void)read(k, [&out](const Ptr& v) {
      out = v;
      return true;
    });
    return out;
  }

  /// find() for a caller that decodes the value further: `use(value)` runs
  /// on a verified entry and says whether it could read it. An entry it
  /// rejects is poisoned like one that failed its checksum — evicted,
  /// counted, and the lookup is a miss. True on a hit. `use` runs under
  /// the lock so a rejected entry is counted once, as a miss, and is gone
  /// before another thread can be served it.
  template <class Use>
  bool read(const Key& k, Use&& use) const {
    const std::lock_guard<std::mutex> lk(m_);
    const auto it = map_.find(k);
    if (it == map_.end()) {
      ++misses_;
      SILC_OBS_COUNT(names().misses, 1);
      SILC_OBS_INSTANT(names().miss, "cache");
      return false;
    }
    Entry& e = it->second;
    const bool sound = e.value == nullptr
                           ? decode_locked(e)
                           : Codec::checksum(*e.value) == e.checksum;
    if (!sound || !use(e.value)) {
      ++poisoned_;
      ++misses_;
      bytes_ -= e.bytes;
      dirty_ = true;
      SILC_OBS_COUNT(names().poisoned, 1);
      SILC_OBS_COUNT(names().bytes, -static_cast<long long>(e.bytes));
      SILC_OBS_COUNT(names().misses, 1);
      SILC_OBS_INSTANT(names().poisoned, "cache");
      map_.erase(it);
      return false;
    }
    ++hits_;
    e.last_use = ++clock_;
    SILC_OBS_COUNT(names().hits, 1);
    SILC_OBS_INSTANT(names().hit, "cache");
    return true;
  }

  /// Insert `value` under `k` and return the entry kept (the first writer
  /// wins when two workers race on the same miss).
  Ptr store(const Key& k, Value value) {
    return insert(k, std::make_shared<const Value>(std::move(value)));
  }

  /// store() for a value already held by a shared_ptr (another cache's
  /// entry) — usable where Value is incomplete. A loaded record not yet
  /// decoded gives way to the value, which its key says is the same.
  Ptr insert(const Key& k, Ptr value) {
    const std::uint64_t bytes = Codec::bytes(*value);
    const std::uint64_t checksum = Codec::checksum(*value) ^ poison_mask();
    const std::lock_guard<std::mutex> lk(m_);
    Entry& e = map_[k];
    if (e.value == nullptr) {
      bytes_ = bytes_ - e.bytes + bytes;
      SILC_OBS_COUNT(names().bytes, static_cast<long long>(bytes) -
                                        static_cast<long long>(e.bytes));
      e = Entry{std::move(value), {}, bytes, checksum, ++clock_};
      dirty_ = true;
      evict_overflow_locked();
    }
    return e.value;
  }

  void set_capacity(std::size_t max_entries) {
    const std::lock_guard<std::mutex> lk(m_);
    capacity_ = max_entries;
    evict_overflow_locked();
  }

  [[nodiscard]] obs::CacheStats stats() const {
    const std::lock_guard<std::mutex> lk(m_);
    return {hits_, misses_, evictions_, map_.size(), bytes_};
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lk(m_);
    return map_.size();
  }
  [[nodiscard]] std::uint64_t hits() const {
    const std::lock_guard<std::mutex> lk(m_);
    return hits_;
  }
  [[nodiscard]] std::uint64_t misses() const {
    const std::lock_guard<std::mutex> lk(m_);
    return misses_;
  }
  /// Entries evicted on hit as poisoned: a failed checksum or a payload
  /// that would not decode.
  [[nodiscard]] std::uint64_t poisoned() const {
    const std::lock_guard<std::mutex> lk(m_);
    return poisoned_;
  }
  /// True when the cache holds something the store it last loaded from or
  /// saved to lacks: a fresh insert, an LRU or poison eviction, or a
  /// loaded record dropped as malformed. save_to clears it.
  [[nodiscard]] bool dirty() const {
    const std::lock_guard<std::mutex> lk(m_);
    return dirty_;
  }

  void save_to(Store& s) const {
    const std::lock_guard<std::mutex> lk(m_);
    for (const auto& [k, e] : map_) {
      Writer kw;
      Codec::encode_key(kw, k);
      s.put(Codec::kStream, kw.take(),
            e.value != nullptr ? Codec::encode(*e.value) : e.raw);
    }
    dirty_ = false;
  }

  void load_from(const Store& s) {
    s.for_each(Codec::kStream,
               [this](const std::string& key, const std::string& payload) {
                 Reader kr(key);
                 const Key k = Codec::decode_key(kr);
                 const std::uint64_t mask = poison_mask();
                 const std::lock_guard<std::mutex> lk(m_);
                 if (!kr.done()) {
                   dirty_ = true;
                   return;
                 }
                 const auto [it, fresh] = map_.try_emplace(k);
                 if (!fresh) return;
                 it->second = Entry{nullptr, payload, payload.size(), mask,
                                    ++clock_};
                 bytes_ += payload.size();
                 SILC_OBS_COUNT(names().bytes, payload.size());
                 evict_overflow_locked();
               });
  }

 private:
  /// A decoded entry holds `value`; a loaded record holds `raw` until its
  /// first hit decodes it, and its checksum field holds only the poison
  /// mask (0 = clean) until then.
  struct Entry {
    Ptr value;
    std::string raw;
    std::uint64_t bytes = 0;     // raw size while pending, then Codec::bytes
    std::uint64_t checksum = 0;  // verified on hit
    std::uint64_t last_use = 0;  // LRU stamp
  };

  /// Counter, instant, and fault-site names of this instantiation, built
  /// once from the codec's prefix and stream.
  struct Names {
    std::string hits, misses, poisoned, evictions, bytes, hit, miss, site;
  };
  static const Names& names() {
    static const Names n = [] {
      const std::string p = Codec::kMetrics;
      return Names{p + ".hits",      p + ".misses", p + ".poisoned",
                   p + ".evictions", p + ".bytes",  p + ".hit",
                   p + ".miss",      std::string(Codec::kStream) + ".cache.store"};
    }();
    return n;
  }

  /// Injected poisoning flips the stored checksum (never the value —
  /// concurrent readers may hold it); the first hit must detect and evict.
  static std::uint64_t poison_mask() {
    return SILC_FAULT_CORRUPT_AT(names().site) ? 0x5a5a5a5a5a5a5a5aULL : 0;
  }

  /// First hit on a loaded record: decode it and seal its checksum. False
  /// when the record was poisoned while pending or its payload is
  /// malformed.
  bool decode_locked(Entry& e) const {
    if (e.checksum != 0) return false;
    Ptr v = Codec::decode(e.raw);
    if (v == nullptr) return false;
    const std::uint64_t bytes = Codec::bytes(*v);
    bytes_ = bytes_ - e.bytes + bytes;
    SILC_OBS_COUNT(names().bytes, static_cast<long long>(bytes) -
                                      static_cast<long long>(e.bytes));
    e.checksum = Codec::checksum(*v);
    e.value = std::move(v);
    e.bytes = bytes;
    std::string().swap(e.raw);
    return true;
  }

  void evict_overflow_locked() {
    while (capacity_ > 0 && map_.size() > capacity_) {
      auto victim = map_.begin();
      for (auto it = map_.begin(); it != map_.end(); ++it) {
        if (it->second.last_use < victim->second.last_use) victim = it;
      }
      bytes_ -= victim->second.bytes;
      SILC_OBS_COUNT(names().bytes,
                     -static_cast<long long>(victim->second.bytes));
      map_.erase(victim);
      ++evictions_;
      dirty_ = true;
      SILC_OBS_COUNT(names().evictions, 1);
    }
  }

  mutable std::mutex m_;
  mutable std::map<Key, Entry> map_;  // find() refreshes the LRU stamp
  std::size_t capacity_ = 0;          // 0 = unbounded
  mutable std::uint64_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  mutable std::uint64_t clock_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::uint64_t poisoned_ = 0;
  mutable bool dirty_ = false;
};

}  // namespace silc::store
