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
//   * Persistence (store/store.hpp conventions). save_to writes one record
//     per entry into the codec's stream; load_from re-inserts each record
//     through insert(), so checksums and byte accounting are recomputed
//     rather than trusted. A record whose key or payload fails to decode
//     is skipped, never fatal.
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
//                            (nullptr = malformed payload)
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
    const std::lock_guard<std::mutex> lk(m_);
    const auto it = map_.find(k);
    if (it == map_.end()) {
      ++misses_;
      SILC_OBS_COUNT(names().misses, 1);
      SILC_OBS_INSTANT(names().miss, "cache");
      return nullptr;
    }
    if (Codec::checksum(*it->second.value) != it->second.checksum) {
      ++poisoned_;
      ++misses_;
      bytes_ -= it->second.bytes;
      SILC_OBS_COUNT(names().poisoned, 1);
      SILC_OBS_COUNT(names().bytes, -static_cast<long long>(it->second.bytes));
      SILC_OBS_COUNT(names().misses, 1);
      SILC_OBS_INSTANT(names().poisoned, "cache");
      map_.erase(it);
      return nullptr;
    }
    ++hits_;
    it->second.last_use = ++clock_;
    SILC_OBS_COUNT(names().hits, 1);
    SILC_OBS_INSTANT(names().hit, "cache");
    return it->second.value;
  }

  /// Insert `value` under `k` and return the entry kept (the first writer
  /// wins when two workers race on the same miss).
  Ptr store(const Key& k, Value value) {
    return insert(k, std::make_shared<const Value>(std::move(value)));
  }

  /// store() for a value already held by a shared_ptr (a decoded record,
  /// another cache's entry) — usable where Value is incomplete.
  Ptr insert(const Key& k, Ptr value) {
    const std::uint64_t bytes = Codec::bytes(*value);
    std::uint64_t checksum = Codec::checksum(*value);
    if (SILC_FAULT_CORRUPT_AT(names().site)) {
      // Injected poisoning flips the stored checksum (never the value —
      // concurrent readers may hold it); find() must detect and evict.
      checksum ^= 0x5a5a5a5a5a5a5a5aULL;
    }
    const std::lock_guard<std::mutex> lk(m_);
    const auto [it, fresh] =
        map_.emplace(k, Entry{std::move(value), bytes, checksum, ++clock_});
    if (fresh) {
      bytes_ += bytes;
      SILC_OBS_COUNT(names().bytes, bytes);
      evict_overflow_locked();
    }
    return it->second.value;
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
  /// Entries whose checksum failed on hit (each evicted and recomputed).
  [[nodiscard]] std::uint64_t poisoned() const {
    const std::lock_guard<std::mutex> lk(m_);
    return poisoned_;
  }

  void save_to(Store& s) const {
    const std::lock_guard<std::mutex> lk(m_);
    for (const auto& [k, e] : map_) {
      Writer kw;
      Codec::encode_key(kw, k);
      s.put(Codec::kStream, kw.take(), Codec::encode(*e.value));
    }
  }

  void load_from(const Store& s) {
    s.for_each(Codec::kStream,
               [this](const std::string& key, const std::string& payload) {
                 Reader kr(key);
                 const Key k = Codec::decode_key(kr);
                 if (!kr.done()) return;
                 if (Ptr v = Codec::decode(payload)) insert(k, std::move(v));
               });
  }

 private:
  struct Entry {
    Ptr value;
    std::uint64_t bytes = 0;
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
};

}  // namespace silc::store
