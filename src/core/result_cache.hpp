// Whole-result memoization: the top tier of the persistent cache story.
// A CompileResult is a pure function of (flow, source, output-affecting
// options, technology signatures), so an unchanged design never has to
// re-enter the pipeline — compile() consults this cache before building a
// DesignDB and stores the harvest after.
//
// Both the in-memory hit and the disk-warm hit materialize from the SAME
// serialized payload, so a result served from cache is byte-identical
// (same_outcome) to the compile that produced it, whichever tier served
// it — chip pointer, timings, and metrics excluded, exactly the fields
// same_outcome already ignores. CompileResult::from_cache marks the
// materialized copies.
//
// Eligibility (see store/store.hpp, "what may/may not be cached"): only
// ok() results with a chip and notes-only diagnostics are stored. A
// warning diag means a degradation path fired (hier→flat fallback under
// an injected fault, a store corruption notice) — that result is shaped
// by one run's environment and must never be replayed into another.
//
// Obs counters: store.hits / store.misses — a warm compile's visible
// win, and what the ci.sh persistence leg greps for. The cache mechanics
// (LRU bound, checksum on hit, persistence) are store::ContentCache's.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "store/content_cache.hpp"

namespace silc::core {

/// Store codec of the whole-result cache (store/content_cache.hpp): stream
/// "result", obs counters store.* (store.hits / store.misses are what a
/// warm compile shows), fault site result.cache.store. The cached value
/// is the serialized CompileResult itself — decoded on every hit by
/// ResultCache::find, so the memory and disk tiers cannot drift. Use it
/// only through ResultCache: that find is what rejects a malformed
/// payload.
struct ResultCodec {
  using Key = std::uint64_t;  // ResultCache::fingerprint
  using Value = std::string;

  static constexpr const char* kStream = "result";
  static constexpr const char* kMetrics = "store";

  static void encode_key(store::Writer& w, Key k) { w.u64(k); }
  static Key decode_key(store::Reader& r) { return r.u64(); }
  static std::string encode(const Value& v) { return v; }
  /// The payload as it is: it is decoded once, on each hit, by
  /// ResultCache::find, which poisons (evicts and counts) one that fails.
  static std::shared_ptr<const Value> decode(const std::string& payload) {
    return std::make_shared<const Value>(payload);
  }
  static std::uint64_t checksum(const Value& v) { return store::fnv1a(v); }
  static std::uint64_t bytes(const Value& v) { return v.size(); }
};

class ResultCache : public store::ContentCache<ResultCodec> {
 public:
  /// Content fingerprint of a compile: flow, source text, every
  /// output-affecting option (name, stage policy, verify depths, check
  /// modes), the technology's drc/extract signatures, and the store
  /// schema version. Thread counts, caches, deadlines, and cache_dir are
  /// excluded — they must not change the answer (the determinism
  /// contract), so they must not change the key.
  [[nodiscard]] static std::uint64_t fingerprint(Flow flow,
                                                 const std::string& source,
                                                 const CompileOptions& options,
                                                 std::uint64_t drc_sig,
                                                 std::uint64_t extract_sig);
  /// Convenience: signatures of tech::nmos(), the pipeline's technology.
  [[nodiscard]] static std::uint64_t fingerprint(Flow flow,
                                                 const std::string& source,
                                                 const CompileOptions& options);

  /// True when `r` may be memoized: ok(), chip present, notes-only diags.
  [[nodiscard]] static bool eligible(const CompileResult& r);

  /// Materialize the stored result for `fp` into *out (from_cache = true,
  /// chip = nullptr, empty timings/metrics). False on a miss, including a
  /// payload that does not decode, which is evicted as poisoned.
  [[nodiscard]] bool find(std::uint64_t fp, CompileResult* out) const;

  /// Memoize an eligible result; no-op (not an error) otherwise.
  void store(std::uint64_t fp, const CompileResult& r);
};

/// The three caches one store file holds — per-cell DRC verdicts, per-cell
/// partial netlists, whole compile results — with the store cycle written
/// once: load() warms all three from a store file before work starts,
/// save() writes all three back after it ends, unless nothing was learned.
/// compile(), compile_many(), and IncrementalSession all persist through
/// it. load/save are not thread-safe (store/store.hpp, rule 6); the caches
/// are.
struct CacheSet {
  drc::VerdictCache drc;
  extract::NetlistCache extract;
  ResultCache result;

  /// Warm every cache from <cache_dir>/silc.store. True on a clean load.
  /// A missing file is a silent cold start; a corrupt or skewed one
  /// cold-starts with the reason in load_error.
  bool load(const std::string& cache_dir);
  /// Write every cache to <cache_dir>/silc.store (tmp + atomic rename).
  /// Skipped (saved = false, store.save_skipped counted, true returned)
  /// when that file was cleanly loaded or saved by this set and no cache
  /// is dirty since: the file already holds exactly what the caches do.
  /// False with save_error set when the file can't be written.
  bool save(const std::string& cache_dir);

  /// What the last load() / save() saw. file_bytes is the size of the
  /// file the last clean load read or the last save wrote or left in
  /// place.
  std::string load_error;
  std::string save_error;
  std::size_t loaded_records = 0;
  std::uint64_t file_bytes = 0;
  bool saved = false;  // the last save() wrote the file

 private:
  std::string synced_file_;  // holds exactly the caches' content ("" = none)
};

}  // namespace silc::core
