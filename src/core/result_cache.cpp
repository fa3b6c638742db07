#include "core/result_cache.hpp"

#include "base/fnv.hpp"
#include "obs/obs.hpp"

namespace silc::core {

namespace {

std::string encode_result(const CompileResult& r) {
  store::Writer w;
  w.str(r.cif);
  drc::VerdictCodec::write(w, r.drc.violations);
  w.u8(r.verified ? 1 : 0);
  w.str(r.verify_detail);
  w.i32(r.stats.state_bits);
  w.i32(r.stats.external_inputs);
  w.i32(r.stats.external_outputs);
  w.i32(r.stats.pads);
  w.i32(r.stats.channel_tracks);
  w.i64(r.stats.channel_wire_length);
  w.i64(r.stats.width);
  w.i64(r.stats.height);
  w.i32(r.stats.pla.num_inputs);
  w.i32(r.stats.pla.num_outputs);
  w.i32(r.stats.pla.num_terms);
  w.u64(r.stats.pla.crosspoints);
  w.i64(r.stats.pla.width);
  w.i64(r.stats.pla.height);
  w.u64(r.transistors);
  w.u64(r.rect_count);
  w.u64(r.diags.size());
  for (const Diag& d : r.diags) {
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.str(d.stage);
    w.str(d.message);
  }
  return w.take();
}

bool decode_result(const std::string& payload, CompileResult* out) {
  store::Reader r(payload);
  CompileResult c;
  c.from_cache = true;
  c.cif = r.str();
  if (!drc::VerdictCodec::read(r, c.drc.violations)) return false;
  c.verified = r.u8() != 0;
  c.verify_detail = r.str();
  c.stats.state_bits = r.i32();
  c.stats.external_inputs = r.i32();
  c.stats.external_outputs = r.i32();
  c.stats.pads = r.i32();
  c.stats.channel_tracks = r.i32();
  c.stats.channel_wire_length = r.i64();
  c.stats.width = r.i64();
  c.stats.height = r.i64();
  c.stats.pla.num_inputs = r.i32();
  c.stats.pla.num_outputs = r.i32();
  c.stats.pla.num_terms = r.i32();
  c.stats.pla.crosspoints = r.u64();
  c.stats.pla.width = r.i64();
  c.stats.pla.height = r.i64();
  c.transistors = r.u64();
  c.rect_count = r.u64();
  const std::uint64_t diags = r.u64();
  if (!r.ok() || diags > r.remaining()) return false;
  c.diags.reserve(diags);
  for (std::uint64_t i = 0; i < diags; ++i) {
    Diag d;
    d.severity = static_cast<Severity>(r.u8());
    d.stage = r.str();
    d.message = r.str();
    c.diags.push_back(std::move(d));
  }
  if (!r.done()) return false;
  *out = std::move(c);
  return true;
}

}  // namespace

std::uint64_t ResultCache::fingerprint(Flow flow, const std::string& source,
                                       const CompileOptions& options,
                                       std::uint64_t drc_sig,
                                       std::uint64_t extract_sig) {
  Fnv1a f;
  f.mix(store::kSchemaVersion);
  f.mix(static_cast<std::uint64_t>(flow));
  f.mix_str(source);
  f.mix(drc_sig);
  f.mix(extract_sig);
  f.mix_str(options.name);
  f.mix_str(options.stop_after);
  f.mix(options.skip.size());
  for (const std::string& s : options.skip) f.mix_str(s);
  f.mix(static_cast<std::uint64_t>(options.verify_cycles));
  f.mix(static_cast<std::uint64_t>(options.gate_verify_cycles));
  f.mix(static_cast<std::uint64_t>(options.gate_verify_lanes));
  f.mix(static_cast<std::uint64_t>(options.pla_verify_cycles));
  f.mix(static_cast<std::uint64_t>(options.pla_check_mode));
  f.mix(static_cast<std::uint64_t>(options.drc_mode));
  f.mix(static_cast<std::uint64_t>(options.extract_mode));
  return f.value();
}

std::uint64_t ResultCache::fingerprint(Flow flow, const std::string& source,
                                       const CompileOptions& options) {
  const tech::Tech& t = tech::nmos();
  return fingerprint(flow, source, options, t.drc_signature(),
                     t.extract_signature());
}

bool ResultCache::eligible(const CompileResult& r) {
  if (r.chip == nullptr || !r.ok()) return false;
  for (const Diag& d : r.diags) {
    if (d.severity != Severity::Note) return false;
  }
  return true;
}

bool ResultCache::find(std::uint64_t fp, CompileResult* out) const {
  return read(fp, [out](const Ptr& payload) {
    return decode_result(*payload, out);
  });
}

void ResultCache::store(std::uint64_t fp, const CompileResult& r) {
  if (eligible(r)) (void)ContentCache::store(fp, encode_result(r));
}

namespace {

std::string store_file(const std::string& cache_dir) {
  return cache_dir + "/silc.store";
}

}  // namespace

bool CacheSet::load(const std::string& cache_dir) {
  // Loading into caches that already hold entries leaves them holding
  // more than the file, so only a load into empty ones is in sync.
  const bool empty =
      drc.size() == 0 && extract.size() == 0 && result.size() == 0;
  store::Store persist;
  const bool clean = persist.load(store_file(cache_dir));
  load_error = persist.load_error();
  loaded_records = persist.records();
  file_bytes = persist.file_bytes();
  drc.load_from(persist);
  extract.load_from(persist);
  result.load_from(persist);
  synced_file_ = clean && empty ? store_file(cache_dir) : std::string();
  return clean;
}

bool CacheSet::save(const std::string& cache_dir) {
  const std::string path = store_file(cache_dir);
  save_error.clear();
  if (path == synced_file_ && !drc.dirty() && !extract.dirty() &&
      !result.dirty()) {
    saved = false;
    SILC_OBS_COUNT("store.save_skipped", 1);
    return true;
  }
  store::Store out;
  drc.save_to(out);
  extract.save_to(out);
  result.save_to(out);
  saved = out.save(path);
  save_error = out.save_error();
  file_bytes = out.file_bytes();
  synced_file_ = saved ? path : std::string();
  return saved;
}

}  // namespace silc::core
