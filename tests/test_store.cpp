// The persistent compile store (src/store/store.hpp) and the three cache
// layers it backs — what PR 9's warm-compile story must prove:
//
//   * container round-trip: records written by one Store instance are read
//     back byte-identical by another; a missing file is a silent cold
//     start; truncation, bit flips, format skew, and schema skew each
//     clear the store with one load_error() line and a store.poisoned
//     count — never a throw, never a half-parsed store;
//   * key invalidation by construction: a schema-version bump, an edited
//     technology signature, a changed source text, and a changed
//     output-affecting option all produce keys that MISS; identical
//     inputs across two Store instances (a file round-trip) HIT;
//   * the one cache template under all three codecs (verdicts, partial
//     netlists, whole results): LRU eviction, checksum poisoning (of a
//     stored entry and of a loaded one), first writer wins, save_to →
//     file → load_from replaying every entry as a hit with an identical
//     payload, malformed payloads never served, the dirty flag; and
//     NetlistCache partial netlists (proto-transistor candidate sets
//     included) replaying a whole re-extraction as all hits;
//   * whole-result memoization: a compile served from the store is
//     same_outcome-identical to the compile that produced it, and
//     compile_many's second run over a warm cache_dir is all store hits;
//   * when a save happens: an all-hit batch, compile() or session save
//     leaves the file untouched (same inode, same bytes), while a
//     cold-start load, an eviction, a poisoned entry, or a new design
//     makes it write — and a warm batch that learns writes the bytes a
//     cold batch over the same jobs writes;
//   * chaos: injected faults and corruption at store.load / store.save
//     degrade to cold compiles with unchanged artifacts — never a wrong
//     answer, never a missing one.
//
// Fault-dependent tests skip under -DSILC_FAULT=OFF; counter assertions
// gate on obs::kEnabled.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "core/result_cache.hpp"
#include "design_sources.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "fault/fault.hpp"
#include "layout/layout.hpp"
#include "obs/obs.hpp"
#include "store/content_cache.hpp"
#include "store/store.hpp"

namespace silc {
namespace {

using core::BatchJob;
using core::BatchResult;
using core::CompileOptions;
using core::CompileResult;
using core::Flow;
using core::ResultCache;
using core::Severity;
using fault::Injector;
using fault::Kind;
using fault::Schedule;
using layout::Cell;
using layout::Library;
using tech::Layer;

struct DisarmOnExit {
  ~DisarmOnExit() { Injector::global().disarm(); }
};

/// A scratch directory removed on scope exit, one per test.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("silc_store_test_") + tag + "_" +
            std::to_string(static_cast<unsigned long>(::getpid())));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const char* name) const {
    return (path / name).string();
  }
};

CompileOptions quick(const std::string& name) {
  CompileOptions o;
  o.name = name;
  o.gate_verify_cycles = 64;
  o.gate_verify_lanes = 4;
  o.pla_verify_cycles = 32;
  o.verify_cycles = 4;
  o.deadline_ms = 30000;
  return o;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

long long counter_value(const std::vector<obs::MetricSample>& samples,
                        const std::string& name) {
  for (const obs::MetricSample& s : samples) {
    if (s.name == name) return s.value;
  }
  return 0;
}

/// A file's inode and bytes. A save renames a fresh file over the old
/// one, so a rewrite changes the inode even when the bytes come out equal.
struct FileId {
  ino_t inode = 0;
  std::string bytes;
  bool operator==(const FileId&) const = default;
};

FileId file_id(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return {st.st_ino, slurp(path)};
}

/// Whether `c` serves `k`. A result payload is decoded by
/// ResultCache::find, so results are read through it; the other codecs
/// decode inside the cache.
template <class Cache>
bool served(const Cache& c, const typename Cache::Key& k) {
  return c.find(k) != nullptr;
}
bool served(const ResultCache& c, std::uint64_t k) {
  CompileResult r;
  return c.find(k, &r);
}

// ------------------------------------------------------ container basics --

TEST(Store, RoundTripAcrossInstances) {
  const TempDir dir("roundtrip");
  const std::string path = dir.file("silc.store");

  store::Store a;
  a.put("drc", "key1", "payload1");
  a.put("drc", "key2", std::string("\x00\x01\xff", 3));  // binary-safe
  a.put("extract", "key1", "other stream, same key");
  ASSERT_TRUE(a.save(path)) << a.save_error();
  EXPECT_GT(a.file_bytes(), 0u);

  store::Store b;
  EXPECT_TRUE(b.load(path)) << b.load_error();
  EXPECT_TRUE(b.loaded());
  EXPECT_TRUE(b.load_error().empty());
  ASSERT_EQ(b.records(), 3u);
  ASSERT_NE(b.get("drc", "key1"), nullptr);
  EXPECT_EQ(*b.get("drc", "key1"), "payload1");
  ASSERT_NE(b.get("drc", "key2"), nullptr);
  EXPECT_EQ(*b.get("drc", "key2"), std::string("\x00\x01\xff", 3));
  ASSERT_NE(b.get("extract", "key1"), nullptr);
  EXPECT_EQ(*b.get("extract", "key1"), "other stream, same key");
  EXPECT_EQ(b.get("result", "key1"), nullptr);

  // Deterministic serialization: same content, same bytes.
  const std::string first = slurp(path);
  store::Store c;
  c.put("extract", "key1", "other stream, same key");
  c.put("drc", "key2", std::string("\x00\x01\xff", 3));
  c.put("drc", "key1", "payload1");
  ASSERT_TRUE(c.save(dir.file("again.store")));
  EXPECT_EQ(first, slurp(dir.file("again.store")))
      << "insertion order leaked into the serialized bytes";
}

TEST(Store, MissingFileIsASilentColdStart) {
  const TempDir dir("missing");
  store::Store s;
  EXPECT_FALSE(s.load(dir.file("nonexistent.store")));
  EXPECT_FALSE(s.loaded());
  EXPECT_TRUE(s.load_error().empty()) << s.load_error();
  EXPECT_EQ(s.records(), 0u);
}

TEST(Store, SchemaSkewColdStarts) {
  const TempDir dir("schema");
  const std::string path = dir.file("silc.store");
  store::Store old_schema(store::kSchemaVersion + 1);
  old_schema.put("drc", "k", "v");
  ASSERT_TRUE(old_schema.save(path));

  store::Store s;  // current schema
  EXPECT_FALSE(s.load(path));
  EXPECT_FALSE(s.loaded());
  EXPECT_NE(s.load_error().find("schema version"), std::string::npos)
      << s.load_error();
  EXPECT_EQ(s.records(), 0u);
}

TEST(Store, CorruptionColdStartsNeverThrows) {
  const TempDir dir("corrupt");
  const std::string path = dir.file("silc.store");
  store::Store a;
  a.put("drc", "some key material", "some payload material");
  a.put("extract", "second key", "second payload");
  ASSERT_TRUE(a.save(path));
  const std::string good = slurp(path);
  ASSERT_GT(good.size(), 24u);

  struct Case {
    const char* what;
    std::string bytes;
    const char* error_needle;
  };
  std::string flipped = good;
  flipped[good.size() - 3] = static_cast<char>(flipped[good.size() - 3] ^ 0x40);
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  std::string bad_format = good;
  bad_format[8] = static_cast<char>(bad_format[8] ^ 0x7f);
  const Case cases[] = {
      {"truncated mid-record", good.substr(0, good.size() - 7),
       "truncated record"},
      {"truncated header", good.substr(0, 10), "truncated header"},
      {"bit flip in a payload", flipped, "checksum mismatch"},
      {"bad magic", bad_magic, "bad magic"},
      {"format skew", bad_format, "format version"},
      {"trailing garbage", good + "zzz", "trailing bytes"},
      {"empty file", std::string(), "empty file"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    spit(path, c.bytes);
    store::Store s;
    const auto before = obs::Metrics::global().snapshot();
    EXPECT_NO_THROW(EXPECT_FALSE(s.load(path)));
    const auto after = obs::Metrics::global().snapshot();
    EXPECT_FALSE(s.loaded());
    EXPECT_EQ(s.records(), 0u) << "cold start must clear every record";
    EXPECT_NE(s.load_error().find(c.error_needle), std::string::npos)
        << "got: " << s.load_error();
    if (obs::kEnabled) {
      EXPECT_EQ(counter_value(obs::delta(before, after), "store.poisoned"), 1)
          << c.what;
    }
  }
}

TEST(Store, SaveIsAtomicTmpPlusRename) {
  const TempDir dir("atomic");
  const std::string path = dir.file("silc.store");
  store::Store a;
  a.put("drc", "k", "v1");
  ASSERT_TRUE(a.save(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "tmp file must not survive a successful save";

  // Saving over an existing file replaces it wholesale.
  store::Store b;
  b.put("drc", "k", "v2");
  ASSERT_TRUE(b.save(path));
  store::Store c;
  ASSERT_TRUE(c.load(path));
  ASSERT_NE(c.get("drc", "k"), nullptr);
  EXPECT_EQ(*c.get("drc", "k"), "v2");

  // A save to an unwritable path fails with save_error, old file intact.
  store::Store d;
  d.put("drc", "k", "v3");
  EXPECT_FALSE(d.save(dir.file("no_such_dir/silc.store")));
  EXPECT_FALSE(d.save_error().empty());
}

TEST(Store, WriterReaderRoundTripAndBoundsChecks) {
  store::Writer w;
  w.u8(7);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-9000000000LL);
  w.str("hello");
  w.point({-3, 4});
  w.rect({-1, -2, 3, 4});
  const std::string bytes = w.take();

  store::Reader r(bytes);
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -9000000000LL);
  EXPECT_EQ(r.str(), "hello");
  const geom::Point p = r.point();
  EXPECT_EQ(p.x, -3);
  EXPECT_EQ(p.y, 4);
  const geom::Rect rc = r.rect();
  EXPECT_EQ(rc.x0, -1);
  EXPECT_EQ(rc.y1, 4);
  EXPECT_TRUE(r.done());

  // Over-read degrades to zeros, never UB; done() reports the failure.
  store::Reader over(bytes);
  over.u64();
  while (over.ok() && over.remaining() > 0) over.u8();
  EXPECT_EQ(over.u32(), 0u);
  EXPECT_FALSE(over.ok());
  EXPECT_FALSE(over.done());

  // A string length larger than the remaining bytes is rejected.
  store::Writer lw;
  lw.u32(1000000);  // claims a megabyte that is not there
  const std::string lie = lw.take().append("abc", 3);  // Reader keeps a ref
  store::Reader lied(lie);
  EXPECT_EQ(lied.str(), "");
  EXPECT_FALSE(lied.ok());
}

// ------------------------------------------------- cache layer round-trips --

TEST(StoreCaches, NetlistCacheRoundTripReplaysAllHits) {
  const TempDir dir("extract_cache");
  const std::string path = dir.file("silc.store");

  // A cell with a real transistor (poly crossing diff), a metal label, and
  // enough going on that the partial netlist has pieces, a device with
  // candidate sets, and labels — the fields the payload must round-trip.
  Library lib("store-extract");
  Cell& inv = lib.create("inv");
  inv.add_rect(Layer::Diff, {0, -8, 4, 12});
  inv.add_rect(Layer::Poly, {-6, 0, 10, 4});
  inv.add_rect(Layer::Contact, {0, 8, 4, 12});
  inv.add_rect(Layer::Metal, {-2, 7, 6, 13});
  inv.add_label("out", Layer::Metal, {2, 10});
  Cell& top = lib.create("top");
  top.add_instance(inv, {geom::Orient::R0, {0, 0}});
  top.add_instance(inv, {geom::Orient::R0, {40, 0}});

  extract::NetlistCache a;
  const extract::Netlist cold = extract::extract_hier(top, tech::nmos(), &a);
  ASSERT_GT(a.size(), 0u);
  ASSERT_GE(cold.transistors.size(), 2u);

  store::Store out;
  a.save_to(out);
  EXPECT_EQ(out.records(), a.size());
  ASSERT_TRUE(out.save(path));

  store::Store in;
  ASSERT_TRUE(in.load(path));
  extract::NetlistCache b;
  b.load_from(in);
  EXPECT_EQ(b.size(), a.size());

  // The re-extraction must be a pure replay: every cell a hit, zero
  // misses, zero poisonings, and the canonical netlist equal to cold.
  const extract::Netlist warm = extract::extract_hier(top, tech::nmos(), &b);
  EXPECT_EQ(b.misses(), 0u) << "file round-trip lost or skewed an entry";
  EXPECT_GT(b.hits(), 0u);
  EXPECT_EQ(b.poisoned(), 0u);
  EXPECT_TRUE(warm == cold) << "cached partial netlists skewed the result:\n"
                            << to_text(warm) << "\nvs\n" << to_text(cold);
  EXPECT_EQ(to_text(warm), to_text(cold));
}

// ------------------------------------ one typed test over the three codecs --
//
// store::ContentCache owns LRU, checksum-on-hit, first-writer-wins, and
// persistence for every codec, so each behaviour is proved once per codec
// here. Samples are real payloads: verdict lists, partial netlists pulled
// out of a real hierarchical extraction (CellNet is opaque outside the
// extractor), and serialized results of a real compile.

template <class Codec>
struct Samples;

template <>
struct Samples<drc::VerdictCodec> {
  using Cache = drc::VerdictCache;
  static std::vector<std::pair<Cache::Key, Cache::Ptr>> make() {
    std::vector<std::pair<Cache::Key, Cache::Ptr>> out;
    for (int i = 0; i < 3; ++i) {
      std::vector<drc::Violation> v;
      for (int j = 0; j < i; ++j) {
        v.push_back({"metal.width", {j, j, j + 2, j + 2}, "too narrow", {j, j}});
      }
      out.emplace_back(Cache::Key{11, 22 + static_cast<std::uint64_t>(i), 3,
                                  {0, 0, 40, 40}},
                       std::make_shared<const std::vector<drc::Violation>>(v));
    }
    return out;
  }
};

template <>
struct Samples<extract::NetlistCodec> {
  using Cache = extract::NetlistCache;
  static std::vector<std::pair<Cache::Key, Cache::Ptr>> make() {
    // Three distinct leaf cells (an inverter-ish transistor cell of three
    // widths), each extracted alone so it leaves exactly one entry.
    Library lib("typed-cache");
    Cache scratch;
    std::vector<std::pair<Cache::Key, Cache::Ptr>> out;
    for (int i = 0; i < 3; ++i) {
      Cell& c = lib.create("leaf" + std::to_string(i));
      c.add_rect(Layer::Diff, {0, -8, 4 + 2 * i, 12});
      c.add_rect(Layer::Poly, {-6, 0, 10 + 2 * i, 4});
      c.add_rect(Layer::Contact, {0, 8, 4, 12});
      c.add_rect(Layer::Metal, {-2, 7, 6, 13});
      c.add_label("out", Layer::Metal, {2, 10});
      (void)extract::extract_hier(c, tech::nmos(), &scratch);
      const Cache::Key k{tech::nmos().extract_signature(),
                         layout::geometry_hash(c), layout::naming_hash(c),
                         c.flat_shape_count(), c.bbox()};
      Cache::Ptr v = scratch.find(k);
      EXPECT_NE(v, nullptr) << "extraction left no entry under the cell key";
      out.emplace_back(k, std::move(v));
    }
    return out;
  }
};

template <>
struct Samples<core::ResultCodec> {
  using Cache = ResultCache;
  using Base = store::ContentCache<core::ResultCodec>;
  static std::vector<std::pair<Base::Key, Base::Ptr>> make() {
    Library lib;
    const CompileResult r = core::compile(
        lib, Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2"));
    EXPECT_TRUE(ResultCache::eligible(r)) << r.diag_text();
    ResultCache scratch;
    const Base& base = scratch;
    std::vector<std::pair<Base::Key, Base::Ptr>> out;
    for (std::uint64_t i = 0; i < 3; ++i) {
      CompileResult variant = r;
      variant.cif += "(variant " + std::to_string(i) + ");\n";
      scratch.store(100 + i, variant);
      out.emplace_back(100 + i, base.find(100 + i));
    }
    return out;
  }
};

/// A schedule that poisons every entry stored into `stream`'s cache.
Schedule poison_schedule(const std::string& stream) {
  Schedule s;
  s.triggers.push_back(
      {stream + ".cache.store", Kind::Corrupt, 0, true, 0, ""});
  return s;
}

template <class Codec>
class ContentCacheTyped : public ::testing::Test {
 protected:
  using Cache = store::ContentCache<Codec>;
  using Entries = std::vector<std::pair<typename Cache::Key, typename Cache::Ptr>>;

  void SetUp() override {
    samples_ = Samples<Codec>::make();
    ASSERT_EQ(samples_.size(), 3u);
    for (const auto& [k, v] : samples_) ASSERT_NE(v, nullptr);
  }

  const typename Cache::Key& key(std::size_t i) const {
    return samples_[i].first;
  }
  const typename Cache::Ptr& value(std::size_t i) const {
    return samples_[i].second;
  }

  Entries samples_;
};

using Codecs = ::testing::Types<drc::VerdictCodec, extract::NetlistCodec,
                                core::ResultCodec>;
TYPED_TEST_SUITE(ContentCacheTyped, Codecs);

TYPED_TEST(ContentCacheTyped, EvictsLeastRecentlyUsedAtCapacity) {
  typename TestFixture::Cache cache;
  cache.set_capacity(2);
  cache.insert(this->key(0), this->value(0));
  cache.insert(this->key(1), this->value(1));
  ASSERT_NE(cache.find(this->key(0)), nullptr);  // 0 is now the fresher
  cache.insert(this->key(2), this->value(2));

  const obs::CacheStats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(cache.find(this->key(1)), nullptr) << "the LRU entry is the victim";
  EXPECT_NE(cache.find(this->key(0)), nullptr);
  EXPECT_NE(cache.find(this->key(2)), nullptr);

  // Shrinking evicts at once; the latest-touched entry survives.
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_NE(cache.find(this->key(2)), nullptr);

  // An evicted entry is merely a miss: re-inserting serves it again.
  cache.set_capacity(0);
  cache.insert(this->key(1), this->value(1));
  EXPECT_EQ(cache.find(this->key(1)), this->value(1));
}

TYPED_TEST(ContentCacheTyped, PoisonedEntryIsEvictedAndCounted) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  using Codec = TypeParam;
  typename TestFixture::Cache cache;

  Injector::global().arm(poison_schedule(Codec::kStream));
  cache.insert(this->key(0), this->value(0));
  Injector::global().disarm();

  const auto before = obs::Metrics::global().snapshot();
  EXPECT_EQ(cache.find(this->key(0)), nullptr) << "a poisoned hit is a miss";
  const auto after = obs::Metrics::global().snapshot();
  EXPECT_EQ(cache.poisoned(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  if (obs::kEnabled) {
    const std::string prefix = Codec::kMetrics;
    EXPECT_EQ(counter_value(obs::delta(before, after), prefix + ".poisoned"),
              1);
  }

  // The recompute stores a clean entry that verifies and hits.
  cache.insert(this->key(0), this->value(0));
  EXPECT_EQ(cache.find(this->key(0)), this->value(0));
  EXPECT_EQ(cache.poisoned(), 1u);

  // A loaded record is poisoned the same way while it waits, undecoded,
  // for its first hit — which detects and evicts it.
  store::Store s;
  cache.save_to(s);
  Injector::global().arm(poison_schedule(Codec::kStream));
  typename TestFixture::Cache loaded;
  loaded.load_from(s);
  Injector::global().disarm();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_FALSE(loaded.dirty()) << "nothing is learned until the hit";
  EXPECT_FALSE(served(loaded, this->key(0))) << "a poisoned load is a miss";
  EXPECT_EQ(loaded.poisoned(), 1u);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.stats().bytes, 0u);
  EXPECT_TRUE(loaded.dirty()) << "a poison eviction must be saved";
}

TYPED_TEST(ContentCacheTyped, FirstWriterWins) {
  typename TestFixture::Cache cache;
  EXPECT_EQ(cache.insert(this->key(0), this->value(0)), this->value(0));
  // A racing second writer under the same key gets the first entry back.
  EXPECT_EQ(cache.insert(this->key(0), this->value(1)), this->value(0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(this->key(0)), this->value(0));
}

TYPED_TEST(ContentCacheTyped, SaveLoadRoundTripReplaysAllHits) {
  using Codec = TypeParam;
  const TempDir dir("typed_roundtrip");
  const std::string path = dir.file("silc.store");

  typename TestFixture::Cache a;
  for (std::size_t i = 0; i < 3; ++i) a.insert(this->key(i), this->value(i));
  store::Store out;
  a.save_to(out);
  EXPECT_EQ(out.records(), 3u);
  ASSERT_TRUE(out.save(path)) << out.save_error();

  store::Store in;
  ASSERT_TRUE(in.load(path)) << in.load_error();
  typename TestFixture::Cache b;
  b.load_from(in);
  ASSERT_EQ(b.size(), 3u);
  // Undecoded records count their payload bytes until their first hit.
  std::uint64_t raw_bytes = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    raw_bytes += Codec::encode(*this->value(i)).size();
  }
  EXPECT_EQ(b.stats().bytes, raw_bytes);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto got = b.find(this->key(i));
    ASSERT_NE(got, nullptr) << "entry " << i << " lost in the round trip";
    EXPECT_EQ(Codec::encode(*got), Codec::encode(*this->value(i)))
        << "entry " << i << " changed in the round trip";
  }
  EXPECT_EQ(b.stats().bytes, a.stats().bytes)
      << "a decoded entry counts Codec::bytes";
  EXPECT_EQ(b.hits(), 3u);
  EXPECT_EQ(b.misses(), 0u);
  EXPECT_EQ(b.poisoned(), 0u) << "decoded entries must checksum clean";
}

TYPED_TEST(ContentCacheTyped, DirtyOnlyWhenSomethingWasLearned) {
  using Codec = TypeParam;
  typename TestFixture::Cache a;
  EXPECT_FALSE(a.dirty());
  for (std::size_t i = 0; i < 3; ++i) a.insert(this->key(i), this->value(i));
  EXPECT_TRUE(a.dirty()) << "a fresh insert";
  store::Store saved;
  a.save_to(saved);
  EXPECT_FALSE(a.dirty()) << "saved: the store holds everything";
  (void)a.insert(this->key(0), this->value(1));
  EXPECT_FALSE(a.dirty()) << "a losing second writer learns nothing";

  // Loading, hitting and re-saving learns nothing, and the re-save is
  // payload-for-payload the store it loaded: undecoded records are copied
  // as they are, decoded ones re-encode to the same bytes.
  typename TestFixture::Cache b;
  b.load_from(saved);
  EXPECT_FALSE(b.dirty());
  ASSERT_TRUE(served(b, this->key(1)));
  EXPECT_FALSE(b.dirty()) << "a hit learns nothing";
  store::Store again;
  b.save_to(again);
  ASSERT_EQ(again.records(), saved.records());
  saved.for_each(Codec::kStream,
                 [&](const std::string& key, const std::string& payload) {
                   const std::string* other = again.get(Codec::kStream, key);
                   ASSERT_NE(other, nullptr);
                   EXPECT_EQ(*other, payload);
                 });

  // An LRU eviction drops what the store still has.
  b.set_capacity(2);
  EXPECT_TRUE(b.dirty()) << "an eviction must be saved";
}

TYPED_TEST(ContentCacheTyped, MalformedPayloadsAreNeverServed) {
  using Codec = TypeParam;
  typename TestFixture::Cache a;
  a.insert(this->key(0), this->value(0));
  store::Store s;
  a.save_to(s);

  store::Writer kw;
  Codec::encode_key(kw, this->key(1));
  const std::string good_key = kw.take();
  const std::string good_payload = Codec::encode(*this->value(1));
  // A payload cut short, a payload with trailing bytes, a key too short.
  s.put(Codec::kStream, good_key,
        good_payload.substr(0, good_payload.size() / 2));
  store::Writer kw2;
  Codec::encode_key(kw2, this->key(2));
  s.put(Codec::kStream, kw2.take(), good_payload + "junk");
  s.put(Codec::kStream, good_key.substr(0, 3), good_payload);

  // The malformed key is dropped at load; the malformed payloads wait,
  // undecoded, and each first hit finds it cannot decode them: a miss,
  // counted as poisoned, and evicted.
  typename Samples<Codec>::Cache b;
  b.load_from(s);
  EXPECT_EQ(b.size(), 3u) << "a record whose key does not decode is dropped";
  EXPECT_TRUE(b.dirty()) << "a dropped record must be saved";
  const auto before = obs::Metrics::global().snapshot();
  EXPECT_FALSE(served(b, this->key(1)));
  EXPECT_FALSE(served(b, this->key(2)));
  const auto after = obs::Metrics::global().snapshot();
  EXPECT_EQ(b.poisoned(), 2u);
  EXPECT_EQ(b.misses(), 2u);
  EXPECT_EQ(b.size(), 1u) << "each malformed payload is evicted";
  if (obs::kEnabled) {
    const std::string prefix = Codec::kMetrics;
    EXPECT_EQ(counter_value(obs::delta(before, after), prefix + ".poisoned"),
              2);
  }
  EXPECT_FALSE(served(b, this->key(1))) << "an evicted payload stays a miss";
  EXPECT_EQ(b.poisoned(), 2u);
  ASSERT_TRUE(served(b, this->key(0)));
  const typename TestFixture::Cache& plain = b;
  const auto kept = plain.find(this->key(0));
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(Codec::encode(*kept), Codec::encode(*this->value(0)));
}

// ---------------------------------------------------------- invalidation --

TEST(StoreInvalidation, FingerprintMissesOnEveryInputEdit) {
  const CompileOptions base_opt = quick("gray2");
  const std::uint64_t base = ResultCache::fingerprint(
      Flow::Behavioral, silc_fixtures::kGray2Source, base_opt, 100, 200);

  // Same inputs, same fingerprint — across "instances" trivially, since
  // the fingerprint is a pure function.
  EXPECT_EQ(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, base_opt,
                                     100, 200),
            base);

  // Changed source text must miss.
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kTrafficSource, base_opt,
                                     100, 200),
            base);
  // Edited technology signatures must miss.
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, base_opt,
                                     101, 200),
            base);
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, base_opt,
                                     100, 201),
            base);
  // A different flow must miss.
  EXPECT_NE(ResultCache::fingerprint(Flow::Structural,
                                     silc_fixtures::kGray2Source, base_opt,
                                     100, 200),
            base);
  // Output-affecting options must miss.
  CompileOptions skipped = base_opt;
  skipped.skip.push_back("drc");
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, skipped,
                                     100, 200),
            base);
  CompileOptions cycles = base_opt;
  cycles.verify_cycles += 1;
  EXPECT_NE(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, cycles,
                                     100, 200),
            base);

  // Determinism-neutral options must NOT change the key: thread counts,
  // deadlines, cache wiring, cache_dir.
  CompileOptions threads = base_opt;
  threads.sim_threads = 7;
  threads.drc_threads = 3;
  threads.deadline_ms = 12345;
  threads.cache_dir = "/somewhere/else";
  EXPECT_EQ(ResultCache::fingerprint(Flow::Behavioral,
                                     silc_fixtures::kGray2Source, threads,
                                     100, 200),
            base);
}

TEST(StoreInvalidation, SchemaBumpInvalidatesTheWholeFile) {
  const TempDir dir("schema_bump");
  const std::string path = dir.file("silc.store");

  // Written under schema N, read under schema N+1 (the Store(schema) test
  // hook stands in for a real kSchemaVersion bump): cold start, and the
  // caches loaded from it are empty.
  store::Store writer;
  drc::VerdictCache a;
  a.store({1, 2, 3, {0, 0, 8, 8}}, {});
  a.save_to(writer);
  ASSERT_TRUE(writer.save(path));

  store::Store reader(store::kSchemaVersion + 1);
  EXPECT_FALSE(reader.load(path));
  EXPECT_NE(reader.load_error().find("schema version"), std::string::npos);
  drc::VerdictCache b;
  b.load_from(reader);
  EXPECT_EQ(b.size(), 0u);
}

// ------------------------------------------------ whole-result memoization --

TEST(StoreResults, StandaloneCompileWarmsFromCacheDir) {
  const TempDir dir("standalone");
  CompileOptions o = quick("gray2");
  o.cache_dir = dir.path.string();

  Library cold_lib("cold");
  const CompileResult cold =
      core::compile(cold_lib, Flow::Behavioral, silc_fixtures::kGray2Source, o);
  ASSERT_TRUE(cold.ok()) << cold.diag_text();
  EXPECT_FALSE(cold.from_cache);
  ASSERT_TRUE(std::filesystem::exists(dir.file("silc.store")))
      << "compile() with cache_dir must persist the store";

  // Reference compile with no cache anywhere near it.
  Library ref_lib("ref");
  const CompileResult ref = core::compile(
      ref_lib, Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2"));
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(cold.same_outcome(ref)) << "cache_dir changed a cold compile";

  Library warm_lib("warm");
  const CompileResult warm =
      core::compile(warm_lib, Flow::Behavioral, silc_fixtures::kGray2Source, o);
  EXPECT_TRUE(warm.from_cache) << warm.diag_text();
  EXPECT_TRUE(warm.ok()) << warm.diag_text();
  EXPECT_TRUE(warm.same_outcome(ref))
      << "a store-served result drifted from the compile that produced it";
  EXPECT_EQ(warm.cif, ref.cif);
  EXPECT_EQ(warm.transistors, ref.transistors);
  EXPECT_EQ(warm.rect_count, ref.rect_count);
}

TEST(StoreResults, CompileManySecondRunIsAllStoreHits) {
  const TempDir dir("batch");
  std::vector<BatchJob> jobs;
  jobs.push_back({Flow::Behavioral, silc_fixtures::counter_source(3),
                  quick("counter3")});
  jobs.push_back(
      {Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2")});
  jobs.push_back(
      {Flow::Behavioral, silc_fixtures::kTrafficSource, quick("traffic")});
  jobs.push_back(
      {Flow::Structural, silc_fixtures::kInvChainSource, quick("chain")});
  const BatchResult ref = core::compile_many(jobs, 2);
  ASSERT_EQ(ref.ok_count(), jobs.size());

  // First batch names the cache_dir on one job only — the batch adopts it.
  std::vector<BatchJob> cached_jobs = jobs;
  cached_jobs[0].options.cache_dir = dir.path.string();
  const BatchResult first = core::compile_many(cached_jobs, 2);
  ASSERT_EQ(first.ok_count(), jobs.size());
  EXPECT_EQ(first.store.hits, 0u);
  EXPECT_EQ(first.store.misses, jobs.size());
  EXPECT_GT(first.store.file_bytes, 0u);
  EXPECT_TRUE(first.store.saved);
  EXPECT_TRUE(first.store_diags.empty())
      << first.store_diags.front().message;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(first.results[i].same_outcome(ref.results[i]))
        << "job " << i << " drifted under cache_dir\n"
        << first.results[i].diag_text();
    EXPECT_FALSE(first.results[i].from_cache);
  }

  // Second batch, fresh process simulated by a fresh compile_many call:
  // every job must be served from the store, byte-identical.
  const BatchResult second = core::compile_many(cached_jobs, 2);
  ASSERT_EQ(second.ok_count(), jobs.size());
  EXPECT_EQ(second.store.hits, jobs.size());
  EXPECT_EQ(second.store.misses, 0u);
  EXPECT_GT(second.store.loaded_records, 0u);
  EXPECT_FALSE(second.store.saved) << "an all-hit batch learned nothing";
  EXPECT_EQ(second.store.file_bytes, first.store.file_bytes)
      << "a skipped save reports the file left in place";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(second.results[i].from_cache) << "job " << i;
    EXPECT_TRUE(second.results[i].same_outcome(ref.results[i]))
        << "warm job " << i << " drifted\n"
        << second.results[i].diag_text();
  }
}

// ------------------------------------------------------------------ chaos --

TEST(StoreChaos, FaultsAtLoadAndSaveDegradeToColdCompiles) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;

  std::vector<BatchJob> jobs;
  jobs.push_back(
      {Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2")});
  jobs.push_back(
      {Flow::Structural, silc_fixtures::kInvChainSource, quick("chain")});
  jobs.push_back({Flow::Behavioral, silc_fixtures::counter_source(3),
                  quick("counter3")});
  const BatchResult ref = core::compile_many(jobs, 2);
  ASSERT_EQ(ref.ok_count(), jobs.size());

  struct Round {
    const char* what;
    const char* site;
    Kind kind;
    bool warm_first;  // seed the store before arming
    // The warm-up leaves the last design out, so the armed batch learns
    // it and has something to save: an all-hit batch never saves.
    bool learns;
  };
  const Round rounds[] = {
      {"load fault on a warm store", "store.load", Kind::Throw, true, false},
      {"load fault on a cold store", "store.load", Kind::Throw, false, false},
      {"save fault", "store.save", Kind::Throw, true, true},
      {"corrupted save detected next load", "store.save", Kind::Corrupt, true,
       true},
  };
  std::uint64_t seed = 0x570fe2026ULL;
  for (const Round& round : rounds) {
    SCOPED_TRACE(round.what);
    const TempDir dir(round.what);
    std::vector<BatchJob> cached_jobs = jobs;
    cached_jobs[0].options.cache_dir = dir.path.string();
    if (round.warm_first) {
      std::vector<BatchJob> warm_jobs = cached_jobs;
      if (round.learns) warm_jobs.pop_back();
      const BatchResult warmup = core::compile_many(warm_jobs, 2);
      ASSERT_EQ(warmup.ok_count(), warm_jobs.size());
    }

    Schedule s;
    s.seed = ++seed;
    s.triggers.push_back({round.site, round.kind, 0, true, 0, ""});
    Injector::global().arm(s);
    const BatchResult chaos = core::compile_many(cached_jobs, 2);
    Injector::global().disarm();

    // The batch survives, every artifact matches the fault-free reference
    // (compiled cold if the store was unusable), and results are never
    // polluted by a store-layer diagnostic.
    ASSERT_EQ(chaos.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(chaos.results[i].same_outcome(ref.results[i]))
          << round.what << ": job " << i << " drifted\n"
          << chaos.results[i].diag_text();
    }
    if (round.kind == Kind::Throw) {
      // The injected fault surfaced as a store-layer warning, not silence.
      bool warned = false;
      for (const core::Diag& d : chaos.store_diags) {
        warned |= d.severity == Severity::Warning;
      }
      EXPECT_TRUE(warned) << round.what << ": degradation was silent";
    }

    if (round.kind == Kind::Corrupt) {
      // The corrupted bytes reached disk; the NEXT load must detect the
      // bad checksum, cold-start with a warning, and still compile clean.
      const BatchResult after = core::compile_many(cached_jobs, 2);
      ASSERT_EQ(after.results.size(), jobs.size());
      EXPECT_GE(after.store.poisoned, 1u)
          << "corrupted store was not detected";
      ASSERT_FALSE(after.store_diags.empty());
      EXPECT_NE(after.store_diags[0].message.find("cold start"),
                std::string::npos)
          << after.store_diags[0].message;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(after.results[i].same_outcome(ref.results[i]))
            << round.what << ": post-corruption job " << i << " drifted";
      }
    }
  }
}

TEST(StoreChaos, TruncatedStoreFileColdStartsTheBatch) {
  const TempDir dir("truncate");
  std::vector<BatchJob> jobs;
  jobs.push_back(
      {Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2")});
  jobs[0].options.cache_dir = dir.path.string();
  const BatchResult warmup = core::compile_many(jobs, 1);
  ASSERT_EQ(warmup.ok_count(), 1u);

  const std::string path = dir.file("silc.store");
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 8u);
  spit(path, bytes.substr(0, bytes.size() - 7));  // torn final record

  const BatchResult after = core::compile_many(jobs, 1);
  ASSERT_EQ(after.ok_count(), 1u);
  EXPECT_GE(after.store.poisoned, 1u);
  EXPECT_EQ(after.store.hits, 0u) << "a torn store must not serve hits";
  EXPECT_TRUE(after.store.saved) << "a torn store must be rewritten";
  ASSERT_FALSE(after.store_diags.empty());
  EXPECT_NE(after.store_diags[0].message.find("cold start"), std::string::npos);
  EXPECT_TRUE(after.results[0].same_outcome(warmup.results[0]))
      << after.results[0].diag_text();
}


// ------------------------------------------------------ when a save runs --
//
// core::CacheSet::save rewrites silc.store only when the caches hold
// something the file lacks. These pin both halves: what must not write,
// and what must.

/// Three designs that are all eligible for the result cache, every job
/// naming `cache_dir`.
std::vector<BatchJob> save_jobs(const std::string& cache_dir) {
  std::vector<BatchJob> jobs;
  jobs.push_back(
      {Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2")});
  jobs.push_back(
      {Flow::Structural, silc_fixtures::kInvChainSource, quick("chain")});
  jobs.push_back({Flow::Behavioral, silc_fixtures::counter_source(3),
                  quick("counter3")});
  for (BatchJob& j : jobs) j.options.cache_dir = cache_dir;
  return jobs;
}

TEST(StoreSave, AllHitBatchLeavesTheFileUntouched) {
  const TempDir dir("all_hit");
  const std::string path = dir.file("silc.store");
  const std::vector<BatchJob> jobs = save_jobs(dir.path.string());
  const BatchResult cold = core::compile_many(jobs, 2);
  ASSERT_EQ(cold.ok_count(), jobs.size());
  ASSERT_TRUE(cold.store.saved);
  const FileId written = file_id(path);

  const auto before = obs::Metrics::global().snapshot();
  const BatchResult warm = core::compile_many(jobs, 2);
  const auto after = obs::Metrics::global().snapshot();
  EXPECT_EQ(warm.store.hits, jobs.size());
  EXPECT_FALSE(warm.store.saved);
  EXPECT_EQ(warm.store.file_bytes, written.bytes.size());
  EXPECT_TRUE(warm.store_diags.empty()) << warm.store_diags.front().message;
  EXPECT_TRUE(file_id(path) == written) << "an all-hit batch rewrote the store";
  if (obs::kEnabled) {
    EXPECT_EQ(counter_value(obs::delta(before, after), "store.save_skipped"),
              1);
  }

  // A save fault has no save to break: no warning, the file as it was,
  // every result served from it.
  if (!fault::kEnabled) return;
  const DisarmOnExit disarm;
  for (const Kind kind : {Kind::Throw, Kind::Corrupt}) {
    SCOPED_TRACE(kind == Kind::Throw ? "throw" : "corrupt");
    Schedule s;
    s.triggers.push_back({"store.save", kind, 0, true, 0, ""});
    Injector::global().arm(s);
    const BatchResult armed = core::compile_many(jobs, 2);
    Injector::global().disarm();
    EXPECT_FALSE(armed.store.saved);
    EXPECT_TRUE(armed.store_diags.empty())
        << armed.store_diags.front().message;
    EXPECT_TRUE(file_id(path) == written);
    ASSERT_EQ(armed.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(armed.results[i].from_cache) << "job " << i;
      EXPECT_TRUE(armed.results[i].same_outcome(cold.results[i]))
          << "job " << i << "\n" << armed.results[i].diag_text();
    }
  }
}

TEST(StoreSave, ColdStartLoadsAlwaysSave) {
  // A job that can never be cached (its source does not parse), so the
  // batch learns nothing: only the unusable load makes it save.
  const TempDir dir("cold_start");
  const std::string path = dir.file("silc.store");
  std::vector<BatchJob> jobs;
  jobs.push_back({Flow::Behavioral, "this is not a design", quick("broken")});
  jobs[0].options.cache_dir = dir.path.string();

  store::Store good;
  good.put("drc", "k", "v");
  ASSERT_TRUE(good.save(path));
  const std::string good_bytes = slurp(path);
  store::Store skewed(store::kSchemaVersion + 1);
  skewed.put("drc", "k", "v");
  ASSERT_TRUE(skewed.save(path));
  const std::string skewed_bytes = slurp(path);

  struct Start {
    const char* what;
    bool exists;
    std::string bytes;
  };
  const Start starts[] = {
      {"missing file", false, ""},
      {"truncated file", true, good_bytes.substr(0, good_bytes.size() - 7)},
      {"schema-skewed file", true, skewed_bytes},
  };
  for (const Start& start : starts) {
    SCOPED_TRACE(start.what);
    std::filesystem::remove(path);
    if (start.exists) spit(path, start.bytes);
    const BatchResult br = core::compile_many(jobs, 1);
    EXPECT_EQ(br.ok_count(), 0u);
    EXPECT_TRUE(br.store.saved);
    EXPECT_GT(br.store.file_bytes, 0u);
    store::Store back;
    EXPECT_TRUE(back.load(path)) << back.load_error();
    EXPECT_EQ(back.records(), 0u);
  }
}

TEST(StoreSave, EvictionsAndPoisonedEntriesForceASave) {
  const TempDir dir("evict");
  const std::string cache_dir = dir.path.string();
  const std::string path = dir.file("silc.store");
  ASSERT_TRUE(core::compile_many(save_jobs(cache_dir), 2).store.saved);

  {
    core::CacheSet caches;
    ASSERT_TRUE(caches.load(cache_dir));
    const FileId id = file_id(path);
    ASSERT_TRUE(caches.save(cache_dir));
    EXPECT_FALSE(caches.saved) << "a clean load that learned nothing";
    EXPECT_EQ(caches.file_bytes, id.bytes.size());
    EXPECT_TRUE(file_id(path) == id);

    // An LRU eviction drops entries the file has: the file must follow.
    caches.result.set_capacity(1);
    ASSERT_TRUE(caches.save(cache_dir));
    EXPECT_TRUE(caches.saved) << "an eviction must be saved";
    store::Store back;
    ASSERT_TRUE(back.load(path));
    int results = 0;
    back.for_each("result",
                  [&](const std::string&, const std::string&) { ++results; });
    EXPECT_EQ(results, 1);
    ASSERT_TRUE(caches.save(cache_dir));
    EXPECT_FALSE(caches.saved) << "the save put file and caches in sync";
  }

  // A result payload that passes its record checksum but does not decode:
  // the load is clean, the first hit poisons it, and the save drops it.
  store::Store s;
  ASSERT_TRUE(s.load(path));
  std::string key;
  s.for_each("result",
             [&](const std::string& k, const std::string&) { key = k; });
  ASSERT_FALSE(key.empty());
  s.put("result", key, "not a compile result");
  ASSERT_TRUE(s.save(path));

  core::CacheSet caches;
  ASSERT_TRUE(caches.load(cache_dir));
  store::Reader kr(key);
  const std::uint64_t fp = core::ResultCodec::decode_key(kr);
  CompileResult r;
  EXPECT_FALSE(caches.result.find(fp, &r));
  EXPECT_EQ(caches.result.poisoned(), 1u);
  ASSERT_TRUE(caches.save(cache_dir));
  EXPECT_TRUE(caches.saved) << "a poison eviction must be saved";
  store::Store back;
  ASSERT_TRUE(back.load(path));
  EXPECT_EQ(back.get("result", key), nullptr);
}

TEST(StoreSave, CachesHoldingMoreThanTheFileForceASave) {
  // Caches loaded from two files hold more than either, so saving to the
  // second must write even though both loads were clean.
  const TempDir a("union_a");
  const TempDir b("union_b");
  const std::vector<BatchJob> jobs = save_jobs("");
  std::vector<BatchJob> first = {jobs[0]};
  std::vector<BatchJob> second = {jobs[1]};
  first[0].options.cache_dir = a.path.string();
  second[0].options.cache_dir = b.path.string();
  ASSERT_TRUE(core::compile_many(first, 1).store.saved);
  ASSERT_TRUE(core::compile_many(second, 1).store.saved);

  core::CacheSet caches;
  ASSERT_TRUE(caches.load(a.path.string()));
  ASSERT_TRUE(caches.load(b.path.string()));
  ASSERT_TRUE(caches.save(b.path.string()));
  EXPECT_TRUE(caches.saved);
  store::Store back;
  ASSERT_TRUE(back.load(b.file("silc.store")));
  int results = 0;
  back.for_each("result",
                [&](const std::string&, const std::string&) { ++results; });
  EXPECT_EQ(results, 2);
}

TEST(StoreSave, WarmBatchThatLearnsWritesTheColdBytes) {
  const TempDir warm_dir("learn_warm");
  const TempDir cold_dir("learn_cold");
  const std::vector<BatchJob> all = save_jobs(warm_dir.path.string());
  const std::vector<BatchJob> some(all.begin(), all.end() - 1);
  ASSERT_TRUE(core::compile_many(some, 2).store.saved);
  const BatchResult warm = core::compile_many(all, 2);
  EXPECT_EQ(warm.store.hits, some.size());
  EXPECT_EQ(warm.store.misses, 1u);
  EXPECT_TRUE(warm.store.saved);

  const BatchResult cold =
      core::compile_many(save_jobs(cold_dir.path.string()), 2);
  EXPECT_TRUE(cold.store.saved);
  EXPECT_EQ(warm.store.file_bytes, cold.store.file_bytes);
  EXPECT_TRUE(slurp(warm_dir.file("silc.store")) ==
              slurp(cold_dir.file("silc.store")))
      << "a warm batch that learned one design wrote other bytes than a "
         "cold batch over the same jobs";
}

TEST(StoreSave, StandaloneCompileSavesOnlyWhatItLearns) {
  const TempDir dir("standalone_save");
  const std::string path = dir.file("silc.store");
  CompileOptions o = quick("gray2");
  o.cache_dir = dir.path.string();
  Library cold_lib("cold");
  const CompileResult cold =
      core::compile(cold_lib, Flow::Behavioral, silc_fixtures::kGray2Source, o);
  ASSERT_TRUE(cold.ok()) << cold.diag_text();
  const FileId written = file_id(path);

  // A warm compile is a hit: the file stays, and an armed save fault finds
  // no save to break (a save warning would break same_outcome).
  const DisarmOnExit disarm;
  if (fault::kEnabled) {
    Schedule s;
    s.triggers.push_back({"store.save", Kind::Throw, 0, true, 0, ""});
    Injector::global().arm(s);
  }
  Library warm_lib("warm");
  const CompileResult warm =
      core::compile(warm_lib, Flow::Behavioral, silc_fixtures::kGray2Source, o);
  Injector::global().disarm();
  EXPECT_TRUE(warm.from_cache);
  EXPECT_TRUE(warm.same_outcome(cold)) << warm.diag_text();
  EXPECT_TRUE(file_id(path) == written) << "a warm compile rewrote the store";

  // A design the store lacks is learned and saved.
  CompileOptions t = quick("traffic");
  t.cache_dir = dir.path.string();
  Library lib("traffic");
  const CompileResult fresh = core::compile(
      lib, Flow::Behavioral, silc_fixtures::kTrafficSource, t);
  ASSERT_TRUE(fresh.ok()) << fresh.diag_text();
  EXPECT_FALSE(file_id(path) == written);
  store::Store back;
  ASSERT_TRUE(back.load(path));
  int results = 0;
  back.for_each("result",
                [&](const std::string&, const std::string&) { ++results; });
  EXPECT_EQ(results, 2);
}

TEST(StoreSave, WarmBatchesAgreeAcrossThreadCounts) {
  // Each thread count gets its own copy of one warm store. Every copy must
  // serve the same results, and after learning the same design must write
  // the same bytes.
  const TempDir seed_dir("threads_seed");
  std::vector<BatchJob> some = save_jobs(seed_dir.path.string());
  some.pop_back();
  ASSERT_TRUE(core::compile_many(some, 1).store.saved);
  const std::string seed_bytes = slurp(seed_dir.file("silc.store"));

  std::vector<BatchResult> served_runs;
  std::vector<BatchResult> learned_runs;
  std::vector<std::string> files;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string tag = "threads_" + std::to_string(threads);
    const TempDir dir(tag.c_str());
    spit(dir.file("silc.store"), seed_bytes);
    const std::vector<BatchJob> all = save_jobs(dir.path.string());
    const std::vector<BatchJob> warm(all.begin(), all.end() - 1);
    served_runs.push_back(core::compile_many(warm, threads));
    EXPECT_EQ(served_runs.back().store.hits, warm.size());
    EXPECT_FALSE(served_runs.back().store.saved);
    learned_runs.push_back(core::compile_many(all, threads));
    EXPECT_TRUE(learned_runs.back().store.saved);
    files.push_back(slurp(dir.file("silc.store")));
  }
  for (std::size_t i = 0; i < some.size(); ++i) {
    EXPECT_TRUE(served_runs[1].results[i].from_cache) << "job " << i;
    EXPECT_TRUE(
        served_runs[1].results[i].same_outcome(served_runs[0].results[i]))
        << "warm job " << i << " differs at 4 threads";
  }
  for (std::size_t i = 0; i < learned_runs[0].results.size(); ++i) {
    EXPECT_TRUE(
        learned_runs[1].results[i].same_outcome(learned_runs[0].results[i]))
        << "learning job " << i << " differs at 4 threads";
  }
  EXPECT_TRUE(files[0] == files[1])
      << "the store a warm batch wrote depends on the thread count";
}

}  // namespace
}  // namespace silc
