// The incremental-recompilation contract: edit-then-incremental ==
// recompile-from-scratch, byte-identical — at every grain. The main
// harness drives randomized edit sequences (move/resize/delete shapes,
// relabel nets, add/remove instances, retech) through an
// IncrementalSession and diffs every verdict against cold flat / hier /
// tiled recomputes under both rule tables and both 1 and 4 threads.
// Around it: the edge cases an interactive loop lives on (an edit that
// CURES a violation, an edit inside a seam window, a naming-only edit
// that must invalidate extraction but not DRC, the empty-EditSet no-op
// that reuses everything), the chaos leg sweeping the incr.* fault sites
// against the flat-recompute fallback, and the persistent-store baseline
// warm-up across sessions.
//
// Every randomized test follows the fixtures/fuzz_env.hpp convention:
// SILC_FUZZ_TRIALS scales the sweep, SILC_FUZZ_SEED reruns one seed, and
// failures print a one-line repro command.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/incremental_session.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "fault/fault.hpp"
#include "fuzz_env.hpp"
#include "layout/layout.hpp"
#include "random_edits.hpp"
#include "random_layout.hpp"
#include "tech/tech.hpp"

namespace silc {
namespace {

using core::IncrementalSession;
using core::IncrVerdict;
using layout::Cell;
using layout::Library;
using silc_fixtures::EditKind;
using silc_fixtures::EditLog;
using silc_fixtures::random_edit;
using silc_fixtures::retech_variant;
using tech::Layer;

struct DisarmOnExit {
  ~DisarmOnExit() { fault::Injector::global().disarm(); }
};

/// A scratch directory removed on scope exit.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("silc_incr_test_") + tag + "_" +
            std::to_string(static_cast<unsigned long>(::getpid())));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Small, dense, NON-transposing hierarchies: every DRC/extract mode is
/// byte-identical on these (no R90-family re-slabbing residual), which is
/// what lets the harness demand equality rather than equivalence.
const Cell& small_hierarchy(Library& lib, unsigned seed) {
  silc_fixtures::RandomHierarchyOptions o;
  o.leaves = 2;
  o.instances = 3;
  o.motifs = 3;
  o.extent = 40;
  o.spread = 80;
  o.transposing = false;
  o.parent_wires = 3;
  return silc_fixtures::random_hierarchy(lib, seed, o);
}

/// The file's inode: a save renames a fresh file over the old one.
std::uint64_t file_inode(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_ino)
                                        : 0;
}

std::string drc_diff(const drc::Result& incr, const drc::Result& scratch) {
  return "incremental: " + incr.summary() + "\nscratch:     " +
         scratch.summary();
}

std::string netlist_diff(const extract::Netlist& incr,
                         const extract::Netlist& scratch) {
  return "incremental:\n" + to_text(incr) + "scratch:\n" + to_text(scratch);
}

// ------------------------------------------- randomized differential run --

TEST(Incremental, RandomizedEditSequencesMatchScratch) {
  silc_fixtures::fuzz_seeds(
      "test_incremental", "Incremental.RandomizedEditSequencesMatchScratch",
      0, 500, [](unsigned seed) {
        std::mt19937 rng(seed * 2654435761u + 12345u);
        Library lib;
        small_hierarchy(lib, seed);
        Cell& top = *lib.find("top");

        IncrementalSession sess;
        bool tight = false;
        const auto cur = [&]() -> const tech::Tech& {
          return tight ? retech_variant() : tech::nmos();
        };

        const IncrVerdict v0 = sess.verify(lib, top);
        EXPECT_TRUE(v0.cold);

        IncrVerdict last = v0;
        for (int e = 0; e < 2; ++e) {
          const EditLog log = random_edit(lib, top, rng);
          if (log.kind == EditKind::Retech) {
            tight = !tight;
            sess.set_tech(cur());
          }
          SCOPED_TRACE("edit " + std::to_string(e) + ": " + log.detail);
          last = sess.verify(lib, top);
          EXPECT_FALSE(last.cold);

          // The exhaustive flat baseline, recomputed from nothing.
          const drc::Result flat =
              drc::check_flat(layout::flatten(top), cur());
          EXPECT_EQ(last.drc.violations, flat.violations)
              << drc_diff(last.drc, flat);
          const extract::Netlist xflat = extract::extract(top, cur());
          EXPECT_EQ(last.netlist, xflat) << netlist_diff(last.netlist, xflat);
        }

        // The other modes on the final state: a cold hierarchical run and
        // a tiled run alternating 1 and 4 threads across the sweep.
        const drc::Result hier = drc::check_hier(top, cur());
        EXPECT_EQ(last.drc.violations, hier.violations)
            << drc_diff(last.drc, hier);
        const drc::Result tiled = drc::check_tiled(
            layout::flatten(top), cur(), (seed % 2) != 0 ? 4 : 1);
        EXPECT_EQ(last.drc.violations, tiled.violations)
            << drc_diff(last.drc, tiled);
        const extract::Netlist xhier = extract::extract_hier(top, cur());
        EXPECT_EQ(last.netlist, xhier) << netlist_diff(last.netlist, xhier);
      });
}

// --------------------------------------------------------- edge cases --

TEST(Incremental, EditThatCuresAViolationClearsTheVerdict) {
  // nmos metal space is 3 lambda = 6 coords: a 4-coord gap violates.
  Library lib;
  Cell& top = lib.create("top");
  top.add_rect(Layer::Metal, {0, 0, 20, 6});
  top.add_rect(Layer::Metal, {0, 10, 20, 16});

  IncrementalSession sess;
  const IncrVerdict sick = sess.verify(lib, top);
  ASSERT_FALSE(sick.drc.ok()) << "fixture must start out violating";

  // Move the second rect out of range: the verdict must go clean — a
  // stale cached violation surviving the edit would be the classic
  // incremental bug.
  top.set_shape(1, {Layer::Metal, {0, 14, 20, 20}});
  const IncrVerdict cured = sess.verify(lib, top);
  EXPECT_FALSE(cured.cold);
  EXPECT_FALSE(cured.edits.empty());
  EXPECT_FALSE(cured.drc_stats.verdict_reused);
  EXPECT_TRUE(cured.drc.ok()) << cured.drc.summary();
  const drc::Result scratch = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(cured.drc.violations, scratch.violations);
}

TEST(Incremental, SeamEditReprovesInteractionWindows) {
  // Two clean instances far apart; the edit drops a parent wire into the
  // gap, violating against BOTH instances — offences that exist only in
  // the interaction windows, never inside any single cell.
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Metal, {0, 0, 8, 6});
  Cell& top = lib.create("top");
  top.add_instance(leaf, {geom::Orient::R0, {0, 0}});
  top.add_instance(leaf, {geom::Orient::R0, {30, 0}});

  IncrementalSession sess;
  const IncrVerdict clean = sess.verify(lib, top);
  ASSERT_TRUE(clean.drc.ok()) << clean.drc.summary();

  top.add_rect(Layer::Metal, {12, 0, 25, 6});  // 4 to the left, 5 to the right
  const IncrVerdict seam = sess.verify(lib, top);
  EXPECT_FALSE(seam.drc.ok());
  const drc::Result scratch = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(seam.drc.violations, scratch.violations)
      << drc_diff(seam.drc, scratch);
  EXPECT_EQ(seam.drc.count("metal.space"), 2u) << seam.drc.summary();

  // And the cure: deleting the wire re-proves the windows back to clean.
  top.remove_shape(top.shapes().size() - 1);
  const IncrVerdict cured = sess.verify(lib, top);
  EXPECT_TRUE(cured.drc.ok()) << cured.drc.summary();
  EXPECT_EQ(cured.drc.violations, clean.drc.violations);
}

TEST(Incremental, NamingOnlyEditInvalidatesExtractNotDrc) {
  Library lib;
  Cell& top = lib.create("top");
  top.add_rect(Layer::Metal, {0, 0, 30, 6});
  top.add_label("alpha", Layer::Metal, {10, 3});

  IncrementalSession sess;
  const IncrVerdict before = sess.verify(lib, top);
  ASSERT_EQ(before.netlist.node_names.size(), 1u);
  EXPECT_EQ(before.netlist.node_names[0], "alpha");

  top.set_label_text(0, "beta");
  const IncrVerdict after = sess.verify(lib, top);

  // The EditSet must classify this as naming-only; DRC (geometry-only
  // footprint) hands its baseline back verbatim, extraction re-runs and
  // sees the new name.
  EXPECT_TRUE(after.edits.naming_only()) << after.edits.summary();
  EXPECT_TRUE(after.drc_stats.verdict_reused);
  EXPECT_EQ(after.drc.violations, before.drc.violations);
  EXPECT_FALSE(after.extract_stats.netlist_reused);
  ASSERT_EQ(after.netlist.node_names.size(), 1u);
  EXPECT_EQ(after.netlist.node_names[0], "beta");
  const extract::Netlist scratch = extract::extract(top);
  EXPECT_EQ(after.netlist, scratch) << netlist_diff(after.netlist, scratch);
}

TEST(Incremental, EmptyEditSetReusesEverything) {
  Library lib;
  small_hierarchy(lib, 11);
  Cell& top = *lib.find("top");

  IncrementalSession sess;
  const IncrVerdict first = sess.verify(lib, top);
  const IncrVerdict again = sess.verify(lib, top);

  EXPECT_TRUE(again.edits.empty()) << again.edits.summary();
  EXPECT_TRUE(again.drc_stats.verdict_reused);
  EXPECT_TRUE(again.extract_stats.netlist_reused);
  EXPECT_EQ(again.drc_stats.cells_reused, again.drc_stats.cells_total);
  EXPECT_EQ(again.extract_stats.cells_reused,
            again.extract_stats.cells_total);
  EXPECT_EQ(again.drc_stats.cells_reproved, 0u);
  EXPECT_EQ(again.extract_stats.cells_reproved, 0u);
  EXPECT_EQ(again.drc.violations, first.drc.violations);
  EXPECT_EQ(again.netlist, first.netlist);
}

TEST(Incremental, ChaosAtIncrSitesFallsBackFlatByteIdentical) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;

  for (const char* site : {"incr.drc", "incr.extract"}) {
    SCOPED_TRACE(site);
    Library lib;
    small_hierarchy(lib, 23);
    Cell& top = *lib.find("top");

    IncrementalSession sess;
    (void)sess.verify(lib, top);
    top.add_rect(Layer::Metal, {0, 0, 6, 6});  // force a geometry re-prove

    fault::Schedule s;
    s.triggers.push_back({site, fault::Kind::Throw, 0, true, 0, ""});
    fault::Injector::global().arm(s);
    const IncrVerdict v = sess.verify(lib, top);
    const std::uint64_t fired = fault::Injector::global().fired();
    fault::Injector::global().disarm();

    EXPECT_GE(fired, 1u) << "the armed site was never reached";
    if (std::string(site) == "incr.drc") {
      EXPECT_TRUE(v.drc_stats.fell_back_flat);
    } else {
      EXPECT_TRUE(v.extract_stats.fell_back_flat);
    }
    // Degraded, not wrong: the fallback's verdicts are byte-identical to
    // a scratch recompute.
    const drc::Result flat = drc::check_flat(layout::flatten(top));
    EXPECT_EQ(v.drc.violations, flat.violations) << drc_diff(v.drc, flat);
    const extract::Netlist xflat = extract::extract(top);
    EXPECT_EQ(v.netlist, xflat) << netlist_diff(v.netlist, xflat);
  }
}

TEST(Incremental, StoreBaselineWarmsAcrossSessions) {
  const TempDir dir("warm");
  const std::string cache_dir = dir.path.string();

  IncrVerdict first;
  {
    Library lib;
    small_hierarchy(lib, 7);
    IncrementalSession sess;
    first = sess.verify(lib, *lib.find("top"));
    ASSERT_TRUE(sess.save_store(cache_dir));
  }

  // A brand-new process-equivalent: fresh session, fresh library (same
  // content rebuilt from the seed), caches warmed from disk. Even the
  // COLD verify reuses every cell.
  Library lib;
  small_hierarchy(lib, 7);
  IncrementalSession sess;
  ASSERT_TRUE(sess.load_store(cache_dir));
  const IncrVerdict v = sess.verify(lib, *lib.find("top"));
  EXPECT_TRUE(v.cold);
  EXPECT_GT(v.cells_reused(), 0u);
  EXPECT_EQ(v.drc_stats.cells_reproved, 0u);
  EXPECT_EQ(v.extract_stats.cells_reproved, 0u);
  EXPECT_EQ(v.drc.violations, first.drc.violations);
  EXPECT_EQ(v.netlist, first.netlist);

  // Absent store: a clean cold start, not an error.
  IncrementalSession other;
  EXPECT_FALSE(other.load_store(cache_dir + "/nonexistent"));
}

TEST(Incremental, SaveStoreWritesOnlyWhatTheSessionLearned) {
  const TempDir dir("save_rule");
  const std::string cache_dir = dir.path.string();
  const std::string path = cache_dir + "/silc.store";
  {
    Library lib;
    small_hierarchy(lib, 7);
    IncrementalSession sess;
    (void)sess.verify(lib, *lib.find("top"));
    ASSERT_TRUE(sess.save_store(cache_dir));
  }
  const std::uint64_t written = file_inode(path);
  ASSERT_NE(written, 0u);

  // A session that loads the store and verifies what it holds learns
  // nothing: the save leaves the file in place.
  Library lib;
  small_hierarchy(lib, 7);
  IncrementalSession sess;
  ASSERT_TRUE(sess.load_store(cache_dir));
  const IncrVerdict v = sess.verify(lib, *lib.find("top"));
  EXPECT_EQ(v.drc_stats.cells_reproved, 0u);
  EXPECT_EQ(v.extract_stats.cells_reproved, 0u);
  ASSERT_TRUE(sess.save_store(cache_dir));
  EXPECT_EQ(file_inode(path), written)
      << "an all-hit session rewrote the store";

  // A hierarchy the store lacks is learned, and the save writes it.
  Library other;
  small_hierarchy(other, 8);
  (void)sess.verify(other, *other.find("top"));
  ASSERT_TRUE(sess.save_store(cache_dir));
  EXPECT_NE(file_inode(path), written)
      << "a session that learned did not save";
}

}  // namespace
}  // namespace silc
