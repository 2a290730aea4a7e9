// Exploration-aware prefetch and persistent warm starts.
//
// The contracts pinned here:
//  * A prefetch hit is a *warm RCU read*: bit-identical to the answer a
//    cold service computes, served with zero additional writer-lock
//    acquisitions, and visible in prefetch_issued / prefetch_hits.
//  * Prefetch is off by default and never runs for approximate sessions.
//  * Warm-start snapshots survive a service restart and cut the first
//    Guidance to a warm read; stale, truncated, bit-flipped, or
//    wrong-query snapshots degrade to a cold build — never a wrong
//    answer, never a crash.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/solution_store_io.h"
#include "service/prefetch.h"
#include "service/query_service.h"
#include "service/warm_start.h"
#include "test_util.h"

namespace qagview::service {
namespace {

constexpr char kSql[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 3 ORDER BY val DESC";

std::unique_ptr<QueryService> MakeService(ServiceOptions options,
                                          uint64_t seed = 71,
                                          int rows = 2000) {
  auto service = std::make_unique<QueryService>(options);
  QAG_CHECK_OK(service->RegisterTable("ratings",
                                      testutil::MakeRatingsTable(seed, rows)));
  return service;
}

/// Fresh per-test scratch directory under the gtest temp root. Emptied on
/// every call: the temp root outlives test runs, and a stale snapshot from
/// a previous run must not warm-start a lifetime the test expects cold.
std::string ScratchDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/qagview_" + name;
  ::mkdir(dir.c_str(), 0755);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(d)) {
      const std::string file = entry->d_name;
      if (file != "." && file != "..") ::unlink((dir + "/" + file).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

int64_t WriterLocks(QueryService* service, QueryHandle handle) {
  auto stats = service->SessionCacheStats(handle);
  QAG_CHECK_OK(stats.status());
  return stats->writer_lock_acquisitions;
}

TEST(PrefetchTest, OffByDefaultIssuesNothing) {
  auto service = MakeService(ServiceOptions());
  auto info = service->Query({kSql, "val"});
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  service->DrainBackgroundWork();
  EXPECT_EQ(service->stats().prefetch_issued, 0);
  EXPECT_EQ(service->stats().prefetch_hits, 0);
  const auto counters = service->scheduler_counters();
  EXPECT_EQ(counters.lane(BackgroundScheduler::Lane::kPrefetch).submitted, 0);
}

TEST(PrefetchTest, QueryPrefetchMakesPredictedSummarizeAWarmRead) {
  ServiceOptions with;
  with.prefetch = true;
  auto warm = MakeService(with);
  auto cold = MakeService(ServiceOptions());

  auto info = warm->Query({kSql, "val"});
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto cold_info = cold->Query({kSql, "val"});
  ASSERT_TRUE(cold_info.ok());
  ASSERT_EQ(info->num_answers, cold_info->num_answers);

  warm->DrainBackgroundWork();
  EXPECT_GT(warm->stats().prefetch_issued, 0);

  // The same predictor the service consults, so the test aims at a level
  // the prefetcher actually built.
  ExplorationPredictor predictor;
  std::vector<int> targets = predictor.InitialLevels(info->num_answers);
  ASSERT_FALSE(targets.empty());

  core::Params params;
  params.L = targets[0];

  auto warm_solution = warm->Summarize({info->handle, params});
  ASSERT_TRUE(warm_solution.ok()) << warm_solution.status().ToString();
  EXPECT_TRUE(warm_solution->stats.cache_hit)
      << "predicted level must serve warm";
  EXPECT_FALSE(warm_solution->stats.built);
  EXPECT_EQ(warm->stats().prefetch_hits, 1);

  // Writer-lock delta of a warm serve is zero. The request above spawned
  // its own follow-up speculation (builds take the lock by design), so
  // measure a second identical request: the predictor is deterministic,
  // its follow-up targets are all built by now, and the only work left is
  // the foreground read itself.
  warm->DrainBackgroundWork();
  const int64_t locks_before = WriterLocks(warm.get(), info->handle);
  auto again = warm->Summarize({info->handle, params});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->stats.cache_hit);
  warm->DrainBackgroundWork();
  EXPECT_EQ(WriterLocks(warm.get(), info->handle), locks_before)
      << "a prefetch hit must not take the writer lock";

  // Bit-identical to the cold twin: speculation may only move work
  // earlier in time, never change its result.
  auto cold_solution = cold->Summarize({cold_info->handle, params});
  ASSERT_TRUE(cold_solution.ok());
  EXPECT_FALSE(cold_solution->stats.cache_hit);
  const core::Solution& warm_s = warm_solution->solution;
  const core::Solution& cold_s = cold_solution->solution;
  EXPECT_EQ(warm_s.cluster_ids, cold_s.cluster_ids);
  EXPECT_EQ(warm_s.covered_sum, cold_s.covered_sum);
  EXPECT_EQ(warm_s.covered_count, cold_s.covered_count);
  EXPECT_EQ(warm_s.average, cold_s.average);
  EXPECT_EQ(warm_s.covered_min, cold_s.covered_min);
}

TEST(PrefetchTest, GuidancePrefetchBuildsTheNextDrillDownStore) {
  ServiceOptions with;
  with.prefetch = true;
  auto warm = MakeService(with);
  auto cold = MakeService(ServiceOptions());

  auto info = warm->Query({kSql, "val"});
  ASSERT_TRUE(info.ok());
  auto cold_info = cold->Query({kSql, "val"});
  ASSERT_TRUE(cold_info.ok());
  warm->DrainBackgroundWork();

  const int l0 = 4;
  auto first = warm->Guidance({info->handle, l0});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->stats.built);
  warm->DrainBackgroundWork();

  ExplorationPredictor predictor;
  std::vector<int> targets = predictor.NextLevels(
      study::MoveKind::kGuidance, l0, info->num_answers);
  ASSERT_FALSE(targets.empty());
  const int next_l = targets[0];
  ASSERT_NE(next_l, l0);

  auto warm_grid = warm->Guidance({info->handle, next_l});
  ASSERT_TRUE(warm_grid.ok()) << warm_grid.status().ToString();
  EXPECT_TRUE(warm_grid->stats.cache_hit)
      << "the drill-down grid must already be warm";
  EXPECT_FALSE(warm_grid->stats.built);
  EXPECT_GE(warm->stats().prefetch_hits, 1);

  // Lock-freedom of the warm serve, measured once this level's follow-up
  // speculation (which builds, and so takes the lock) has drained.
  warm->DrainBackgroundWork();
  const int64_t locks_before = WriterLocks(warm.get(), info->handle);
  auto again = warm->Guidance({info->handle, next_l});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->stats.cache_hit);
  warm->DrainBackgroundWork();
  EXPECT_EQ(WriterLocks(warm.get(), info->handle), locks_before)
      << "a warm guidance serve must not take the writer lock";

  auto warm_store = warm->GuidanceStore(info->handle, next_l);
  ASSERT_TRUE(warm_store.ok());
  auto cold_store = cold->GuidanceStore(cold_info->handle, next_l);
  ASSERT_TRUE(cold_store.ok());
  EXPECT_EQ(core::SerializeSolutionStore(**warm_store),
            core::SerializeSolutionStore(**cold_store))
      << "prefetched grid must be bit-identical to a cold build";
}

TEST(PrefetchTest, ApproximateSessionsNeverSpeculate) {
  ServiceOptions with;
  with.prefetch = true;
  with.sample_capacity = 512;  // well under rows: sampling must engage
  auto service = MakeService(with, /*seed=*/71, /*rows=*/4000);
  QueryOptions approx;
  approx.mode = QueryMode::kApproxOnly;
  approx.confidence = 0.95;
  auto info = service->Query({kSql, "val", approx});
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  if (info->approx.is_exact) {
    GTEST_SKIP() << "sample did not engage; nothing to pin";
  }
  auto solution = service->Summarize({info->handle, core::Params()});
  ASSERT_TRUE(solution.ok());
  service->DrainBackgroundWork();
  EXPECT_EQ(service->stats().prefetch_issued, 0)
      << "background cycles belong to refinement while approximate";
}

TEST(PrefetchTest, CatalogMutationCancelsQueuedSpeculation) {
  ServiceOptions with;
  with.prefetch = true;
  auto service = MakeService(with);
  auto info = service->Query({kSql, "val"});
  ASSERT_TRUE(info.ok());
  // Mutate the catalog immediately: any still-queued prefetch task was
  // predicted against retired data and must be dropped, not run.
  auto appended = service->AppendRows(
      {"ratings",
       {{storage::Value::Str("g0v0"), storage::Value::Str("g1v1"),
         storage::Value::Str("g2v2"), storage::Value::Str("g3v3"),
         storage::Value::Real(4.5)}}});
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  service->DrainBackgroundWork();
  const auto counters = service->scheduler_counters();
  const auto& lane =
      counters.lane(BackgroundScheduler::Lane::kPrefetch);
  EXPECT_EQ(lane.submitted, lane.ran + lane.dropped_superseded);
  // Whatever raced, the refreshed session must serve the new data
  // correctly (the refresh machinery is pinned by its own battery; this
  // checks speculation didn't poison it).
  auto solution = service->Summarize({info->handle, core::Params()});
  EXPECT_TRUE(solution.ok()) << solution.status().ToString();
}

// ---------------------------------------------------------------------------
// Warm starts.

TEST(WarmStartTest, SnapshotSurvivesRestartAndServesWarm) {
  const std::string dir = ScratchDir("ws_roundtrip");
  ServiceOptions opts;
  opts.snapshot_dir = dir;
  const int top_l = 6;

  // First process lifetime: build a grid, let the snapshot write drain.
  {
    auto service = MakeService(opts);
    auto info = service->Query({kSql, "val"});
    ASSERT_TRUE(info.ok());
    auto grid = service->Guidance({info->handle, top_l});
    ASSERT_TRUE(grid.ok()) << grid.status().ToString();
    ASSERT_TRUE(grid->stats.built);
    service->DrainBackgroundWork();
  }

  // Second lifetime, same catalog: the load validates and the first
  // Guidance is a warm RCU read of the restored grid.
  auto reborn = MakeService(opts);
  auto cold = MakeService(ServiceOptions());
  auto info = reborn->Query({kSql, "val"});
  ASSERT_TRUE(info.ok());
  auto cold_info = cold->Query({kSql, "val"});
  ASSERT_TRUE(cold_info.ok());
  reborn->DrainBackgroundWork();
  EXPECT_EQ(reborn->stats().warm_start_loads, 1);

  const int64_t locks_before = WriterLocks(reborn.get(), info->handle);
  auto warm_grid = reborn->Guidance({info->handle, top_l});
  ASSERT_TRUE(warm_grid.ok()) << warm_grid.status().ToString();
  EXPECT_TRUE(warm_grid->stats.cache_hit);
  EXPECT_FALSE(warm_grid->stats.built);
  EXPECT_EQ(WriterLocks(reborn.get(), info->handle), locks_before)
      << "warm-started guidance must serve without the writer lock";

  auto warm_store = reborn->GuidanceStore(info->handle, top_l);
  ASSERT_TRUE(warm_store.ok());
  auto cold_store = cold->GuidanceStore(cold_info->handle, top_l);
  ASSERT_TRUE(cold_store.ok());
  EXPECT_EQ(core::SerializeSolutionStore(**warm_store),
            core::SerializeSolutionStore(**cold_store))
      << "a restored grid must be bit-identical to a cold build";
}

TEST(WarmStartTest, ChangedDataRejectsSnapshotAndRebuildsCold) {
  const std::string dir = ScratchDir("ws_changed");
  ServiceOptions opts;
  opts.snapshot_dir = dir;
  {
    auto service = MakeService(opts, /*seed=*/71);
    auto info = service->Query({kSql, "val"});
    ASSERT_TRUE(info.ok());
    // The foreground Guidance request is what snapshots the grid.
    ASSERT_TRUE(service->Guidance({info->handle, 5}).ok());
    service->DrainBackgroundWork();
  }
  // Same query text, same snapshot dir, *different data*: the snapshot's
  // fingerprints no longer match the published answer set, so the load
  // must degrade to a cold build — stale caches must never resurface.
  auto service = MakeService(opts, /*seed=*/99);
  auto cold = MakeService(ServiceOptions(), /*seed=*/99);
  auto info = service->Query({kSql, "val"});
  ASSERT_TRUE(info.ok());
  service->DrainBackgroundWork();
  EXPECT_EQ(service->stats().warm_start_loads, 0);

  auto cold_info = cold->Query({kSql, "val"});
  ASSERT_TRUE(cold_info.ok());
  auto grid = service->Guidance({info->handle, 5});
  ASSERT_TRUE(grid.ok());
  EXPECT_TRUE(grid->stats.built)
      << "rejected snapshot must fall back to cold build";
  auto store = service->GuidanceStore(info->handle, 5);
  ASSERT_TRUE(store.ok());
  auto cold_store = cold->GuidanceStore(cold_info->handle, 5);
  ASSERT_TRUE(cold_store.ok());
  EXPECT_EQ(core::SerializeSolutionStore(**store),
            core::SerializeSolutionStore(**cold_store));
}

TEST(WarmStartTest, DamagedSnapshotCorpusDegradesCleanly) {
  // Drive the real end-to-end path over a corpus of damaged files: every
  // variant must produce warm_start_loads == 0 and a correct cold serve.
  const std::string dir = ScratchDir("ws_corpus_seed");
  ServiceOptions opts;
  opts.snapshot_dir = dir;
  {
    auto service = MakeService(opts);
    auto info = service->Query({kSql, "val"});
    ASSERT_TRUE(info.ok());
    // The foreground Guidance request is what snapshots the grid.
    ASSERT_TRUE(service->Guidance({info->handle, 5}).ok());
    service->DrainBackgroundWork();
  }
  const std::string name =
      WarmStartFileName(std::string(kSql) + '\x1f' + "val");
  const std::string valid = ReadFile(dir + "/" + name);
  ASSERT_FALSE(valid.empty());

  std::vector<std::pair<std::string, std::string>> corpus;
  corpus.emplace_back("empty file", "");
  corpus.emplace_back("garbage", "this is not a snapshot\n");
  corpus.emplace_back("wrong magic",
                      "qagview-nope" + valid.substr(12));
  for (size_t cut : {size_t{1}, valid.size() / 4, valid.size() / 2,
                     valid.size() - 1}) {
    corpus.emplace_back("truncated@" + std::to_string(cut),
                        valid.substr(0, cut));
  }
  for (size_t pos = 0; pos < valid.size(); pos += valid.size() / 9 + 1) {
    std::string flipped = valid;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    corpus.emplace_back("bitflip@" + std::to_string(pos), flipped);
  }

  auto cold = MakeService(ServiceOptions());
  auto cold_info = cold->Query({kSql, "val"});
  ASSERT_TRUE(cold_info.ok());
  auto cold_store = cold->GuidanceStore(cold_info->handle, 5);
  ASSERT_TRUE(cold_store.ok());
  const std::string cold_bytes = core::SerializeSolutionStore(**cold_store);

  int case_index = 0;
  for (const auto& [label, bytes] : corpus) {
    const std::string case_dir =
        ScratchDir("ws_corpus_" + std::to_string(case_index++));
    WriteFile(case_dir + "/" + name, bytes);
    ServiceOptions case_opts;
    case_opts.snapshot_dir = case_dir;
    auto service = MakeService(case_opts);
    auto info = service->Query({kSql, "val"});
    ASSERT_TRUE(info.ok()) << label;
    service->DrainBackgroundWork();
    // A flip can land in provenance bytes the loader legitimately ignores
    // (catalog version), so "loads == 0 or served identically" is the
    // contract: never a crash, never a divergent answer.
    auto store = service->GuidanceStore(info->handle, 5);
    ASSERT_TRUE(store.ok()) << label;
    EXPECT_EQ(core::SerializeSolutionStore(**store), cold_bytes)
        << label << ": a damaged snapshot must never change an answer";
  }
}

TEST(WarmStartTest, EnvelopeRejectsForgedAndOversizedHeaders) {
  const std::string dir = ScratchDir("ws_envelope");
  WarmStartSnapshot snap;
  snap.catalog_version = 7;
  snap.grid.content_fingerprint = 0xabcdefull;
  snap.grid.domain_fingerprint = 0x123456ull;
  snap.grid.num_answers = 42;
  snap.grid.num_attrs = 4;
  snap.grid.store_l = 6;
  snap.grid.payload = "qagview-store 1 6 42 4 0\n";
  const std::string path = dir + "/forged.qsnap";
  ASSERT_TRUE(WriteWarmStartSnapshot(path, snap).ok());
  auto ok = ReadWarmStartSnapshot(path);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->grid.payload, snap.grid.payload);
  EXPECT_EQ(ok->grid.content_fingerprint, snap.grid.content_fingerprint);

  const std::string valid = ReadFile(path);
  // Header promising more payload than the file holds.
  {
    std::string lying = valid;
    size_t nl = lying.find('\n');
    ASSERT_NE(nl, std::string::npos);
    std::string header = lying.substr(0, nl);
    // payload_bytes is the 8th space-separated field (index 7).
    std::istringstream fields(header);
    std::vector<std::string> parts;
    std::string f;
    while (fields >> f) parts.push_back(f);
    ASSERT_EQ(parts.size(), 10u);
    parts[8] = "99999";  // payload_bytes: promise more than the file holds
    std::string rebuilt;
    for (size_t i = 0; i < parts.size(); ++i) {
      rebuilt += (i ? " " : "") + parts[i];
    }
    WriteFile(path, rebuilt + lying.substr(nl));
    EXPECT_FALSE(ReadWarmStartSnapshot(path).ok());
  }
  // Payload-size field beyond the hard ceiling must be rejected before
  // any allocation is attempted.
  {
    std::string huge = valid;
    size_t nl = huge.find('\n');
    std::string header = huge.substr(0, nl);
    std::istringstream fields(header);
    std::vector<std::string> parts;
    std::string f;
    while (fields >> f) parts.push_back(f);
    parts[8] = "9999999999999";
    std::string rebuilt;
    for (size_t i = 0; i < parts.size(); ++i) {
      rebuilt += (i ? " " : "") + parts[i];
    }
    WriteFile(path, rebuilt + huge.substr(nl));
    EXPECT_FALSE(ReadWarmStartSnapshot(path).ok());
  }
  // Unsupported format version.
  {
    std::string wrong = valid;
    size_t pos = wrong.find(" 1 ");
    ASSERT_NE(pos, std::string::npos);
    wrong.replace(pos, 3, " 2 ");
    WriteFile(path, wrong);
    EXPECT_FALSE(ReadWarmStartSnapshot(path).ok());
  }
  // Missing file: NotFound, not a crash.
  EXPECT_FALSE(ReadWarmStartSnapshot(dir + "/absent.qsnap").ok());
}

}  // namespace
}  // namespace qagview::service
