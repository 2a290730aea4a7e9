// Approximate-first serving, enforced differentially:
//
//  (a) the exact generation published by refinement is bit-identical to a
//      cold exact-only rebuild from the same table state (the PR-4 oracle
//      discipline, applied to the exactness upgrade), including after
//      appends land between refinements;
//  (b) approximate answers are honest: across 120 seeded skewed tables,
//      the true (exact) group value falls inside the reported confidence
//      interval at least confidence - 0.03 of the time, per aggregate
//      shape (count / sum / avg);
//  (c) readers racing background refinement only ever observe a complete
//      published view — the approximate set or the exact set, never a
//      blend — and every Summarize / Explore / Guidance / Retrieve
//      response is labelled with the phase that served it (its answer
//      equals the replay of exactly that phase); the warm path stays
//      writer-lock-free once refinement quiesces, with the retired
//      approximate generation draining to an empty graveyard.
//
// The TSan/ASan CI jobs run this binary explicitly: mode (c) races 8
// reader threads against the background exact build's republication.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "service/query_service.h"
#include "test_util.h"

namespace qagview::service {
namespace {

constexpr char kRefineSql[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 2 ORDER BY val DESC";

constexpr double kConfidence = 0.95;

/// Small reservoir relative to the 4000-row tables below, so approximate
/// execution genuinely estimates (sample < population) instead of falling
/// back to exact.
ServiceOptions ApproxOptions() {
  ServiceOptions options;
  options.sample_capacity = 512;
  return options;
}

std::shared_ptr<const core::AnswerSet> Answers(QueryService& service,
                                               QueryHandle handle) {
  auto answers = service.Answers(handle);
  QAG_CHECK(answers.ok()) << answers.status().ToString();
  return *answers;
}

/// Display-name key of one answer, stable across services that interned
/// the same attribute values to different codes (the approximate set is
/// built from the sample, so its code space is its own).
std::string KeyOf(const core::AnswerSet& set, int i) {
  std::string key;
  const core::Element& e = set.element(i);
  for (int a = 0; a < set.num_attrs(); ++a) {
    key += set.ValueName(a, e.attrs[static_cast<size_t>(a)]);
    key += '\x1f';
  }
  return key;
}

/// The cold oracle: a fresh exact-only service over base + all deltas.
std::shared_ptr<const core::AnswerSet> ColdExactAnswers(
    const testutil::RandomTableSpec& spec, uint64_t seed, int base_rows,
    const std::vector<std::vector<storage::Value>>& extra) {
  QueryService cold;
  storage::Table table = testutil::MakeRandomTable(spec, seed, base_rows);
  QAG_CHECK_OK(table.AppendRows(extra));
  QAG_CHECK_OK(cold.RegisterTable("ratings", std::move(table)));
  auto info = cold.Query({kRefineSql, "val"});
  QAG_CHECK(info.ok()) << info.status().ToString();
  return Answers(cold, info->handle);
}

// ---------------------------------------------------------------------------
// (a) Refinement publishes the bit-identical exact generation.

TEST(ApproxRefinement, ExactGenerationMatchesColdRebuild) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    testutil::RandomTableSpec spec;
    Rng rng(seed * 9973 + 5);
    const int base_rows = 3600 + static_cast<int>(rng.Index(800));

    QueryService service(ApproxOptions());
    ASSERT_TRUE(service
                    .RegisterTable("ratings", testutil::MakeRandomTable(
                                                  spec, seed, base_rows))
                    .ok());
    QueryOptions mode;
    mode.mode = QueryMode::kApproxFirst;
    mode.confidence = kConfidence;
    auto info = service.Query({kRefineSql, "val", mode});
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    // The cold response really is phase one: approximate, with bounds.
    EXPECT_FALSE(info->approx.is_exact);
    EXPECT_TRUE(info->stats.approximate);
    EXPECT_GT(info->approx.max_bound, 0.0);
    EXPECT_EQ(info->confidence, kConfidence);
    EXPECT_LT(info->approx.sample_fraction, 1.0);

    auto refined = service.Refine({info->handle});
    ASSERT_TRUE(refined.ok());
    EXPECT_FALSE(refined->stats.approximate);
    EXPECT_TRUE(refined->approx.is_exact);
    std::shared_ptr<const core::AnswerSet> live =
        Answers(service, info->handle);
    EXPECT_TRUE(live->approximation().is_exact);
    std::shared_ptr<const core::AnswerSet> oracle =
        ColdExactAnswers(spec, seed, base_rows, {});
    EXPECT_EQ(live->content_fingerprint(), oracle->content_fingerprint());
    EXPECT_TRUE(live->SameContent(*oracle));

    // Appends re-open the gap (the refresh path republishes approximate
    // first in this mode); the next refinement must land exactly on the
    // cold rebuild over the *final* state.
    std::vector<std::vector<storage::Value>> extra;
    for (int a = 0; a < 2; ++a) {
      auto rows = testutil::MakeRandomRows(
          spec, seed ^ (0xD00Du + static_cast<uint64_t>(a) * 131),
          50 + static_cast<int>(rng.Index(150)));
      ASSERT_TRUE(service.AppendRows({"ratings", rows}).ok());
      extra.insert(extra.end(), rows.begin(), rows.end());
    }
    ASSERT_TRUE(service.Refine({info->handle}).ok());
    live = Answers(service, info->handle);
    EXPECT_TRUE(live->approximation().is_exact);
    oracle = ColdExactAnswers(spec, seed, base_rows, extra);
    EXPECT_EQ(live->content_fingerprint(), oracle->content_fingerprint());
    EXPECT_TRUE(live->SameContent(*oracle));

    ServiceStats stats = service.stats();
    EXPECT_GE(stats.refine_requests, 2);
    EXPECT_GE(stats.refinements, 1);
    EXPECT_GE(stats.approx_queries, 1);
  }
}

// ---------------------------------------------------------------------------
// (b) Bounds are honest at the configured confidence.

struct CoverageShape {
  const char* name;
  const char* sql;
  /// Allowed shortfall below the nominal confidence. count and sum
  /// estimators average over the whole sample (n ~ 1024), so their CLT
  /// intervals are near-nominal even against the lognormal tail; avg
  /// averages within each group (n ~ 200), where a normal interval over a
  /// one-sided heavy tail genuinely undercovers by a few points — the
  /// wider tolerance documents that gap, while still failing loudly for a
  /// broken standard error (which lands near 0.5, not 0.9).
  double tolerance;
};

class ApproxBounds : public testing::TestWithParam<CoverageShape> {};

// 40 skewed-table seeds per aggregate shape (120 total): the exact group
// value must fall inside [estimate - bound, estimate + bound] at close to
// the nominal rate. The lognormal value tail (SkewedTableSpec) is the
// adversarial case — symmetric noise would pass with far weaker bounds.
TEST_P(ApproxBounds, TrueValueInsideReportedBound) {
  const CoverageShape& shape = GetParam();
  int64_t covered = 0;
  int64_t total = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    testutil::RandomTableSpec spec = testutil::SkewedTableSpec();
    const int rows = 8000;

    // A larger reservoir than the structural tests use: the CLT intervals
    // being validated here need enough per-group sample rows to be in
    // their asymptotic regime against the lognormal tail.
    ServiceOptions coverage_options;
    coverage_options.sample_capacity = 1024;
    QueryService service(coverage_options);
    ASSERT_TRUE(service
                    .RegisterTable("ratings", testutil::MakeRandomTable(
                                                  spec, seed, rows))
                    .ok());
    QueryOptions mode;
    mode.mode = QueryMode::kApproxOnly;
    mode.confidence = kConfidence;
    auto info = service.Query({shape.sql, "val", mode});
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ASSERT_FALSE(info->approx.is_exact);
    std::shared_ptr<const core::AnswerSet> approx =
        Answers(service, info->handle);

    QueryService exact_service;
    ASSERT_TRUE(exact_service
                    .RegisterTable("ratings", testutil::MakeRandomTable(
                                                  spec, seed, rows))
                    .ok());
    auto exact_info = exact_service.Query({shape.sql, "val"});
    ASSERT_TRUE(exact_info.ok()) << exact_info.status().ToString();
    std::shared_ptr<const core::AnswerSet> exact =
        Answers(exact_service, exact_info->handle);
    std::map<std::string, double> truth;
    for (int i = 0; i < exact->size(); ++i) {
      truth.emplace(KeyOf(*exact, i), exact->value(i));
    }
    // Every sampled group exists in the population (no HAVING in these
    // shapes), so every approximate answer has a ground truth.
    for (int i = 0; i < approx->size(); ++i) {
      auto it = truth.find(KeyOf(*approx, i));
      ASSERT_NE(it, truth.end()) << "sampled group missing from exact set";
      ASSERT_GT(approx->bound(i), 0.0);
      ++total;
      if (std::abs(approx->value(i) - it->second) <= approx->bound(i)) {
        ++covered;
      }
    }
  }
  ASSERT_GT(total, 0);
  const double coverage =
      static_cast<double>(covered) / static_cast<double>(total);
  EXPECT_GE(coverage, kConfidence - shape.tolerance)
      << shape.name << ": " << covered << "/" << total;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ApproxBounds,
    testing::Values(
        CoverageShape{"count",
                      "SELECT g0, g1, count(*) AS val FROM ratings "
                      "GROUP BY g0, g1 ORDER BY val DESC",
                      0.03},
        CoverageShape{"sum",
                      "SELECT g0, g1, sum(rating) AS val FROM ratings "
                      "GROUP BY g0, g1 ORDER BY val DESC",
                      0.03},
        CoverageShape{"avg",
                      "SELECT g0, avg(rating) AS val FROM ratings "
                      "GROUP BY g0 ORDER BY val DESC",
                      0.06}),
    [](const testing::TestParamInfo<CoverageShape>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// (c) Readers racing refinement observe only complete views, and every
//     response matches the phase its label names.

bool SameSolution(const core::Solution& a, const core::Solution& b) {
  return a.cluster_ids == b.cluster_ids && a.covered_sum == b.covered_sum &&
         a.covered_count == b.covered_count && a.average == b.average &&
         a.covered_min == b.covered_min;
}

/// Everything the racing readers ask for, served by one phase in isolation.
struct PhaseReplay {
  SummarizeResponse summarize;
  ExploreResponse explore;
  GuidanceResponse guidance;
  RetrieveResponse retrieve;
};

PhaseReplay ReplayPhase(QueryService& service, QueryHandle handle,
                        const core::Params& params, int d, int k) {
  PhaseReplay out;
  auto summarize = service.Summarize({handle, params});
  QAG_CHECK(summarize.ok()) << summarize.status().ToString();
  out.summarize = *summarize;
  auto explore = service.Explore({handle, params});
  QAG_CHECK(explore.ok()) << explore.status().ToString();
  out.explore = *explore;
  auto guidance = service.Guidance({handle, params.L});
  QAG_CHECK(guidance.ok()) << guidance.status().ToString();
  out.guidance = *guidance;
  auto retrieve = service.Retrieve({handle, params.L, d, k});
  QAG_CHECK(retrieve.ok()) << retrieve.status().ToString();
  out.retrieve = *retrieve;
  return out;
}

TEST(ApproxConcurrency, ReadersSeeOnlyCompleteViewsDuringRefinement) {
  for (int rep = 0; rep < 4; ++rep) {
    const uint64_t seed = 0xACE0u + static_cast<uint64_t>(rep);
    SCOPED_TRACE(StrCat("rep ", rep));
    testutil::RandomTableSpec spec;
    const int rows = 4000;
    QueryOptions mode;
    mode.mode = QueryMode::kApproxFirst;
    mode.confidence = kConfidence;
    QueryOptions approx_only = mode;
    approx_only.mode = QueryMode::kApproxOnly;

    // The two phases in isolation, ahead of the race: an approx-only twin
    // reproduces phase one exactly (samples are deterministic per dataset
    // name), an exact-only twin phase two. Every op runs at one coverage
    // level, so each generation only ever holds the one universe and grid
    // the replays build.
    QueryService approx_twin(ApproxOptions());
    QueryService exact_twin;
    for (QueryService* twin : {&approx_twin, &exact_twin}) {
      ASSERT_TRUE(twin->RegisterTable("ratings", testutil::MakeRandomTable(
                                                     spec, seed, rows))
                      .ok());
    }
    auto approx_info = approx_twin.Query({kRefineSql, "val", approx_only});
    ASSERT_TRUE(approx_info.ok()) << approx_info.status().ToString();
    ASSERT_FALSE(approx_info->approx.is_exact);
    auto exact_info = exact_twin.Query({kRefineSql, "val"});
    ASSERT_TRUE(exact_info.ok()) << exact_info.status().ToString();
    // The two fingerprints a racing reader may legitimately observe.
    const uint64_t approx_fp =
        Answers(approx_twin, approx_info->handle)->content_fingerprint();
    const uint64_t exact_fp =
        Answers(exact_twin, exact_info->handle)->content_fingerprint();
    ASSERT_NE(approx_fp, exact_fp);

    const int top_l =
        std::min({6, approx_info->num_answers, exact_info->num_answers});
    const core::Params params{std::min(3, top_l), top_l, 2};
    // A grid cell both phases store: the smallest D, at the larger of the
    // two phases' smallest stored k.
    auto approx_grid = approx_twin.Guidance({approx_info->handle, top_l});
    auto exact_grid = exact_twin.Guidance({exact_info->handle, top_l});
    ASSERT_TRUE(approx_grid.ok() && exact_grid.ok());
    ASSERT_FALSE(approx_grid->d_values.empty());
    ASSERT_EQ(approx_grid->d_values.front(), exact_grid->d_values.front());
    const int d = exact_grid->d_values.front();
    const int k =
        std::max(approx_grid->min_ks.front(), exact_grid->min_ks.front());
    const PhaseReplay phase_one =
        ReplayPhase(approx_twin, approx_info->handle, params, d, k);
    const PhaseReplay phase_two =
        ReplayPhase(exact_twin, exact_info->handle, params, d, k);
    ASSERT_FALSE(SameSolution(phase_one.summarize.solution,
                              phase_two.summarize.solution));
    auto replay_of = [&](const ApproxMeta& label) -> const PhaseReplay& {
      return label.is_exact ? phase_two : phase_one;
    };

    QueryService service(ApproxOptions());
    ASSERT_TRUE(service
                    .RegisterTable("ratings", testutil::MakeRandomTable(
                                                  spec, seed, rows))
                    .ok());

    constexpr int kReaders = 8;
    constexpr int kReads = 200;
    testutil::StartLatch latch(kReaders + 1);
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&] {
        latch.ArriveAndWait();
        auto info = service.Query({kRefineSql, "val", mode});
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        const QueryHandle handle = info->handle;
        for (int i = 0; i < kReads; ++i) {
          std::shared_ptr<const core::AnswerSet> view =
              Answers(service, handle);
          const uint64_t fp = view->content_fingerprint();
          // Complete approximate view or complete exact view — a blend
          // would fingerprint as neither.
          EXPECT_TRUE(fp == approx_fp || fp == exact_fp) << fp;
          const core::Approximation& approx = view->approximation();
          if (fp == approx_fp) {
            EXPECT_FALSE(approx.is_exact);
            EXPECT_GT(approx.max_bound, 0.0);
          } else {
            EXPECT_TRUE(approx.is_exact);
            EXPECT_EQ(approx.max_bound, 0.0);
          }
          // One serving op per read, each checked against the replay of
          // the phase its response claims served it.
          switch (i % 4) {
            case 0: {
              auto r = service.Summarize({handle, params});
              ASSERT_TRUE(r.ok()) << r.status().ToString();
              EXPECT_EQ(r->stats.approximate, !r->approx.is_exact);
              EXPECT_TRUE(SameSolution(
                  r->solution, replay_of(r->approx).summarize.solution))
                  << "Summarize labelled is_exact=" << r->approx.is_exact;
              break;
            }
            case 1: {
              auto r = service.Explore({handle, params});
              ASSERT_TRUE(r.ok()) << r.status().ToString();
              const ExploreResponse& replay = replay_of(r->approx).explore;
              EXPECT_TRUE(SameSolution(r->solution, replay.solution))
                  << "Explore labelled is_exact=" << r->approx.is_exact;
              EXPECT_EQ(r->summary, replay.summary);
              EXPECT_EQ(r->expanded, replay.expanded);
              break;
            }
            case 2: {
              auto r = service.Guidance({handle, top_l});
              ASSERT_TRUE(r.ok()) << r.status().ToString();
              const GuidanceResponse& replay = replay_of(r->approx).guidance;
              EXPECT_EQ(r->num_intervals, replay.num_intervals);
              EXPECT_EQ(r->min_ks, replay.min_ks);
              break;
            }
            default: {
              // Refinement may retire the grid between a Guidance and this
              // Retrieve; a Retrieve that finds none has nothing to label.
              auto r = service.Retrieve({handle, top_l, d, k});
              if (!r.ok()) {
                EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
                    << r.status().ToString();
                break;
              }
              EXPECT_TRUE(SameSolution(
                  r->solution, replay_of(r->approx).retrieve.solution))
                  << "Retrieve labelled is_exact=" << r->approx.is_exact;
              break;
            }
          }
        }
      });
    }
    // Main thread leads the cold approximate build while the readers race
    // the background refinement it schedules.
    latch.ArriveAndWait();
    auto info = service.Query({kRefineSql, "val", mode});
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ASSERT_TRUE(service.Refine({info->handle}).ok());
    for (auto& reader : readers) reader.join();

    // Quiesced: exact is published, and the refinement was accounted once
    // (led by Refine or the background task; the other saw it superseded).
    EXPECT_EQ(Answers(service, info->handle)->content_fingerprint(),
              exact_fp);
    ServiceStats stats = service.stats();
    EXPECT_GE(stats.refine_requests, 1);
    EXPECT_GE(stats.refinements, 1);

    // The exact generation serves warm hits without the writer lock: once
    // caches are warm, a read burst moves the acquisition counter by zero.
    ASSERT_TRUE(service.Summarize({info->handle, params}).ok());
    const int64_t locks_before =
        service.SessionCacheStats(info->handle)->writer_lock_acquisitions;
    std::vector<std::thread> warm;
    for (int t = 0; t < kReaders; ++t) {
      warm.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          auto solution = service.Summarize({info->handle, params});
          ASSERT_TRUE(solution.ok()) << solution.status().ToString();
          EXPECT_FALSE(solution->stats.approximate);
          EXPECT_TRUE(solution->approx.is_exact);
        }
      });
    }
    for (auto& thread : warm) thread.join();
    EXPECT_EQ(service.SessionCacheStats(info->handle)->writer_lock_acquisitions,
              locks_before);

    // The retired approximate generation drained: no reader pins it, so
    // its memory was reclaimed (graveyard empty).
    EXPECT_EQ(service.stats().graveyard_size, 0);
  }
}

}  // namespace
}  // namespace qagview::service
