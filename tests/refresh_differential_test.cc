// The refresh invariant, enforced differentially: for hundreds of seeded
// append/query interleavings — serial and 8-client concurrent — a service
// maintained incrementally through AppendRows + transparent stale-handle
// refresh must produce responses bit-identical to a cold service built
// from the final table state. Footprints are rendered strings, averages,
// and counts (never raw cluster ids), so the comparison is at the
// client-visible API level and independent of which warm universe served.
//
// The TSan/ASan CI jobs run this binary explicitly: the concurrent mode
// races client queries against catalog appends and in-place session
// refreshes.

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

constexpr char kSql[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 2 ORDER BY val DESC";

core::PrecomputeOptions Grid() {
  core::PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 5;
  options.d_values = {1, 2};
  return options;
}

/// Client-visible footprint of one probe of the service: answer-set shape,
/// both rendered display layers, and retrieval results. Everything here
/// must be bit-identical between the incremental and the cold path.
struct Footprint {
  int num_answers = 0;
  std::string explore_summary;
  std::string explore_expanded;
  double summarize_avg = 0.0;
  int summarize_count = 0;
  double retrieve_avg = 0.0;
  int retrieve_count = 0;
  std::string error;  // first error, if any (must match too)

  bool operator==(const Footprint& other) const {
    return num_answers == other.num_answers &&
           explore_summary == other.explore_summary &&
           explore_expanded == other.explore_expanded &&
           summarize_avg == other.summarize_avg &&
           summarize_count == other.summarize_count &&
           retrieve_avg == other.retrieve_avg &&
           retrieve_count == other.retrieve_count && error == other.error;
  }
};

std::ostream& operator<<(std::ostream& out, const Footprint& f) {
  return out << "{n=" << f.num_answers << " summarize=" << f.summarize_avg
             << "/" << f.summarize_count << " retrieve=" << f.retrieve_avg
             << "/" << f.retrieve_count << " error='" << f.error
             << "' summary:\n"
             << f.explore_summary << "}";
}

/// One full probe through the public API. Appends only ever grow the
/// answer set (HAVING-count thresholds pass monotonically), so parameters
/// derived from num_answers stay valid across refreshes.
Footprint Probe(QueryService& service) {
  Footprint f;
  auto info = service.Query({kSql, "val"});
  if (!info.ok()) {
    f.error = info.status().ToString();
    return f;
  }
  f.num_answers = info->num_answers;
  const int top_l = std::min(6, f.num_answers);
  const int k = std::min(3, top_l);
  auto explore = service.Explore({info->handle, {k, top_l, 2}});
  if (explore.ok()) {
    f.explore_summary = explore->summary;
    f.explore_expanded = explore->expanded;
  } else if (f.error.empty()) {
    f.error = explore.status().ToString();
  }
  auto summarized =
      service.Summarize({info->handle, {std::min(4, top_l), top_l, 1}});
  if (summarized.ok()) {
    f.summarize_avg = summarized->solution.average;
    f.summarize_count = summarized->solution.covered_count;
  } else if (f.error.empty()) {
    f.error = summarized.status().ToString();
  }
  auto guided = service.Guidance({info->handle, top_l, Grid()});
  if (!guided.ok() && f.error.empty()) f.error = guided.status().ToString();
  auto retrieved = service.Retrieve({info->handle, top_l, 2, 3});
  if (retrieved.ok()) {
    f.retrieve_avg = retrieved->solution.average;
    f.retrieve_count = retrieved->solution.covered_count;
  } else if (f.error.empty()) {
    f.error = retrieved.status().ToString();
  }
  return f;
}

/// The cold oracle: a fresh service over base + all applied deltas.
Footprint ColdProbe(const testutil::RandomTableSpec& spec, uint64_t seed,
                    int base_rows,
                    const std::vector<std::vector<storage::Value>>& extra) {
  QueryService cold;
  storage::Table table = testutil::MakeRandomTable(spec, seed, base_rows);
  QAG_CHECK_OK(table.AppendRows(extra));
  QAG_CHECK_OK(cold.RegisterTable("ratings", std::move(table)));
  return Probe(cold);
}

class RefreshDifferentialSerial : public testing::TestWithParam<int> {};

// Each case drives one seeded interleaving of appends and probes and
// checks bit-identity against the cold oracle after every append. Seeds
// are blocked 8 per gtest case so ctest -j spreads the work.
TEST_P(RefreshDifferentialSerial, IncrementalEqualsColdRebuild) {
  for (int i = 0; i < 8; ++i) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 8 + i;
    SCOPED_TRACE(StrCat("seed ", seed));
    testutil::RandomTableSpec spec;
    Rng rng(seed * 7919 + 13);
    const int base_rows = 180 + static_cast<int>(rng.Index(120));

    QueryService incremental;
    ASSERT_TRUE(incremental
                    .RegisterTable("ratings", testutil::MakeRandomTable(
                                                  spec, seed, base_rows))
                    .ok());
    // Warm the caches so refreshes have structures to reuse or retire.
    Footprint warm = Probe(incremental);
    ASSERT_EQ(warm, ColdProbe(spec, seed, base_rows, {}));

    std::vector<std::vector<storage::Value>> extra;
    const int appends = 2 + static_cast<int>(rng.Index(3));
    for (int a = 0; a < appends; ++a) {
      // Delta sizes mix single rows with up-to-15% batches.
      const int delta_rows = 1 + static_cast<int>(rng.Index(30));
      auto rows = testutil::MakeRandomRows(
          spec, seed ^ (0xA5A5u + static_cast<uint64_t>(a) * 31), delta_rows);
      ASSERT_TRUE(incremental.AppendRows({"ratings", rows}).ok());
      extra.insert(extra.end(), rows.begin(), rows.end());

      Footprint live = Probe(incremental);
      Footprint cold = ColdProbe(spec, seed, base_rows, extra);
      ASSERT_EQ(live, cold) << "append " << a << " (+" << delta_rows
                            << " rows)";
    }
    // The incremental path really did refresh in place: one session, with
    // at least `appends` SQL re-executions behind it.
    ServiceStats stats = incremental.stats();
    EXPECT_EQ(stats.sessions, 1);
    EXPECT_GE(stats.refreshes, static_cast<int64_t>(appends));
  }
}

// 20 blocks x 8 seeds = 160 serial interleavings.
INSTANTIATE_TEST_SUITE_P(Seeds, RefreshDifferentialSerial,
                         testing::Range(0, 20));

class RefreshDifferentialConcurrent : public testing::TestWithParam<int> {};

// 8 client threads hammer the service while the main thread appends;
// afterwards the quiesced service must be bit-identical to the cold
// oracle over the final state. Mid-run responses are not compared (they
// may linearize before or after any append) but must never fail — except
// Retrieve, which may legitimately race a refresh that retired its grid
// between Guidance and Retrieve (FailedPrecondition; a client re-issues
// Guidance).
TEST_P(RefreshDifferentialConcurrent, FinalStateEqualsColdRebuild) {
  for (int i = 0; i < 8; ++i) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(GetParam()) * 8 + i;
    SCOPED_TRACE(StrCat("seed ", seed));
    testutil::RandomTableSpec spec;
    Rng rng(seed * 6151 + 7);
    const int base_rows = 180 + static_cast<int>(rng.Index(120));
    constexpr int kClients = 8;
    constexpr int kRounds = 3;
    constexpr int kAppends = 3;

    QueryService service;
    ASSERT_TRUE(service
                    .RegisterTable("ratings", testutil::MakeRandomTable(
                                                  spec, seed, base_rows))
                    .ok());
    Probe(service);  // warm

    std::vector<std::vector<storage::Value>> extra;
    std::vector<std::vector<std::vector<storage::Value>>> batches;
    for (int a = 0; a < kAppends; ++a) {
      const int delta_rows = 1 + static_cast<int>(rng.Index(25));
      batches.push_back(testutil::MakeRandomRows(
          spec, seed ^ (0xC3C3u + static_cast<uint64_t>(a) * 17),
          delta_rows));
    }

    testutil::StartLatch latch(kClients + 1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        latch.ArriveAndWait();
        for (int round = 0; round < kRounds; ++round) {
          auto info = service.Query({kSql, "val"});
          ASSERT_TRUE(info.ok()) << info.status().ToString();
          const int top_l = std::min(6, info->num_answers);
          const int k = std::min(3, top_l);
          switch ((t + round) % 3) {
            case 0: {
              auto explore = service.Explore({info->handle, {k, top_l, 2}});
              ASSERT_TRUE(explore.ok()) << explore.status().ToString();
              break;
            }
            case 1: {
              auto summarized =
                  service.Summarize({info->handle, {k, top_l, 1}});
              ASSERT_TRUE(summarized.ok())
                  << summarized.status().ToString();
              break;
            }
            default: {
              auto guided = service.Guidance({info->handle, top_l, Grid()});
              ASSERT_TRUE(guided.ok()) << guided.status().ToString();
              auto retrieved = service.Retrieve({info->handle, top_l, 1, 3});
              if (!retrieved.ok()) {
                // Only the documented Guidance/Retrieve race is tolerated.
                EXPECT_EQ(retrieved.status().code(),
                          StatusCode::kFailedPrecondition)
                    << retrieved.status().ToString();
              }
              break;
            }
          }
        }
      });
    }
    {
      latch.ArriveAndWait();
      for (const auto& batch : batches) {
        ASSERT_TRUE(service.AppendRows({"ratings", batch}).ok());
        extra.insert(extra.end(), batch.begin(), batch.end());
      }
    }
    for (auto& thread : threads) thread.join();

    // Quiesced: the incremental service must match the cold oracle.
    Footprint live = Probe(service);
    Footprint cold = ColdProbe(spec, seed, base_rows, extra);
    ASSERT_EQ(live, cold);
    EXPECT_EQ(service.stats().sessions, 1);
  }
}

// 7 blocks x 8 seeds = 56 concurrent interleavings; 216 total with the
// serial mode, comfortably past the 200-interleaving acceptance bar.
INSTANTIATE_TEST_SUITE_P(Seeds, RefreshDifferentialConcurrent,
                         testing::Range(0, 7));

}  // namespace
}  // namespace qagview::service
