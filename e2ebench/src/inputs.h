#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

// Seeded inputs of the end-to-end benchmark: the two datasets and the append
// batches (CSV files written once per seed), and the request plan of each
// workload (derived from the seed in memory, in milliseconds). The server
// only ever sees the CSV files and the requests built from the plan.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/solution.h"
#include "service/api.h"

namespace e2ebench {

using qagview::Result;
using qagview::Status;

/// Rows of the two datasets the server loads with --dataset.
inline constexpr int kDatasetRows = 100000;
/// Statements per new_query / exact_query round: each round queries every
/// attribute set once.
inline constexpr int kNewQueryRound = 16;
/// Rows per POST /append_rows batch, and batches generated per seed.
inline constexpr int kBatchRows = 200;
inline constexpr int kNumBatches = 400;

enum class OpKind { kQuery, kSummarize, kExplore, kGuidance, kRetrieve, kAppend };

/// "query", "summarize", ... (also the POST target without the slash).
const char* OpName(OpKind kind);

struct QuerySpec {
  std::string sql;
  std::string value_column = "val";
  qagview::service::QueryMode mode = qagview::service::QueryMode::kExactOnly;
  int num_attrs = 0;
};

/// One request of a plan. Handle operations name the query whose handle
/// they use; the handle itself is only known once the server answered the
/// query.
struct Request {
  OpKind kind = OpKind::kSummarize;
  int query = -1;
  /// Summarize / Explore: (k, L, D). Guidance: L. Retrieve: L, D = d, k.
  qagview::core::Params params;
  int batch = -1;  // kAppend: index into the append batches
};

struct Plan {
  std::vector<QuerySpec> queries;
  /// Queries opened during set-up (explore, ingest), in this order.
  std::vector<int> opened;
  /// explore, ingest: the read requests, replayed in order (cyclically).
  /// new_query, exact_query: one cycle per query: kQuery, then kExplore (the first
  /// view), then kGuidance over the whole interactive range (L = 32).
  std::vector<Request> pool;
};

/// The request plan of `workload` ("explore", "new_query", "exact_query",
/// "ingest"). exact_query is new_query with every statement kExactOnly.
Result<Plan> MakePlan(const std::string& workload, uint64_t seed);

/// Every distinct (query, L) a pool reads at, as Guidance requests: the
/// explore warm-up that leaves every universe and grid cached.
std::vector<Request> WarmupRequests(const std::vector<Request>& pool);

/// Writes ratings.csv, store_sales.csv and appends.csv for `seed` into
/// `dir` unless a previous call finished them already.
Status EnsureDatasets(uint64_t seed, const std::string& dir);

/// The append batches of `dir` as POST /append_rows bodies, in order.
Result<std::vector<std::string>> LoadAppendBodies(const std::string& dir);

/// A stable identity of the request's semantics (op, query, parameters),
/// used to pair each response with its oracle answer.
std::string RequestKey(const Request& request);

/// The JSON body of `request`, with `handles[query]` as its handle.
std::string RequestBody(const Request& request, const std::vector<QuerySpec>& queries,
                        const std::vector<int64_t>& handles,
                        const std::vector<std::string>& batches);

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
