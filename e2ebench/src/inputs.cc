#include "inputs.h"

#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <utility>

#include "common/json.h"
#include "common/random.h"
#include "datagen/movielens.h"
#include "datagen/store_sales.h"
#include "server/serde.h"
#include "storage/csv.h"
#include "study/trajectory.h"

namespace e2ebench {

namespace service = qagview::service;
namespace storage = qagview::storage;
using qagview::Rng;

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery:
      return "query";
    case OpKind::kSummarize:
      return "summarize";
    case OpKind::kExplore:
      return "explore";
    case OpKind::kGuidance:
      return "guidance";
    case OpKind::kRetrieve:
      return "retrieve";
    case OpKind::kAppend:
      return "append_rows";
  }
  return "?";
}

namespace {

// The grouping-attribute sets of new_query statements: for each dataset and
// each attribute count 3..6, two sets of different answer counts. Every run
// cycles through all sixteen, so every seed gets the same mix of cheap and
// expensive statements; the seed varies the order, the aggregate and the
// filter threshold, and the data.
struct AttrSet {
  const char* table;
  std::vector<std::string> attrs;
  const char* filter_column;  // "WHERE <column> > K", K seeded (0 = none)
  int max_threshold;
};
const std::vector<AttrSet>& NewQueryAttrSets() {
  // In new_query, every 4th set (index % 4 == 3) is queried kApproxFirst; those have few
  // enough groups (360-1470) that the 4096-row sample still holds most of
  // them, so their approximate answers serve every L up to 32.
  static const std::vector<AttrSet> sets = {
      {"ratings", {"agegrp", "gender", "occupation", "decade"}, "user_id", 60},
      {"ratings", {"agegrp", "gender", "occupation", "hdec", "genres_comedy"}, "user_id", 60},
      {"ratings", {"agegrp", "gender", "occupation", "decade", "genres_drama", "genres_comedy"},
       "user_id", 60},
      {"ratings", {"occupation", "zip_region", "decade"}, "user_id", 60},
      {"ratings", {"zip_region", "hdec", "rate_weekday", "genres_drama"}, "user_id", 60},
      {"ratings", {"zip_region", "decade", "rate_month", "rate_weekday", "gender"}, "user_id", 60},
      {"ratings", {"agegrp", "zip_region", "decade", "rate_weekday", "gender", "genres_drama"},
       "user_id", 60},
      {"ratings", {"agegrp", "hdec", "rate_weekday"}, "user_id", 60},
      {"store_sales", {"store_state", "item_category", "customer_agegrp", "coupon_used"},
       "quantity", 30},
      {"store_sales", {"sold_month", "store_id", "customer_gender", "channel", "discount_bucket"},
       "quantity", 30},
      {"store_sales",
       {"sold_year", "store_state", "item_category", "customer_gender", "coupon_used", "channel"},
       "quantity", 30},
      {"store_sales", {"store_id", "item_category", "channel"}, "quantity", 30},
      {"store_sales", {"sold_month", "customer_state", "customer_income_band"}, "quantity", 30},
      {"store_sales",
       {"item_category", "customer_agegrp", "customer_income_band", "household_buy_potential",
        "coupon_used"},
       "quantity", 30},
      {"store_sales",
       {"sold_month", "customer_agegrp", "customer_state", "discount_bucket", "coupon_used",
        "ticket_size_bucket"},
       "quantity", 30},
      {"store_sales", {"sold_year", "sold_weekday", "discount_bucket", "channel"}, "quantity", 30},
  };
  return sets;  // kNewQueryRound entries
}

QuerySpec GroupQuery(const std::string& table, const std::vector<std::string>& attrs,
                     const std::string& aggregate, const std::string& where) {
  std::string cols;
  for (const std::string& a : attrs) cols += (cols.empty() ? "" : ", ") + a;
  QuerySpec q;
  q.sql = "SELECT " + cols + ", " + aggregate + " AS val FROM " + table +
          (where.empty() ? "" : " WHERE " + where) + " GROUP BY " + cols +
          " ORDER BY val DESC";
  q.num_attrs = static_cast<int>(attrs.size());
  return q;
}

// The fixed handles the explore and ingest sessions re-parameterize: answer
// counts from ~1.4k (occupation x zip_region x decade) to ~30k (six
// store_sales attributes), so both small and large universes are served.
std::vector<QuerySpec> RatingsHandles() {
  return {
      GroupQuery("ratings", {"occupation", "zip_region", "decade"}, "avg(rating)", ""),
      GroupQuery("ratings", {"agegrp", "gender", "occupation", "hdec"}, "avg(rating)", ""),
      GroupQuery("ratings", {"agegrp", "gender", "occupation", "hdec", "rate_weekday"},
                 "avg(rating)", ""),
      GroupQuery("ratings", {"agegrp", "occupation", "rate_month"}, "sum(rating)",
                 "rating >= 3"),
  };
}

std::vector<QuerySpec> SalesHandles() {
  return {
      GroupQuery("store_sales", {"store_id", "item_category", "customer_agegrp", "channel"},
                 "avg(net_profit)", ""),
      GroupQuery("store_sales",
                 {"sold_month", "store_state", "item_category", "customer_income_band"},
                 "sum(net_profit)", ""),
      GroupQuery("store_sales",
                 {"sold_month", "store_id", "item_category", "customer_agegrp",
                  "coupon_used", "channel"},
                 "avg(net_profit)", ""),
  };
}

// Drill-down sessions over the open `handles`: the trajectory moves
// of study::SimulateTrajectories (L in 2..32), each Guidance followed by a
// Retrieve from its grid, with seeded k and D.
std::vector<Request> SessionRequests(const std::vector<QuerySpec>& queries,
                                     const std::vector<int>& handles, int num_sessions,
                                     uint64_t seed, bool with_retrieve) {
  qagview::study::TrajectoryOptions options;
  options.num_sessions = num_sessions;
  options.seed = seed;
  Rng rng(seed ^ 0x5eedULL);
  std::vector<Request> out;
  const auto sessions = qagview::study::SimulateTrajectories(options);
  for (size_t i = 0; i < sessions.size(); ++i) {
    const auto& session = sessions[i];
    // Round-robin, so every run spreads its sessions over the handles alike.
    const int q = handles[i % handles.size()];
    const int m = queries[static_cast<size_t>(q)].num_attrs;
    for (const qagview::study::Move& move : session) {
      Request r;
      r.query = q;
      r.params.L = move.top_l;
      r.params.k = static_cast<int>(rng.Uniform(2, 8));
      r.params.D = static_cast<int>(rng.Uniform(1, std::min(3, m)));
      switch (move.kind) {
        case qagview::study::MoveKind::kQuery:
          continue;  // the handle is already open
        case qagview::study::MoveKind::kSummarize:
          r.kind = OpKind::kSummarize;
          break;
        case qagview::study::MoveKind::kExplore:
          r.kind = OpKind::kExplore;
          break;
        case qagview::study::MoveKind::kGuidance:
          r.kind = OpKind::kGuidance;
          break;
      }
      out.push_back(r);
      if (r.kind == OpKind::kGuidance && with_retrieve) {
        Request retrieve = r;
        retrieve.kind = OpKind::kRetrieve;
        retrieve.params.D = static_cast<int>(rng.Uniform(1, m));
        retrieve.params.k = static_cast<int>(rng.Uniform(2, 12));
        out.push_back(retrieve);
      }
    }
  }
  return out;
}

// Never-seen aggregate queries: each round of sixteen statements uses every
// attribute set once, in a seeded order, with a seeded aggregate
// (avg/sum/count) and filter threshold. With `approx_first`, every 4th set
// is queried kApproxFirst, so a quarter of the statements are, and the exact
// ones are the same mix in every round; without, every statement is exact.
Plan NewQueryPlan(uint64_t seed, bool approx_first) {
  Plan plan;
  Rng rng(seed);
  qagview::study::TrajectoryOptions topts;
  topts.num_sessions = 1;
  std::set<std::string> seen;
  const std::vector<AttrSet>& sets = NewQueryAttrSets();
  constexpr int kCycles = 960;
  std::vector<size_t> order;
  while (static_cast<int>(plan.queries.size()) < kCycles) {
    const int c = static_cast<int>(plan.queries.size());
    if (order.empty()) {
      for (size_t i = 0; i < kNewQueryRound; ++i) order.push_back(i);
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[static_cast<size_t>(rng.Index(static_cast<int64_t>(i + 1)))]);
      }
    }
    const AttrSet& set = sets[order.back()];
    const bool ratings = std::string(set.table) == "ratings";
    const char* const aggs[] = {ratings ? "avg(rating)" : "avg(net_profit)",
                                ratings ? "sum(rating)" : "sum(net_profit)", "count(*)"};
    const int threshold = static_cast<int>(rng.Uniform(0, set.max_threshold));
    QuerySpec q = GroupQuery(set.table, set.attrs, aggs[rng.Index(3)],
                             threshold == 0 ? "" : std::string(set.filter_column) + " > " +
                                                       std::to_string(threshold));
    if (!seen.insert(q.sql).second) continue;  // redraw: statements are never repeated
    if (approx_first && order.back() % 4 == 3) q.mode = service::QueryMode::kApproxFirst;
    order.pop_back();
    plan.queries.push_back(q);

    topts.seed = seed * 1000003ULL + static_cast<uint64_t>(c);
    const int level = qagview::study::SimulateTrajectories(topts)[0][0].top_l;
    Request query;
    query.kind = OpKind::kQuery;
    query.query = c;
    Request view = query;
    view.kind = OpKind::kExplore;
    view.params.L = level;
    view.params.k = static_cast<int>(rng.Uniform(2, 6));
    view.params.D = static_cast<int>(rng.Uniform(1, 3));
    // The grid for the whole interactive range of L.
    Request grid = view;
    grid.kind = OpKind::kGuidance;
    grid.params.L = topts.l_max;
    plan.pool.push_back(query);
    plan.pool.push_back(view);
    plan.pool.push_back(grid);
  }
  return plan;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

Result<Plan> MakePlan(const std::string& workload, uint64_t seed) {
  if (workload == "new_query") return NewQueryPlan(seed, /*approx_first=*/true);
  if (workload == "exact_query") return NewQueryPlan(seed, /*approx_first=*/false);
  Plan plan;
  if (workload == "explore") {
    plan.queries = RatingsHandles();
    for (QuerySpec& q : SalesHandles()) plan.queries.push_back(std::move(q));
    plan.queries.erase(plan.queries.begin() + 3);  // the filtered ratings handle
    for (int i = 0; i < static_cast<int>(plan.queries.size()); ++i) plan.opened.push_back(i);
    plan.pool = SessionRequests(plan.queries, plan.opened, 600, seed, /*with_retrieve=*/true);
    return plan;
  }
  if (workload == "ingest") {
    // Every read after an append rebuilds, so the costliest handle (five
    // attributes, ~15k answers) stays out: the read threads keep up.
    plan.queries = RatingsHandles();
    plan.queries.erase(plan.queries.begin() + 2);
    for (int i = 0; i < static_cast<int>(plan.queries.size()); ++i) plan.opened.push_back(i);
    // Retrieve k and d are only valid against a known grid shape, which
    // every append may change; ingest reads stick to the building ops.
    plan.pool = SessionRequests(plan.queries, plan.opened, 600, seed, /*with_retrieve=*/false);
    return plan;
  }
  return Status::InvalidArgument("unknown workload " + workload);
}

std::vector<Request> WarmupRequests(const std::vector<Request>& pool) {
  std::set<std::pair<int, int>> levels;
  for (const Request& r : pool) {
    if (r.query >= 0) levels.emplace(r.query, r.params.L);
  }
  std::vector<Request> out;
  for (const auto& [q, level] : levels) {
    Request r;
    r.kind = OpKind::kGuidance;
    r.query = q;
    r.params.L = level;
    out.push_back(r);
  }
  return out;
}

Status EnsureDatasets(uint64_t seed, const std::string& dir) {
  const std::string done = dir + "/done";
  if (FileExists(done)) return Status::OK();
  ::mkdir(dir.c_str(), 0755);

  qagview::datagen::MovieLensOptions ml;
  ml.seed = seed * 2 + 1;
  ml.num_ratings = kDatasetRows + kBatchRows * kNumBatches;
  storage::Table all = qagview::datagen::MovieLensGenerator(ml).GenerateRatingTable();
  storage::Table base(all.schema());
  storage::Table appends(all.schema());
  for (int64_t r = 0; r < all.num_rows(); ++r) {
    QAG_RETURN_IF_ERROR((r < kDatasetRows ? base : appends).AppendRow(all.GetRow(r)));
  }
  QAG_RETURN_IF_ERROR(storage::WriteCsvFile(base, dir + "/ratings.csv"));
  QAG_RETURN_IF_ERROR(storage::WriteCsvFile(appends, dir + "/appends.csv"));

  qagview::datagen::StoreSalesOptions ss;
  ss.num_rows = kDatasetRows;
  ss.seed = seed * 2 + 2;
  QAG_RETURN_IF_ERROR(storage::WriteCsvFile(qagview::datagen::StoreSalesGenerator(ss).Generate(),
                                            dir + "/store_sales.csv"));
  std::ofstream(done) << seed << "\n";
  return Status::OK();
}

Result<std::vector<std::string>> LoadAppendBodies(const std::string& dir) {
  QAG_ASSIGN_OR_RETURN(storage::Table base, storage::ReadCsvFile(dir + "/ratings.csv"));
  QAG_ASSIGN_OR_RETURN(storage::Table rows, storage::ReadCsvFile(dir + "/appends.csv"));
  if (!(rows.schema() == base.schema())) {
    return Status::Internal("appends.csv infers a different schema than ratings.csv");
  }
  std::vector<std::string> bodies;
  for (int64_t start = 0; start + kBatchRows <= rows.num_rows(); start += kBatchRows) {
    service::AppendRowsRequest request;
    request.dataset = "ratings";
    for (int64_t r = start; r < start + kBatchRows; ++r) request.rows.push_back(rows.GetRow(r));
    bodies.push_back(qagview::server::ToJson(request).Dump());
  }
  return bodies;
}

std::string RequestKey(const Request& r) {
  return std::string(OpName(r.kind)) + "/" + std::to_string(r.query) + "/" +
         std::to_string(r.params.k) + "/" + std::to_string(r.params.L) + "/" +
         std::to_string(r.params.D) + "/" + std::to_string(r.batch);
}

std::string RequestBody(const Request& r, const std::vector<QuerySpec>& queries,
                        const std::vector<int64_t>& handles,
                        const std::vector<std::string>& batches) {
  using qagview::server::ToJson;
  const int64_t handle = r.query >= 0 ? handles[static_cast<size_t>(r.query)] : -1;
  switch (r.kind) {
    case OpKind::kQuery: {
      const QuerySpec& q = queries[static_cast<size_t>(r.query)];
      service::QueryRequest out;
      out.sql = q.sql;
      out.value_column = q.value_column;
      out.options.mode = q.mode;
      return ToJson(out).Dump();
    }
    case OpKind::kSummarize:
      return ToJson(service::SummarizeRequest{handle, r.params}).Dump();
    case OpKind::kExplore: {
      service::ExploreRequest out;
      out.handle = handle;
      out.params = r.params;
      return ToJson(out).Dump();
    }
    case OpKind::kGuidance: {
      service::GuidanceRequest out;
      out.handle = handle;
      out.top_l = r.params.L;
      return ToJson(out).Dump();
    }
    case OpKind::kRetrieve:
      return ToJson(service::RetrieveRequest{handle, r.params.L, r.params.D, r.params.k})
          .Dump();
    case OpKind::kAppend:
      return batches[static_cast<size_t>(r.batch)];
  }
  return "";
}

}  // namespace e2ebench
