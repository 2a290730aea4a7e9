#include "trace.h"

#include <algorithm>
#include <fstream>

#include "client.h"
#include "common/string_util.h"
#include "core/answer_set.h"
#include "core/explore.h"
#include "core/hybrid.h"
#include "server/serde.h"
#include "sql/executor.h"
#include "storage/csv.h"

namespace e2ebench {

namespace core = qagview::core;
namespace json = qagview::json;
namespace server = qagview::server;
namespace service = qagview::service;
namespace storage = qagview::storage;

// --- Tracer ---------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = std::move(name);
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = tracer_->request_;
  id_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(id_);
  tracer_->spans_.back().start_ms = NowMs();
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  tracer_->spans_[static_cast<size_t>(id_)].end_ms = NowMs();
  tracer_->open_.pop_back();
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes(const std::string& root) const {
  // Children of each span, and each span's root name.
  std::vector<std::vector<int>> children(spans_.size());
  std::vector<int> root_of(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    root_of[i] = parent < 0 ? static_cast<int>(i) : root_of[static_cast<size_t>(parent)];
    if (parent >= 0) children[static_cast<size_t>(parent)].push_back(static_cast<int>(i));
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[static_cast<size_t>(root_of[i])].name != root) continue;
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<double, double>> cover;
    for (int c : children[i]) {
      const Span& child = spans_[static_cast<size_t>(c)];
      cover.emplace_back(std::max(child.start_ms, s.start_ms), std::min(child.end_ms, s.end_ms));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start_ms;
    for (const auto& [lo, hi] : cover) {
      if (hi > reach) {
        covered += hi - std::max(lo, reach);
        reach = hi;
      }
    }
    SelfTime& t = out[s.name];
    t.total_ms += (s.end_ms - s.start_ms) - covered;
    ++t.count;
  }
  return out;
}

qagview::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json::Json row = json::Json::Object();
    row.Set("id", json::Json::Int(static_cast<int64_t>(i)));
    row.Set("name", json::Json::Str(s.name));
    row.Set("start_ms", json::Json::Number(s.start_ms));
    row.Set("end_ms", json::Json::Number(s.end_ms));
    row.Set("parent", json::Json::Int(s.parent));
    row.Set("request", json::Json::Int(s.request));
    out << row.Dump() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out ? qagview::Status::OK() : qagview::Status::IOError("cannot write " + path);
}

// --- Service replay -------------------------------------------------------

namespace {

// Decodes `body` with the server's parser, runs the struct API, encodes the
// response: one POST of the HTTP front end minus the sockets.
template <typename ParseFn, typename CallFn>
Result<json::Json> Call(Tracer* tracer, const std::string& op, const std::string& body,
                        size_t* response_bytes, ParseFn parse, CallFn call) {
  Tracer local(false);
  Tracer* t = tracer != nullptr ? tracer : &local;
  decltype(parse(json::Json())) request = qagview::Status::Internal("unparsed");
  {
    Tracer::Scope span(t, "server.decode");
    QAG_ASSIGN_OR_RETURN(json::Json doc, json::Json::Parse(body));
    request = parse(doc);
  }
  QAG_RETURN_IF_ERROR(request.status());
  decltype(call(*request)) response = qagview::Status::Internal("not called");
  {
    Tracer::Scope span(t, "service." + op);
    response = call(*request);
  }
  QAG_RETURN_IF_ERROR(response.status());
  json::Json out;
  {
    Tracer::Scope span(t, "server.encode");
    out = server::ToJson(*response);
    const std::string bytes = out.Dump();
    if (response_bytes != nullptr) *response_bytes = bytes.size();
  }
  return out;
}

}  // namespace

Result<json::Json> ServiceCall(service::QueryService* svc, OpKind kind, const std::string& body,
                               Tracer* tracer, size_t* response_bytes) {
  const std::string op = kind == OpKind::kAppend ? "append" : OpName(kind);
  switch (kind) {
    case OpKind::kQuery:
      return Call(tracer, op, body, response_bytes, server::QueryRequestFromJson,
                  [&](const service::QueryRequest& r) { return svc->Query(r); });
    case OpKind::kSummarize:
      return Call(tracer, op, body, response_bytes, server::SummarizeRequestFromJson,
                  [&](const service::SummarizeRequest& r) { return svc->Summarize(r); });
    case OpKind::kExplore:
      return Call(tracer, op, body, response_bytes, server::ExploreRequestFromJson,
                  [&](const service::ExploreRequest& r) { return svc->Explore(r); });
    case OpKind::kGuidance:
      return Call(tracer, op, body, response_bytes, server::GuidanceRequestFromJson,
                  [&](const service::GuidanceRequest& r) { return svc->Guidance(r); });
    case OpKind::kRetrieve:
      return Call(tracer, op, body, response_bytes, server::RetrieveRequestFromJson,
                  [&](const service::RetrieveRequest& r) { return svc->Retrieve(r); });
    case OpKind::kAppend:
      return Call(tracer, op, body, response_bytes, server::AppendRowsRequestFromJson,
                  [&](const service::AppendRowsRequest& r) { return svc->AppendRows(r); });
  }
  return qagview::Status::Internal("unknown op");
}

qagview::Status RegisterDatasets(service::QueryService* svc, const std::string& input_dir) {
  QAG_RETURN_IF_ERROR(svc->RegisterCsvFile("ratings", input_dir + "/ratings.csv"));
  return svc->RegisterCsvFile("store_sales", input_dir + "/store_sales.csv");
}

// --- Layer replay ---------------------------------------------------------

LayerReplay::LayerReplay(Tracer* tracer)
    : tracer_(tracer), catalog_(), catalog_nosample_({/*sample_capacity=*/0}) {}

qagview::Status LayerReplay::Load(const std::string& input_dir) {
  for (const char* name : {"ratings", "store_sales"}) {
    const std::string path = input_dir + "/" + name + ".csv";
    Result<storage::Table> table = qagview::Status::Internal("unread");
    {
      Tracer::Scope span(tracer_, "storage.csv_read");
      table = storage::ReadCsvFile(path);
    }
    QAG_RETURN_IF_ERROR(table.status());
    storage::Table twin = table->Clone();
    {
      Tracer::Scope span(tracer_, "catalog.register");
      QAG_RETURN_IF_ERROR(catalog_.Register(name, std::move(*table)));
    }
    {
      // The sample build happens inside Register; the twin registers the
      // same table without one, so the difference is what sampling costs.
      Tracer::Scope span(tracer_, "catalog.register_nosample");
      QAG_RETURN_IF_ERROR(catalog_nosample_.Register(name, std::move(twin)));
    }
  }
  return qagview::Status::OK();
}

Result<core::AnswerSet> LayerReplay::Execute(const QuerySpec& spec, bool approximate,
                                             std::map<std::string, uint64_t>* deps,
                                             bool* got_approximate) {
  *got_approximate = false;
  service::CatalogSnapshot snapshot;
  {
    Tracer::Scope span(tracer_, "catalog.snapshot");
    snapshot = catalog_.Snapshot();
  }
  auto record = [&](int64_t input_rows, int64_t answers) {
    deps->clear();
    for (const std::string& name : snapshot.sql.accessed()) {
      deps->emplace(name, snapshot.versions.at(name));
    }
    ++counts_.sql_executions;
    counts_.sql_input_rows += input_rows;
    counts_.sql_answer_rows += answers;
  };
  if (approximate) {
    Result<qagview::sql::ApproxExecution> exec = qagview::Status::Internal("not run");
    {
      Tracer::Scope span(tracer_, "sql.execute_approx");
      exec = qagview::sql::ExecuteSqlApproximate(spec.sql, snapshot.sql);
    }
    QAG_RETURN_IF_ERROR(exec.status());
    const std::vector<double>* se = nullptr;
    for (const auto& [name, vec] : exec->column_se) {
      if (qagview::EqualsIgnoreCase(name, spec.value_column)) se = &vec;
    }
    if (exec->approximate && se != nullptr) {
      Tracer::Scope span(tracer_, "core.answer_set");
      Result<core::AnswerSet> answers = core::AnswerSet::FromTableApproximate(
          exec->table, spec.value_column, *se, service::QueryOptions().confidence,
          exec->sample_rows, exec->population_rows);
      if (answers.ok()) {
        record(exec->sample_rows, answers->size());
        *got_approximate = true;
        return answers;
      }
    }
  }
  Result<storage::Table> result = qagview::Status::Internal("not run");
  {
    Tracer::Scope span(tracer_, "sql.execute");
    result = qagview::sql::ExecuteSql(spec.sql, snapshot.sql);
  }
  QAG_RETURN_IF_ERROR(result.status());
  Result<core::AnswerSet> answers = qagview::Status::Internal("not built");
  {
    Tracer::Scope span(tracer_, "core.answer_set");
    answers = core::AnswerSet::FromTable(*result, spec.value_column);
  }
  QAG_RETURN_IF_ERROR(answers.status());
  int64_t input_rows = 0;
  for (const std::string& name : snapshot.sql.accessed()) {
    input_rows += catalog_.Find(name).table->num_rows();
  }
  record(input_rows, answers->size());
  return answers;
}

qagview::Status LayerReplay::EnsureFresh(const QuerySpec& spec, Handle* handle) {
  bool stale = false;
  for (const auto& [name, version] : handle->deps) {
    stale = stale || catalog_.TableVersion(name) != version;
  }
  if (!stale) return qagview::Status::OK();
  bool approximate = false;
  QAG_ASSIGN_OR_RETURN(core::AnswerSet answers,
                       Execute(spec, /*approximate=*/false, &handle->deps, &approximate));
  core::Session::RefreshStats stats;
  {
    Tracer::Scope span(tracer_, "core.session_refresh");
    QAG_RETURN_IF_ERROR(handle->session->Refresh(std::move(answers), &stats));
  }
  ++counts_.refreshes;
  if (!stats.refreshed) ++counts_.refresh_full_reuses;
  return qagview::Status::OK();
}

qagview::Status LayerReplay::Refine(const std::vector<QuerySpec>& queries) {
  if (pending_refine_ < 0) return qagview::Status::OK();
  Handle& handle = handles_[pending_refine_];
  const QuerySpec& spec = queries[static_cast<size_t>(pending_refine_)];
  pending_refine_ = -1;
  Tracer::Scope root(tracer_, "refine");
  bool approximate = false;
  QAG_ASSIGN_OR_RETURN(core::AnswerSet exact,
                       Execute(spec, /*approximate=*/false, &handle.deps, &approximate));
  Tracer::Scope span(tracer_, "core.session_refresh");
  return handle.session->Refresh(std::move(exact));
}

Result<std::string> LayerReplay::Run(const Request& request,
                                     const std::vector<QuerySpec>& queries,
                                     const std::string& body) {
  if (request.kind == OpKind::kAppend) {
    QAG_ASSIGN_OR_RETURN(json::Json doc, json::Json::Parse(body));
    QAG_ASSIGN_OR_RETURN(service::AppendRowsRequest rows,
                         server::AppendRowsRequestFromJson(doc));
    {
      Tracer::Scope span(tracer_, "catalog.append");
      QAG_RETURN_IF_ERROR(catalog_.AppendRows(rows.dataset, rows.rows).status());
    }
    {
      Tracer::Scope span(tracer_, "catalog.append_nosample");
      QAG_RETURN_IF_ERROR(catalog_nosample_.AppendRows(rows.dataset, rows.rows).status());
    }
    counts_.catalog_rows = catalog_.Find(rows.dataset).table->num_rows();
    return std::string();
  }
  const QuerySpec& spec = queries[static_cast<size_t>(request.query)];
  if (request.kind == OpKind::kQuery) {
    if (handles_.count(request.query) > 0) return std::string();  // session reused
    Handle handle;
    bool approximate = false;
    QAG_ASSIGN_OR_RETURN(
        core::AnswerSet answers,
        Execute(spec, spec.mode != service::QueryMode::kExactOnly, &handle.deps, &approximate));
    QAG_ASSIGN_OR_RETURN(handle.session, core::Session::Create(std::move(answers)));
    handles_[request.query] = std::move(handle);
    if (approximate) pending_refine_ = request.query;
    return std::string();
  }
  auto it = handles_.find(request.query);
  if (it == handles_.end()) return qagview::Status::NotFound("query not opened");
  Handle& handle = it->second;
  QAG_RETURN_IF_ERROR(EnsureFresh(spec, &handle));
  core::Session& session = *handle.session;
  const core::Params& params = request.params;
  if (request.kind == OpKind::kRetrieve) {
    Result<core::Solution> solution = qagview::Status::Internal("not run");
    {
      Tracer::Scope span(tracer_, "core.retrieve");
      solution = session.Retrieve(params.L, params.D, params.k);
    }
    QAG_RETURN_IF_ERROR(solution.status());
    return server::ToJson(*solution).Dump();
  }
  Result<std::shared_ptr<const core::ClusterUniverse>> universe =
      qagview::Status::Internal("not built");
  {
    Tracer::Scope span(tracer_, "core.universe_build");
    core::Session::RequestTrace trace;
    universe = session.UniverseFor(params.L, &trace);
    if (universe.ok() && trace.built) {
      ++counts_.universes_built;
      counts_.universe_clusters += (*universe)->num_clusters();
    }
  }
  QAG_RETURN_IF_ERROR(universe.status());
  if (request.kind == OpKind::kGuidance) {
    Tracer::Scope span(tracer_, "core.precompute");
    core::Session::RequestTrace trace;
    QAG_ASSIGN_OR_RETURN(std::shared_ptr<const core::SolutionStore> store,
                         session.Guidance(params.L, core::PrecomputeOptions(), &trace));
    if (trace.built) {
      ++counts_.stores_built;
      counts_.store_intervals += store->num_intervals();
    }
    return std::string();
  }
  Result<core::Solution> solution = qagview::Status::Internal("not run");
  {
    Tracer::Scope span(tracer_, "core.hybrid");
    solution = core::Hybrid::Run(**universe, params);
  }
  QAG_RETURN_IF_ERROR(solution.status());
  if (request.kind == OpKind::kExplore) {
    Tracer::Scope span(tracer_, "core.render");
    core::BuildTwoLayerView(**universe, *solution);
    core::RenderSummary(**universe, *solution);
    core::RenderExpanded(**universe, *solution, service::ExploreRequest().max_members);
  }
  return server::ToJson(*solution).Dump();
}

}  // namespace e2ebench
