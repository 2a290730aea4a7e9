#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

// Spans recorded from outside the program, around calls into each layer's
// public functions, and the two in-process replays that make them: the
// service replay (serde decode -> QueryService struct API -> serde encode)
// and the layer replay (catalog -> sql -> core, in the order QueryService
// runs them).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/session.h"
#include "inputs.h"
#include "service/catalog.h"
#include "service/query_service.h"

namespace e2ebench {

/// In-memory span recorder. Spans nest by scope; each carries its parent's
/// position and the id of the request (root) it belongs to. A disabled
/// tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    int64_t request = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span for its lifetime.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  /// Starts a new request: the next root span gets this id.
  void SetRequest(int64_t id) { request_ = id; }

  /// Per span name, the summed self time (duration minus the union of its
  /// children's intervals) and the number of spans, over the spans whose
  /// root is named `root`.
  struct SelfTime {
    double total_ms = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes(const std::string& root) const;

  /// Writes every span as one JSON array.
  qagview::Status Write(const std::string& path) const;

 private:
  const bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t request_ = -1;
};

/// Calls the QueryService struct API for `kind` with the request decoded
/// from `body` (server::*RequestFromJson, as the HTTP layer does) and
/// returns the serialized response. With a tracer, records server.decode,
/// service.<op> and server.encode spans.
Result<qagview::json::Json> ServiceCall(qagview::service::QueryService* service, OpKind kind,
                                        const std::string& body, Tracer* tracer = nullptr,
                                        size_t* response_bytes = nullptr);

/// Registers the seed's datasets the way qagview_server --dataset does.
qagview::Status RegisterDatasets(qagview::service::QueryService* service,
                                 const std::string& input_dir);

/// Counters the layer replay collects where the work happens.
struct LayerCounts {
  int64_t sql_executions = 0;
  int64_t sql_input_rows = 0;
  int64_t sql_answer_rows = 0;
  int64_t universes_built = 0;
  int64_t universe_clusters = 0;
  int64_t stores_built = 0;
  int64_t store_intervals = 0;
  int64_t refreshes = 0;
  int64_t refresh_full_reuses = 0;
  int64_t catalog_rows = 0;
};

/// Replays requests through the layers' public functions in the order
/// QueryService runs them: DatasetCatalog snapshot, ExecuteSql(Approximate),
/// AnswerSet::FromTable(Approximate), core::Session (UniverseFor, Guidance,
/// Retrieve, Refresh), Hybrid::Run, BuildTwoLayerView/Render*.
class LayerReplay {
 public:
  explicit LayerReplay(Tracer* tracer);

  /// storage.csv_read, catalog.register (which builds the sample) and
  /// catalog.register_nosample (the same table on the sample-less twin),
  /// per dataset.
  qagview::Status Load(const std::string& input_dir);

  /// Replays one request. For summarize/explore/retrieve, returns the
  /// serialized Solution, to be compared with the service's answer.
  Result<std::string> Run(const Request& request, const std::vector<QuerySpec>& queries,
                          const std::string& body);

  /// The refinement-lane work an approximate query left behind (exact
  /// execution, then Session::Refresh), in a root span "refine" of its
  /// own; the service replay drains its scheduler at the same point.
  qagview::Status Refine(const std::vector<QuerySpec>& queries);

  const LayerCounts& counts() const { return counts_; }

 private:
  struct Handle {
    std::unique_ptr<qagview::core::Session> session;
    std::map<std::string, uint64_t> deps;
  };
  Result<qagview::core::AnswerSet> Execute(const QuerySpec& spec, bool approximate,
                                           std::map<std::string, uint64_t>* deps,
                                           bool* got_approximate);
  qagview::Status EnsureFresh(const QuerySpec& spec, Handle* handle);

  Tracer* const tracer_;
  qagview::service::DatasetCatalog catalog_;
  /// Twin without samples: what a registration or an append costs when
  /// nothing is sampled.
  qagview::service::DatasetCatalog catalog_nosample_;
  std::map<int, Handle> handles_;
  int pending_refine_ = -1;
  LayerCounts counts_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
