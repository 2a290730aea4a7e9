#ifndef QAGVIEW_SERVER_SERDE_H_
#define QAGVIEW_SERVER_SERDE_H_

#include "common/json.h"
#include "common/result.h"
#include "service/api.h"

/// \file
/// \brief Bidirectional JSON (de)serialization of the service/api.h
/// request/response structs — the server's wire format, shared with the
/// load generator.
///
/// Round-trip fidelity is the contract: ToJson followed by FromJson yields
/// a struct that compares field-for-field (bit-for-bit for doubles, via
/// json::FormatJsonNumber's shortest round-trip form) with the original,
/// which is what lets server_test assert bit-identity between an HTTP
/// response and a direct QueryService call. FromJson validates types and
/// required fields and returns InvalidArgument — never crashes — on
/// hostile documents; unknown fields are ignored (forward compatibility).
/// Field names and their order come from the Fields() lists in
/// service/api.h, which both directions walk.

namespace qagview::server {

// --- Requests (parsed by the server, written by clients) -----------------

json::Json ToJson(const service::QueryRequest& request);
json::Json ToJson(const service::SummarizeRequest& request);
json::Json ToJson(const service::GuidanceRequest& request);
json::Json ToJson(const service::RetrieveRequest& request);
json::Json ToJson(const service::ExploreRequest& request);
json::Json ToJson(const service::RefineRequest& request);
json::Json ToJson(const service::AppendRowsRequest& request);

Result<service::QueryRequest> QueryRequestFromJson(const json::Json& doc);
Result<service::SummarizeRequest> SummarizeRequestFromJson(
    const json::Json& doc);
Result<service::GuidanceRequest> GuidanceRequestFromJson(
    const json::Json& doc);
Result<service::RetrieveRequest> RetrieveRequestFromJson(
    const json::Json& doc);
Result<service::ExploreRequest> ExploreRequestFromJson(const json::Json& doc);
Result<service::RefineRequest> RefineRequestFromJson(const json::Json& doc);
Result<service::AppendRowsRequest> AppendRowsRequestFromJson(
    const json::Json& doc);

// --- Responses (written by the server, parsed by clients/tests) ----------

json::Json ToJson(const service::QueryResponse& response);
json::Json ToJson(const service::SummarizeResponse& response);
json::Json ToJson(const service::GuidanceResponse& response);
json::Json ToJson(const service::RetrieveResponse& response);
json::Json ToJson(const service::ExploreResponse& response);
json::Json ToJson(const service::RefineResponse& response);
json::Json ToJson(const service::AppendRowsResponse& response);
json::Json ToJson(const service::ServiceStats& stats);

Result<service::QueryResponse> QueryResponseFromJson(const json::Json& doc);
Result<service::SummarizeResponse> SummarizeResponseFromJson(
    const json::Json& doc);
Result<service::GuidanceResponse> GuidanceResponseFromJson(
    const json::Json& doc);
Result<service::RetrieveResponse> RetrieveResponseFromJson(
    const json::Json& doc);
Result<service::ExploreResponse> ExploreResponseFromJson(
    const json::Json& doc);
Result<service::RefineResponse> RefineResponseFromJson(const json::Json& doc);
Result<service::AppendRowsResponse> AppendRowsResponseFromJson(
    const json::Json& doc);
Result<service::ServiceStats> ServiceStatsFromJson(const json::Json& doc);

// --- Shared pieces -------------------------------------------------------

json::Json ToJson(const service::RequestStats& stats);
json::Json ToJson(const service::ApproxMeta& meta);
json::Json ToJson(const core::Params& params);
json::Json ToJson(const core::Solution& solution);
json::Json ToJson(const core::TwoLayerView& view);

Result<service::RequestStats> RequestStatsFromJson(const json::Json& doc);
Result<service::ApproxMeta> ApproxMetaFromJson(const json::Json& doc);
Result<core::Params> ParamsFromJson(const json::Json& doc);
Result<core::Solution> SolutionFromJson(const json::Json& doc);
Result<core::TwoLayerView> TwoLayerViewFromJson(const json::Json& doc);

}  // namespace qagview::server

#endif  // QAGVIEW_SERVER_SERDE_H_
