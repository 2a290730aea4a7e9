#include "server/serde.h"

#include <utility>

#include "common/string_util.h"

namespace qagview::server {

using json::Json;

namespace {

// Both directions walk the Fields() lists of service/api.h; only the leaf
// types (numbers, strings, arrays, enums, table cells) are spelled out here.

const char* QueryModeName(service::QueryMode mode) {
  switch (mode) {
    case service::QueryMode::kExactOnly: return "exact_only";
    case service::QueryMode::kApproxFirst: return "approx_first";
    case service::QueryMode::kApproxOnly: return "approx_only";
  }
  return "exact_only";
}

// --- Writer --------------------------------------------------------------

Json Encode(bool value) { return Json::Bool(value); }
Json Encode(int value) { return Json::Int(value); }
Json Encode(int64_t value) { return Json::Int(value); }
Json Encode(uint64_t value) { return Json::Int(static_cast<int64_t>(value)); }
Json Encode(double value) { return Json::Number(value); }
Json Encode(const std::string& value) { return Json::Str(value); }
Json Encode(service::QueryMode mode) { return Json::Str(QueryModeName(mode)); }

Json Encode(const storage::Value& value) {
  switch (value.type()) {
    case storage::ValueType::kNull: return Json::Null();
    case storage::ValueType::kInt64: return Json::Int(value.as_int());
    case storage::ValueType::kDouble: return Json::Number(value.as_double());
    case storage::ValueType::kString: return Json::Str(value.as_string());
  }
  return Json::Null();
}

template <typename T>
Json Encode(const T& value);

template <typename T>
Json Encode(const std::vector<T>& values) {
  Json out = Json::Array();
  for (const T& value : values) out.Append(Encode(value));
  return out;
}

/// A struct: one member per entry of its field list, in list order.
template <typename T>
Json Encode(const T& value) {
  Json out = Json::Object();
  service::Fields(value, [&out](const char* name, const auto& field,
                                service::Presence = {}) {
    out.Set(name, Encode(field));
  });
  return out;
}

// --- Validating reader ---------------------------------------------------
//
// Read(doc, key, out) parses `doc`, the value of field `key`, into `*out`;
// every failure is InvalidArgument naming the field.

Status Read(const Json& doc, std::string_view key, int64_t* out) {
  if (!doc.is_int()) {
    return Status::InvalidArgument(
        StrCat("field \"", key, "\" must be an integer"));
  }
  *out = doc.AsInt();
  return Status::OK();
}

Status Read(const Json& doc, std::string_view key, int* out) {
  int64_t wide = 0;
  QAG_RETURN_IF_ERROR(Read(doc, key, &wide));
  *out = static_cast<int>(wide);
  return Status::OK();
}

Status Read(const Json& doc, std::string_view key, uint64_t* out) {
  int64_t wide = 0;
  QAG_RETURN_IF_ERROR(Read(doc, key, &wide));
  *out = static_cast<uint64_t>(wide);
  return Status::OK();
}

Status Read(const Json& doc, std::string_view key, double* out) {
  if (!doc.is_number()) {
    return Status::InvalidArgument(
        StrCat("field \"", key, "\" must be a number"));
  }
  *out = doc.AsDouble();
  return Status::OK();
}

Status Read(const Json& doc, std::string_view key, bool* out) {
  if (!doc.is_bool()) {
    return Status::InvalidArgument(
        StrCat("field \"", key, "\" must be a boolean"));
  }
  *out = doc.AsBool();
  return Status::OK();
}

Status Read(const Json& doc, std::string_view key, std::string* out) {
  if (!doc.is_string()) {
    return Status::InvalidArgument(
        StrCat("field \"", key, "\" must be a string"));
  }
  *out = doc.AsString();
  return Status::OK();
}

Status Read(const Json& doc, std::string_view key, service::QueryMode* out) {
  std::string name;
  QAG_RETURN_IF_ERROR(Read(doc, key, &name));
  for (service::QueryMode mode :
       {service::QueryMode::kExactOnly, service::QueryMode::kApproxFirst,
        service::QueryMode::kApproxOnly}) {
    if (name == QueryModeName(mode)) {
      *out = mode;
      return Status::OK();
    }
  }
  return Status::InvalidArgument(StrCat("unknown query mode \"", name, "\""));
}

Status Read(const Json& doc, std::string_view key, std::vector<int>* out) {
  if (!doc.is_array()) {
    return Status::InvalidArgument(
        StrCat("field \"", key, "\" must be an array"));
  }
  out->clear();
  out->reserve(doc.size());
  for (size_t i = 0; i < doc.size(); ++i) {
    if (!doc.at(i).is_int()) {
      return Status::InvalidArgument(
          StrCat("field \"", key, "\" must hold integers"));
    }
    out->push_back(static_cast<int>(doc.at(i).AsInt()));
  }
  return Status::OK();
}

Status Read(const Json& doc, std::string_view key,
            std::vector<std::vector<storage::Value>>* out) {
  const Status not_rows = Status::InvalidArgument(
      StrCat("\"", key, "\" must be an array of arrays"));
  if (!doc.is_array()) return not_rows;
  out->clear();
  for (size_t i = 0; i < doc.size(); ++i) {
    const Json& row = doc.at(i);
    if (!row.is_array()) return not_rows;
    std::vector<storage::Value> cells;
    cells.reserve(row.size());
    for (size_t j = 0; j < row.size(); ++j) {
      const Json& cell = row.at(j);
      if (cell.is_null()) {
        cells.push_back(storage::Value::Null());
      } else if (cell.is_string()) {
        cells.push_back(storage::Value::Str(cell.AsString()));
      } else if (cell.is_int()) {
        cells.push_back(storage::Value::Int(cell.AsInt()));
      } else if (cell.is_number()) {
        cells.push_back(storage::Value::Real(cell.AsDouble()));
      } else {
        return Status::InvalidArgument(
            "row cells must be null, string, or number");
      }
    }
    out->push_back(std::move(cells));
  }
  return Status::OK();
}

template <typename T>
Status Read(const Json& doc, std::string_view key, T* out);

/// An array of structs.
template <typename T>
Status Read(const Json& doc, std::string_view key, std::vector<T>* out) {
  if (!doc.is_array()) {
    return Status::InvalidArgument(StrCat("\"", key, "\" must be an array"));
  }
  out->assign(doc.size(), T());
  for (size_t i = 0; i < doc.size(); ++i) {
    QAG_RETURN_IF_ERROR(Read(doc.at(i), key, &(*out)[i]));
  }
  return Status::OK();
}

/// A struct: every required field must be present; the first failure in
/// list order is the one reported.
template <typename T>
Status Read(const Json& doc, std::string_view /*key*/, T* out) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("expected a JSON object");
  }
  Status status;
  service::Fields(*out, [&](const char* name, auto& field,
                            service::Presence presence = {}) {
    if (!status.ok()) return;
    const Json* member = doc.Find(name);
    if (member == nullptr) {
      if (presence == service::Presence::kRequired) {
        status = Status::InvalidArgument(
            StrCat("missing field \"", name, "\""));
      }
      return;
    }
    status = Read(*member, name, &field);
  });
  return status;
}

template <typename T>
Result<T> Decode(const Json& doc) {
  T out;
  QAG_RETURN_IF_ERROR(Read(doc, "", &out));
  return out;
}

}  // namespace

// Every serde.h pair is one instantiation of the generic writer and
// reader; ServiceStats alone adds its derived requests() total.

#define QAGVIEW_SERDE(Type, FromJsonName)                                 \
  Json ToJson(const Type& value) { return Encode(value); }                \
  Result<Type> FromJsonName(const Json& doc) { return Decode<Type>(doc); }

QAGVIEW_SERDE(service::QueryRequest, QueryRequestFromJson)
QAGVIEW_SERDE(service::SummarizeRequest, SummarizeRequestFromJson)
QAGVIEW_SERDE(service::GuidanceRequest, GuidanceRequestFromJson)
QAGVIEW_SERDE(service::RetrieveRequest, RetrieveRequestFromJson)
QAGVIEW_SERDE(service::ExploreRequest, ExploreRequestFromJson)
QAGVIEW_SERDE(service::RefineRequest, RefineRequestFromJson)
QAGVIEW_SERDE(service::AppendRowsRequest, AppendRowsRequestFromJson)
QAGVIEW_SERDE(service::QueryResponse, QueryResponseFromJson)
QAGVIEW_SERDE(service::SummarizeResponse, SummarizeResponseFromJson)
QAGVIEW_SERDE(service::GuidanceResponse, GuidanceResponseFromJson)
QAGVIEW_SERDE(service::RetrieveResponse, RetrieveResponseFromJson)
QAGVIEW_SERDE(service::ExploreResponse, ExploreResponseFromJson)
QAGVIEW_SERDE(service::RefineResponse, RefineResponseFromJson)
QAGVIEW_SERDE(service::AppendRowsResponse, AppendRowsResponseFromJson)
QAGVIEW_SERDE(service::RequestStats, RequestStatsFromJson)
QAGVIEW_SERDE(service::ApproxMeta, ApproxMetaFromJson)
QAGVIEW_SERDE(core::Params, ParamsFromJson)
QAGVIEW_SERDE(core::Solution, SolutionFromJson)
QAGVIEW_SERDE(core::TwoLayerView, TwoLayerViewFromJson)

#undef QAGVIEW_SERDE

Json ToJson(const service::ServiceStats& stats) {
  Json out = Encode(stats);
  out.Set("requests", Json::Int(stats.requests()));
  return out;
}

Result<service::ServiceStats> ServiceStatsFromJson(const Json& doc) {
  return Decode<service::ServiceStats>(doc);
}

}  // namespace qagview::server
