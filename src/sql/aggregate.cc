#include "sql/aggregate.h"

namespace qagview::sql {

Result<AggKind> AggKindFromName(const std::string& name, bool star) {
  if (name == "count") return star ? AggKind::kCountStar : AggKind::kCount;
  if (star) {
    return Status::ParseError("'*' argument is only valid for count()");
  }
  if (name == "sum") return AggKind::kSum;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  if (name == "max") return AggKind::kMax;
  return Status::ParseError("unknown aggregate function: " + name);
}

}  // namespace qagview::sql
