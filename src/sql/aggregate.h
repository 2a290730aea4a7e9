#ifndef QAGVIEW_SQL_AGGREGATE_H_
#define QAGVIEW_SQL_AGGREGATE_H_

#include <string>

#include "common/result.h"

namespace qagview::sql {

enum class AggKind { kCount, kCountStar, kSum, kAvg, kMin, kMax };

/// Maps a lower-cased function name ("avg", ...) to its kind.
/// `star` selects count(*) over count(expr).
Result<AggKind> AggKindFromName(const std::string& name, bool star);

}  // namespace qagview::sql

#endif  // QAGVIEW_SQL_AGGREGATE_H_
