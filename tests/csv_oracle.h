#ifndef QAGVIEW_TESTS_CSV_ORACLE_H_
#define QAGVIEW_TESTS_CSV_ORACLE_H_

// The line-at-a-time CSV reader: every line becomes a vector of
// std::string cells, every cell is parsed with ParseInt64/ParseDouble, and
// the table is built from boxed storage::Value rows. It is the reference
// the one-pass reader (storage/csv.h) is checked against; nothing in the
// library calls it. Its semantics are the reader's by definition: same
// types, NULLs and double bits, dictionary codes in first-seen order, and
// the same error Status and message.

#include <string>

#include "common/result.h"
#include "storage/csv.h"
#include "storage/table.h"

namespace qagview::storage {

Result<Table> OracleReadCsvString(const std::string& text,
                                  const CsvOptions& options = {});

}  // namespace qagview::storage

#endif  // QAGVIEW_TESTS_CSV_ORACLE_H_
