#ifndef QAGVIEW_STORAGE_CSV_H_
#define QAGVIEW_STORAGE_CSV_H_

#include <string>

#include "common/result.h"
#include "storage/table.h"

namespace qagview::storage {

struct CsvOptions {
  char separator = ',';
  /// First row holds column names; when false, columns are named c0, c1, ...
  bool has_header = true;
};

/// \brief Parses CSV text into a Table, inferring column types.
///
/// Records are split on '\n'; one trailing '\r' is dropped, and lines left
/// empty are skipped. A line containing '"' honours double-quote quoting
/// with "" as an escaped quote; a quoted cell cannot span lines. Every row
/// must have as many cells as the first record, or the read fails with the
/// first such row (counted from 0, header included), unless a line with an
/// unterminated quote fails it first.
///
/// Type inference looks at every cell of a column. A cell that is exactly
/// empty is NULL and does not vote. The column is
///   - INT64 if every other cell parses with ParseInt64 (strtoll, base 10);
///   - else DOUBLE if every other cell parses with ParseDouble (strtod);
///   - else, or when every cell is empty, STRING (dictionary-encoded, codes
///     in first-seen order).
/// Both parsers ignore surrounding whitespace and reject out-of-range
/// values. So " 7" and "+1" are integers; "0x1p3", "nan", "inf", "1e5" and
/// integers beyond the int64 range are only doubles; " " (whitespace only),
/// "1e400" and "1e-400" (overflow, underflow) are neither. "-0" is 0 in an
/// INT64 column and -0.0 in a DOUBLE one.
Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options = {});

/// Reads and parses a CSV file.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serializes a table as CSV (header + rows). NULLs are written as empty
/// cells; cells containing the separator, quotes, or newlines are quoted.
std::string WriteCsvString(const Table& table, const CsvOptions& options = {});

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

}  // namespace qagview::storage

#endif  // QAGVIEW_STORAGE_CSV_H_
