#include "csv_oracle.h"

#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace qagview::storage {

namespace {

// Splits one CSV record, honoring double-quote quoting with "" escapes.
Result<std::vector<std::string>> SplitRecord(const std::string& line,
                                             char sep) {
  std::vector<std::string> cells;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      cells.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quote in: " + line);
  cells.push_back(std::move(cur));
  return cells;
}

}  // namespace

Result<Table> OracleReadCsvString(const std::string& text,
                                  const CsvOptions& options) {
  std::vector<std::vector<std::string>> records;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    QAG_ASSIGN_OR_RETURN(auto cells, SplitRecord(line, options.separator));
    records.push_back(std::move(cells));
  }
  if (records.empty()) return Status::ParseError("empty CSV input");

  std::vector<std::string> names;
  size_t first_data = 0;
  if (options.has_header) {
    names = records[0];
    first_data = 1;
  } else {
    for (size_t i = 0; i < records[0].size(); ++i) {
      names.push_back(StrCat("c", i));
    }
  }
  size_t num_cols = names.size();
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != num_cols) {
      return Status::ParseError(
          StrCat("row ", r, " has ", records[r].size(), " cells, expected ",
                 num_cols));
    }
  }

  // Infer per-column types.
  std::vector<ValueType> types(num_cols, ValueType::kInt64);
  for (size_t c = 0; c < num_cols; ++c) {
    bool all_int = true;
    bool all_num = true;
    bool any_value = false;
    for (size_t r = first_data; r < records.size(); ++r) {
      const std::string& cell = records[r][c];
      if (cell.empty()) continue;
      any_value = true;
      if (all_int && !ParseInt64(cell).ok()) all_int = false;
      if (all_num && !ParseDouble(cell).ok()) all_num = false;
      if (!all_num) break;
    }
    if (!any_value) {
      types[c] = ValueType::kString;
    } else if (all_int) {
      types[c] = ValueType::kInt64;
    } else if (all_num) {
      types[c] = ValueType::kDouble;
    } else {
      types[c] = ValueType::kString;
    }
  }

  std::vector<Field> fields;
  for (size_t c = 0; c < num_cols; ++c) fields.push_back({names[c], types[c]});
  Table table(Schema{std::move(fields)});

  std::vector<Value> row(num_cols);
  for (size_t r = first_data; r < records.size(); ++r) {
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string& cell = records[r][c];
      if (cell.empty()) {
        row[c] = Value::Null();
      } else {
        switch (types[c]) {
          case ValueType::kInt64:
            row[c] = Value::Int(ParseInt64(cell).value());
            break;
          case ValueType::kDouble:
            row[c] = Value::Real(ParseDouble(cell).value());
            break;
          default:
            row[c] = Value::Str(cell);
        }
      }
    }
    QAG_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

}  // namespace qagview::storage
