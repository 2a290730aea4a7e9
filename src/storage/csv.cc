#include "storage/csv.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>
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

// Fills `column` (INT64 or DOUBLE) with `cells`; false at the first present
// cell that `parse` rejects.
template <typename T>
bool FillNumeric(const std::vector<std::string_view>& cells,
                 Result<T> (*parse)(std::string_view), Column* column) {
  for (std::string_view cell : cells) {
    if (cell.empty()) {
      column->AppendNull();
      continue;
    }
    const Result<T> v = parse(cell);
    if (!v.ok()) return false;
    if constexpr (std::is_same_v<T, int64_t>) {
      column->AppendInt(*v);
    } else {
      column->AppendDouble(*v);
    }
  }
  return true;
}

// One column's cells as the narrowest type that holds them all (csv.h).
Column BuildColumn(const std::vector<std::string_view>& cells) {
  if (std::any_of(cells.begin(), cells.end(),
                  [](std::string_view cell) { return !cell.empty(); })) {
    Column ints(ValueType::kInt64);
    if (FillNumeric(cells, ParseInt64, &ints)) return ints;
    Column doubles(ValueType::kDouble);
    if (FillNumeric(cells, ParseDouble, &doubles)) return doubles;
  }
  Column strings(ValueType::kString);
  for (std::string_view cell : cells) {
    if (cell.empty()) {
      strings.AppendNull();
    } else {
      strings.AppendString(cell);
    }
  }
  return strings;
}

bool NeedsQuoting(const std::string& s, char sep) {
  return s.find(sep) != std::string::npos ||
         s.find('"') != std::string::npos || s.find('\n') != std::string::npos;
}

std::string QuoteCell(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  const char sep = options.separator;
  std::vector<std::string> names;
  std::vector<std::vector<std::string_view>> columns;  // data cells
  std::deque<std::string> unquoted;  // owns the cells of quoted lines
  std::vector<std::string_view> record;
  size_t num_records = 0;  // header included
  Status ragged;  // the first row of the wrong width
  const std::string_view all(text);
  for (size_t pos = 0; pos < all.size();) {
    size_t eol = all.find('\n', pos);
    if (eol == std::string_view::npos) eol = all.size();
    std::string_view line = all.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    record.clear();
    if (line.find('"') == std::string_view::npos) {
      for (size_t begin = 0;;) {
        const size_t end = line.find(sep, begin);
        record.push_back(line.substr(begin, end - begin));
        if (end == std::string_view::npos) break;
        begin = end + 1;
      }
    } else {
      QAG_ASSIGN_OR_RETURN(std::vector<std::string> cells,
                           SplitRecord(std::string(line), sep));
      for (std::string& cell : cells) {
        record.push_back(unquoted.emplace_back(std::move(cell)));
      }
    }
    const size_t r = num_records++;
    if (r == 0) {
      for (size_t c = 0; c < record.size(); ++c) {
        names.push_back(options.has_header ? std::string(record[c])
                                           : StrCat("c", c));
      }
      // Reserve every column's cells: at most one row per line left, and a
      // row of n cells takes n bytes, so this never outgrows the input.
      columns.resize(names.size());
      const std::string_view rest = all.substr(eol);
      const size_t rows = std::min(
          static_cast<size_t>(std::count(rest.begin(), rest.end(), '\n')) + 1,
          rest.size() / names.size() + 1);
      for (std::vector<std::string_view>& cells : columns) cells.reserve(rows);
      if (options.has_header) continue;
    }
    if (record.size() != names.size()) {
      if (ragged.ok()) {
        ragged = Status::ParseError(StrCat("row ", r, " has ", record.size(),
                                           " cells, expected ", names.size()));
      }
      continue;
    }
    for (size_t c = 0; c < record.size(); ++c) {
      columns[c].push_back(record[c]);
    }
  }
  if (num_records == 0) return Status::ParseError("empty CSV input");
  QAG_RETURN_IF_ERROR(ragged);

  std::vector<Field> fields;
  std::vector<Column> built;
  for (size_t c = 0; c < names.size(); ++c) {
    built.push_back(BuildColumn(columns[c]));
    fields.push_back({std::move(names[c]), built.back().type()});
    columns[c] = {};  // release the cell views as soon as they are parsed
  }
  return Table(Schema(std::move(fields)), std::move(built));
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file: " + path);
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  return ReadCsvString(text, options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::ostringstream out;
  const Schema& schema = table.schema();
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (c) out << options.separator;
    out << schema.field(c).name;
  }
  out << "\n";
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c) out << options.separator;
      Value v = table.Get(r, c);
      if (v.is_null()) continue;
      std::string s = v.ToString();
      out << (NeedsQuoting(s, options.separator) ? QuoteCell(s) : s);
    }
    out << "\n";
  }
  return out.str();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open file for write: " + path);
  out << WriteCsvString(table, options);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace qagview::storage
