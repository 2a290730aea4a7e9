// Differential test for storage/csv: the one-pass reader must build exactly
// the table the line-at-a-time oracle (csv_oracle.h) builds — same Status
// code and message on failure; on success the same schema, row count,
// validity, int values, double bits and dictionaries in code order — on
// seeded random CSVs and on a corpus of cells at the edges of type
// inference (padding, '+', -0, hex, nan/inf, out-of-range numbers).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "csv_oracle.h"
#include "storage/csv.h"

namespace qagview::storage {
namespace {

std::vector<uint64_t> DoubleBits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  if (!values.empty()) {
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  }
  return bits;
}

std::vector<std::string> Strings(const Column& column) {
  std::vector<std::string> out;
  if (column.type() != ValueType::kString) return out;
  for (int32_t code = 0; code < column.dictionary().size(); ++code) {
    out.push_back(column.dictionary().GetString(code));
  }
  return out;
}

void ExpectSameTable(const Result<Table>& got, const Result<Table>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << "reader: " << got.status().ToString()
      << "\noracle: " << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ASSERT_EQ(got->num_columns(), want->num_columns());
  ASSERT_EQ(got->num_rows(), want->num_rows());
  for (int c = 0; c < want->num_columns(); ++c) {
    SCOPED_TRACE(StrCat("column ", c));
    EXPECT_EQ(got->schema().field(c).name, want->schema().field(c).name);
    ASSERT_EQ(got->schema().field(c).type, want->schema().field(c).type);
    const Column& a = got->column(c);
    const Column& b = want->column(c);
    EXPECT_EQ(a.valid(), b.valid());
    EXPECT_EQ(a.ints(), b.ints());
    EXPECT_EQ(DoubleBits(a.doubles()), DoubleBits(b.doubles()));
    EXPECT_EQ(a.codes(), b.codes());
    EXPECT_EQ(Strings(a), Strings(b));
  }
}

void ExpectSameAsOracle(const std::string& text, const CsvOptions& options) {
  ExpectSameTable(ReadCsvString(text, options),
                  OracleReadCsvString(text, options));
}

// --- Hand-written corpus -------------------------------------------------

// Cells at the edges of type inference. Each is read as the only cell of a
// column, after an INT64 cell and after a DOUBLE cell, so every one is
// tried as INT64, DOUBLE and STRING.
const char* const kEdgeCells[] = {
    "0", "-0", "-0.0", "0.0", "+1", "+1.5", " 12", "12 ", " 3.5 ", "\t7",
    " ", "  ", "007", "-007.50", "1.", ".5", "-.5", ".", "-", "+", "--1",
    "1.2.3", "1e5", "1E-3", "-1e-5", "0x10", "0x1p3", "nan", "NaN", "-nan",
    "inf", "-inf", "Infinity", "1e-400", "1e400", "-1e400", "4.9e-324",
    "2.2250738585072014e-308", "1.7976931348623157e308",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809", "99999999999999999999", "123456789012345",
    "1234567890123456", "-123456789012345", "0.123456789012345",
    "0.1234567890123456", "999999999999999.9", "0.000000000000001",
    "12345678901234.5", "0.1", "0.2", "0.3", "2.675", "1_000", "1,5", "x",
    "\xc3\xa9"};

TEST(CsvDifferentialTest, EdgeCellsInferLikeTheOracle) {
  for (const char* cell : kEdgeCells) {
    SCOPED_TRACE(StrCat("cell '", cell, "'"));
    const std::string quoted =
        std::strchr(cell, ',') == nullptr ? cell : StrCat("\"", cell, "\"");
    ExpectSameAsOracle(StrCat("a\n", quoted, "\n"), {});
    ExpectSameAsOracle(StrCat("a\n", quoted, "\n\n"), {});
    ExpectSameAsOracle(StrCat("a\n5\n", quoted, "\n"), {});
    ExpectSameAsOracle(StrCat("a\n2.5\n", quoted, "\n-0\n"), {});
    ExpectSameAsOracle(StrCat("a,b\n", quoted, ",", quoted, "\n1,\n"), {});
  }
}

TEST(CsvDifferentialTest, CorpusMatchesTheOracle) {
  const char* const kCorpus[] = {
      "",
      "\n\n\r\n",
      "a,b\n",
      "a,b\r\n",
      "a,b",
      "a,b\n1,2\n3,4\n",
      "a,b\r\n1,2\r\n\r\n3,4",
      "a,b\n\n1,2\n\n\n3,4\n\n",
      "a,b\n\r\n1,2\n",
      "a,b\n1,2\r\r\n",
      "a,b\n1\n",
      "a,b\n1,2,3\n",
      "a,b\n1,2\n1\n\"x\n",
      "a,b\n1\n1,2,3\n",
      "a,b\n\"oops,2\n",
      "\"a,b\n1,2\n",
      "a,b\n\"x\ny\",2\n",
      "a,b\n\"x,y\",2\n",
      "a,b\n\"he said \"\"hi\"\"\",2\n",
      "a,b\n\"x\"tail,2\n",
      "a,b\n\"\",\"\"\n,\n",
      "a,b\n\"1\",\"2.5\"\n3,4\n",
      "a,b\n\"\"\"\",x\n",
      "a,b,\n1,2,\n",
      ",b\n1,2\n",
      "a,a\n1,2\n",
      "a\n,\n",
      "a\n\n\n",
      "a\n1\n\n",
      "a,b\n,\n,\n",
      "a,b\n\xc3\xa9,\xf0\x9f\x99\x82\n",
      "a\r\n\r\r\n",
  };
  for (const char* text : kCorpus) {
    SCOPED_TRACE(StrCat("text '", text, "'"));
    ExpectSameAsOracle(text, {});
    ExpectSameAsOracle(text, {',', /*has_header=*/false});
  }
  // Embedded NUL bytes in a header, a string cell and a number-like cell.
  ExpectSameAsOracle(std::string("a\0b,c\nx\0y,1\0\n", 13), {});
  // Separators that are also quote or line characters.
  ExpectSameAsOracle("a\"b\n1\"2\n", {'"', true});
  ExpectSameAsOracle("a\rb\r\n1\r2\r\n", {'\r', true});
  ExpectSameAsOracle("a;b\n1;2,5\n\"x;y\";3\n", {';', true});
}

// --- Seeded random CSVs --------------------------------------------------

enum class Kind {
  kInt,
  kDouble,
  kString,
  kIntThenDouble,    // INT64 until the last row, then a decimal
  kDoubleThenString, // DOUBLE until the last row, then a word
  kEdge,             // a mix of kEdgeCells
  kEmpty,            // every cell empty
};

std::string RandomWord(Rng& rng, char sep) {
  static const char kAlphabet[] = "abcxyz019 .-+\"";
  std::string word;
  const int64_t length = rng.Uniform(0, 20);
  for (int64_t i = 0; i < length; ++i) {
    word.push_back(kAlphabet[rng.Index(sizeof kAlphabet - 1)]);
  }
  if (rng.Bernoulli(0.05)) word.push_back(sep);
  if (rng.Bernoulli(0.02)) word.push_back('\0');
  if (rng.Bernoulli(0.02)) word.push_back('\r');
  return word;
}

std::string RandomCell(Rng& rng, Kind kind, bool last_row, char sep) {
  if (kind == Kind::kEmpty || rng.Bernoulli(0.08)) return "";
  if (kind == Kind::kIntThenDouble) {
    kind = last_row ? Kind::kDouble : Kind::kInt;
  }
  if (kind == Kind::kDoubleThenString) {
    if (last_row) return "late";
    kind = Kind::kDouble;
  }
  switch (kind) {
    case Kind::kInt: {
      const int64_t magnitude = rng.Bernoulli(0.3)
                                    ? rng.Uniform(0, 100)
                                    : rng.Uniform(0, INT64_MAX);
      const int64_t digits = rng.Uniform(1, 19);
      int64_t v = magnitude;
      for (int64_t d = digits; d < 19 && v > 0; ++d) v /= 10;
      if (rng.Bernoulli(0.5)) v = -v;
      if (rng.Bernoulli(0.01)) return "-0";
      return StrCat(v);
    }
    case Kind::kDouble: {
      const double v = rng.Gaussian(0.0, 1.0) *
                       std::pow(10.0, static_cast<double>(rng.Uniform(-8, 12)));
      char buf[64];
      switch (rng.Index(5)) {
        case 0:
          std::snprintf(buf, sizeof buf, "%.17g", v);
          break;
        case 1:
          std::snprintf(buf, sizeof buf, "%.3f", v);
          break;
        case 2:
          std::snprintf(buf, sizeof buf, "%g", v);
          break;
        case 3:
          std::snprintf(buf, sizeof buf, "%.*f",
                        static_cast<int>(rng.Uniform(0, 16)), v);
          break;
        default:
          return rng.Bernoulli(0.5) ? "-0.0" : "-0";
      }
      return buf;
    }
    case Kind::kString:
      return RandomWord(rng, sep);
    default:
      return kEdgeCells[rng.Index(sizeof kEdgeCells / sizeof kEdgeCells[0])];
  }
}

// Quotes a cell when it must be (separator, quote, leading or trailing CR)
// and sometimes when it need not be.
std::string Encode(const std::string& cell, char sep, Rng& rng) {
  const bool must = cell.find(sep) != std::string::npos ||
                    cell.find('"') != std::string::npos ||
                    cell.find('\r') != std::string::npos;
  if (!must && !rng.Bernoulli(0.05)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

// One random CSV text; most are well-formed, some carry one defect.
std::string RandomCsv(uint64_t seed, CsvOptions* options) {
  Rng rng(seed);
  static const char kSeparators[] = {',', ';', '\t'};
  options->separator = kSeparators[rng.Index(3)];
  options->has_header = !rng.Bernoulli(0.15);
  const char sep = options->separator;
  const int columns = static_cast<int>(rng.Uniform(1, 7));
  const int rows =
      rng.Bernoulli(0.05) ? 0 : static_cast<int>(rng.Uniform(1, 300));
  std::vector<Kind> kinds;
  for (int c = 0; c < columns; ++c) {
    kinds.push_back(static_cast<Kind>(rng.Index(7)));
  }
  const bool crlf = rng.Bernoulli(0.3);
  auto end_line = [&](std::string* text) {
    *text += crlf || rng.Bernoulli(0.05) ? "\r\n" : "\n";
    if (rng.Bernoulli(0.03)) *text += rng.Bernoulli(0.5) ? "\n" : "\r\n";
  };
  std::string text;
  if (options->has_header) {
    for (int c = 0; c < columns; ++c) {
      if (c) text.push_back(sep);
      text += Encode(StrCat("col", c, rng.Bernoulli(0.1) ? " x" : ""), sep,
                     rng);
    }
    end_line(&text);
  }
  // At most one defect per text.
  const int64_t defect = rng.Index(10);  // 0 ragged, 1 unterminated, else none
  const int64_t defect_row = rows > 0 ? rng.Index(rows) : -1;
  for (int r = 0; r < rows; ++r) {
    int width = columns;
    if (defect == 0 && r == defect_row) width += rng.Bernoulli(0.5) ? 1 : -1;
    for (int c = 0; c < width; ++c) {
      if (c) text.push_back(sep);
      const Kind kind = kinds[static_cast<size_t>(std::min(c, columns - 1))];
      text += Encode(RandomCell(rng, kind, r == rows - 1, sep), sep, rng);
    }
    if (defect == 1 && r == defect_row) text += "\"open";
    if (r + 1 < rows || rng.Bernoulli(0.8)) end_line(&text);
  }
  return text;
}

class CsvDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvDifferential, RandomCsvsMatchTheOracle) {
  int parsed = 0;
  for (uint64_t i = 0; i < 40; ++i) {
    const uint64_t seed = GetParam() * 1000 + i;
    CsvOptions options;
    const std::string text = RandomCsv(seed, &options);
    SCOPED_TRACE(StrCat("seed ", seed));
    ExpectSameAsOracle(text, options);
    parsed += OracleReadCsvString(text, options).ok();
  }
  // Both outcomes are exercised: most texts parse, some carry a defect.
  EXPECT_GT(parsed, 20);
  EXPECT_LT(parsed, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvDifferential,
                         ::testing::Range<uint64_t>(0, 12));

TEST(CsvDifferentialTest, FileReaderMatchesTheOracle) {
  const std::string path = ::testing::TempDir() + "csv_differential.csv";
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    CsvOptions options;
    const std::string text = RandomCsv(seed, &options);
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    ExpectSameTable(ReadCsvFile(path, options),
                    OracleReadCsvString(text, options));
  }
  std::remove(path.c_str());
  EXPECT_EQ(ReadCsvFile(path).status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace qagview::storage
