// Differential test of the columnar SQL executor (sql/executor.h) against
// the row-at-a-time oracle (sql_oracle.h). Seeded random tables hold
// INT64, DOUBLE and STRING columns with NULLs, NaNs of two payloads, -0.0
// and 0.0, integers beyond 2^53 and dictionaries of 1 to 300 entries;
// statements come from the grammar: WHERE with AND/OR/NOT and arithmetic,
// 0-6 GROUP BY columns, every aggregate kind, HAVING, expressions over
// aggregates, multi-key ORDER BY and LIMIT. Both engines must agree on
// success, output schema, row order and the bits of every cell, and, for
// approximate execution, on column_se and every ApproxExecution field.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sql/executor.h"
#include "sql_oracle.h"
#include "storage/table.h"

namespace qagview::sql {
namespace {

using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

constexpr int64_t k2p53 = int64_t{1} << 53;

const char* const kIntCols[] = {"ia", "ib", "iw"};
const char* const kDoubleCols[] = {"da", "db"};
const char* const kStringCols[] = {"sa", "sb"};
const char* const kAllCols[] = {"ia", "ib", "iw", "da", "db", "sa", "sb"};

Schema MakeSchema() {
  return Schema({{"ia", ValueType::kInt64},
                 {"ib", ValueType::kInt64},
                 {"iw", ValueType::kInt64},
                 {"da", ValueType::kDouble},
                 {"db", ValueType::kDouble},
                 {"sa", ValueType::kString},
                 {"sb", ValueType::kString}});
}

// ia: 0..5; ib: around +-2^53, where doubles lose integers; iw: the whole
// 63-bit range; da: the special doubles; db: arbitrary doubles; sa, sb:
// dictionaries of `dict_a` / `dict_b` entries, "" among them. Every column
// has NULLs.
Table MakeTable(Rng* rng, int64_t rows, int dict_a, int dict_b) {
  const double specials[] = {0.0,  -0.0, std::nan(""), -std::nan("7"),
                             1.5,  -2.25, 3.0,         0.1};
  const int64_t bigs[] = {k2p53, k2p53 + 1, k2p53 + 2, -(k2p53 + 1), -1, 0};
  auto null_or = [rng](Value v) {
    return rng->Bernoulli(0.1) ? Value::Null() : std::move(v);
  };
  auto word = [rng](const char* prefix, int n) {
    const int64_t i = rng->Index(n);
    return i == 0 ? std::string() : prefix + std::to_string(i);
  };
  Table t(MakeSchema());
  for (int64_t r = 0; r < rows; ++r) {
    QAG_CHECK_OK(t.AppendRow(
        {null_or(Value::Int(rng->Uniform(0, 5))),
         null_or(Value::Int(bigs[rng->Index(6)])),
         null_or(Value::Int(rng->Uniform(-(int64_t{1} << 62),
                                         int64_t{1} << 62))),
         null_or(Value::Real(specials[rng->Index(8)])),
         null_or(Value::Real(rng->UniformReal(-100.0, 100.0))),
         null_or(Value::Str(word("a", dict_a))),
         null_or(Value::Str(word("b", dict_b)))}));
  }
  return t;
}

// Random well-typed statements over MakeSchema()'s table "t" (both engines
// reject ill-typed ones, the oracle only by crashing).
class StatementGen {
 public:
  explicit StatementGen(Rng* rng) : rng_(rng) {}

  std::string Statement() {
    items_.clear();
    std::vector<std::string> group;
    const bool grouped = rng_->Bernoulli(0.75);
    if (grouped) {
      std::vector<std::string> cols(std::begin(kAllCols), std::end(kAllCols));
      rng_->Shuffle(&cols);
      group.assign(cols.begin(), cols.begin() + rng_->Uniform(0, 6));
      numeric_group_.clear();
      for (const std::string& g : group) {
        if (g[0] != 's') numeric_group_.push_back(g);
      }
      for (const std::string& g : group) {
        if (rng_->Bernoulli(0.8)) Item(g);
      }
      const int64_t aggs = rng_->Uniform(1, 3);
      for (int64_t i = 0; i < aggs; ++i) {
        Item(rng_->Bernoulli(0.7) ? Agg() : GroupNum(2));
      }
    } else {
      const int64_t n = rng_->Uniform(1, 4);
      for (int64_t i = 0; i < n; ++i) Item(RowValue(2));
    }
    std::string sql = "SELECT ";
    for (size_t i = 0; i < items_.size(); ++i) {
      sql += (i > 0 ? ", " : "") + items_[i] + " AS c" + std::to_string(i);
    }
    sql += " FROM t";
    if (rng_->Bernoulli(0.6)) sql += " WHERE " + Bool(3);
    if (!group.empty()) {
      sql += " GROUP BY ";
      for (size_t i = 0; i < group.size(); ++i) {
        sql += (i > 0 ? ", " : "") + group[i];
      }
    }
    if (grouped && rng_->Bernoulli(0.4)) sql += " HAVING " + GroupBool(2);
    const int64_t keys = rng_->Uniform(0, 3);
    for (int64_t k = 0; k < keys; ++k) {
      sql += (k == 0 ? " ORDER BY c" : ", c") +
             std::to_string(rng_->Index(static_cast<int64_t>(items_.size()))) +
             (rng_->Bernoulli(0.5) ? " DESC" : " ASC");
    }
    if (rng_->Bernoulli(0.4)) sql += " LIMIT " + std::to_string(rng_->Index(25));
    return sql;
  }

 private:
  void Item(std::string e) { items_.push_back(std::move(e)); }

  template <size_t N>
  std::string Pick(const char* const (&options)[N]) {
    return options[rng_->Index(N)];
  }

  std::string Num(int depth) {
    switch (rng_->Index(depth > 0 ? 6 : 3)) {
      case 0:
        return rng_->Bernoulli(0.6) ? Pick(kIntCols) : Pick(kDoubleCols);
      case 1: {
        const char* const ints[] = {"0", "1", "3", "-2", "9007199254740993"};
        return Pick(ints);
      }
      case 2: {
        const char* const reals[] = {"0.5", "2.0", "-1.25", "0.0"};
        return Pick(reals);
      }
      case 3: {
        const char* const ops[] = {" + ", " - ", " * ", " / ", " % "};
        return "(" + Num(depth - 1) + Pick(ops) + Num(depth - 1) + ")";
      }
      case 4:
        return "-(" + Num(depth - 1) + ")";
      default:
        return Pick(kIntCols);
    }
  }

  std::string Str() {
    if (rng_->Bernoulli(0.6)) return Pick(kStringCols);
    const char* const literals[] = {"''", "'a1'", "'a7'", "'b3'", "'zz'"};
    return Pick(literals);
  }

  std::string RowValue(int depth) {
    const int64_t pick = rng_->Index(4);
    return pick == 0 ? Str() : pick == 1 ? Bool(depth) : Num(depth);
  }

  static std::string Cmp(Rng* rng) {
    const char* const ops[] = {" = ", " <> ", " < ", " <= ", " > ", " >= "};
    return ops[rng->Index(6)];
  }

  std::string Bool(int depth) {
    switch (rng_->Index(depth > 0 ? 7 : 3)) {
      case 0:
        return Num(1) + Cmp(rng_) + Num(1);
      case 1:
        return Str() + Cmp(rng_) + Str();
      case 2:
        return Pick(kStringCols);  // truthiness: non-empty
      case 3:
        return "(" + Bool(depth - 1) + " AND " + Bool(depth - 1) + ")";
      case 4:
        return "(" + Bool(depth - 1) + " OR " + Bool(depth - 1) + ")";
      case 5:
        return "NOT (" + Bool(depth - 1) + ")";
      default:
        return Num(1);  // truthiness: non-zero
    }
  }

  std::string Agg() {
    switch (rng_->Index(6)) {
      case 0: return "count(*)";
      case 1: return "count(" + RowValue(1) + ")";
      case 2: return "sum(" + Num(1) + ")";
      case 3: return "avg(" + Num(1) + ")";
      case 4: return "min(" + (rng_->Bernoulli(0.3) ? Str() : Num(1)) + ")";
      default: return "max(" + (rng_->Bernoulli(0.3) ? Str() : Num(1)) + ")";
    }
  }

  // A numeric expression over aggregates, numeric grouping columns and
  // literals.
  std::string GroupNum(int depth) {
    switch (rng_->Index(depth > 0 ? 4 : 2)) {
      case 0: {
        const char* const fns[] = {"count", "sum", "avg", "min", "max"};
        return std::string(Pick(fns)) + "(" + Num(1) + ")";
      }
      case 1:
        if (!numeric_group_.empty() && rng_->Bernoulli(0.4)) {
          return rng_->Choice(numeric_group_);
        }
        return rng_->Bernoulli(0.5) ? "count(*)" : "2";
      case 2: {
        const char* const ops[] = {" + ", " - ", " * ", " / "};
        return "(" + GroupNum(depth - 1) + Pick(ops) + GroupNum(depth - 1) +
               ")";
      }
      default:
        return "-(" + GroupNum(depth - 1) + ")";
    }
  }

  std::string GroupBool(int depth) {
    switch (rng_->Index(depth > 0 ? 4 : 1)) {
      case 0:
        return GroupNum(1) + Cmp(rng_) + GroupNum(1);
      case 1:
        return "(" + GroupBool(depth - 1) + " AND " + GroupBool(depth - 1) +
               ")";
      case 2:
        return "(" + GroupBool(depth - 1) + " OR " + GroupBool(depth - 1) +
               ")";
      default:
        return "NOT (" + GroupBool(depth - 1) + ")";
    }
  }

  Rng* rng_;
  std::vector<std::string> items_;
  std::vector<std::string> numeric_group_;  // of the current statement
};

// Bit equality, except that any two NaNs match: C++ leaves the sign and
// payload of a NaN produced by arithmetic unspecified (x86 returns the first
// operand's NaN, and the compiler may commute a + b), so sum() over a NaN
// and a -NaN differs between two correct builds of the same loop.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0 || (a != a && b != b);
}

void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& sql) {
  ASSERT_EQ(got.schema().ToString(), want.schema().ToString()) << sql;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << sql;
  for (int c = 0; c < got.num_columns(); ++c) {
    for (int64_t r = 0; r < got.num_rows(); ++r) {
      const Value a = got.Get(r, c);
      const Value b = want.Get(r, c);
      ASSERT_EQ(a.type(), b.type()) << sql << " row " << r << " col " << c;
      const bool same =
          a.is_null() ||
          (a.type() == ValueType::kDouble ? SameBits(a.as_double(),
                                                     b.as_double())
           : a.type() == ValueType::kInt64 ? a.as_int() == b.as_int()
                                           : a.as_string() == b.as_string());
      ASSERT_TRUE(same) << sql << " row " << r << " col " << c << ": "
                        << a.ToString() << " vs " << b.ToString();
    }
  }
}

void ExpectSameApprox(const Result<ApproxExecution>& got,
                      const Result<ApproxExecution>& want,
                      const std::string& sql) {
  ASSERT_EQ(got.ok(), want.ok()) << sql << ": " << got.status().ToString()
                                 << " vs " << want.status().ToString();
  if (!got.ok()) return;
  EXPECT_EQ(got->approximate, want->approximate) << sql;
  EXPECT_EQ(got->sample_rows, want->sample_rows) << sql;
  EXPECT_EQ(got->population_rows, want->population_rows) << sql;
  EXPECT_TRUE(SameBits(got->sample_fraction, want->sample_fraction)) << sql;
  ExpectSameTable(got->table, want->table, sql);
  ASSERT_EQ(got->column_se.size(), want->column_se.size()) << sql;
  for (const auto& [name, ses] : want->column_se) {
    auto it = got->column_se.find(name);
    ASSERT_NE(it, got->column_se.end()) << sql << " " << name;
    ASSERT_EQ(it->second.size(), ses.size()) << sql << " " << name;
    for (size_t i = 0; i < ses.size(); ++i) {
      EXPECT_TRUE(SameBits(it->second[i], ses[i]))
          << sql << " " << name << "[" << i << "]: " << it->second[i]
          << " vs " << ses[i];
    }
  }
}

class SqlDifferential : public testing::TestWithParam<uint64_t> {};

TEST_P(SqlDifferential, ExactAndApproximateMatchTheRowOracle) {
  Rng rng(GetParam());
  const int64_t sizes[] = {0, 1, 7, 60, 400, 1500};
  const int64_t rows = sizes[GetParam() % 6];
  const int dict_a = static_cast<int>(rng.Uniform(1, 300));
  const int dict_b = static_cast<int>(rng.Uniform(1, 12));
  Table table = MakeTable(&rng, rows, dict_a, dict_b);
  Table sample = MakeTable(&rng, rows / 4, dict_a, dict_b);
  Catalog catalog;
  catalog.Register("t", &table);
  catalog.RegisterSample("t", &sample, rows);

  StatementGen gen(&rng);
  int ok = 0;
  constexpr int kStatements = 150;
  for (int q = 0; q < kStatements; ++q) {
    const std::string sql = gen.Statement();
    Result<Table> got = ExecuteSql(sql, catalog);
    Result<Table> want = oracle::ExecuteSql(sql, catalog);
    ASSERT_EQ(got.ok(), want.ok()) << sql << ": " << got.status().ToString()
                                   << " vs " << want.status().ToString();
    if (!got.ok()) continue;
    ++ok;
    ExpectSameTable(*got, *want, sql);
    ExpectSameApprox(ExecuteSqlApproximate(sql, catalog),
                     oracle::ExecuteSqlApproximate(sql, catalog), sql);
    if (testing::Test::HasFatalFailure()) return;
  }
  // The generator emits only valid statements: a drop here means the two
  // engines started failing together and the comparison checks nothing.
  EXPECT_EQ(ok, kStatements);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDifferential, testing::Range<uint64_t>(1, 25));

// Six GROUP BY columns whose domains (each up to rows + 1 codes) multiply
// past 64 bits, so the key packed so far is renumbered before the next
// column joins it.
TEST(SqlDifferentialWide, GroupDomainsTooWideForOneKeyCompose) {
  Rng rng(99);
  Schema schema({{"d1", ValueType::kDouble}, {"d2", ValueType::kDouble},
                 {"w1", ValueType::kInt64},  {"w2", ValueType::kInt64},
                 {"d3", ValueType::kDouble}, {"s", ValueType::kString}});
  Table table(schema);
  for (int r = 0; r < 3000; ++r) {
    auto wide = [&rng] {
      return Value::Int(rng.Uniform(-(int64_t{1} << 62), int64_t{1} << 62));
    };
    QAG_CHECK_OK(table.AppendRow(
        {Value::Real(static_cast<double>(rng.Index(40)) / 4),
         Value::Real(rng.UniformReal(0, 1)), wide(),
         Value::Int(rng.Bernoulli(0.5) ? int64_t{1} << 62 : 0),
         Value::Real(rng.UniformReal(0, 1)),
         Value::Str("s" + std::to_string(rng.Index(2000)))}));
  }
  Catalog catalog;
  catalog.Register("t", &table);
  for (const char* sql :
       {"SELECT d1, d2, w1, w2, d3, s, count(*) AS n, sum(d2) AS v FROM t "
        "GROUP BY d1, d2, w1, w2, d3, s ORDER BY v DESC",
        "SELECT d1, w2, s, avg(d3) AS v FROM t GROUP BY d1, w2, s "
        "HAVING count(*) > 0 ORDER BY d1 ASC, v DESC LIMIT 500",
        "SELECT w1, d2, d3, min(s) AS lo, max(d1) AS hi FROM t "
        "GROUP BY w1, d2, d3"}) {
    Result<Table> got = ExecuteSql(sql, catalog);
    Result<Table> want = oracle::ExecuteSql(sql, catalog);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameTable(*got, *want, sql);
  }
}

}  // namespace
}  // namespace qagview::sql
