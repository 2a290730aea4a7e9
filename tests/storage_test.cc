#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "storage/csv.h"
#include "storage/dictionary.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace qagview::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::Str("hi").as_string(), "hi");
  EXPECT_EQ(Value::Bool(true).as_int(), 1);
  EXPECT_EQ(Value::Bool(false).as_int(), 0);
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value::Int(3).ToDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).ToDouble(), 3.5);
  EXPECT_TRUE(Value::Int(1) == Value::Real(1.0));
  EXPECT_FALSE(Value::Int(1) == Value::Real(1.5));
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value::Null().IsTruthy());
  EXPECT_FALSE(Value::Int(0).IsTruthy());
  EXPECT_TRUE(Value::Int(-2).IsTruthy());
  EXPECT_FALSE(Value::Real(0.0).IsTruthy());
  EXPECT_TRUE(Value::Str("x").IsTruthy());
  EXPECT_FALSE(Value::Str("").IsTruthy());
}

TEST(ValueTest, CompareOrdersNumericsAndStrings) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Real(2.0)), 0);
  EXPECT_GT(Value::Real(2.5).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::Str("abc").Compare(Value::Str("abd")), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Real(3.0).ToString(), "3");  // integral double
  EXPECT_EQ(Value::Str("abc").ToString(), "abc");
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema schema({{"Alpha", ValueType::kInt64}, {"beta", ValueType::kString}});
  EXPECT_EQ(schema.num_fields(), 2);
  EXPECT_EQ(schema.FindField("alpha"), 0);
  EXPECT_EQ(schema.FindField("BETA"), 1);
  EXPECT_EQ(schema.FindField("gamma"), -1);
  EXPECT_TRUE(schema.GetFieldIndex("beta").ok());
  EXPECT_FALSE(schema.GetFieldIndex("gamma").ok());
}

TEST(DictionaryTest, InternsAndRoundTrips) {
  Dictionary dict;
  int32_t a = dict.Intern("apple");
  int32_t b = dict.Intern("banana");
  EXPECT_EQ(dict.Intern("apple"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2);
  EXPECT_EQ(dict.GetString(a), "apple");
  EXPECT_EQ(dict.GetString(b), "banana");
  EXPECT_EQ(dict.Find("banana").value_or(-1), b);
  EXPECT_FALSE(dict.Find("cherry").has_value());
}

TEST(DictionaryTest, MatchesAMapReferenceOnManyStrings) {
  // 100k interns over ~20k distinct strings: the empty string, lengths 15
  // and 16 (either side of the short-string buffer), embedded NULs and
  // strings that differ only after one. Codes are first-seen order.
  Rng rng(5);
  auto draw = [&rng] {
    const int64_t id = rng.Index(20000);
    switch (id % 5) {
      case 0:
        return std::string();
      case 1:
        return StrCat("k", std::string(14 - StrCat(id).size(), 'x'), id);
      case 2:
        return StrCat("k", std::string(15 - StrCat(id).size(), 'y'), id);
      case 3:
        return StrCat(std::string("n\0", 2), id, std::string(1, '\0'));
      default:
        return StrCat("long string number ", id, std::string(id % 40, 'z'));
    }
  };
  Dictionary dict;
  std::map<std::string, int32_t> reference;
  for (int i = 0; i < 100000; ++i) {
    const std::string s = draw();
    auto [it, inserted] =
        reference.emplace(s, static_cast<int32_t>(reference.size()));
    ASSERT_EQ(dict.Intern(s), it->second) << "intern " << i;
  }
  ASSERT_EQ(dict.size(), static_cast<int32_t>(reference.size()));
  EXPECT_GT(reference.size(), 10000u);
  for (const auto& [s, code] : reference) {
    EXPECT_EQ(dict.GetString(code), s);
    EXPECT_EQ(dict.Find(s).value_or(-1), code);
    // Near misses: one byte longer, or cut before a trailing NUL.
    EXPECT_FALSE(dict.Find(s + '\0').has_value());
    if (!s.empty() && reference.count(s.substr(0, s.size() - 1)) == 0) {
      EXPECT_FALSE(dict.Find(s.substr(0, s.size() - 1)).has_value());
    }
  }
  // A copy interns independently of its source.
  Dictionary copy = dict;
  EXPECT_EQ(copy.Intern("only in the copy"), dict.size());
  EXPECT_FALSE(dict.Find("only in the copy").has_value());
  EXPECT_EQ(copy.Find("").value_or(-1), dict.Find("").value_or(-2));
}

TEST(ColumnTest, TypedStorageAndNulls) {
  Column col(ValueType::kString);
  col.AppendString("x");
  col.AppendNull();
  col.AppendString("x");
  col.AppendString("y");
  EXPECT_EQ(col.size(), 4);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetString(0), "x");
  EXPECT_EQ(col.GetStringCode(0), col.GetStringCode(2));
  EXPECT_NE(col.GetStringCode(0), col.GetStringCode(3));
  EXPECT_EQ(col.dictionary().size(), 2);
  EXPECT_TRUE(col.Get(1).is_null());
}

TEST(ColumnTest, IntIntoDoubleColumn) {
  Column col(ValueType::kDouble);
  col.Append(Value::Int(3));
  col.Append(Value::Real(1.5));
  EXPECT_DOUBLE_EQ(col.GetDouble(0), 3.0);
  EXPECT_DOUBLE_EQ(col.GetDouble(1), 1.5);
}

Table MakeSmallTable() {
  Schema schema({{"name", ValueType::kString},
                 {"age", ValueType::kInt64},
                 {"score", ValueType::kDouble}});
  Table t(schema);
  QAG_CHECK_OK(t.AppendRow({Value::Str("ann"), Value::Int(30), Value::Real(3.5)}));
  QAG_CHECK_OK(t.AppendRow({Value::Str("bob"), Value::Int(25), Value::Real(4.0)}));
  QAG_CHECK_OK(t.AppendRow({Value::Str("cat"), Value::Null(), Value::Real(2.0)}));
  return t;
}

TEST(TableTest, AppendAndGet) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.Get(0, 0).as_string(), "ann");
  EXPECT_EQ(t.Get(1, 1).as_int(), 25);
  EXPECT_TRUE(t.Get(2, 1).is_null());
  std::vector<Value> row = t.GetRow(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].as_string(), "bob");
}

TEST(TableTest, AppendRowValidation) {
  Table t = MakeSmallTable();
  EXPECT_FALSE(t.AppendRow({Value::Str("x")}).ok());  // arity
  EXPECT_FALSE(
      t.AppendRow({Value::Int(1), Value::Int(2), Value::Real(3.0)}).ok());
  EXPECT_EQ(t.num_rows(), 3);  // failed appends change nothing
}

TEST(TableTest, ToStringRendersHeader) {
  Table t = MakeSmallTable();
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("ann"), std::string::npos);
}

TEST(CsvTest, ParseWithTypeInference) {
  auto table = ReadCsvString("a,b,c\n1,2.5,x\n2,3,y\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_EQ(table->schema().field(0).type, ValueType::kInt64);
  EXPECT_EQ(table->schema().field(1).type, ValueType::kDouble);
  EXPECT_EQ(table->schema().field(2).type, ValueType::kString);
  EXPECT_EQ(table->Get(1, 2).as_string(), "y");
}

TEST(CsvTest, EmptyCellsBecomeNull) {
  auto table = ReadCsvString("a,b\n1,\n,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->Get(0, 1).is_null());
  EXPECT_TRUE(table->Get(1, 0).is_null());
  EXPECT_EQ(table->Get(1, 1).as_int(), 2);
}

TEST(CsvTest, QuotedCells) {
  auto table = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->Get(0, 0).as_string(), "x,y");
  EXPECT_EQ(table->Get(0, 1).as_string(), "he said \"hi\"");
}

TEST(CsvTest, NoHeaderMode) {
  CsvOptions options;
  options.has_header = false;
  auto table = ReadCsvString("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().field(0).name, "c0");
  EXPECT_EQ(table->num_rows(), 2);
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());          // ragged row
  EXPECT_FALSE(ReadCsvString("a\n\"unterminated\n").ok());
}

TEST(CsvTest, RoundTrip) {
  Table t = MakeSmallTable();
  std::string text = WriteCsvString(t);
  auto parsed = ReadCsvString(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), t.num_rows());
  EXPECT_EQ(parsed->Get(0, 0).as_string(), "ann");
  EXPECT_TRUE(parsed->Get(2, 1).is_null());
  EXPECT_DOUBLE_EQ(parsed->Get(1, 2).ToDouble(), 4.0);
}

TEST(CsvTest, FileRoundTrip) {
  Table t = MakeSmallTable();
  std::string path = testing::TempDir() + "/qagview_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto parsed = ReadCsvFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 3);
  EXPECT_FALSE(ReadCsvFile("/nonexistent/nope.csv").ok());
}

}  // namespace
}  // namespace qagview::storage
