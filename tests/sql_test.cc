#include <string>

#include <gtest/gtest.h>

#include "sql/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql_oracle.h"
#include "storage/table.h"

namespace qagview::sql {
namespace {

using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

TEST(LexerTest, TokenizesOperatorsAndLiterals) {
  auto tokens = Lexer("select a, b1 from t where x >= 1.5 and y <> 'it''s'")
                    .Tokenize();
  ASSERT_TRUE(tokens.ok());
  // select a , b1 from t where x >= 1.5 and y <> 'it's' <end>
  EXPECT_EQ(tokens->size(), 15u);
  EXPECT_EQ((*tokens)[0].text, "select");
  EXPECT_EQ((*tokens)[2].type, TokenType::kComma);
  EXPECT_EQ((*tokens)[8].type, TokenType::kGe);
  EXPECT_EQ((*tokens)[9].type, TokenType::kReal);
  EXPECT_DOUBLE_EQ((*tokens)[9].real_value, 1.5);
  EXPECT_EQ((*tokens)[12].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[13].text, "it's");
}

TEST(LexerTest, CommentsAndErrors) {
  auto tokens = Lexer("a -- comment\n b").Tokenize();
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 3u);  // a b <end>
  EXPECT_FALSE(Lexer("'unterminated").Tokenize().ok());
  EXPECT_FALSE(Lexer("a ! b").Tokenize().ok());
  EXPECT_FALSE(Lexer("a # b").Tokenize().ok());
}

TEST(ParserTest, ParsesAggregateTemplate) {
  auto stmt = Parser::ParseSelect(
      "SELECT hdec, agegrp, avg(rating) AS val FROM r "
      "WHERE genres_adventure = 1 GROUP BY hdec, agegrp "
      "HAVING count(*) > 50 ORDER BY val DESC LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items.size(), 3u);
  EXPECT_EQ(stmt->items[2].alias, "val");
  EXPECT_EQ(stmt->items[2].expr->ToString(), "avg(rating)");
  EXPECT_EQ(stmt->table_name, "r");
  ASSERT_TRUE(stmt->where != nullptr);
  EXPECT_EQ(stmt->group_by.size(), 2u);
  ASSERT_TRUE(stmt->having != nullptr);
  EXPECT_EQ(stmt->having->ToString(), "(count(*) > 50)");
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_TRUE(stmt->order_by[0].descending);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(ParserTest, PrecedenceAndParens) {
  auto e = Parser::ParseExpression("1 + 2 * 3 = 7 and not x or y");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "((((1 + (2 * 3)) = 7) AND NOT (x)) OR y)");
  auto e2 = Parser::ParseExpression("(1 + 2) * 3");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e2)->ToString(), "((1 + 2) * 3)");
  auto e3 = Parser::ParseExpression("-x + 4");
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ((*e3)->ToString(), "(-(x) + 4)");
}

TEST(ParserTest, ImplicitAlias) {
  auto stmt = Parser::ParseSelect("SELECT avg(x) v FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].alias, "v");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parser::ParseSelect("FROM t").ok());
  EXPECT_FALSE(Parser::ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(Parser::ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parser::ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(Parser::ParseSelect("SELECT a FROM t extra garbage (").ok());
  EXPECT_FALSE(Parser::ParseExpression("1 +").ok());
  EXPECT_FALSE(Parser::ParseExpression("f(1,").ok());
}

TEST(AggregatorTest, AllKinds) {
  Aggregator count(AggKind::kCount);
  Aggregator sum(AggKind::kSum);
  Aggregator avg(AggKind::kAvg);
  Aggregator min(AggKind::kMin);
  Aggregator max(AggKind::kMax);
  for (int v : {3, 1, 2}) {
    Value val = Value::Int(v);
    count.Add(val);
    sum.Add(val);
    avg.Add(val);
    min.Add(val);
    max.Add(val);
  }
  Value null = Value::Null();
  count.Add(null);  // NULLs skipped
  sum.Add(null);
  EXPECT_EQ(count.Finish().as_int(), 3);
  EXPECT_DOUBLE_EQ(sum.Finish().as_double(), 6.0);
  EXPECT_DOUBLE_EQ(avg.Finish().as_double(), 2.0);
  EXPECT_EQ(min.Finish().as_int(), 1);
  EXPECT_EQ(max.Finish().as_int(), 3);
}

TEST(AggregatorTest, EmptyInputs) {
  EXPECT_EQ(Aggregator(AggKind::kCount).Finish().as_int(), 0);
  EXPECT_TRUE(Aggregator(AggKind::kSum).Finish().is_null());
  EXPECT_TRUE(Aggregator(AggKind::kAvg).Finish().is_null());
  EXPECT_TRUE(Aggregator(AggKind::kMin).Finish().is_null());
}

TEST(AggregatorTest, NameLookup) {
  EXPECT_EQ(AggKindFromName("avg", false).value(), AggKind::kAvg);
  EXPECT_EQ(AggKindFromName("count", true).value(), AggKind::kCountStar);
  EXPECT_FALSE(AggKindFromName("median", false).ok());
  EXPECT_FALSE(AggKindFromName("sum", true).ok());  // sum(*) invalid
}

// --- Expression evaluation. ---

Table MakeExprTable() {
  Schema schema({{"x", ValueType::kInt64},
                 {"y", ValueType::kDouble},
                 {"s", ValueType::kString}});
  Table t(schema);
  QAG_CHECK_OK(t.AppendRow({Value::Int(4), Value::Real(2.0), Value::Str("a")}));
  QAG_CHECK_OK(t.AppendRow({Value::Null(), Value::Real(1.0), Value::Str("b")}));
  return t;
}

Value EvalOnRow(const std::string& text, const Table& t, int64_t row) {
  auto expr = Parser::ParseExpression(text);
  QAG_CHECK(expr.ok()) << expr.status().ToString();
  auto compiled = CompiledExpr::Compile(**expr, t.schema());
  QAG_CHECK(compiled.ok()) << compiled.status().ToString();
  return compiled->Eval(t, row);
}

TEST(ExprTest, Arithmetic) {
  Table t = MakeExprTable();
  EXPECT_EQ(EvalOnRow("x + 1", t, 0).as_int(), 5);
  EXPECT_DOUBLE_EQ(EvalOnRow("x * y", t, 0).as_double(), 8.0);
  EXPECT_DOUBLE_EQ(EvalOnRow("x / 8", t, 0).as_double(), 0.5);
  EXPECT_EQ(EvalOnRow("x % 3", t, 0).as_int(), 1);
  EXPECT_TRUE(EvalOnRow("x / 0", t, 0).is_null());  // SQL div-by-zero
  EXPECT_EQ(EvalOnRow("-x", t, 0).as_int(), -4);
}

TEST(ExprTest, NullPropagation) {
  Table t = MakeExprTable();
  EXPECT_TRUE(EvalOnRow("x + 1", t, 1).is_null());
  EXPECT_TRUE(EvalOnRow("x = 4", t, 1).is_null());
  EXPECT_TRUE(EvalOnRow("not (x = 4)", t, 1).is_null());
}

TEST(ExprTest, ThreeValuedLogic) {
  Table t = MakeExprTable();
  // Row 1 has x NULL: unknown AND false = false; unknown OR true = true.
  EXPECT_EQ(EvalOnRow("x = 4 and y > 100", t, 1).as_int(), 0);
  EXPECT_EQ(EvalOnRow("x = 4 or y > 0", t, 1).as_int(), 1);
  EXPECT_TRUE(EvalOnRow("x = 4 and y > 0", t, 1).is_null());
  EXPECT_TRUE(EvalOnRow("x = 4 or y > 100", t, 1).is_null());
}

TEST(ExprTest, Comparisons) {
  Table t = MakeExprTable();
  EXPECT_EQ(EvalOnRow("x >= 4", t, 0).as_int(), 1);
  EXPECT_EQ(EvalOnRow("x != 4", t, 0).as_int(), 0);
  EXPECT_EQ(EvalOnRow("s = 'a'", t, 0).as_int(), 1);
  EXPECT_EQ(EvalOnRow("s < 'b'", t, 0).as_int(), 1);
  EXPECT_EQ(EvalOnRow("y = 2", t, 0).as_int(), 1);  // double vs int
}

TEST(ExprTest, CompileErrors) {
  Table t = MakeExprTable();
  auto bad_col = Parser::ParseExpression("nope + 1");
  ASSERT_TRUE(bad_col.ok());
  EXPECT_FALSE(CompiledExpr::Compile(**bad_col, t.schema()).ok());
  auto call = Parser::ParseExpression("avg(x)");
  ASSERT_TRUE(call.ok());
  EXPECT_FALSE(CompiledExpr::Compile(**call, t.schema()).ok());
}

// --- Executor. ---

Table MakeRatings() {
  Schema schema({{"genre", ValueType::kString},
                 {"gender", ValueType::kString},
                 {"rating", ValueType::kDouble}});
  Table t(schema);
  auto add = [&t](const char* g, const char* s, double r) {
    QAG_CHECK_OK(t.AppendRow({Value::Str(g), Value::Str(s), Value::Real(r)}));
  };
  add("adventure", "M", 4.0);
  add("adventure", "M", 5.0);
  add("adventure", "F", 3.0);
  add("comedy", "M", 2.0);
  add("comedy", "F", 4.0);
  add("comedy", "F", 5.0);
  return t;
}

TEST(ExecutorTest, GroupByWithAggregatesAndOrder) {
  Table t = MakeRatings();
  Catalog catalog;
  catalog.Register("r", &t);
  auto result = ExecuteSql(
      "SELECT genre, gender, avg(rating) AS val, count(*) AS n FROM r "
      "GROUP BY genre, gender ORDER BY val DESC",
      catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 4);
  // Top group: (adventure, M) with avg 4.5.
  EXPECT_EQ(result->Get(0, 0).as_string(), "adventure");
  EXPECT_EQ(result->Get(0, 1).as_string(), "M");
  EXPECT_DOUBLE_EQ(result->Get(0, 2).ToDouble(), 4.5);
  EXPECT_EQ(result->Get(0, 3).as_int(), 2);
  // Bottom group: (comedy, M) with avg 2.
  EXPECT_DOUBLE_EQ(result->Get(3, 2).ToDouble(), 2.0);
}

TEST(ExecutorTest, WhereAndHaving) {
  Table t = MakeRatings();
  Catalog catalog;
  catalog.Register("r", &t);
  auto result = ExecuteSql(
      "SELECT gender, avg(rating) AS val FROM r WHERE genre = 'comedy' "
      "GROUP BY gender HAVING count(*) >= 2 ORDER BY val DESC",
      catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1);  // only F has 2 comedy ratings
  EXPECT_EQ(result->Get(0, 0).as_string(), "F");
  EXPECT_DOUBLE_EQ(result->Get(0, 1).ToDouble(), 4.5);
}

TEST(ExecutorTest, GlobalAggregateWithoutGroupBy) {
  Table t = MakeRatings();
  Catalog catalog;
  catalog.Register("r", &t);
  auto result = ExecuteSql("SELECT count(*) AS n, max(rating) FROM r", catalog);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->Get(0, 0).as_int(), 6);
  EXPECT_DOUBLE_EQ(result->Get(0, 1).ToDouble(), 5.0);
}

TEST(ExecutorTest, PlainProjectionWithLimit) {
  Table t = MakeRatings();
  Catalog catalog;
  catalog.Register("r", &t);
  auto result = ExecuteSql(
      "SELECT genre, rating * 2 AS dbl FROM r ORDER BY dbl DESC LIMIT 2",
      catalog);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2);
  EXPECT_DOUBLE_EQ(result->Get(0, 1).ToDouble(), 10.0);
}

TEST(ExecutorTest, ExpressionOverAggregates) {
  Table t = MakeRatings();
  Catalog catalog;
  catalog.Register("r", &t);
  auto result = ExecuteSql(
      "SELECT genre, sum(rating) / count(rating) AS manual_avg FROM r "
      "GROUP BY genre ORDER BY genre",
      catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2);
  EXPECT_DOUBLE_EQ(result->Get(0, 1).ToDouble(), 4.0);  // adventure
}

TEST(ExecutorTest, Errors) {
  Table t = MakeRatings();
  Catalog catalog;
  catalog.Register("r", &t);
  EXPECT_FALSE(ExecuteSql("SELECT a FROM missing", catalog).ok());
  // Non-grouped bare column.
  EXPECT_FALSE(
      ExecuteSql("SELECT rating FROM r GROUP BY genre", catalog).ok());
  // Aggregate in WHERE.
  EXPECT_FALSE(
      ExecuteSql("SELECT genre FROM r WHERE avg(rating) > 1 GROUP BY genre",
                 catalog)
          .ok());
  // HAVING without grouping or aggregates.
  EXPECT_FALSE(ExecuteSql("SELECT genre FROM r HAVING 1 = 1", catalog).ok());
  // ORDER BY a column that is not output.
  EXPECT_FALSE(
      ExecuteSql("SELECT genre FROM r GROUP BY genre ORDER BY nope", catalog)
          .ok());
  // Nested aggregate.
  EXPECT_FALSE(
      ExecuteSql("SELECT avg(sum(rating)) FROM r GROUP BY genre", catalog)
          .ok());
}

TEST(ExecutorTest, TheFullPaperTemplate) {
  Table t = MakeRatings();
  Catalog catalog;
  catalog.Register("RatingTable", &t);
  auto result = ExecuteSql(
      "SELECT genre, gender, avg(rating) AS val FROM RatingTable "
      "GROUP BY genre, gender HAVING count(*) > 0 ORDER BY val DESC LIMIT 3",
      catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 3);
  double prev = 1e9;
  for (int64_t r = 0; r < result->num_rows(); ++r) {
    double v = result->Get(r, 2).ToDouble();
    EXPECT_LE(v, prev);
    prev = v;
  }
}

}  // namespace
}  // namespace qagview::sql
