#ifndef QAGVIEW_TESTS_SQL_ORACLE_H_
#define QAGVIEW_TESTS_SQL_ORACLE_H_

// The row-at-a-time SQL evaluator: every cell is a boxed storage::Value and
// every expression is walked once per row. It is the reference the columnar
// executor (sql/executor.h) is checked against; nothing in the library
// calls it. Its statement semantics are the executor's by definition: same
// output types, same first-seen group order, same stable ORDER BY, same
// floating-point summation order.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/aggregate.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace qagview::sql {

/// \brief An expression bound to a schema: column names resolved to indices,
/// ready for repeated row-at-a-time evaluation.
///
/// Scalar expressions only — compiling an expression that still contains an
/// aggregate call fails (the oracle rewrites aggregate calls into column
/// references over its intermediate group table first).
///
/// NULL semantics follow SQL: arithmetic and comparisons propagate NULL;
/// AND/OR use three-valued logic; WHERE/HAVING treat NULL as not-satisfied.
/// INT64 arithmetic wraps.
class CompiledExpr {
 public:
  static Result<CompiledExpr> Compile(const Expr& expr,
                                      const storage::Schema& schema);

  /// Evaluates against one row of `table` (whose schema must be the one the
  /// expression was compiled against).
  storage::Value Eval(const storage::Table& table, int64_t row) const;

 private:
  struct Node {
    ExprKind kind;
    storage::Value literal;         // kLiteral
    int column_index = -1;          // kColumnRef
    UnaryOp unary_op = UnaryOp::kNot;
    BinaryOp binary_op = BinaryOp::kEq;
    int left = -1;
    int right = -1;
  };

  Result<int> CompileNode(const Expr& expr, const storage::Schema& schema);
  storage::Value EvalNode(int index, const storage::Table& table,
                          int64_t row) const;

  std::vector<Node> nodes_;
  int root_ = -1;
};

/// \brief Streaming aggregate accumulator (SQL NULL semantics: NULL inputs
/// are skipped by every aggregate except count(*)).
class Aggregator {
 public:
  explicit Aggregator(AggKind kind) : kind_(kind) {}

  /// Folds one input row's argument value in.
  void Add(const storage::Value& v);

  /// Folds one row into count(*) (no argument).
  void AddRow();

  /// Final value: count -> INT64, sum/avg -> DOUBLE, min/max -> input type.
  /// Empty input: count -> 0, others -> NULL.
  storage::Value Finish() const;

  AggKind kind() const { return kind_; }

  /// Non-null inputs folded (rows for count(*)), their sum, and their sum
  /// of squares (sum and sum_squares are maintained for sum/avg only).
  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double sum_squares() const { return sum_squares_; }

 private:
  AggKind kind_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double sum_squares_ = 0.0;
  bool has_extreme_ = false;
  storage::Value extreme_;  // current min or max
};

namespace oracle {

/// Row-at-a-time twins of the executor's entry points.
Result<storage::Table> ExecuteSelect(const SelectStatement& stmt,
                                     const Catalog& catalog);
Result<storage::Table> ExecuteSql(const std::string& sql,
                                  const Catalog& catalog);
Result<ApproxExecution> ExecuteSelectApproximate(const SelectStatement& stmt,
                                                 const Catalog& catalog);
Result<ApproxExecution> ExecuteSqlApproximate(const std::string& sql,
                                              const Catalog& catalog);

}  // namespace oracle
}  // namespace qagview::sql

#endif  // QAGVIEW_TESTS_SQL_ORACLE_H_
