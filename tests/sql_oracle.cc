#include "sql_oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/string_util.h"
#include "sql/parser.h"

namespace qagview::sql {

using storage::Field;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

Result<CompiledExpr> CompiledExpr::Compile(const Expr& expr,
                                           const storage::Schema& schema) {
  CompiledExpr compiled;
  QAG_ASSIGN_OR_RETURN(compiled.root_, compiled.CompileNode(expr, schema));
  return compiled;
}

Result<int> CompiledExpr::CompileNode(const Expr& expr,
                                      const storage::Schema& schema) {
  Node node;
  node.kind = expr.kind;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      node.literal = expr.literal;
      break;
    case ExprKind::kColumnRef: {
      QAG_ASSIGN_OR_RETURN(node.column_index,
                           schema.GetFieldIndex(expr.column));
      break;
    }
    case ExprKind::kUnary: {
      node.unary_op = expr.unary_op;
      QAG_ASSIGN_OR_RETURN(node.left, CompileNode(*expr.left, schema));
      break;
    }
    case ExprKind::kBinary: {
      node.binary_op = expr.binary_op;
      QAG_ASSIGN_OR_RETURN(node.left, CompileNode(*expr.left, schema));
      QAG_ASSIGN_OR_RETURN(node.right, CompileNode(*expr.right, schema));
      break;
    }
    case ExprKind::kCall:
      return Status::InvalidArgument(
          StrCat("aggregate call ", expr.ToString(),
                 " is not allowed in a scalar context"));
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

Value CompiledExpr::Eval(const storage::Table& table, int64_t row) const {
  return EvalNode(root_, table, row);
}

namespace {

// Three-valued logic: -1 = NULL/unknown, 0 = false, 1 = true.
int Truth(const Value& v) {
  if (v.is_null()) return -1;
  return v.IsTruthy() ? 1 : 0;
}

Value TruthToValue(int t) {
  if (t < 0) return Value::Null();
  return Value::Int(t);
}

}  // namespace

Value CompiledExpr::EvalNode(int index, const storage::Table& table,
                             int64_t row) const {
  const Node& node = nodes_[static_cast<size_t>(index)];
  switch (node.kind) {
    case ExprKind::kLiteral:
      return node.literal;
    case ExprKind::kColumnRef:
      return table.Get(row, node.column_index);
    case ExprKind::kUnary: {
      Value operand = EvalNode(node.left, table, row);
      if (node.unary_op == UnaryOp::kNegate) {
        if (operand.is_null()) return Value::Null();
        if (operand.type() == ValueType::kInt64) {
          return Value::Int(static_cast<int64_t>(
              0 - static_cast<uint64_t>(operand.as_int())));
        }
        return Value::Real(-operand.ToDouble());
      }
      // NOT with three-valued logic.
      int t = Truth(operand);
      return t < 0 ? Value::Null() : Value::Int(1 - t);
    }
    case ExprKind::kBinary: {
      // AND/OR need short-circuit-aware three-valued logic.
      if (node.binary_op == BinaryOp::kAnd || node.binary_op == BinaryOp::kOr) {
        int a = Truth(EvalNode(node.left, table, row));
        if (node.binary_op == BinaryOp::kAnd && a == 0) return Value::Int(0);
        if (node.binary_op == BinaryOp::kOr && a == 1) return Value::Int(1);
        int b = Truth(EvalNode(node.right, table, row));
        if (node.binary_op == BinaryOp::kAnd) {
          if (b == 0) return Value::Int(0);
          return TruthToValue((a < 0 || b < 0) ? -1 : 1);
        }
        if (b == 1) return Value::Int(1);
        return TruthToValue((a < 0 || b < 0) ? -1 : 0);
      }

      Value lhs = EvalNode(node.left, table, row);
      Value rhs = EvalNode(node.right, table, row);
      if (lhs.is_null() || rhs.is_null()) return Value::Null();

      switch (node.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul: {
          if (lhs.type() == ValueType::kInt64 &&
              rhs.type() == ValueType::kInt64) {
            uint64_t a = static_cast<uint64_t>(lhs.as_int());
            uint64_t b = static_cast<uint64_t>(rhs.as_int());
            switch (node.binary_op) {
              case BinaryOp::kAdd: return Value::Int(static_cast<int64_t>(a + b));
              case BinaryOp::kSub: return Value::Int(static_cast<int64_t>(a - b));
              default: return Value::Int(static_cast<int64_t>(a * b));
            }
          }
          double a = lhs.ToDouble();
          double b = rhs.ToDouble();
          switch (node.binary_op) {
            case BinaryOp::kAdd: return Value::Real(a + b);
            case BinaryOp::kSub: return Value::Real(a - b);
            default: return Value::Real(a * b);
          }
        }
        case BinaryOp::kDiv: {
          double b = rhs.ToDouble();
          if (b == 0.0) return Value::Null();  // SQL: division by zero
          return Value::Real(lhs.ToDouble() / b);
        }
        case BinaryOp::kMod: {
          if (lhs.type() == ValueType::kInt64 &&
              rhs.type() == ValueType::kInt64) {
            int64_t b = rhs.as_int();
            if (b == 0) return Value::Null();
            return Value::Int(b == -1 ? 0 : lhs.as_int() % b);
          }
          double b = rhs.ToDouble();
          if (b == 0.0) return Value::Null();
          return Value::Real(std::fmod(lhs.ToDouble(), b));
        }
        case BinaryOp::kEq: return Value::Bool(lhs.Compare(rhs) == 0);
        case BinaryOp::kNe: return Value::Bool(lhs.Compare(rhs) != 0);
        case BinaryOp::kLt: return Value::Bool(lhs.Compare(rhs) < 0);
        case BinaryOp::kLe: return Value::Bool(lhs.Compare(rhs) <= 0);
        case BinaryOp::kGt: return Value::Bool(lhs.Compare(rhs) > 0);
        case BinaryOp::kGe: return Value::Bool(lhs.Compare(rhs) >= 0);
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          break;  // handled above
      }
      QAG_LOG(Fatal) << "unreachable binary op";
      return Value::Null();
    }
    case ExprKind::kCall:
      QAG_LOG(Fatal) << "call node survived compilation";
      return Value::Null();
  }
  return Value::Null();
}

void Aggregator::Add(const storage::Value& v) {
  if (kind_ == AggKind::kCountStar) {
    ++count_;
    return;
  }
  if (v.is_null()) return;
  switch (kind_) {
    case AggKind::kCount:
      ++count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg: {
      const double x = v.ToDouble();
      sum_ += x;
      sum_squares_ += x * x;
      ++count_;
      break;
    }
    case AggKind::kMin:
      if (!has_extreme_ || v.Compare(extreme_) < 0) extreme_ = v;
      has_extreme_ = true;
      break;
    case AggKind::kMax:
      if (!has_extreme_ || v.Compare(extreme_) > 0) extreme_ = v;
      has_extreme_ = true;
      break;
    case AggKind::kCountStar:
      break;
  }
}

void Aggregator::AddRow() {
  QAG_DCHECK(kind_ == AggKind::kCountStar);
  ++count_;
}

storage::Value Aggregator::Finish() const {
  switch (kind_) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return storage::Value::Int(count_);
    case AggKind::kSum:
      return count_ == 0 ? storage::Value::Null()
                         : storage::Value::Real(sum_);
    case AggKind::kAvg:
      return count_ == 0 ? storage::Value::Null()
                         : storage::Value::Real(sum_ / count_);
    case AggKind::kMin:
    case AggKind::kMax:
      return has_extreme_ ? extreme_ : storage::Value::Null();
  }
  return storage::Value::Null();
}


namespace oracle {
namespace {

std::unique_ptr<Expr> RewriteCallsToColumns(const Expr& expr) {
  if (expr.kind == ExprKind::kCall) {
    return Expr::Column(expr.ToString());
  }
  auto copy = expr.Clone();
  if (expr.left) copy->left = RewriteCallsToColumns(*expr.left);
  if (expr.right) copy->right = RewriteCallsToColumns(*expr.right);
  copy->args.clear();
  for (const auto& a : expr.args) {
    copy->args.push_back(RewriteCallsToColumns(*a));
  }
  return copy;
}

size_t HashValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt64:
      return std::hash<int64_t>()(v.as_int());
    case ValueType::kDouble: {
      // Equal under Value::operator== hashes equal: one hash for every NaN,
      // one for -0.0 and 0.0.
      const double d = v.as_double();
      return d != d ? 0x7ff8ULL : std::hash<double>()(d == 0.0 ? 0.0 : d);
    }
    case ValueType::kString:
      return std::hash<std::string>()(v.as_string());
  }
  return 0;
}

struct ValueVectorHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t seed = key.size();
    for (const Value& v : key) HashCombine(&seed, HashValue(v));
    return seed;
  }
};

struct ValueVectorEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    return a == b;  // element-wise Value::operator==
  }
};

// The type every non-NULL value of a compiled scalar expression has, read
// off the expression (kNull: it yields only NULL).
ValueType TypeOf(const Expr& e, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.type();
    case ExprKind::kColumnRef:
      return schema.field(schema.FindField(e.column)).type;
    case ExprKind::kUnary: {
      if (e.unary_op == UnaryOp::kNot) return ValueType::kInt64;
      return TypeOf(*e.left, schema);
    }
    case ExprKind::kBinary: {
      const ValueType a = TypeOf(*e.left, schema);
      const ValueType b = TypeOf(*e.right, schema);
      switch (e.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          if (a == ValueType::kNull || b == ValueType::kNull) {
            return ValueType::kNull;
          }
          return a == ValueType::kInt64 && b == ValueType::kInt64 &&
                         e.binary_op != BinaryOp::kDiv
                     ? ValueType::kInt64
                     : ValueType::kDouble;
        default:
          return ValueType::kInt64;
      }
    }
    case ExprKind::kCall:
      break;
  }
  return ValueType::kNull;
}

// Builds an output table from materialized rows with the given column
// types (an all-NULL kNull column becomes INT64).
Result<Table> MaterializeTable(const std::vector<std::string>& names,
                               const std::vector<ValueType>& types,
                               std::vector<std::vector<Value>> rows) {
  std::vector<Field> fields;
  fields.reserve(names.size());
  for (size_t c = 0; c < names.size(); ++c) {
    fields.push_back({names[c], types[c] == ValueType::kNull
                                    ? ValueType::kInt64
                                    : types[c]});
  }
  Table out{Schema(std::move(fields))};
  for (auto& row : rows) {
    QAG_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

Status ApplyOrderAndLimit(const SelectStatement& stmt,
                          const std::vector<std::string>& names,
                          std::vector<std::vector<Value>>* rows) {
  if (!stmt.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;  // column index, descending
    for (const OrderByItem& item : stmt.order_by) {
      size_t idx = names.size();
      for (size_t c = 0; c < names.size(); ++c) {
        if (EqualsIgnoreCase(names[c], item.column)) {
          idx = c;
          break;
        }
      }
      if (idx == names.size()) {
        return Status::InvalidArgument(
            "ORDER BY column is not in the select list: " + item.column);
      }
      keys.emplace_back(idx, item.descending);
    }
    std::stable_sort(rows->begin(), rows->end(),
                     [&keys](const std::vector<Value>& a,
                             const std::vector<Value>& b) {
                       for (const auto& [idx, desc] : keys) {
                         int c = a[idx].Compare(b[idx]);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  if (stmt.limit >= 0 &&
      static_cast<int64_t>(rows->size()) > stmt.limit) {
    rows->resize(static_cast<size_t>(stmt.limit));
  }
  return Status::OK();
}

// Evaluates the WHERE clause and returns the surviving row indices.
Result<std::vector<int64_t>> FilterRows(const SelectStatement& stmt,
                                        const Table& table) {
  std::vector<int64_t> rows;
  if (stmt.where == nullptr) {
    rows.reserve(static_cast<size_t>(table.num_rows()));
    for (int64_t r = 0; r < table.num_rows(); ++r) rows.push_back(r);
    return rows;
  }
  if (stmt.where->ContainsCall()) {
    return Status::InvalidArgument("aggregates are not allowed in WHERE");
  }
  QAG_ASSIGN_OR_RETURN(CompiledExpr where,
                       CompiledExpr::Compile(*stmt.where, table.schema()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    Value v = where.Eval(table, r);
    if (!v.is_null() && v.IsTruthy()) rows.push_back(r);
  }
  return rows;
}

// Plain (non-grouped, aggregate-free) SELECT.
Result<Table> ExecuteProjection(const SelectStatement& stmt,
                                const Table& table,
                                const std::vector<int64_t>& rows) {
  std::vector<CompiledExpr> exprs;
  std::vector<std::string> names;
  std::vector<ValueType> types;
  for (const SelectItem& item : stmt.items) {
    QAG_ASSIGN_OR_RETURN(CompiledExpr e,
                         CompiledExpr::Compile(*item.expr, table.schema()));
    exprs.push_back(std::move(e));
    names.push_back(item.OutputName());
    types.push_back(TypeOf(*item.expr, table.schema()));
  }
  std::vector<std::vector<Value>> cells;
  cells.reserve(rows.size());
  for (int64_t r : rows) {
    std::vector<Value> row;
    row.reserve(exprs.size());
    for (const CompiledExpr& e : exprs) row.push_back(e.Eval(table, r));
    cells.push_back(std::move(row));
  }
  QAG_RETURN_IF_ERROR(ApplyOrderAndLimit(stmt, names, &cells));
  return MaterializeTable(names, types, std::move(cells));
}

struct GroupState {
  std::vector<Aggregator> aggs;
};

// Scaling context for approximate execution: n sample rows drawn from N
// population rows, and the sink for per-output-column standard errors.
struct ApproxContext {
  int64_t sample_rows = 0;
  int64_t population_rows = 0;
  std::map<std::string, std::vector<double>>* column_se = nullptr;
};

// Horvitz-Thompson-style point estimate for one group's accumulator: count
// and sum scale by N/n, avg is self-normalizing, min/max pass through (the
// sample extreme is the best available estimate, but it carries no CLT
// bound -- see EstimateSe).
Value ScaledEstimate(const Aggregator& agg, double scale) {
  switch (agg.kind()) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return Value::Real(scale * static_cast<double>(agg.count()));
    case AggKind::kSum:
      return agg.count() == 0 ? Value::Null()
                              : Value::Real(scale * agg.sum());
    default:
      return agg.Finish();
  }
}

// CLT standard error of ScaledEstimate under uniform sampling without
// replacement (finite-population correction applied). Estimating a group's
// count or sum from a uniform table sample is estimating a population
// total of y_i = x_i * 1[row i in group] over all n sample rows, which is
// why those variances are over n, not the group size. Returns HUGE_VAL
// when no CLT error exists (min/max, avg over fewer than two sample rows).
double EstimateSe(const Aggregator& agg, int64_t sample_rows,
                  int64_t population_rows) {
  const double n = static_cast<double>(sample_rows);
  const double N = static_cast<double>(population_rows);
  const double fpc = std::max(0.0, 1.0 - n / N);
  switch (agg.kind()) {
    case AggKind::kCount:
    case AggKind::kCountStar: {
      if (sample_rows < 2) return HUGE_VAL;
      const double p = static_cast<double>(agg.count()) / n;
      return N * std::sqrt(p * (1.0 - p) / n) * std::sqrt(fpc);
    }
    case AggKind::kSum: {
      if (sample_rows < 2) return HUGE_VAL;
      const double s = agg.sum();
      const double var_y =
          std::max(0.0, (agg.sum_squares() - s * s / n) / (n - 1.0));
      return N * std::sqrt(var_y / n) * std::sqrt(fpc);
    }
    case AggKind::kAvg: {
      if (agg.count() < 2) return HUGE_VAL;
      const double c = static_cast<double>(agg.count());
      const double s = agg.sum();
      const double var_x =
          std::max(0.0, (agg.sum_squares() - s * s / c) / (c - 1.0));
      return std::sqrt(var_x / c) * std::sqrt(fpc);
    }
    case AggKind::kMin:
    case AggKind::kMax:
      return HUGE_VAL;
  }
  return HUGE_VAL;
}

// Grouped-aggregate path shared by exact and approximate execution. With
// `approx` set, `table`/`rows` are the sample, estimates are scaled, and
// per-row standard errors for bare count/sum/avg select items are written
// to approx->column_se keyed by output column name. SE values ride along
// the result rows as hidden trailing cells -- invisible to
// ApplyOrderAndLimit, which only indexes named columns -- so they stay
// aligned with their group through ORDER BY and LIMIT, then are stripped
// off before materialization.
Result<Table> ExecuteAggregate(const SelectStatement& stmt, const Table& table,
                               const std::vector<int64_t>& rows,
                               const ApproxContext* approx) {
  // Resolve grouping columns.
  std::vector<int> group_cols;
  for (const std::string& name : stmt.group_by) {
    QAG_ASSIGN_OR_RETURN(int idx, table.schema().GetFieldIndex(name));
    group_cols.push_back(idx);
  }

  // Collect unique aggregate calls from the select list and HAVING.
  std::vector<const Expr*> calls;
  for (const SelectItem& item : stmt.items) {
    CollectCalls(*item.expr, &calls);
  }
  if (stmt.having) CollectCalls(*stmt.having, &calls);

  std::vector<const Expr*> unique_calls;
  std::vector<std::string> call_keys;
  {
    std::unordered_set<std::string> seen;
    for (const Expr* call : calls) {
      for (const auto& arg : call->args) {
        if (arg->ContainsCall()) {
          return Status::InvalidArgument(
              "nested aggregate calls are not supported: " + call->ToString());
        }
      }
      std::string key = call->ToString();
      if (seen.insert(key).second) {
        unique_calls.push_back(call);
        call_keys.push_back(std::move(key));
      }
    }
  }

  // Prepare per-call kinds and argument expressions.
  std::vector<AggKind> kinds;
  std::vector<std::optional<CompiledExpr>> arg_exprs;
  for (const Expr* call : unique_calls) {
    QAG_ASSIGN_OR_RETURN(AggKind kind,
                         AggKindFromName(call->function, call->star_arg));
    if (kind != AggKind::kCountStar && call->args.size() != 1) {
      return Status::InvalidArgument(
          StrCat("aggregate ", call->function, " takes exactly one argument"));
    }
    kinds.push_back(kind);
    if (kind == AggKind::kCountStar) {
      arg_exprs.emplace_back(std::nullopt);
    } else {
      QAG_ASSIGN_OR_RETURN(
          CompiledExpr e,
          CompiledExpr::Compile(*call->args[0], table.schema()));
      arg_exprs.emplace_back(std::move(e));
    }
  }

  // Group rows and accumulate.
  std::unordered_map<std::vector<Value>, GroupState, ValueVectorHash,
                     ValueVectorEq>
      groups;
  std::vector<std::vector<Value>> group_order;  // first-seen order
  for (int64_t r : rows) {
    std::vector<Value> key;
    key.reserve(group_cols.size());
    for (int c : group_cols) key.push_back(table.Get(r, c));
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      for (AggKind kind : kinds) it->second.aggs.emplace_back(kind);
      group_order.push_back(key);
    }
    for (size_t a = 0; a < kinds.size(); ++a) {
      if (kinds[a] == AggKind::kCountStar) {
        it->second.aggs[a].AddRow();
      } else {
        it->second.aggs[a].Add(arg_exprs[a]->Eval(table, r));
      }
    }
  }

  // Build the intermediate "group env" table: group-by columns (original
  // names/types) + one column per unique aggregate call, named by its
  // canonical text. Select items and HAVING are evaluated against it after
  // rewriting calls into column refs. Approximate execution publishes
  // scaled estimates into the env, so expressions over aggregates (and
  // HAVING predicates) see population-scale values.
  std::vector<std::string> env_names;
  std::vector<ValueType> env_types;
  for (int c : group_cols) {
    env_names.push_back(table.schema().field(c).name);
    env_types.push_back(table.schema().field(c).type);
  }
  for (size_t a = 0; a < call_keys.size(); ++a) {
    env_names.push_back(call_keys[a]);
    switch (kinds[a]) {
      case AggKind::kCount:
      case AggKind::kCountStar:
        env_types.push_back(approx == nullptr ? ValueType::kInt64
                                              : ValueType::kDouble);
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        env_types.push_back(ValueType::kDouble);
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        env_types.push_back(TypeOf(*unique_calls[a]->args[0], table.schema()));
        break;
    }
  }

  const double scale =
      approx == nullptr
          ? 1.0
          : static_cast<double>(approx->population_rows) /
                static_cast<double>(approx->sample_rows);
  std::vector<std::vector<double>> group_ses;  // [group][unique call]
  std::vector<std::vector<Value>> env_rows;
  env_rows.reserve(group_order.size());
  for (const auto& key : group_order) {
    const GroupState& state = groups[key];
    std::vector<Value> row = key;
    if (approx == nullptr) {
      for (const Aggregator& agg : state.aggs) row.push_back(agg.Finish());
    } else {
      std::vector<double> ses;
      ses.reserve(state.aggs.size());
      for (const Aggregator& agg : state.aggs) {
        row.push_back(ScaledEstimate(agg, scale));
        ses.push_back(EstimateSe(agg, approx->sample_rows,
                                 approx->population_rows));
      }
      group_ses.push_back(std::move(ses));
    }
    env_rows.push_back(std::move(row));
  }
  QAG_ASSIGN_OR_RETURN(Table env_table,
                       MaterializeTable(env_names, env_types,
                                        std::move(env_rows)));

  // Compile rewritten select items / HAVING against the env table.
  std::vector<CompiledExpr> out_exprs;
  std::vector<std::string> out_names;
  std::vector<ValueType> out_types;
  for (const SelectItem& item : stmt.items) {
    std::unique_ptr<Expr> rewritten = RewriteCallsToColumns(*item.expr);
    auto compiled = CompiledExpr::Compile(*rewritten, env_table.schema());
    if (!compiled.ok()) {
      // A bare column that is neither grouped nor aggregated.
      return Status::InvalidArgument(
          StrCat("select item ", item.expr->ToString(),
                 " must be a grouping column or an aggregate (",
                 compiled.status().message(), ")"));
    }
    out_exprs.push_back(std::move(compiled).value());
    out_names.push_back(item.OutputName());
    out_types.push_back(TypeOf(*rewritten, env_table.schema()));
  }
  std::optional<CompiledExpr> having;
  if (stmt.having) {
    std::unique_ptr<Expr> rewritten = RewriteCallsToColumns(*stmt.having);
    QAG_ASSIGN_OR_RETURN(CompiledExpr e,
                         CompiledExpr::Compile(*rewritten, env_table.schema()));
    having = std::move(e);
  }

  // Map bare aggregate-call select items to their unique-call index. Only
  // kinds with a CLT bound participate; min/max items get no column_se
  // entry, which tells the caller no bound exists for that column.
  std::vector<int> item_call(stmt.items.size(), -1);
  if (approx != nullptr) {
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const Expr& e = *stmt.items[i].expr;
      if (e.kind != ExprKind::kCall) continue;
      const std::string key = e.ToString();
      for (size_t a = 0; a < call_keys.size(); ++a) {
        if (call_keys[a] != key) continue;
        if (kinds[a] == AggKind::kCount || kinds[a] == AggKind::kCountStar ||
            kinds[a] == AggKind::kSum || kinds[a] == AggKind::kAvg) {
          item_call[i] = static_cast<int>(a);
        }
        break;
      }
    }
  }

  std::vector<std::vector<Value>> out_rows;
  for (int64_t g = 0; g < env_table.num_rows(); ++g) {
    if (having) {
      Value keep = having->Eval(env_table, g);
      if (keep.is_null() || !keep.IsTruthy()) continue;
    }
    std::vector<Value> row;
    row.reserve(out_exprs.size());
    for (const CompiledExpr& e : out_exprs) row.push_back(e.Eval(env_table, g));
    if (approx != nullptr) {
      for (size_t i = 0; i < item_call.size(); ++i) {
        if (item_call[i] >= 0) {
          row.push_back(Value::Real(group_ses[g][item_call[i]]));
        }
      }
    }
    out_rows.push_back(std::move(row));
  }

  QAG_RETURN_IF_ERROR(ApplyOrderAndLimit(stmt, out_names, &out_rows));

  if (approx != nullptr) {
    const size_t base = out_names.size();
    size_t hidden = 0;
    for (size_t i = 0; i < item_call.size(); ++i) {
      if (item_call[i] < 0) continue;
      std::vector<double>& ses =
          (*approx->column_se)[stmt.items[i].OutputName()];
      ses.clear();
      ses.reserve(out_rows.size());
      for (const auto& row : out_rows) {
        ses.push_back(row[base + hidden].ToDouble());
      }
      ++hidden;
    }
    for (auto& row : out_rows) row.resize(base);
  }

  return MaterializeTable(out_names, out_types, std::move(out_rows));
}

}  // namespace

Result<Table> ExecuteSelect(const SelectStatement& stmt,
                            const Catalog& catalog) {
  const Table* table = catalog.Find(stmt.table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt.table_name);
  }
  if (stmt.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  QAG_ASSIGN_OR_RETURN(std::vector<int64_t> rows, FilterRows(stmt, *table));

  // Detect aggregation.
  bool has_calls = stmt.having != nullptr && stmt.having->ContainsCall();
  for (const SelectItem& item : stmt.items) {
    has_calls = has_calls || item.expr->ContainsCall();
  }
  if (stmt.group_by.empty() && !has_calls) {
    if (stmt.having != nullptr) {
      return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    return ExecuteProjection(stmt, *table, rows);
  }

  return ExecuteAggregate(stmt, *table, rows, /*approx=*/nullptr);
}

Result<Table> ExecuteSql(const std::string& sql, const Catalog& catalog) {
  QAG_ASSIGN_OR_RETURN(SelectStatement stmt, Parser::ParseSelect(sql));
  return oracle::ExecuteSelect(stmt, catalog);
}

Result<ApproxExecution> ExecuteSelectApproximate(const SelectStatement& stmt,
                                                 const Catalog& catalog) {
  const Table* table = catalog.Find(stmt.table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt.table_name);
  }
  if (stmt.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  bool has_calls = stmt.having != nullptr && stmt.having->ContainsCall();
  for (const SelectItem& item : stmt.items) {
    has_calls = has_calls || item.expr->ContainsCall();
  }
  const bool aggregate = !stmt.group_by.empty() || has_calls;

  // Sampling only pays off on the aggregate path, and only when the sample
  // is a strict subset of the population: an empty sample estimates
  // nothing, and a sample that covers the whole table IS the exact answer,
  // so run it as one rather than attaching vacuous error bounds.
  const Catalog::SampleInfo* sample = catalog.FindSample(stmt.table_name);
  const bool sampled = aggregate && sample != nullptr &&
                       sample->rows != nullptr &&
                       sample->rows->num_rows() > 0 &&
                       sample->rows->num_rows() < sample->population_rows;
  if (!sampled) {
    QAG_ASSIGN_OR_RETURN(Table exact, oracle::ExecuteSelect(stmt, catalog));
    ApproxExecution out{std::move(exact)};
    out.sample_rows = table->num_rows();
    out.population_rows = table->num_rows();
    return out;
  }

  QAG_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                       FilterRows(stmt, *sample->rows));
  std::map<std::string, std::vector<double>> column_se;
  ApproxContext ctx;
  ctx.sample_rows = sample->rows->num_rows();
  ctx.population_rows = sample->population_rows;
  ctx.column_se = &column_se;
  QAG_ASSIGN_OR_RETURN(Table estimate,
                       ExecuteAggregate(stmt, *sample->rows, rows, &ctx));
  ApproxExecution out{std::move(estimate)};
  out.approximate = true;
  out.sample_rows = ctx.sample_rows;
  out.population_rows = ctx.population_rows;
  out.sample_fraction = static_cast<double>(ctx.sample_rows) /
                        static_cast<double>(ctx.population_rows);
  out.column_se = std::move(column_se);
  return out;
}

Result<ApproxExecution> ExecuteSqlApproximate(const std::string& sql,
                                              const Catalog& catalog) {
  QAG_ASSIGN_OR_RETURN(SelectStatement stmt, Parser::ParseSelect(sql));
  return oracle::ExecuteSelectApproximate(stmt, catalog);
}


}  // namespace oracle
}  // namespace qagview::sql
