#include "sql/ast.h"

#include "common/string_util.h"

namespace qagview::sql {

const char* UnaryOpToString(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNot: return "NOT";
    case UnaryOp::kNegate: return "-";
  }
  return "?";
}

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::Literal(storage::Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::Column(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::Unary(UnaryOp op, std::unique_ptr<Expr> operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->left = std::move(operand);
  return e;
}

std::unique_ptr<Expr> Expr::Binary(BinaryOp op, std::unique_ptr<Expr> l,
                                   std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::unique_ptr<Expr> Expr::Call(std::string fn,
                                 std::vector<std::unique_ptr<Expr>> args,
                                 bool star) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCall;
  e->function = ToLower(fn);
  e->args = std::move(args);
  e->star_arg = star;
  return e;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->column = column;
  e->unary_op = unary_op;
  e->binary_op = binary_op;
  if (left) e->left = left->Clone();
  if (right) e->right = right->Clone();
  e->function = function;
  e->star_arg = star_arg;
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.type() == storage::ValueType::kString) {
        return StrCat("'", literal.as_string(), "'");
      }
      return literal.ToString();
    case ExprKind::kColumnRef:
      return ToLower(column);
    case ExprKind::kUnary:
      if (unary_op == UnaryOp::kNot) {
        return StrCat("NOT (", left->ToString(), ")");
      }
      return StrCat("-(", left->ToString(), ")");
    case ExprKind::kBinary:
      return StrCat("(", left->ToString(), " ", BinaryOpToString(binary_op),
                    " ", right->ToString(), ")");
    case ExprKind::kCall: {
      if (star_arg) return StrCat(function, "(*)");
      std::vector<std::string> parts;
      for (const auto& a : args) parts.push_back(a->ToString());
      return StrCat(function, "(", Join(parts, ", "), ")");
    }
  }
  return "?";
}

bool Expr::ContainsCall() const {
  if (kind == ExprKind::kCall) return true;
  if (left && left->ContainsCall()) return true;
  if (right && right->ContainsCall()) return true;
  for (const auto& a : args) {
    if (a->ContainsCall()) return true;
  }
  return false;
}

void CollectCalls(const Expr& expr, std::vector<const Expr*>* calls) {
  if (expr.kind == ExprKind::kCall) {
    calls->push_back(&expr);
    return;
  }
  if (expr.left) CollectCalls(*expr.left, calls);
  if (expr.right) CollectCalls(*expr.right, calls);
}

std::string SelectItem::OutputName() const {
  return alias.empty() ? expr->ToString() : alias;
}

std::string SelectStatement::ToString() const {
  std::vector<std::string> sel;
  for (const SelectItem& item : items) {
    sel.push_back(item.alias.empty()
                      ? item.expr->ToString()
                      : StrCat(item.expr->ToString(), " AS ", item.alias));
  }
  std::string out = StrCat("SELECT ", Join(sel, ", "), " FROM ", table_name);
  if (where) out += StrCat(" WHERE ", where->ToString());
  if (!group_by.empty()) out += StrCat(" GROUP BY ", Join(group_by, ", "));
  if (having) out += StrCat(" HAVING ", having->ToString());
  if (!order_by.empty()) {
    std::vector<std::string> parts;
    for (const OrderByItem& o : order_by) {
      parts.push_back(StrCat(o.column, o.descending ? " DESC" : " ASC"));
    }
    out += StrCat(" ORDER BY ", Join(parts, ", "));
  }
  if (limit >= 0) out += StrCat(" LIMIT ", limit);
  return out;
}

}  // namespace qagview::sql
