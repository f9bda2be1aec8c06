#include "exec/predicate.h"

namespace autocat {

namespace {

// Checks that `cell` and `literal` are comparable (same comparison class).
Status CheckComparable(const Value& cell, const Value& literal,
                       const std::string& column) {
  const bool cell_num = cell.is_numeric();
  const bool lit_num = literal.is_numeric();
  if (cell_num != lit_num) {
    return Status::InvalidArgument(
        "cannot compare column '" + column + "' value " + cell.ToString() +
        " with literal " + literal.ToString());
  }
  return Status::OK();
}

Result<bool> EvaluateComparison(const ComparisonExpr& cmp, const Row& row,
                                const Schema& schema) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                           schema.ColumnIndex(cmp.column()));
  const Value& cell = row[col];
  if (cell.is_null() || cell.is_nan() || cmp.literal().is_null()) {
    return false;
  }
  AUTOCAT_RETURN_IF_ERROR(CheckComparable(cell, cmp.literal(), cmp.column()));
  const int c = cell.Compare(cmp.literal());
  switch (cmp.op()) {
    case ComparisonOp::kEq: return c == 0;
    case ComparisonOp::kNotEq: return c != 0;
    case ComparisonOp::kLess: return c < 0;
    case ComparisonOp::kLessEq: return c <= 0;
    case ComparisonOp::kGreater: return c > 0;
    case ComparisonOp::kGreaterEq: return c >= 0;
  }
  return Status::Internal("unreachable comparison op");
}

Result<bool> EvaluateInList(const InListExpr& in, const Row& row,
                            const Schema& schema) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col, schema.ColumnIndex(in.column()));
  const Value& cell = row[col];
  if (cell.is_null() || cell.is_nan()) {
    return false;
  }
  bool found = false;
  for (const Value& v : in.values()) {
    if (v.is_null()) {
      continue;
    }
    AUTOCAT_RETURN_IF_ERROR(CheckComparable(cell, v, in.column()));
    if (cell == v) {
      found = true;
      break;
    }
  }
  return in.negated() ? !found : found;
}

Result<bool> EvaluateBetween(const BetweenExpr& bt, const Row& row,
                             const Schema& schema) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col, schema.ColumnIndex(bt.column()));
  const Value& cell = row[col];
  if (cell.is_null() || cell.is_nan() || bt.lo().is_null() ||
      bt.hi().is_null()) {
    return false;
  }
  AUTOCAT_RETURN_IF_ERROR(CheckComparable(cell, bt.lo(), bt.column()));
  AUTOCAT_RETURN_IF_ERROR(CheckComparable(cell, bt.hi(), bt.column()));
  const bool inside = cell >= bt.lo() && cell <= bt.hi();
  return bt.negated() ? !inside : inside;
}

Result<bool> EvaluateIsNull(const IsNullExpr& expr, const Row& row,
                            const Schema& schema) {
  AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                           schema.ColumnIndex(expr.column()));
  const bool is_null = row[col].is_null();
  return expr.negated() ? !is_null : is_null;
}

Result<bool> EvaluateLogical(const LogicalExpr& expr, const Row& row,
                             const Schema& schema) {
  if (expr.op() == LogicalExpr::Op::kAnd) {
    for (const auto& child : expr.children()) {
      AUTOCAT_ASSIGN_OR_RETURN(const bool v,
                               EvaluatePredicate(*child, row, schema));
      if (!v) {
        return false;
      }
    }
    return true;
  }
  for (const auto& child : expr.children()) {
    AUTOCAT_ASSIGN_OR_RETURN(const bool v,
                             EvaluatePredicate(*child, row, schema));
    if (v) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<bool> EvaluatePredicate(const Expr& expr, const Row& row,
                               const Schema& schema) {
  switch (expr.kind()) {
    case ExprKind::kComparison:
      return EvaluateComparison(static_cast<const ComparisonExpr&>(expr),
                                row, schema);
    case ExprKind::kInList:
      return EvaluateInList(static_cast<const InListExpr&>(expr), row,
                            schema);
    case ExprKind::kBetween:
      return EvaluateBetween(static_cast<const BetweenExpr&>(expr), row,
                             schema);
    case ExprKind::kIsNull:
      return EvaluateIsNull(static_cast<const IsNullExpr&>(expr), row,
                            schema);
    case ExprKind::kLogical:
      return EvaluateLogical(static_cast<const LogicalExpr&>(expr), row,
                             schema);
  }
  return Status::Internal("unreachable expression kind");
}

}  // namespace autocat
