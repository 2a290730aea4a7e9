#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>

#include "common/flat_map.h"
#include "common/string_util.h"
#include "sql/aggregate.h"
#include "sql/parser.h"

namespace qagview::sql {

using storage::Column;
using storage::Dictionary;
using storage::Field;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

void Catalog::Register(const std::string& name, const Table* table) {
  tables_[ToLower(name)] = table;
}

const Table* Catalog::Find(const std::string& name) const {
  std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) return nullptr;
  if (std::find(accessed_.begin(), accessed_.end(), key) ==
      accessed_.end()) {
    accessed_.push_back(std::move(key));
  }
  return it->second;
}

void Catalog::RegisterSample(const std::string& name, const Table* rows,
                             int64_t population_rows) {
  samples_[ToLower(name)] = SampleInfo{rows, population_rows};
}

const Catalog::SampleInfo* Catalog::FindSample(const std::string& name) const {
  auto it = samples_.find(ToLower(name));
  return it == samples_.end() ? nullptr : &it->second;
}

namespace {

// Rows per scan batch: WHERE, grouping and accumulation each run over this
// many rows at a time, so their temporaries stay in cache.
constexpr int64_t kBatch = 2048;

// A typed column of expression results, one entry per evaluated row or
// group. INT64 values and STRING codes (into *dict) live in `ints`, DOUBLE
// values in `dbls`; valid[i] == 0 is NULL. A kNull Vec is all NULL.
struct Vec {
  Vec(ValueType t, size_t n) : type(t), valid(n, t != ValueType::kNull) {
    Resize(n);
  }

  // New entries are NULL.
  void Resize(size_t n) {
    valid.resize(n, 0);
    if (type == ValueType::kDouble) {
      dbls.resize(n);
    } else {
      ints.resize(n);
    }
  }
  double Num(size_t i) const {
    return type == ValueType::kDouble ? dbls[i]
                                      : static_cast<double>(ints[i]);
  }
  const std::string& Str(size_t i) const {
    return dict->GetString(static_cast<int32_t>(ints[i]));
  }
  // Three-valued truth (Value::IsTruthy): -1 NULL, 0 false, 1 true.
  int Truth(size_t i) const {
    if (!valid[i]) return -1;
    if (type == ValueType::kDouble) return dbls[i] != 0.0;
    if (type == ValueType::kString) return !Str(i).empty();
    return ints[i] != 0;
  }
  // Copies entry j of `src`, a Vec of the same type and dictionary.
  void Set(size_t i, const Vec& src, size_t j) {
    valid[i] = src.valid[j];
    if (type == ValueType::kDouble) {
      dbls[i] = src.dbls[j];
    } else {
      ints[i] = src.ints[j];
    }
  }

  ValueType type;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  const Dictionary* dict = nullptr;
  std::vector<uint8_t> valid;
};

// Value::Compare of two non-NULL entries of comparable types.
int Compare(const Vec& a, size_t i, const Vec& b, size_t j) {
  if (a.type == ValueType::kInt64 && b.type == ValueType::kInt64) {
    return (a.ints[i] > b.ints[j]) - (a.ints[i] < b.ints[j]);
  }
  if (a.type != ValueType::kString) {
    return storage::CompareDoubles(a.Num(i), b.Num(j));
  }
  const int c = a.Str(i).compare(b.Str(j));
  return (c > 0) - (c < 0);
}

bool Holds(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    default: return c >= 0;
  }
}

// Group-key bits of a double: every NaN is one value, -0.0 is 0.0.
uint64_t NormalizedBits(double d) {
  if (d != d) return 0x7ff8000000000000ULL;
  if (d == 0.0) return 0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

// Dense ids in first-seen order for 64-bit keys: a FlatMap64, plus a side
// slot for the all-ones key that FlatMap64 reserves as its empty marker.
class DenseIds {
 public:
  int32_t Of(uint64_t key) {
    if (key == ~0ULL) {
      if (reserved_ < 0) reserved_ = next_++;
      return reserved_;
    }
    auto [id, inserted] = map_.FindOrInsert(key, next_);
    next_ += inserted;
    return id;
  }

 private:
  FlatMap64 map_;
  int32_t reserved_ = -1;
  int32_t next_ = 0;
};

// Maps scanned rows to dense group ids in first-seen order. Each GROUP BY
// column gives a row a code, 0 for NULL: the dictionary code + 1 of a
// STRING, the offset + 1 from the minimum of a narrow INT64 range, and the
// first-seen id + 1 of the value of a DOUBLE (NormalizedBits) or of a wide
// INT64 range. The codes pack mixed-radix into one 64-bit key, which stays
// below the product of the domains and so never reaches 2^64 - 1, the key
// FlatMap64 reserves as empty (DenseIds also gives that key a side slot,
// since raw INT64 bits can take it). Where the product would overflow 64
// bits, the key packed so far is first renumbered densely (it has at most
// num_rows values), so any number of columns composes without a boxed
// fallback.
class Grouper {
 public:
  Grouper(const Table& table, const std::vector<int>& cols) {
    const uint64_t rows = static_cast<uint64_t>(
        std::max<int64_t>(table.num_rows(), 1));
    uint64_t product = 1;
    for (int c : cols) {
      Key k;
      k.col = &table.column(c);
      if (k.col->type() == ValueType::kString) {
        k.domain = static_cast<uint64_t>(k.col->dictionary().size()) + 1;
      } else if (k.col->type() == ValueType::kInt64) {
        int64_t lo = INT64_MAX, hi = INT64_MIN;
        for (size_t r = 0; r < k.col->valid().size(); ++r) {
          if (!k.col->valid()[r]) continue;
          lo = std::min(lo, k.col->ints()[r]);
          hi = std::max(hi, k.col->ints()[r]);
        }
        const uint64_t range =
            static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
        if (lo > hi || range < (1ULL << 32)) {
          k.min = lo;
          k.domain = lo > hi ? 1 : range + 2;
        } else {
          k.ids.emplace();
        }
      } else {
        k.ids.emplace();
      }
      if (k.ids) k.domain = rows + 1;
      if (product > ~0ULL / k.domain) {
        k.renumber.emplace();
        product = rows;
      }
      product *= k.domain;
      keys_.push_back(std::move(k));
    }
  }

  // Sets (*gids)[i] to the group of rows[i], opening groups as needed.
  void Assign(const std::vector<int64_t>& rows, std::vector<int32_t>* gids) {
    packed_.assign(rows.size(), 0);
    for (Key& k : keys_) {
      if (k.renumber) {
        for (uint64_t& p : packed_) p = static_cast<uint64_t>(k.renumber->Of(p));
      }
      const uint8_t* valid = k.col->valid().data();
      auto pack = [&](auto code) {
        for (size_t i = 0; i < rows.size(); ++i) {
          const size_t r = static_cast<size_t>(rows[i]);
          packed_[i] = packed_[i] * k.domain + (valid[r] ? code(r) : 0);
        }
      };
      if (k.col->type() == ValueType::kString) {
        const int32_t* v = k.col->codes().data();
        pack([v](size_t r) { return static_cast<uint64_t>(v[r]) + 1; });
      } else if (k.col->type() == ValueType::kDouble) {
        const double* v = k.col->doubles().data();
        pack([v, &k](size_t r) {
          return static_cast<uint64_t>(k.ids->Of(NormalizedBits(v[r]))) + 1;
        });
      } else if (k.ids) {
        const int64_t* v = k.col->ints().data();
        pack([v, &k](size_t r) {
          return static_cast<uint64_t>(k.ids->Of(static_cast<uint64_t>(v[r]))) +
                 1;
        });
      } else {
        const int64_t* v = k.col->ints().data();
        const uint64_t min = static_cast<uint64_t>(k.min);
        pack([v, min](size_t r) { return static_cast<uint64_t>(v[r]) - min + 1; });
      }
    }
    gids->resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const int32_t g = groups_.Of(packed_[i]);
      if (static_cast<size_t>(g) == first_row.size()) {
        first_row.push_back(rows[i]);
      }
      (*gids)[i] = g;
    }
  }

  std::vector<int64_t> first_row;  // per group: its first scanned row

 private:
  struct Key {
    const Column* col = nullptr;
    uint64_t domain = 1;  // codes are < domain
    int64_t min = 0;
    std::optional<DenseIds> ids;       // DOUBLE and wide INT64 codes
    std::optional<DenseIds> renumber;  // of the key packed before this one
  };

  std::vector<Key> keys_;
  DenseIds groups_;
  std::vector<uint64_t> packed_;
};

// Scaling context for approximate execution: n sample rows drawn from N
// population rows.
struct ApproxContext {
  int64_t sample_rows = 0;
  int64_t population_rows = 0;
};

// CLT standard error of one group's scaled estimate (see ApproxExecution)
// under uniform sampling without replacement, finite-population correction
// applied. Estimating a group's count or sum from a uniform table sample is
// estimating a population total of y_i = x_i * 1[row i in group] over all n
// sample rows, which is why those variances are over n, not the group
// size. HUGE_VAL when no CLT error exists (min/max, avg over fewer than two
// sample rows).
double EstimateSe(AggKind kind, int64_t count, double sum, double sum_squares,
                  const ApproxContext& approx) {
  const double n = static_cast<double>(approx.sample_rows);
  const double N = static_cast<double>(approx.population_rows);
  const double fpc = std::sqrt(std::max(0.0, 1.0 - n / N));
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kCountStar: {
      if (approx.sample_rows < 2) return HUGE_VAL;
      const double p = static_cast<double>(count) / n;
      return N * std::sqrt(p * (1.0 - p) / n) * fpc;
    }
    case AggKind::kSum: {
      if (approx.sample_rows < 2) return HUGE_VAL;
      const double var_y =
          std::max(0.0, (sum_squares - sum * sum / n) / (n - 1.0));
      return N * std::sqrt(var_y / n) * fpc;
    }
    case AggKind::kAvg: {
      if (count < 2) return HUGE_VAL;
      const double c = static_cast<double>(count);
      const double var_x =
          std::max(0.0, (sum_squares - sum * sum / c) / (c - 1.0));
      return std::sqrt(var_x / c) * fpc;
    }
    default:
      return HUGE_VAL;
  }
}

// Codes whose unsigned order is Value::Compare's order on the valid entries
// of `v`: the rank of a STRING among its dictionary's strings, the offset
// bits of an INT64, the NormalizedBits of a DOUBLE with negatives flipped.
std::vector<uint64_t> SortCodes(const Vec& v) {
  std::vector<uint64_t> codes(v.valid.size());
  std::vector<uint64_t> rank;
  if (v.type == ValueType::kString && v.dict != nullptr) {
    std::vector<int32_t> sorted(static_cast<size_t>(v.dict->size()));
    std::iota(sorted.begin(), sorted.end(), 0);
    std::sort(sorted.begin(), sorted.end(), [&v](int32_t x, int32_t y) {
      return v.dict->GetString(x) < v.dict->GetString(y);
    });
    rank.resize(sorted.size());
    for (size_t k = 0; k < sorted.size(); ++k) {
      rank[static_cast<size_t>(sorted[k])] = k;
    }
  }
  for (size_t i = 0; i < codes.size(); ++i) {
    if (!v.valid[i]) continue;
    if (v.type == ValueType::kString) {
      codes[i] = rank[static_cast<size_t>(v.ints[i])];
    } else if (v.type == ValueType::kInt64) {
      codes[i] = static_cast<uint64_t>(v.ints[i]) ^ (1ULL << 63);
    } else {
      const uint64_t bits = NormalizedBits(v.dbls[i]);
      codes[i] = bits >> 63 ? ~bits : bits | (1ULL << 63);
    }
  }
  return codes;
}

// The order in which output entries are emitted: a stable sort on the
// ORDER BY columns (NULL first, then Value::Compare), cut at LIMIT.
Result<std::vector<size_t>> OrderAndLimit(const SelectStatement& stmt,
                                          const std::vector<std::string>& names,
                                          const std::vector<Vec>& cols,
                                          size_t n) {
  struct Key {
    const std::vector<uint8_t>* valid;
    std::vector<uint64_t> codes;
    bool desc;
  };
  std::vector<Key> keys;
  for (const OrderByItem& item : stmt.order_by) {
    size_t c = 0;
    while (c < names.size() && !EqualsIgnoreCase(names[c], item.column)) ++c;
    if (c == names.size()) {
      return Status::InvalidArgument(
          "ORDER BY column is not in the select list: " + item.column);
    }
    keys.push_back({&cols[c].valid, SortCodes(cols[c]), item.descending});
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (!keys.empty()) {
    std::stable_sort(order.begin(), order.end(), [&keys](size_t x, size_t y) {
      for (const Key& k : keys) {
        const bool vx = (*k.valid)[x];
        const bool vy = (*k.valid)[y];
        if (vx != vy) return k.desc ? vx : vy;
        if (vx && k.codes[x] != k.codes[y]) {
          return k.desc ? k.codes[x] > k.codes[y] : k.codes[x] < k.codes[y];
        }
      }
      return false;
    });
  }
  if (stmt.limit >= 0 && order.size() > static_cast<size_t>(stmt.limit)) {
    order.resize(static_cast<size_t>(stmt.limit));
  }
  return order;
}

// Builds the output table from entries `order` of each column. A string
// column re-interns each distinct code once; a kNull column is INT64.
Table Gather(const std::vector<std::string>& names,
             const std::vector<Vec>& cols, const std::vector<size_t>& order) {
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (size_t c = 0; c < cols.size(); ++c) {
    const Vec& v = cols[c];
    const ValueType type =
        v.type == ValueType::kNull ? ValueType::kInt64 : v.type;
    fields.push_back({names[c], type});
    Column& out = columns.emplace_back(type);
    std::vector<int32_t> remap(
        type == ValueType::kString ? static_cast<size_t>(v.dict->size()) : 0,
        -1);
    for (size_t k : order) {
      if (!v.valid[k]) {
        out.AppendNull();
      } else if (type == ValueType::kDouble) {
        out.AppendDouble(v.dbls[k]);
      } else if (type == ValueType::kInt64) {
        out.AppendInt(v.ints[k]);
      } else if (int32_t& code = remap[static_cast<size_t>(v.ints[k])];
                 code >= 0) {
        out.AppendCode(code);
      } else {
        code = out.AppendString(v.Str(k));
      }
    }
  }
  return Table(Schema(std::move(fields)), std::move(columns));
}

// One SELECT over one table. Expressions compile to typed nodes; a batched
// scan evaluates WHERE into a selection vector, assigns group ids and feeds
// per-group typed accumulators in row order; HAVING, the select items,
// ORDER BY and LIMIT then run over per-group (or, without aggregation,
// per-row) arrays, and the output columns are gathered from them.
class Query {
 public:
  Query(const SelectStatement& stmt, const Table& table,
        const ApproxContext* approx)
      : stmt_(stmt), table_(table), approx_(approx) {}

  // With `column_se` set (approximate execution), writes the per-row
  // standard errors of each bare count/sum/avg select item there.
  Result<Table> Run(std::map<std::string, std::vector<double>>* column_se);

 private:
  struct Node {
    ExprKind kind;
    ValueType type = ValueType::kNull;  // of every non-NULL result
    Value literal;
    std::unique_ptr<Dictionary> dict;  // a STRING literal's one entry
    int index = -1;  // kColumnRef: table column; kCall: aggregate
    UnaryOp unary_op = UnaryOp::kNot;
    BinaryOp binary_op = BinaryOp::kEq;
    int left = -1;
    int right = -1;
    // A STRING comparison with a one-entry side (a literal): its sign for
    // each entry of the other side's dictionary, built on first use.
    mutable const Dictionary* entry_dict = nullptr;
    mutable std::vector<int8_t> entry_cmp;
  };

  // One unique aggregate call and its per-group state.
  struct Agg {
    AggKind kind;
    int arg = -1;  // node; -1 for count(*)
    std::vector<int64_t> count;
    std::vector<double> sum, sum_squares;
    Vec extreme{ValueType::kNull, 0};  // min/max: valid = seen
  };

  Status PrepareAggregates();
  Result<int> Compile(const Expr& e, bool grouped);
  Vec Eval(int n, const int64_t* rows, const int32_t* groups,
           size_t count) const;
  void Accumulate(const std::vector<int64_t>& rows,
                  const std::vector<int32_t>& gids, size_t groups);
  void FinishAggregates(size_t groups);

  const SelectStatement& stmt_;
  const Table& table_;
  const ApproxContext* approx_;
  std::vector<Node> nodes_;
  std::vector<int> group_cols_;
  std::vector<std::string> call_keys_;  // canonical text per Agg
  std::vector<Agg> aggs_;
  std::vector<Vec> results_;             // per Agg: value per group
  std::vector<std::vector<double>> se_;  // per Agg: SE per group (approx)
};

Status Query::PrepareAggregates() {
  for (const std::string& name : stmt_.group_by) {
    QAG_ASSIGN_OR_RETURN(int idx, table_.schema().GetFieldIndex(name));
    group_cols_.push_back(idx);
  }
  std::vector<const Expr*> calls;
  for (const SelectItem& item : stmt_.items) CollectCalls(*item.expr, &calls);
  if (stmt_.having) CollectCalls(*stmt_.having, &calls);
  for (const Expr* call : calls) {
    for (const auto& arg : call->args) {
      if (arg->ContainsCall()) {
        return Status::InvalidArgument(
            "nested aggregate calls are not supported: " + call->ToString());
      }
    }
    std::string key = call->ToString();
    if (std::find(call_keys_.begin(), call_keys_.end(), key) !=
        call_keys_.end()) {
      continue;
    }
    Agg agg;
    QAG_ASSIGN_OR_RETURN(agg.kind,
                         AggKindFromName(call->function, call->star_arg));
    if (agg.kind != AggKind::kCountStar) {
      if (call->args.size() != 1) {
        return Status::InvalidArgument(StrCat(
            "aggregate ", call->function, " takes exactly one argument"));
      }
      QAG_ASSIGN_OR_RETURN(agg.arg, Compile(*call->args[0], false));
      const ValueType t = nodes_[static_cast<size_t>(agg.arg)].type;
      if (t == ValueType::kString &&
          (agg.kind == AggKind::kSum || agg.kind == AggKind::kAvg)) {
        return Status::InvalidArgument("non-numeric argument: " + key);
      }
      agg.extreme = Eval(agg.arg, nullptr, nullptr, 0);  // type, dict
    }
    call_keys_.push_back(std::move(key));
    aggs_.push_back(std::move(agg));
  }
  return Status::OK();
}

Result<int> Query::Compile(const Expr& e, bool grouped) {
  Node node;
  node.kind = e.kind;
  switch (e.kind) {
    case ExprKind::kLiteral:
      node.type = e.literal.type();
      node.literal = e.literal;
      if (node.type == ValueType::kString) {
        node.dict = std::make_unique<Dictionary>();
        node.dict->Intern(e.literal.as_string());
      }
      break;
    case ExprKind::kColumnRef: {
      QAG_ASSIGN_OR_RETURN(node.index, table_.schema().GetFieldIndex(e.column));
      if (grouped && std::find(group_cols_.begin(), group_cols_.end(),
                               node.index) == group_cols_.end()) {
        return Status::InvalidArgument(
            "column " + e.column +
            " must be a grouping column or inside an aggregate");
      }
      node.type = table_.schema().field(node.index).type;
      break;
    }
    case ExprKind::kCall: {
      if (!grouped) {
        return Status::InvalidArgument(
            StrCat("aggregate call ", e.ToString(),
                   " is not allowed in a scalar context"));
      }
      node.index = static_cast<int>(
          std::find(call_keys_.begin(), call_keys_.end(), e.ToString()) -
          call_keys_.begin());
      switch (aggs_[static_cast<size_t>(node.index)].kind) {
        case AggKind::kCount:
        case AggKind::kCountStar:
          node.type =
              approx_ != nullptr ? ValueType::kDouble : ValueType::kInt64;
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          node.type = ValueType::kDouble;
          break;
        default:
          node.type = aggs_[static_cast<size_t>(node.index)].extreme.type;
      }
      break;
    }
    case ExprKind::kUnary: {
      node.unary_op = e.unary_op;
      QAG_ASSIGN_OR_RETURN(node.left, Compile(*e.left, grouped));
      node.type = nodes_[static_cast<size_t>(node.left)].type;
      if (e.unary_op == UnaryOp::kNot) {
        node.type = ValueType::kInt64;
      } else if (node.type == ValueType::kString) {
        return Status::InvalidArgument("cannot negate " + e.ToString());
      }
      break;
    }
    case ExprKind::kBinary: {
      node.binary_op = e.binary_op;
      QAG_ASSIGN_OR_RETURN(node.left, Compile(*e.left, grouped));
      QAG_ASSIGN_OR_RETURN(node.right, Compile(*e.right, grouped));
      const ValueType a = nodes_[static_cast<size_t>(node.left)].type;
      const ValueType b = nodes_[static_cast<size_t>(node.right)].type;
      const bool strings = a == ValueType::kString || b == ValueType::kString;
      node.type = ValueType::kInt64;
      switch (e.binary_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          break;
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          if (strings) {
            return Status::InvalidArgument("non-numeric operand in " +
                                           e.ToString());
          }
          if (a == ValueType::kNull || b == ValueType::kNull) {
            node.type = ValueType::kNull;
          } else if (a != ValueType::kInt64 || b != ValueType::kInt64 ||
                     e.binary_op == BinaryOp::kDiv) {
            node.type = ValueType::kDouble;
          }
          break;
        default:  // comparisons
          if (strings && a != b && a != ValueType::kNull &&
              b != ValueType::kNull) {
            return Status::InvalidArgument("cannot compare a string with a "
                                           "number in " + e.ToString());
          }
      }
      break;
    }
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

Vec Query::Eval(int n, const int64_t* rows, const int32_t* groups,
                size_t count) const {
  const Node& node = nodes_[static_cast<size_t>(n)];
  Vec out(node.type, count);
  switch (node.kind) {
    case ExprKind::kLiteral:
      if (node.type == ValueType::kDouble) {
        std::fill(out.dbls.begin(), out.dbls.end(), node.literal.as_double());
      } else if (node.type == ValueType::kInt64) {
        std::fill(out.ints.begin(), out.ints.end(), node.literal.as_int());
      }
      out.dict = node.dict.get();  // a string literal is code 0
      return out;
    case ExprKind::kColumnRef: {
      const Column& col = table_.column(node.index);
      const uint8_t* valid = col.valid().data();
      for (size_t i = 0; i < count; ++i) out.valid[i] = valid[rows[i]];
      if (node.type == ValueType::kDouble) {
        const double* v = col.doubles().data();
        for (size_t i = 0; i < count; ++i) out.dbls[i] = v[rows[i]];
      } else if (node.type == ValueType::kInt64) {
        const int64_t* v = col.ints().data();
        for (size_t i = 0; i < count; ++i) out.ints[i] = v[rows[i]];
      } else {
        const int32_t* v = col.codes().data();
        for (size_t i = 0; i < count; ++i) out.ints[i] = v[rows[i]];
        out.dict = &col.dictionary();
      }
      return out;
    }
    case ExprKind::kCall: {
      const Vec& src = results_[static_cast<size_t>(node.index)];
      for (size_t i = 0; i < count; ++i) {
        out.Set(i, src, static_cast<size_t>(groups[i]));
      }
      out.dict = src.dict;
      return out;
    }
    case ExprKind::kUnary: {
      const Vec a = Eval(node.left, rows, groups, count);
      for (size_t i = 0; i < count; ++i) {
        if (node.unary_op == UnaryOp::kNot) {
          const int t = a.Truth(i);
          out.valid[i] = t >= 0;
          out.ints[i] = 1 - t;
        } else if (node.type == ValueType::kDouble) {
          out.valid[i] = a.valid[i];
          out.dbls[i] = -a.dbls[i];
        } else if (node.type == ValueType::kInt64) {
          out.valid[i] = a.valid[i];
          out.ints[i] =
              static_cast<int64_t>(0 - static_cast<uint64_t>(a.ints[i]));
        }
      }
      return out;
    }
    case ExprKind::kBinary:
      break;
  }

  const Vec a = Eval(node.left, rows, groups, count);
  const Vec b = Eval(node.right, rows, groups, count);
  const BinaryOp op = node.binary_op;
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    const int dominant = op == BinaryOp::kAnd ? 0 : 1;
    for (size_t i = 0; i < count; ++i) {
      const int x = a.Truth(i);
      const int y = b.Truth(i);
      const int t = x == dominant || y == dominant ? dominant
                    : x < 0 || y < 0               ? -1
                                                   : 1 - dominant;
      out.valid[i] = t >= 0;
      out.ints[i] = t;
    }
    return out;
  }
  for (size_t i = 0; i < count; ++i) out.valid[i] = a.valid[i] & b.valid[i];
  if (op >= BinaryOp::kEq) {
    // A string compared with a one-entry dictionary (a literal) is compared
    // once per entry of its own dictionary, then looked up by code.
    const bool by_entry = a.type == ValueType::kString &&
                          b.type == ValueType::kString &&
                          (a.dict->size() == 1 || b.dict->size() == 1);
    const Vec& many = by_entry && b.dict->size() != 1 ? b : a;
    if (by_entry && node.entry_dict != many.dict) {
      const std::string& one = (&many == &a ? b : a).dict->GetString(0);
      const int sign = &many == &a ? 1 : -1;
      node.entry_dict = many.dict;
      node.entry_cmp.resize(static_cast<size_t>(many.dict->size()));
      for (int32_t c = 0; c < many.dict->size(); ++c) {
        const int r = many.dict->GetString(c).compare(one);
        node.entry_cmp[static_cast<size_t>(c)] =
            static_cast<int8_t>(sign * ((r > 0) - (r < 0)));
      }
    }
    const bool holds[3] = {Holds(op, -1), Holds(op, 0), Holds(op, 1)};
    auto run = [&](auto cmp) {
      for (size_t i = 0; i < count; ++i) {
        if (out.valid[i]) out.ints[i] = holds[cmp(i) + 1];
      }
    };
    if (by_entry) {
      const int8_t* entry = node.entry_cmp.data();
      run([&](size_t i) { return entry[many.ints[i]]; });
    } else if (a.type == ValueType::kInt64 && b.type == ValueType::kInt64) {
      run([&](size_t i) { return (a.ints[i] > b.ints[i]) - (a.ints[i] < b.ints[i]); });
    } else {
      run([&](size_t i) { return Compare(a, i, b, i); });
    }
    return out;
  }
  if (node.type == ValueType::kInt64) {
    for (size_t i = 0; i < count; ++i) {
      const uint64_t x = static_cast<uint64_t>(a.ints[i]);
      const uint64_t y = static_cast<uint64_t>(b.ints[i]);
      switch (op) {  // two's-complement wraparound, no UB
        case BinaryOp::kAdd: out.ints[i] = static_cast<int64_t>(x + y); break;
        case BinaryOp::kSub: out.ints[i] = static_cast<int64_t>(x - y); break;
        case BinaryOp::kMul: out.ints[i] = static_cast<int64_t>(x * y); break;
        default:
          if (b.ints[i] == 0) out.valid[i] = 0;
          out.ints[i] = b.ints[i] == 0 || b.ints[i] == -1
                            ? 0
                            : a.ints[i] % b.ints[i];
      }
    }
  } else if (node.type == ValueType::kDouble) {
    for (size_t i = 0; i < count; ++i) {
      const double x = a.Num(i);
      const double y = b.Num(i);
      switch (op) {
        case BinaryOp::kAdd: out.dbls[i] = x + y; break;
        case BinaryOp::kSub: out.dbls[i] = x - y; break;
        case BinaryOp::kMul: out.dbls[i] = x * y; break;
        default:  // SQL: division by zero is NULL
          if (y == 0.0) {
            out.valid[i] = 0;
          } else {
            out.dbls[i] = op == BinaryOp::kDiv ? x / y : std::fmod(x, y);
          }
      }
    }
  }
  return out;
}

void Query::Accumulate(const std::vector<int64_t>& rows,
                       const std::vector<int32_t>& gids, size_t groups) {
  for (Agg& agg : aggs_) {
    agg.count.resize(groups);
    if (agg.kind == AggKind::kCountStar) {
      for (int32_t g : gids) ++agg.count[static_cast<size_t>(g)];
      continue;
    }
    const Vec v = Eval(agg.arg, rows.data(), nullptr, rows.size());
    if (agg.kind == AggKind::kMin || agg.kind == AggKind::kMax) {
      const int better = agg.kind == AggKind::kMin ? -1 : 1;
      agg.extreme.Resize(groups);
      for (size_t i = 0; i < rows.size(); ++i) {
        const size_t g = static_cast<size_t>(gids[i]);
        if (v.valid[i] && (!agg.extreme.valid[g] ||
                           Compare(v, i, agg.extreme, g) == better)) {
          agg.extreme.Set(g, v, i);
        }
      }
      continue;
    }
    agg.sum.resize(groups);
    agg.sum_squares.resize(groups);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!v.valid[i]) continue;
      const size_t g = static_cast<size_t>(gids[i]);
      ++agg.count[g];
      const double x = v.Num(i);
      agg.sum[g] += x;
      agg.sum_squares[g] += x * x;
    }
  }
}

void Query::FinishAggregates(size_t groups) {
  const double scale =
      approx_ == nullptr ? 1.0
                         : static_cast<double>(approx_->population_rows) /
                               static_cast<double>(approx_->sample_rows);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    Agg& agg = aggs_[a];
    agg.count.resize(groups);
    agg.sum.resize(groups);
    agg.sum_squares.resize(groups);
    agg.extreme.Resize(groups);
    Vec out(ValueType::kNull, 0);
    switch (agg.kind) {
      case AggKind::kMin:
      case AggKind::kMax:
        out = std::move(agg.extreme);
        break;
      case AggKind::kCount:
      case AggKind::kCountStar:
        out = Vec(approx_ != nullptr ? ValueType::kDouble : ValueType::kInt64,
                  groups);
        for (size_t g = 0; g < groups; ++g) {
          if (approx_ != nullptr) {
            out.dbls[g] = scale * static_cast<double>(agg.count[g]);
          } else {
            out.ints[g] = agg.count[g];
          }
        }
        break;
      default:  // sum scales by N/n, avg is self-normalizing
        out = Vec(ValueType::kDouble, groups);
        for (size_t g = 0; g < groups; ++g) {
          out.valid[g] = agg.count[g] > 0;
          if (!out.valid[g]) continue;
          out.dbls[g] = agg.kind == AggKind::kSum
                            ? scale * agg.sum[g]
                            : agg.sum[g] / static_cast<double>(agg.count[g]);
        }
    }
    results_.push_back(std::move(out));
    if (approx_ == nullptr) continue;
    std::vector<double>& se = se_.emplace_back(groups);
    for (size_t g = 0; g < groups; ++g) {
      se[g] = EstimateSe(agg.kind, agg.count[g], agg.sum[g],
                         agg.sum_squares[g], *approx_);
    }
  }
}

Result<Table> Query::Run(
    std::map<std::string, std::vector<double>>* column_se) {
  if (stmt_.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  int where = -1;
  if (stmt_.where != nullptr) {
    if (stmt_.where->ContainsCall()) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    QAG_ASSIGN_OR_RETURN(where, Compile(*stmt_.where, false));
  }
  bool grouped = !stmt_.group_by.empty() ||
                 (stmt_.having != nullptr && stmt_.having->ContainsCall());
  for (const SelectItem& item : stmt_.items) {
    grouped = grouped || item.expr->ContainsCall();
  }
  if (!grouped && stmt_.having != nullptr) {
    return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
  }
  if (grouped) QAG_RETURN_IF_ERROR(PrepareAggregates());
  std::vector<int> items;
  std::vector<std::string> names;
  for (const SelectItem& item : stmt_.items) {
    QAG_ASSIGN_OR_RETURN(int root, Compile(*item.expr, grouped));
    items.push_back(root);
    names.push_back(item.OutputName());
  }
  int having = -1;
  if (stmt_.having) {
    QAG_ASSIGN_OR_RETURN(having, Compile(*stmt_.having, true));
  }

  // Scan: WHERE into a selection vector, then group ids and accumulators
  // (or, without aggregation, the selected rows themselves).
  std::optional<Grouper> grouper;
  if (grouped) grouper.emplace(table_, group_cols_);
  const bool stop_at_limit =
      !grouped && stmt_.order_by.empty() && stmt_.limit >= 0;
  std::vector<int64_t> batch, sel, out_rows;
  std::vector<int32_t> gids, out_groups;
  for (int64_t start = 0; start < table_.num_rows(); start += kBatch) {
    if (stop_at_limit && static_cast<int64_t>(out_rows.size()) >= stmt_.limit) {
      break;
    }
    batch.resize(static_cast<size_t>(
        std::min(kBatch, table_.num_rows() - start)));
    std::iota(batch.begin(), batch.end(), start);
    if (where < 0) {
      sel = batch;
    } else {
      const Vec keep = Eval(where, batch.data(), nullptr, batch.size());
      sel.clear();
      for (size_t i = 0; i < batch.size(); ++i) {
        if (keep.Truth(i) == 1) sel.push_back(batch[i]);
      }
    }
    if (grouped) {
      grouper->Assign(sel, &gids);
      Accumulate(sel, gids, grouper->first_row.size());
    } else {
      out_rows.insert(out_rows.end(), sel.begin(), sel.end());
    }
  }

  // Groups that pass HAVING; select items read grouping columns at each
  // group's first row.
  if (grouped) {
    const std::vector<int64_t>& first = grouper->first_row;
    FinishAggregates(first.size());
    std::vector<int32_t> all(first.size());
    std::iota(all.begin(), all.end(), 0);
    const Vec keep = having < 0 ? Vec(ValueType::kNull, 0)
                                : Eval(having, first.data(), all.data(),
                                       all.size());
    for (int32_t g : all) {
      if (having >= 0 && keep.Truth(static_cast<size_t>(g)) != 1) continue;
      out_groups.push_back(g);
      out_rows.push_back(first[static_cast<size_t>(g)]);
    }
  }
  std::vector<Vec> cols;
  for (int root : items) {
    cols.push_back(
        Eval(root, out_rows.data(), out_groups.data(), out_rows.size()));
  }
  QAG_ASSIGN_OR_RETURN(std::vector<size_t> order,
                       OrderAndLimit(stmt_, names, cols, out_rows.size()));
  // Standard errors exist for bare count/sum/avg items only; min/max and
  // expressions over aggregates get no column_se entry.
  for (size_t i = 0; column_se != nullptr && i < items.size(); ++i) {
    const Node& node = nodes_[static_cast<size_t>(items[i])];
    if (node.kind != ExprKind::kCall) continue;
    const AggKind kind = aggs_[static_cast<size_t>(node.index)].kind;
    if (kind == AggKind::kMin || kind == AggKind::kMax) continue;
    std::vector<double>& ses = (*column_se)[names[i]];
    ses.clear();
    for (size_t k : order) {
      ses.push_back(se_[static_cast<size_t>(node.index)]
                       [static_cast<size_t>(out_groups[k])]);
    }
  }
  return Gather(names, cols, order);
}

}  // namespace

Result<Table> ExecuteSelect(const SelectStatement& stmt,
                            const Catalog& catalog) {
  const Table* table = catalog.Find(stmt.table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt.table_name);
  }
  return Query(stmt, *table, nullptr).Run(nullptr);
}

Result<Table> ExecuteSql(const std::string& sql, const Catalog& catalog) {
  QAG_ASSIGN_OR_RETURN(SelectStatement stmt, Parser::ParseSelect(sql));
  return ExecuteSelect(stmt, catalog);
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
    QAG_ASSIGN_OR_RETURN(Table exact, ExecuteSelect(stmt, catalog));
    ApproxExecution out{std::move(exact)};
    out.sample_rows = table->num_rows();
    out.population_rows = table->num_rows();
    return out;
  }

  ApproxContext ctx{sample->rows->num_rows(), sample->population_rows};
  std::map<std::string, std::vector<double>> column_se;
  QAG_ASSIGN_OR_RETURN(Table estimate,
                       Query(stmt, *sample->rows, &ctx).Run(&column_se));
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
  return ExecuteSelectApproximate(stmt, catalog);
}

}  // namespace qagview::sql
