#include "storage/sample.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/flat_map.h"
#include "common/logging.h"

namespace qagview::storage {

ReservoirSampler::ReservoirSampler(int capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  QAG_CHECK(capacity_ > 0) << "reservoir capacity must be positive";
  reservoir_.reserve(static_cast<size_t>(capacity_));
}

double ReservoirSampler::UnitOpen() {
  double u = rng_.Uniform01();  // [0, 1)
  return u > 0.0 ? u : std::numeric_limits<double>::min();
}

void ReservoirSampler::ScheduleNextPick() {
  // Skip length: geometric with parameter 1 - w_. log1p keeps the
  // denominator accurate for w_ near 0; the clamp guards the int64 cast
  // when w_ is so small the skip exceeds any realistic stream (and w_ == 1
  // degenerates to admitting the very next row, which is harmless).
  double skip = std::floor(std::log(UnitOpen()) / std::log1p(-w_));
  if (!(skip < 9.0e18)) skip = 9.0e18;
  next_pick_ = seen_ + static_cast<int64_t>(skip) + 1;
}

void ReservoirSampler::AddRows(int64_t count) {
  const int64_t end = seen_ + count;
  // Fill phase: every row is admitted until the reservoir reaches capacity.
  while (static_cast<int>(reservoir_.size()) < capacity_ && seen_ < end) {
    reservoir_.push_back(seen_++);
    if (static_cast<int>(reservoir_.size()) == capacity_) {
      w_ = std::exp(std::log(UnitOpen()) / capacity_);
      ScheduleNextPick();
    }
  }
  // Skip-ahead phase: jump straight to each admitted row.
  while (static_cast<int>(reservoir_.size()) == capacity_ &&
         next_pick_ <= end) {
    seen_ = next_pick_;
    reservoir_[static_cast<size_t>(rng_.Index(capacity_))] = seen_ - 1;
    w_ *= std::exp(std::log(UnitOpen()) / capacity_);
    ScheduleNextPick();
  }
  seen_ = end;
}

std::shared_ptr<const TableSample> ReservoirSampler::Snapshot(
    const Table& table) const {
  QAG_CHECK(table.num_rows() >= seen_)
      << "sampled table version is missing rows the sampler has seen";
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& from = table.column(c);
    Column& to = columns.emplace_back(from.type());
    // Table code -> sample code, so each string is interned once, not per row.
    FlatMap64 codes;
    for (int64_t row : reservoir_) {
      if (from.IsNull(row)) {
        to.AppendNull();
      } else if (from.type() == ValueType::kInt64) {
        to.AppendInt(from.GetInt(row));
      } else if (from.type() == ValueType::kDouble) {
        to.AppendDouble(from.GetDouble(row));
      } else if (auto [code, fresh] = codes.FindOrInsert(
                     static_cast<uint64_t>(from.GetStringCode(row)),
                     to.dictionary().size());
                 fresh) {
        to.AppendString(from.GetString(row));
      } else {
        to.AppendCode(code);
      }
    }
  }
  return std::make_shared<const TableSample>(
      Table(table.schema(), std::move(columns)), seen_);
}

}  // namespace qagview::storage
