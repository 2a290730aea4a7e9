#ifndef QAGVIEW_STORAGE_SAMPLE_H_
#define QAGVIEW_STORAGE_SAMPLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "storage/table.h"

namespace qagview::storage {

/// \brief An immutable uniform-sample snapshot of one table version: the
/// sampled rows materialized as a Table, plus the population size they were
/// drawn from.
///
/// Published behind `shared_ptr<const TableSample>` with the same immutable
/// snapshot discipline as the tables themselves (service::DatasetCatalog):
/// every catalog mutation publishes a fresh snapshot; readers holding an
/// older one keep it alive for as long as they need it.
struct TableSample {
  TableSample(Table sample_rows, int64_t population)
      : rows(std::move(sample_rows)), population_rows(population) {}

  /// The sampled rows (a uniform subset of the population, in reservoir
  /// order — not the original row order).
  Table rows;

  /// Number of rows in the table version this sample was drawn from.
  int64_t population_rows = 0;

  /// n / N. 1.0 when the sample covers the whole (or an empty) table.
  double fraction() const {
    return population_rows <= 0
               ? 1.0
               : static_cast<double>(rows.num_rows()) /
                     static_cast<double>(population_rows);
  }
};

/// \brief Maintains a bounded uniform reservoir over a table's row stream
/// and materializes immutable TableSample snapshots of it.
///
/// Classic reservoir sampling with Vitter's Algorithm L skip-ahead: once
/// the reservoir is full, the sampler draws the gap to the next admitted
/// row from a geometric distribution instead of flipping a coin per row,
/// so feeding a stream of n rows costs O(capacity * (1 + log(n/capacity)))
/// admissions — per-row work for the common rejected row is one integer
/// compare. The sample is exactly uniform over every prefix of the stream,
/// which is what lets the dataset catalog maintain it incrementally across
/// append batches instead of rescanning the table.
///
/// The stream is one table's rows in order, through all its appended
/// versions, so stream row i is row i of every version. The reservoir holds
/// row positions, not rows; Snapshot gathers the cells from the version it
/// is given.
///
/// Determinism: all randomness flows through the explicitly seeded Rng, so
/// the same (seed, row stream) always yields the same sample — the
/// differential tests rely on this. Not thread-safe; the catalog mutates a
/// sampler only under the owning dataset's writer mutex.
class ReservoirSampler {
 public:
  /// `capacity` > 0 is the reservoir size in rows.
  ReservoirSampler(int capacity, uint64_t seed);

  /// Feeds the next `count` rows of the stream, using skip-ahead to touch
  /// only the admitted ones (a bulk load draws O(capacity *
  /// log(n/capacity)) times).
  void AddRows(int64_t count);

  /// Rows seen so far (N, the population of the current sample).
  int64_t population_rows() const { return seen_; }

  int capacity() const { return capacity_; }

  /// Materializes the current reservoir as an immutable snapshot, gathering
  /// each sampled row from `table`, a version holding every row fed so far.
  /// Rows come in reservoir-slot order, and strings are interned in that
  /// order.
  std::shared_ptr<const TableSample> Snapshot(const Table& table) const;

 private:
  /// Uniform in (0, 1): log() of the result stays finite.
  double UnitOpen();

  /// Draws the stream index of the next admitted row (Algorithm L: the
  /// skip length is geometric with parameter 1 - w_).
  void ScheduleNextPick();

  const int capacity_;
  Rng rng_;
  std::vector<int64_t> reservoir_;  // row positions, one per slot
  int64_t seen_ = 0;       // rows consumed from the stream
  double w_ = 0.0;         // Algorithm L state, valid once the reservoir fills
  int64_t next_pick_ = 0;  // 1-based stream index of the next admitted row
};

}  // namespace qagview::storage

#endif  // QAGVIEW_STORAGE_SAMPLE_H_
