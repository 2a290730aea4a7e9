#ifndef QAGVIEW_SERVICE_WARM_START_H_
#define QAGVIEW_SERVICE_WARM_START_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/session.h"

namespace qagview::service {

/// \file
/// \brief Persistent warm-start snapshots: the on-disk envelope around a
/// serialized guidance grid (core/solution_store_io.h payload), keyed by
/// the catalog version and the answer set's input fingerprints.
///
/// The envelope exists so a later process can decide *whether the file is
/// even worth parsing* — and detect damage — before any core state is
/// touched. Validation is layered, and every layer degrades to a cold
/// build, never a wrong answer:
///
///  1. ReadWarmStartSnapshot checks the envelope: magic, format version,
///     exact payload byte count, and an FNV-1a checksum over the payload
///     (truncation and bit flips fail here with a clean Status).
///  2. core::Session::LoadGuidanceSnapshot checks identity: the recorded
///     content/domain fingerprints and answer-set shape must match the
///     currently published set (a snapshot from older data fails here).
///  3. The store deserializer re-resolves every cluster pattern against
///     the freshly built universe (the final, exact integrity check).
///
/// Format (one file, text):
///   qagview-snap 1 <catalog_version> <content_fp> <domain_fp> <n> <m>
///       <store_l> <payload_bytes> <payload_fnv64>   (one line, hex fps)
///   <payload: the qagview-store serialization, exactly payload_bytes>
struct WarmStartSnapshot {
  /// Catalog version the grid was built under (provenance half of the
  /// key; the fingerprints are authoritative for validity — a version
  /// bump that provably did not change the answer set still warm-starts).
  uint64_t catalog_version = 0;
  /// The serialized grid and the identity of the answer set it was built
  /// from, exactly as core::Session snapshots and reloads it.
  core::Session::GuidanceSnapshot grid;
};

/// 64-bit FNV-1a over `data` — the payload checksum.
uint64_t WarmStartChecksum(const std::string& data);

/// The snapshot file name for a session cache key (a stable hash rendered
/// as hex, so arbitrary SQL text never reaches the filesystem).
std::string WarmStartFileName(const std::string& session_key);

/// Writes atomically (temp file + rename): a crash mid-write leaves either
/// the old snapshot or none, never a torn file a reader could see.
Status WriteWarmStartSnapshot(const std::string& path,
                              const WarmStartSnapshot& snapshot);

/// Reads and envelope-validates a snapshot. Any damage — missing file,
/// bad magic/version, short or long payload, checksum mismatch, absurd
/// header fields — returns a clean Status; never crashes, never returns a
/// partially filled snapshot.
Result<WarmStartSnapshot> ReadWarmStartSnapshot(const std::string& path);

}  // namespace qagview::service

#endif  // QAGVIEW_SERVICE_WARM_START_H_
