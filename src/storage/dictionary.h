#ifndef QAGVIEW_STORAGE_DICTIONARY_H_
#define QAGVIEW_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"

namespace qagview::storage {

/// \brief Interns strings to dense int32 codes.
///
/// This implements the paper's "hash values for fields" optimization (§6.3):
/// all categorical attribute values are mapped to integer codes once at
/// ingest, so the summarization core compares/hashes int32 instead of text,
/// and codes are mapped back to strings only for display. Codes are
/// assigned in first-seen order; lookups take a string_view and never
/// allocate.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the existing code for `s`, or assigns the next code.
  int32_t Intern(std::string_view s);

  /// Returns the code for `s` if already interned.
  std::optional<int32_t> Find(std::string_view s) const;

  /// Maps a code back to its string. Requires a valid code.
  const std::string& GetString(int32_t code) const {
    QAG_DCHECK(code >= 0 && code < size());
    return strings_[static_cast<size_t>(code)];
  }

  int32_t size() const { return static_cast<int32_t>(strings_.size()); }

 private:
  struct Slot {
    uint32_t tag = 0;   // high half of the string's hash
    int32_t code = -1;  // -1 = empty
  };

  /// The slot holding `s`'s code, or the empty slot where it would go.
  size_t Probe(std::string_view s, uint64_t hash) const;

  /// Doubles the index and re-inserts every code.
  void Grow();

  std::vector<std::string> strings_;  // indexed by code
  /// Open-addressing hash index of codes (linear probing, power-of-two
  /// size, at most half full). A lookup compares against strings_, so no
  /// key is ever copied, and a reallocation of strings_ moves nothing the
  /// index refers to.
  std::vector<Slot> slots_;
};

}  // namespace qagview::storage

#endif  // QAGVIEW_STORAGE_DICTIONARY_H_
