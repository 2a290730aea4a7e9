#include "storage/dictionary.h"

#include <functional>

namespace qagview::storage {

namespace {

uint64_t Hash(std::string_view s) { return std::hash<std::string_view>{}(s); }

uint32_t Tag(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

}  // namespace

size_t Dictionary::Probe(std::string_view s, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.code < 0 ||
        (slot.tag == Tag(hash) &&
         strings_[static_cast<size_t>(slot.code)] == s)) {
      return i;
    }
  }
}

void Dictionary::Grow() {
  slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), Slot{});
  const size_t mask = slots_.size() - 1;
  for (int32_t code = 0; code < size(); ++code) {
    const uint64_t hash = Hash(strings_[static_cast<size_t>(code)]);
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots_[i].code >= 0) i = (i + 1) & mask;
    slots_[i] = Slot{Tag(hash), code};
  }
}

int32_t Dictionary::Intern(std::string_view s) {
  if (2 * (strings_.size() + 1) > slots_.size()) Grow();
  const uint64_t hash = Hash(s);
  Slot& slot = slots_[Probe(s, hash)];
  if (slot.code < 0) {
    slot = Slot{Tag(hash), size()};
    strings_.emplace_back(s);
  }
  return slot.code;
}

std::optional<int32_t> Dictionary::Find(std::string_view s) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& slot = slots_[Probe(s, Hash(s))];
  if (slot.code < 0) return std::nullopt;
  return slot.code;
}

}  // namespace qagview::storage
