#include "service/warm_start.h"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace qagview::service {

namespace {

constexpr int kFormatVersion = 1;
constexpr const char* kMagic = "qagview-snap";
/// Ceiling on the serialized-store payload (64 MiB). A header promising
/// more than this is damage or forgery, not a real grid.
constexpr uint64_t kMaxPayloadBytes = 64ull << 20;

std::string Hex64(uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

Result<uint64_t> ParseHex64(const std::string& text) {
  if (text.empty() || text.size() > 16) {
    return Status::InvalidArgument(StrCat("bad hex field '", text, "'"));
  }
  uint64_t out = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return Status::InvalidArgument(StrCat("bad hex field '", text, "'"));
    }
    out = (out << 4) | static_cast<uint64_t>(digit);
  }
  return out;
}

Result<int> ParseBoundedInt(const std::string& text, const char* what,
                            int64_t lo, int64_t hi) {
  QAG_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
  if (v < lo || v > hi) {
    return Status::InvalidArgument(
        StrCat("snapshot ", what, " = ", v, " outside [", lo, ", ", hi, "]"));
  }
  return static_cast<int>(v);
}

}  // namespace

uint64_t WarmStartChecksum(const std::string& data) {
  // FNV-1a, 64-bit.
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string WarmStartFileName(const std::string& session_key) {
  return StrCat(Hex64(WarmStartChecksum(session_key)), ".qsnap");
}

Status WriteWarmStartSnapshot(const std::string& path,
                              const WarmStartSnapshot& snapshot) {
  const core::Session::GuidanceSnapshot& grid = snapshot.grid;
  std::string out = StrCat(
      kMagic, " ", kFormatVersion, " ", Hex64(snapshot.catalog_version), " ",
      Hex64(grid.content_fingerprint), " ", Hex64(grid.domain_fingerprint),
      " ", grid.num_answers, " ", grid.num_attrs, " ", grid.store_l, " ",
      grid.payload.size(), " ", Hex64(WarmStartChecksum(grid.payload)), "\n");
  out += grid.payload;
  const std::string tmp = StrCat(path, ".tmp");
  {
    std::ofstream file(tmp, std::ios::trunc | std::ios::binary);
    if (!file) {
      return Status::NotFound(StrCat("cannot open ", tmp, " for writing"));
    }
    file << out;
    file.flush();
    if (!file) return Status::Internal(StrCat("write to ", tmp, " failed"));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal(
        StrCat("rename ", tmp, " -> ", path, " failed: errno ", errno));
  }
  return Status::OK();
}

Result<WarmStartSnapshot> ReadWarmStartSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrCat("cannot open ", path));
  std::string header;
  if (!std::getline(in, header)) {
    return Status::InvalidArgument(StrCat(path, ": empty snapshot file"));
  }
  std::vector<std::string> fields = Split(header, ' ');
  if (fields.size() != 10 || fields[0] != kMagic) {
    return Status::InvalidArgument(
        StrCat(path, ": bad header (expected '", kMagic, " <version> ...')"));
  }
  QAG_ASSIGN_OR_RETURN(int64_t version, ParseInt64(fields[1]));
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        StrCat(path, ": unsupported snapshot version ", version));
  }
  WarmStartSnapshot out;
  core::Session::GuidanceSnapshot& grid = out.grid;
  QAG_ASSIGN_OR_RETURN(out.catalog_version, ParseHex64(fields[2]));
  QAG_ASSIGN_OR_RETURN(grid.content_fingerprint, ParseHex64(fields[3]));
  QAG_ASSIGN_OR_RETURN(grid.domain_fingerprint, ParseHex64(fields[4]));
  QAG_ASSIGN_OR_RETURN(
      grid.num_answers,
      ParseBoundedInt(fields[5], "num_answers", 1, 1 << 30));
  QAG_ASSIGN_OR_RETURN(grid.num_attrs,
                       ParseBoundedInt(fields[6], "num_attrs", 1, 1 << 20));
  QAG_ASSIGN_OR_RETURN(grid.store_l,
                       ParseBoundedInt(fields[7], "store_l", 1, 1 << 30));
  QAG_ASSIGN_OR_RETURN(int64_t payload_bytes, ParseInt64(fields[8]));
  if (payload_bytes < 0 ||
      static_cast<uint64_t>(payload_bytes) > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        StrCat(path, ": implausible payload size ", payload_bytes));
  }
  QAG_ASSIGN_OR_RETURN(uint64_t checksum, ParseHex64(fields[9]));
  // Exactly payload_bytes must remain: short reads are truncation, extra
  // trailing bytes are damage (the writer emits nothing after the payload).
  std::ostringstream rest;
  rest << in.rdbuf();
  grid.payload = rest.str();
  if (static_cast<int64_t>(grid.payload.size()) != payload_bytes) {
    return Status::InvalidArgument(
        StrCat(path, ": payload is ", grid.payload.size(),
               " bytes, header promised ", payload_bytes));
  }
  if (WarmStartChecksum(grid.payload) != checksum) {
    return Status::InvalidArgument(
        StrCat(path, ": payload checksum mismatch (corrupt snapshot)"));
  }
  return out;
}

}  // namespace qagview::service
