#ifndef AIMAI_COMMON_SERIALIZE_H_
#define AIMAI_COMMON_SERIALIZE_H_

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace aimai {

/// Minimal whitespace-separated token serialization used for model and
/// telemetry persistence (the paper's deployment path: the offline model
/// is trained centrally and shipped to tuners, §2.3).
///
/// Format properties: versioned-by-caller, human-inspectable, and
/// round-trip exact for doubles (hex float encoding). Strings are
/// length-prefixed so arbitrary bytes survive.
class TokenWriter {
 public:
  explicit TokenWriter(std::ostream* out) : out_(out) {}

  void WriteInt(int64_t v);
  void WriteUInt(uint64_t v);
  void WriteDouble(double v);
  void WriteBool(bool v);
  void WriteString(const std::string& s);
  /// Writes a literal tag token (callers use tags as format landmarks).
  void WriteTag(const char* tag);

  void WriteIntVector(const std::vector<int>& v);
  void WriteDoubleVector(const std::vector<double>& v);

 private:
  std::ostream* out_;
};

/// Reader mirroring TokenWriter. Every input it reads comes from outside
/// the process (model files, telemetry, checkpoints), so it never aborts:
/// the first malformed token latches a sticky DataLoss Status, and every
/// later read is a cheap no-op returning a default value. Callers check
/// `ok()`/`status()` at record boundaries and skip or propagate.
///
/// TokenWriter ends every token with a space, so a number or tag token that
/// runs into the end of the stream counts as truncated, and a double token
/// must parse in full: a cut inside or just after one is not read as a
/// shorter valid value.
class TokenReader {
 public:
  explicit TokenReader(std::istream* in) : in_(in) {}

  int64_t ReadInt();
  uint64_t ReadUInt();
  double ReadDouble();
  bool ReadBool();
  std::string ReadString();
  /// Consumes one token and checks it equals `tag`.
  void ExpectTag(const char* tag);

  std::vector<int> ReadIntVector();
  std::vector<double> ReadDoubleVector();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  /// Latches a malformed-input condition (the first one wins).
  void Fail(const char* what);
  std::string NextToken();

  std::istream* in_;
  Status status_;
};

/// FNV-1a 64-bit hash, used as the per-record telemetry checksum.
uint64_t Fnv1a64(const void* data, size_t len);
inline uint64_t Fnv1a64(const std::string& s) {
  return Fnv1a64(s.data(), s.size());
}

}  // namespace aimai

#endif  // AIMAI_COMMON_SERIALIZE_H_
