#include "common/serialize.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace aimai {

namespace {
// Vector/string sizes beyond this are treated as corruption rather than
// honored: a flipped byte in a length token must not drive a multi-GB
// allocation. Far above anything the library writes.
constexpr uint64_t kMaxReasonableLength = 1ull << 24;
}  // namespace

void TokenWriter::WriteInt(int64_t v) { *out_ << v << ' '; }

void TokenWriter::WriteUInt(uint64_t v) { *out_ << v << ' '; }

void TokenWriter::WriteDouble(double v) {
  // Hex float round-trips exactly and parses locale-independently.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  *out_ << buf << ' ';
}

void TokenWriter::WriteBool(bool v) { *out_ << (v ? 1 : 0) << ' '; }

void TokenWriter::WriteString(const std::string& s) {
  *out_ << "s" << s.size() << ':';
  out_->write(s.data(), static_cast<std::streamsize>(s.size()));
  *out_ << ' ';
}

void TokenWriter::WriteTag(const char* tag) { *out_ << tag << ' '; }

void TokenWriter::WriteIntVector(const std::vector<int>& v) {
  WriteUInt(v.size());
  for (int x : v) WriteInt(x);
}

void TokenWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteUInt(v.size());
  for (double x : v) WriteDouble(x);
}

void TokenReader::Fail(const char* what) {
  if (status_.ok()) {  // First error wins; later ones are cascade noise.
    status_ = Status::DataLoss(what);
  }
}

std::string TokenReader::NextToken() {
  if (!status_.ok()) return std::string();
  std::string tok;
  *in_ >> tok;
  // TokenWriter ends every token with a space, so a token that runs into
  // the end of the stream was cut short.
  if (tok.empty() || in_->fail() || in_->eof()) {
    Fail("truncated stream");
    return std::string();
  }
  return tok;
}

int64_t TokenReader::ReadInt() {
  const std::string tok = NextToken();
  if (!status_.ok()) return 0;
  char* end = nullptr;
  const int64_t v = std::strtoll(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') Fail("bad integer token");
  return status_.ok() ? v : 0;
}

uint64_t TokenReader::ReadUInt() {
  const std::string tok = NextToken();
  if (!status_.ok()) return 0;
  char* end = nullptr;
  const uint64_t v = std::strtoull(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') Fail("bad unsigned token");
  return status_.ok() ? v : 0;
}

double TokenReader::ReadDouble() {
  const std::string tok = NextToken();
  if (!status_.ok()) return 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') Fail("bad double token");
  return status_.ok() ? v : 0;
}

bool TokenReader::ReadBool() { return ReadInt() != 0; }

std::string TokenReader::ReadString() {
  if (!status_.ok()) return std::string();
  // Skip whitespace, expect "s<len>:<bytes>".
  char c = 0;
  do {
    if (!in_->get(c)) {
      Fail("truncated stream");
      return std::string();
    }
  } while (c == ' ' || c == '\n' || c == '\t' || c == '\r');
  if (c != 's') {
    Fail("expected string token");
    return std::string();
  }
  uint64_t len = 0;
  bool any_digit = false;
  while (in_->get(c) && c != ':') {
    if (c < '0' || c > '9' || len > kMaxReasonableLength) {
      Fail("bad string length");
      return std::string();
    }
    len = len * 10 + static_cast<uint64_t>(c - '0');
    any_digit = true;
  }
  if (!any_digit || len > kMaxReasonableLength) {
    Fail("bad string length");
    return std::string();
  }
  std::string s(len, '\0');
  if (len > 0) {
    in_->read(s.data(), static_cast<std::streamsize>(len));
    if (in_->gcount() != static_cast<std::streamsize>(len)) {
      Fail("truncated string");
      return std::string();
    }
  }
  return s;
}

void TokenReader::ExpectTag(const char* tag) {
  const std::string tok = NextToken();
  if (!status_.ok()) return;
  if (tok != tag) Fail(tag);
}

std::vector<int> TokenReader::ReadIntVector() {
  const uint64_t n = ReadUInt();
  if (!status_.ok()) return {};
  if (n > kMaxReasonableLength) {
    Fail("bad vector length");
    return {};
  }
  std::vector<int> v(n);
  for (uint64_t i = 0; i < n && status_.ok(); ++i) {
    v[i] = static_cast<int>(ReadInt());
  }
  return v;
}

std::vector<double> TokenReader::ReadDoubleVector() {
  const uint64_t n = ReadUInt();
  if (!status_.ok()) return {};
  if (n > kMaxReasonableLength) {
    Fail("bad vector length");
    return {};
  }
  std::vector<double> v(n);
  for (uint64_t i = 0; i < n && status_.ok(); ++i) v[i] = ReadDouble();
  return v;
}

uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace aimai
