#include "report.h"

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void Digest::Add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  // Field separator, so ("ab","c") and ("a","bc") differ.
  h_ ^= 0xff;
  h_ *= 1099511628211ULL;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  // SplitMix64 finalizer over (seed, tag).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffffffULL;
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

std::string CpuModel() {
  unsigned int regs[12];
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49];
  std::memcpy(brand, regs, 48);
  brand[48] = '\0';
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  const size_t e = s.find_last_not_of(" \t\n");
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealFraction(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double StealLog::Between(Clock::time_point a, Clock::time_point b) const {
  if (samples_.empty()) return 0.0;
  size_t lo = 0, hi = samples_.size() - 1;
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (samples_[i].first <= a) lo = i;
  }
  for (size_t i = samples_.size(); i-- > 0;) {
    if (samples_[i].first >= b) hi = i;
  }
  return hi > lo ? StealFraction(samples_[lo].second, samples_[hi].second)
                 : 0.0;
}

double CalibrationSeconds() {
  const Clock::time_point t0 = Clock::now();
  std::vector<uint64_t> keys(1 << 19);
  uint64_t x = 88172645463325252ULL;
  for (uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint64_t, uint32_t> table;
  table.reserve(1 << 16);
  for (uint32_t i = 0; i < (1u << 16); ++i) table.emplace(keys[i * 8u], i);
  uint64_t sum = 0;
  for (uint64_t k : keys) {
    auto it = table.find(k);
    if (it != table.end()) sum += it->second;
  }
  const double s = SecondsSince(t0);
  // Keeps the probes observable so they cannot be optimized away.
  return sum == 1 ? s + 1e-12 : s;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    char value[64];
    // %.17g keeps every digit of the measurement.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += JsonString(name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
