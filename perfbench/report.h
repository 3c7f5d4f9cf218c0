#ifndef AIMAI_PERFBENCH_REPORT_H_
#define AIMAI_PERFBENCH_REPORT_H_

// Small helpers shared by the benchmark stages: a steady clock, order
// statistics, an FNV-1a digest for bit-identity checks, the environment
// record, and the one-line JSON result.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median; 0 for an empty input.
double Median(std::vector<double> v);

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty input.
double Percentile(std::vector<double> v, double q);

/// Incremental FNV-1a 64 over strings, for order-sensitive result digests.
class Digest {
 public:
  void Add(const std::string& s);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Deterministic seed derivation: distinct `tag`s give decorrelated
/// streams from one benchmark seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// CPU brand string (from cpuid, so no file outside the checkout is read).
std::string CpuModel();

/// Machine-wide CPU time counters (clock ticks, all CPUs) from the kernel's
/// /proc/stat: `steal` is time the hypervisor ran other guests while this
/// one wanted the CPU. Zeros where the kernel does not report them.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Share of CPU time stolen between two readings.
double StealFraction(const CpuTicks& from, const CpuTicks& to);

/// Timestamped CpuTicks samples, to tell which stretches of a run the
/// hypervisor disturbed. Not thread-safe: one thread samples, readers wait
/// until it is done.
class StealLog {
 public:
  void Sample() { samples_.emplace_back(Clock::now(), ReadCpuTicks()); }
  /// Stolen share over the smallest sampled interval covering [a, b].
  double Between(Clock::time_point a, Clock::time_point b) const;

 private:
  std::vector<std::pair<Clock::time_point, CpuTicks>> samples_;
};

/// Seconds this machine takes right now for a fixed reference task that
/// uses none of the library (sort 2^19 keys, build and probe a hash table
/// of 2^16): its ratio to the same task on a quiet machine measures how
/// much slower the machine is running at the moment.
double CalibrationSeconds();

/// One metric as printed: a value and its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricMap& metrics);

/// Escapes `s` as a JSON string literal (with quotes).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // AIMAI_PERFBENCH_REPORT_H_
