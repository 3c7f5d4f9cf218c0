#ifndef AIMAI_BENCH_REPORT_H_
#define AIMAI_BENCH_REPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace aimai::bench {

/// Milliseconds on the steady clock; only differences are meaningful.
double NowMs();

/// CPU time of the whole process (every thread), in milliseconds.
double CpuMs();

/// A gated bench's machine-readable result, written to BENCH_<name>.json
/// in the working directory. Values are appended in order (key = nullptr
/// inside an array); commas and indentation are handled here, and
/// non-finite numbers are written as null. The first key is always
/// `build`: build type, C++ flags, compiler and tuning thread count.
class Report {
 public:
  explicit Report(std::string name);

  Report& BeginObject(const char* key) { return Begin(key, '{'); }
  Report& EndObject() { return End('}'); }
  Report& BeginArray(const char* key) { return Begin(key, '['); }
  Report& EndArray() { return End(']'); }

  Report& Int(const char* key, int64_t v) {
    return Value(key, std::to_string(v));
  }
  /// Fixed-point with `decimals` digits after the point.
  Report& Num(const char* key, double v, int decimals);
  Report& Bool(const char* key, bool v) {
    return Value(key, v ? "true" : "false");
  }

  /// Closes the object and replaces the file atomically (WriteFileAtomic);
  /// a failed write is a warning on stderr, not a bench failure.
  void Write();

 private:
  Report& Begin(const char* key, char bracket);
  Report& End(char bracket);
  Report& Value(const char* key, const std::string& text);
  Report& Str(const char* key, const std::string& v);

  std::string name_;
  std::string out_;
  std::vector<bool> first_;  // Per open container: nothing written yet.
};

/// One timed run of one side of an A/B comparison.
struct AbRun {
  double wall_ms = 0;
  double cpu_ms = 0;
  std::vector<std::string> keys;  // Per-job recommendation keys.
  bool all_done = true;
};

struct AbResult {
  double baseline_ms = 0;  // Best wall time of each side.
  double variant_ms = 0;
  double overhead_pct = 0;  // Median per-pair CPU-time overhead.
  bool identical = true;    // Every run returned the same keys.
  bool all_done = true;
};

/// The A/B benches' bar on the variant's overhead.
constexpr double kOverheadBarPct = 2.0;

/// On a shared 4-vCPU machine one pair's CPU ratio scatters by ~6%
/// (median absolute deviation), 12% while other tenants are busy; the
/// median of 401 pairs keeps the verdict's run-to-run spread inside the
/// bar. Wall time scatters three to five times more, with scheduling.
constexpr int kOverheadPairs = 401;

/// Runs `baseline` and `variant` in `pairs` back-to-back pairs,
/// alternating which side goes first so drift in machine speed lands on
/// both, and returns each pair's (baseline, variant) results. Gates take
/// the median of a per-pair statistic over them, so a disturbed pair moves
/// one sample, not the verdict.
template <typename Run>
std::vector<std::pair<Run, Run>> RunAlternatingPairs(
    int pairs, const std::function<Run()>& baseline,
    const std::function<Run()>& variant) {
  std::vector<std::pair<Run, Run>> out;
  out.reserve(static_cast<size_t>(pairs));
  for (int p = 0; p < pairs; ++p) {
    Run base, var;
    if (p % 2 == 0) {
      base = baseline();
      var = variant();
    } else {
      var = variant();
      base = baseline();
    }
    out.emplace_back(std::move(base), std::move(var));
  }
  return out;
}

/// Runs `baseline` and `variant` in kOverheadPairs back-to-back pairs,
/// alternating which side goes first so drift in machine speed lands on
/// both. The overhead is the median of the per-pair CPU-time ratios, so a
/// disturbed pair moves one sample, not the verdict.
AbResult MeasureOverhead(const std::function<AbRun()>& baseline,
                         const std::function<AbRun()>& variant);

/// Fails, saying why on stderr, when a job did not finish, the variant
/// (named `label`) changed a recommendation, or its overhead reaches
/// kOverheadBarPct.
bool PassesOverheadGate(const AbResult& r, const char* label);

}  // namespace aimai::bench

#endif  // AIMAI_BENCH_REPORT_H_
