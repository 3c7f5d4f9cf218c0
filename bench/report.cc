#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "robustness/atomic_file.h"

namespace aimai::bench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  return 1000.0 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

Report::Report(std::string name) : name_(std::move(name)), out_("{") {
  first_.push_back(true);
  BeginObject("build")
      .Str("type", AIMAI_BENCH_BUILD_TYPE)
      .Str("cxx_flags", AIMAI_BENCH_CXX_FLAGS)
      .Str("compiler", AIMAI_BENCH_COMPILER)
      .Int("threads", ConfiguredThreads())
      .EndObject();
}

Report& Report::Value(const char* key, const std::string& text) {
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  out_ += '\n';
  out_.append(2 * first_.size(), ' ');
  if (key != nullptr) {
    out_ += '"';
    out_ += obs::JsonEscape(key);
    out_ += "\": ";
  }
  out_ += text;
  return *this;
}

Report& Report::Begin(const char* key, char bracket) {
  Value(key, std::string(1, bracket));
  first_.push_back(true);
  return *this;
}

Report& Report::End(char bracket) {
  const bool empty = first_.back();
  first_.pop_back();
  if (!empty) {
    out_ += '\n';
    out_.append(2 * first_.size(), ' ');
  }
  out_ += bracket;
  return *this;
}

Report& Report::Num(const char* key, double v, int decimals) {
  return Value(key, std::isfinite(v) ? StrFormat("%.*f", decimals, v)
                                     : std::string("null"));
}

Report& Report::Str(const char* key, const std::string& v) {
  std::string quoted(1, '"');
  quoted += obs::JsonEscape(v);
  quoted += '"';
  return Value(key, quoted);
}

void Report::Write() {
  End('}');
  out_ += '\n';
  const Status wrote = WriteFileAtomic("BENCH_" + name_ + ".json", out_);
  if (!wrote.ok()) {
    std::fprintf(stderr, "warning: %s\n", wrote.ToString().c_str());
  }
}

AbResult MeasureOverhead(const std::function<AbRun()>& baseline,
                         const std::function<AbRun()>& variant) {
  AbResult r;
  r.baseline_ms = r.variant_ms = INFINITY;
  std::vector<std::string> reference;
  std::vector<double> overheads;
  for (const auto& [base, var] :
       RunAlternatingPairs(kOverheadPairs, baseline, variant)) {
    r.baseline_ms = std::min(r.baseline_ms, base.wall_ms);
    r.variant_ms = std::min(r.variant_ms, var.wall_ms);
    overheads.push_back(100.0 * (var.cpu_ms - base.cpu_ms) / base.cpu_ms);
    r.all_done = r.all_done && base.all_done && var.all_done;
    if (reference.empty()) reference = base.keys;
    r.identical =
        r.identical && base.keys == reference && var.keys == reference;
  }
  static_assert(kOverheadPairs % 2 == 1, "the median is the middle pair");
  const auto mid = overheads.begin() + kOverheadPairs / 2;
  std::nth_element(overheads.begin(), mid, overheads.end());
  r.overhead_pct = *mid;
  return r;
}

bool PassesOverheadGate(const AbResult& r, const char* label) {
  if (!r.all_done) {
    std::fprintf(stderr, "FAIL: not every job reached kDone\n");
  } else if (!r.identical) {
    std::fprintf(stderr, "FAIL: %s changed the tuning recommendations\n",
                 label);
  } else if (r.overhead_pct >= kOverheadBarPct) {
    std::fprintf(stderr, "FAIL: %s overhead %.2f%% >= %.1f%% bar\n", label,
                 r.overhead_pct, kOverheadBarPct);
  } else {
    return true;
  }
  return false;
}

}  // namespace aimai::bench
