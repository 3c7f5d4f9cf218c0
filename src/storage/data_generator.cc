#include "storage/data_generator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace aimai {

namespace {

/// Zero-pad width for a dictionary of `vocab` entries: enough digits for
/// the largest id, never less than the historical 6 (which keeps every
/// existing small-vocabulary workload byte-identical). A fixed %06lld pad
/// breaks lexicographic order at vocab > 10^6 ("p1000000" < "p999999"),
/// which silently corrupts range-predicate selectivity on dict columns.
int DictPadWidth(int64_t vocab) {
  int digits = 1;
  for (int64_t v = vocab - 1; v >= 10; v /= 10) ++digits;
  return digits < 6 ? 6 : digits;
}

/// Builds the `vocab`-entry dictionary "<prefix><zero-padded id>" and
/// verifies the sorted-order invariant the dictionary encoding relies on
/// (code order == lexicographic order).
std::vector<std::string> BuildSortedDict(int64_t vocab,
                                         const std::string& prefix) {
  const int width = DictPadWidth(vocab);
  std::vector<std::string> dict;
  dict.reserve(static_cast<size_t>(vocab));
  for (int64_t i = 0; i < vocab; ++i) {
    dict.push_back(StrFormat("%s%0*lld", prefix.c_str(), width,
                             static_cast<long long>(i)));
  }
  AIMAI_CHECK_MSG(std::is_sorted(dict.begin(), dict.end()),
                  "generated dictionary is not lexicographically sorted");
  return dict;
}

}  // namespace

void DataGenerator::FillSequentialInt(Column* col, size_t n) {
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    col->AppendInt(static_cast<int64_t>(i));
  }
}

void DataGenerator::FillUniformInt(Column* col, size_t n, int64_t lo,
                                   int64_t hi) {
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    col->AppendInt(rng_.UniformInt(lo, hi));
  }
}

void DataGenerator::FillZipfInt(Column* col, size_t n, int64_t lo,
                                int64_t domain, double s) {
  AIMAI_CHECK(domain >= 1);
  ZipfSampler zipf(domain, s, n);
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    col->AppendInt(lo + zipf.Draw(&rng_) - 1);
  }
}

void DataGenerator::FillForeignKey(Column* col, size_t n, int64_t parent_rows,
                                   double s) {
  AIMAI_CHECK(parent_rows >= 1);
  ZipfSampler zipf(parent_rows, s, n);
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    col->AppendInt(zipf.Draw(&rng_) - 1);
  }
}

void DataGenerator::FillUniformDouble(Column* col, size_t n, double lo,
                                      double hi) {
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    col->AppendDouble(rng_.Uniform(lo, hi));
  }
}

void DataGenerator::FillCorrelatedInt(Column* col, const Column& src,
                                      size_t n, double slope, int64_t noise) {
  AIMAI_CHECK(src.size() >= n);
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double base = slope * src.NumericAt(i);
    const int64_t jitter = noise > 0 ? rng_.UniformInt(-noise, noise) : 0;
    col->AppendInt(static_cast<int64_t>(std::llround(base)) + jitter);
  }
}

void DataGenerator::FillDictString(Column* col, size_t n, int64_t vocab,
                                   double s, const std::string& prefix) {
  AIMAI_CHECK(vocab >= 1);
  col->SetDictionary(BuildSortedDict(vocab, prefix));
  ZipfSampler zipf(vocab, s, n);
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    col->AppendCode(static_cast<int32_t>(zipf.Draw(&rng_) - 1));
  }
}

void DataGenerator::FillBucketCorrelatedDict(Column* col, const Column& src,
                                             size_t n, int64_t vocab,
                                             double zipf_s,
                                             double flip_probability,
                                             const std::string& prefix) {
  AIMAI_CHECK(vocab >= 1);
  AIMAI_CHECK(src.size() >= n);
  col->SetDictionary(BuildSortedDict(vocab, prefix));

  // Draw the marginal distribution (Zipf over the vocabulary), then sort
  // and assign by the rank of `src` so that low src values get the heavy
  // codes. Flips keep the correlation imperfect. Row ids are 32-bit — the
  // scale-factor generators run this on multi-million-row columns, and
  // the temporaries here are the build's peak transient memory.
  AIMAI_CHECK(n < (1ULL << 32));
  // Codes lie in [0, vocab), so counting them is sorting them: a sorted
  // multiset is unique, whatever the sort.
  ZipfSampler zipf(vocab, zipf_s > 0 ? zipf_s : 0.6, n);
  std::vector<uint32_t> code_count(static_cast<size_t>(vocab));
  for (size_t i = 0; i < n; ++i) ++code_count[zipf.Draw(&rng_) - 1];

  // Which of several rows with equal src values gets which code is decided
  // by std::sort's tie order, so this must stay std::sort with comparisons
  // equal to `src.NumericAt(a) < src.NumericAt(b)`. Each record carries its
  // row's key (the double view, so int64 keys past 2^53 still tie), so a
  // comparison reads no other memory; the sort makes the same comparisons
  // as one over row indices and yields the same permutation (DESIGN.md,
  // determinism contract).
  struct KeyedRow {
    double key;
    uint32_t row;
  };
  std::vector<KeyedRow> order;
  order.reserve(n);
  VisitNumericData(src, [&order, n](const auto* data) {
    for (size_t i = 0; i < n; ++i) {
      order.push_back(
          {static_cast<double>(data[i]), static_cast<uint32_t>(i)});
    }
  });
  std::sort(order.begin(), order.end(),
            [](const KeyedRow& a, const KeyedRow& b) { return a.key < b.key; });

  std::vector<int32_t> assigned(n);
  size_t pos = 0;
  for (size_t code = 0; code < code_count.size(); ++code) {
    for (uint32_t c = 0; c < code_count[code]; ++c) {
      assigned[order[pos++].row] = static_cast<int32_t>(code);
    }
  }
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int32_t code = assigned[i];
    if (flip_probability > 0 && rng_.Bernoulli(flip_probability)) {
      code = static_cast<int32_t>(rng_.UniformInt(0, vocab - 1));
    }
    col->AppendCode(code);
  }
}

void DataGenerator::FillDateInt(Column* col, size_t n, int64_t base,
                                int64_t span) {
  AIMAI_CHECK(span >= 1);
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    col->AppendInt(base + rng_.UniformInt(0, span - 1));
  }
}

void TableFillPlan::Add(std::function<void(DataGenerator*)> fill) {
  // The child stream is drawn here, at registration: the Split() sequence
  // is a pure function of registration order, so serial and pooled runs
  // see identical per-task generators.
  tasks_.push_back(Task{base_.Split(), std::move(fill), stage_});
}

void TableFillPlan::Barrier() { ++stage_; }

void TableFillPlan::Run(ThreadPool* pool) {
  size_t begin = 0;
  while (begin < tasks_.size()) {
    size_t end = begin;
    while (end < tasks_.size() && tasks_[end].stage == tasks_[begin].stage) {
      ++end;
    }
    ParallelFor(pool, end - begin, [&](size_t i) {
      Task& task = tasks_[begin + i];
      DataGenerator gen(task.rng);
      task.fill(&gen);
    });
    begin = end;
  }
  tasks_.clear();
  stage_ = 0;
}

}  // namespace aimai
