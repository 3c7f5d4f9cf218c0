#include "optimizer/statistics.h"

#include <mutex>

#include "obs/obs.h"

namespace aimai {

const Histogram& StatisticsCatalog::ColumnHistogram(int table_id,
                                                    int column_id) {
  const auto key = std::make_pair(table_id, column_id);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = cache_.find(key);  // Re-check: another thread may have built.
  if (it != cache_.end()) return *it->second;
  AIMAI_SPAN("stats.histogram_build");
  AIMAI_COUNTER_INC("stats.histogram_builds");
  const Column& col =
      db_->table(table_id).column(static_cast<size_t>(column_id));
  auto hist =
      std::make_unique<Histogram>(Histogram::Build(col, histogram_buckets_));
  const Histogram& ref = *hist;
  cache_.emplace(key, std::move(hist));
  return ref;
}

}  // namespace aimai
