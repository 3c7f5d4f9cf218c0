#include "index/index_manager.h"

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

const BTreeIndex* IndexManager::GetOrBuild(const IndexDef& def) {
  AIMAI_CHECK(!def.is_columnstore);
  Key key(def.table_id, def.key_columns);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second.get();
  AIMAI_SPAN("index.build");
  AIMAI_COUNTER_INC("index.builds");
  auto built = std::make_unique<BTreeIndex>(*db_, def);
  const BTreeIndex* out = built.get();
  cache_.emplace(std::move(key), std::move(built));
  return out;
}

void IndexManager::Materialize(const Configuration& config) {
  for (const IndexDef& def : config.indexes()) {
    if (!def.is_columnstore) GetOrBuild(def);
  }
}

}  // namespace aimai
