#include "index/index_manager.h"

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

const BTreeIndex* IndexManager::GetOrBuild(const IndexDef& def) {
  AIMAI_CHECK(!def.is_columnstore);
  const std::string key = def.CanonicalName();
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second.get();
  AIMAI_SPAN("index.build");
  AIMAI_COUNTER_INC("index.builds");
  auto built = std::make_unique<BTreeIndex>(*db_, def);
  const BTreeIndex* out = built.get();
  cache_.emplace(key, std::move(built));
  return out;
}

const BTreeIndex* IndexManager::Find(const std::string& canonical_name) const {
  auto it = cache_.find(canonical_name);
  if (it == cache_.end()) return nullptr;
  return it->second.get();
}

void IndexManager::Materialize(const Configuration& config) {
  for (const IndexDef& def : config.indexes()) {
    if (!def.is_columnstore) GetOrBuild(def);
  }
}

}  // namespace aimai
