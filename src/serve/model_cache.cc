#include "src/serve/model_cache.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/core/model_serde.h"
#include "src/obs/registry.h"
#include "src/runtime/profile.h"

namespace neuroc {

ModelLoader DirectoryModelLoader(const std::string& dir) {
  return [dir](const std::string& name) -> StatusOr<NeuroCModel> {
    return LoadNeuroCModel(dir + "/" + name + ".ncm");
  };
}

ModelCache::ModelCache(const ModelCacheConfig& config, ModelLoader loader)
    : config_(config), loader_(std::move(loader)) {
  NEUROC_CHECK(config_.capacity >= 1);
  NEUROC_CHECK(loader_ != nullptr);
}

StatusOr<ModelCache::Entry*> ModelCache::Acquire(const std::string& name) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::list<Entry> evicted;  // declared before the lock: torn down after it is released
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name == name) {
      entries_.splice(entries_.begin(), entries_, it);  // move to MRU
      ++entries_.front().pins;
      reg.GetCounter("serve.cache.hits").Add(1);
      return &entries_.front();
    }
  }
  reg.GetCounter("serve.cache.misses").Add(1);

  // Load outside the lock: codegen, deploy and the golden run are milliseconds of host
  // work, and other models' batches must keep flowing meanwhile.
  lock.unlock();
  StatusOr<NeuroCModel> model = loader_(name);
  if (!model.ok()) {
    reg.GetCounter("serve.cache.load_failures").Add(1);
    return model.status();
  }
  // The load's one golden inference calibrates the watchdog and pins the per-request
  // energy proxy. Cycles (and with them the opcode mix) are input-independent by
  // construction, so this zero-input estimate holds for every request served by the model.
  ExecutionProfile golden;
  StatusOr<GuardedModel> guarded =
      GuardedModel::Create(std::move(*model), config_.machine, config_.policy, &golden);
  if (!guarded.ok()) {
    reg.GetCounter("serve.cache.load_failures").Add(1);
    return guarded.status();
  }
  const EnergyEstimate energy = EstimateEnergy(golden);

  lock.lock();
  // A concurrent Acquire may have loaded the same name while we were unlocked; prefer
  // the resident entry and drop ours so a model never has two live machines.
  Entry* entry = nullptr;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name == name) {
      entries_.splice(entries_.begin(), entries_, it);
      entry = &entries_.front();
      break;
    }
  }
  if (entry == nullptr) {
    entries_.push_front(Entry{name, std::move(*guarded),
                              static_cast<uint64_t>(std::llround(energy.total_pj)),
                              /*pins=*/0});
    entry = &entries_.front();
  }
  ++entry->pins;
  EvictOverflowLocked(evicted);
  // Machine teardown (victims, or our duplicate load) frees a whole simulated machine
  // with its snapshot and decode caches; it runs after unlocking so hits on other models
  // never wait on it.
  lock.unlock();
  return entry;
}

void ModelCache::Release(Entry* entry) {
  std::list<Entry> evicted;  // declared before the lock: torn down after it is released
  std::lock_guard<std::mutex> lock(mutex_);
  NEUROC_CHECK(entry->pins > 0);
  --entry->pins;
  EvictOverflowLocked(evicted);  // an over-capacity entry may have waited on this pin
}

void ModelCache::EvictOverflowLocked(std::list<Entry>& evicted) {
  while (entries_.size() > config_.capacity) {
    // LRU victim: the last unpinned entry. All-pinned over capacity is transient — the
    // releasing batch re-runs eviction.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->pins == 0) {
        victim = it;  // keep scanning: later == less recently used
      }
    }
    if (victim == entries_.end()) {
      return;
    }
    MetricsRegistry::Global().GetCounter("serve.cache.evictions").Add(1);
    evicted.splice(evicted.end(), entries_, victim);
  }
}

size_t ModelCache::resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

ModelCache::Entry* ModelCache::PeekForTest(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& e : entries_) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

}  // namespace neuroc
