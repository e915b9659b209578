// LRU cache of deployed models for the serving layer. Each entry owns one GuardedModel
// (deployed machine + watchdog + recovery ladder, PR 9) plus the per-inference energy
// proxy profiled once at load. Entries are pinned while a batch executes on them, so
// eviction can never free a machine another worker is driving; eviction victims are the
// least-recently-used unpinned entries. A reload after eviction goes through the same
// loader, and any flash corruption a cached machine picks up mid-service is healed by
// GuardedModel's scrub-and-retry rungs on the next request — the cache never needs a
// separate repair path.
//
// Cache traffic is counted in the global MetricsRegistry: serve.cache.{hits,misses,
// evictions,load_failures}.

#ifndef NEUROC_SRC_SERVE_MODEL_CACHE_H_
#define NEUROC_SRC_SERVE_MODEL_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/status.h"
#include "src/runtime/recovery.h"
#include "src/sim/machine.h"

namespace neuroc {

struct ModelCacheConfig {
  size_t capacity = 4;  // max resident models; >= 1
  MachineConfig machine;
  RecoveryPolicy policy;
};

// Resolves a model name to a freshly loaded host model (e.g. <dir>/<name>.ncm, or an
// in-memory registry in tests/benches). Must be pure: same name -> same model bytes.
using ModelLoader = std::function<StatusOr<NeuroCModel>(const std::string& name)>;

// Loader over a directory of v2 CRC model images: name -> <dir>/<name>.ncm.
ModelLoader DirectoryModelLoader(const std::string& dir);

class ModelCache {
 public:
  struct Entry {
    std::string name;
    GuardedModel model;
    uint64_t energy_pj = 0;  // per-inference energy proxy, profiled once at load
    int pins = 0;            // in-flight batches executing on this machine
  };

  ModelCache(const ModelCacheConfig& config, ModelLoader loader);

  // Returns the cached entry for `name`, loading (and evicting the LRU unpinned entry
  // when over capacity) on miss. The returned entry is pinned; callers must Release it
  // after the batch completes. Load failures are structured (kIoError/kMalformedImage/
  // kResourceExhausted from the loader or deploy), never aborts.
  StatusOr<Entry*> Acquire(const std::string& name);
  void Release(Entry* entry);

  // Entries currently resident (test/stats hook).
  size_t resident() const;
  // Unlocked peek used by tests to reach the deployed machine (e.g. to inject faults).
  // The entry pointer stays valid until the entry is evicted.
  Entry* PeekForTest(const std::string& name);

 private:
  // Moves unpinned LRU entries into `evicted` until the cache fits capacity. Caller holds
  // mutex_ and destroys `evicted` only after releasing it.
  void EvictOverflowLocked(std::list<Entry>& evicted);

  ModelCacheConfig config_;
  ModelLoader loader_;
  mutable std::mutex mutex_;
  // Front = most recently used. std::list keeps Entry addresses stable across splices
  // and unrelated evictions (pinned entries are pointed to by running batches).
  std::list<Entry> entries_;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_SERVE_MODEL_CACHE_H_
