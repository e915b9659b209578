// Load generation for the serving layer: deterministic request streams plus closed- and
// open-loop drivers over InferenceService::Submit.
//
// Request i in a run is a pure function of (config.seed, i): tenant and model assignment
// round-robin over the configured lists and the input bytes come from a per-request
// SplitMix-forked Rng. That makes the *payload side* of a run reproducible — the report's
// `checksum` folds the encoded response payloads of a fixed request-id prefix with an
// order-independent combine, so it is byte-stable across thread counts, arrival jitter
// and batching interleavings (the bench gate's deterministic key). Latency percentiles
// and achieved throughput are host-varying by nature and are reported separately.
//
// Closed loop: `clients` workers, each sending its next request only after the previous
// response arrived (concurrency == clients). Open loop: requests injected on a fixed
// schedule at `offered_qps` regardless of completions — the standard way to expose
// queueing delay past the saturation point. Open-loop latency runs from each request's
// due time on that schedule, so time the generator itself spent behind schedule counts.

#ifndef NEUROC_SRC_SERVE_LOAD_GEN_H_
#define NEUROC_SRC_SERVE_LOAD_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/service.h"

namespace neuroc {

struct LoadGenConfig {
  std::vector<std::string> models;   // request i uses models[i % size]
  std::vector<std::string> tenants;  // request i uses tenants[i % size]
  size_t input_dim = 16;             // bytes of deterministic input per request
  uint64_t seed = 1;

  size_t clients = 4;        // closed loop: concurrent clients
  size_t total_requests = 64;
  double offered_qps = 0.0;  // open loop: injection rate (ignored in closed loop)

  // Response payloads of request ids < checksum_prefix feed the checksum. Fixed so the
  // checksum does not depend on how many requests a particular sweep point sends.
  size_t checksum_prefix = 32;
};

struct LoadGenReport {
  size_t completed = 0;
  size_t failed = 0;           // responses with a non-OK code
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double wall_ms = 0.0;
  double achieved_per_sec = 0.0;
  uint64_t total_cycles = 0;     // simulated guest cycles across OK responses
  uint64_t total_energy_pj = 0;  // energy proxy across OK responses
  uint64_t checksum = 0;         // order-independent FNV fold over prefix payloads
};

// The deterministic request stream: request `index` of a run with this config.
ServeRequest MakeLoadGenRequest(const LoadGenConfig& config, uint64_t index);

LoadGenReport RunClosedLoop(InferenceService& service, const LoadGenConfig& config);
LoadGenReport RunOpenLoop(InferenceService& service, const LoadGenConfig& config);

}  // namespace neuroc

#endif  // NEUROC_SRC_SERVE_LOAD_GEN_H_
