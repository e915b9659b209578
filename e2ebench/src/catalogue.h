// Seeded inputs of the serve workloads and the device-side oracle shared by every
// workload: the model catalogue, the request stream, and per-model simulated facts
// (cycles, energy, flash, SRAM) that every response is checked against.

#ifndef NEUROC_E2EBENCH_SRC_CATALOGUE_H_
#define NEUROC_E2EBENCH_SRC_CATALOGUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/encoding.h"
#include "src/core/neuroc_model.h"
#include "src/data/dataset.h"
#include "src/sim/machine.h"

namespace e2ebench {

// Procedural datasets the catalogue models take their inputs from.
enum class InputSet : int { kMnist = 0, kFashion = 1, kCifar5 = 2 };
inline constexpr int kInputSetCount = 3;

struct CatalogueEntry {
  std::string name;
  std::vector<size_t> dims;  // in, hidden..., out
  neuroc::EncodingKind encoding = neuroc::EncodingKind::kBlock;
  double density = 0.12;
  uint64_t model_seed = 0;  // fixed: the catalogue does not depend on the run seed
  InputSet inputs = InputSet::kMnist;
  double popularity = 1.0;  // relative request share
};

// serve_paper: the three Fig. 7 shapes, equally popular.
// serve_churn: twelve small models over all five encodings, Zipf (1/rank) popularity.
std::vector<CatalogueEntry> ServeCatalogue(bool churn);

// Synthetic ternary layers (random adjacency at the entry's density, q7 scales/biases).
neuroc::NeuroCModel BuildCatalogueModel(const CatalogueEntry& entry);

// Quantized image pool of `count` images per input set, seeded by the run seed.
std::vector<neuroc::QuantizedDataset> MakeInputPools(uint64_t seed, size_t count,
                                                     bool mnist_only);

// One request of the stream: which catalogue model, tenant and pool image it uses.
struct RequestSpec {
  uint32_t model = 0;
  uint32_t tenant = 0;
  uint32_t image = 0;
  bool operator==(const RequestSpec&) const = default;
};

// The seeded request stream of `n` requests: each request's model is drawn with
// probability proportional to `popularity`, its tenant and image uniformly.
std::vector<RequestSpec> MakeRequestStream(const std::vector<double>& popularity, size_t n,
                                           uint64_t seed, size_t tenants, size_t images);

// Simulated, input-independent facts of one deployed model.
struct DeviceFacts {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t energy_pj = 0;     // rounded like the serving cache's per-request energy
  double energy_uj = 0.0;     // unrounded
  uint64_t flash_bytes = 0;   // program memory: kernels + image + runtime
  uint64_t sram_bytes = 0;    // activation buffers + measured stack high water
  std::vector<uint64_t> layer_cycles;
};

neuroc::StatusOr<DeviceFacts> MeasureDevice(const neuroc::NeuroCModel& model,
                                            const neuroc::MachineConfig& config);

// Cycles at the paper's 8 MHz operating point, in milliseconds.
inline double CyclesToMs(double cycles) { return cycles / 8000.0; }

}  // namespace e2ebench

#endif  // NEUROC_E2EBENCH_SRC_CATALOGUE_H_
