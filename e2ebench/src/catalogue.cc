#include "e2ebench/src/catalogue.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/rng.h"
#include "src/core/synthetic.h"
#include "src/data/synth.h"
#include "src/obs/energy.h"
#include "src/runtime/deployed_model.h"
#include "src/runtime/profile.h"

namespace e2ebench {

using neuroc::EncodingKind;

std::vector<CatalogueEntry> ServeCatalogue(bool churn) {
  std::vector<CatalogueEntry> out;
  if (!churn) {
    out.push_back({"paper_mnist_block", {784, 256, 128, 10}, EncodingKind::kBlock, 0.12, 7101,
                   InputSet::kMnist, 1.0});
    out.push_back({"paper_fashion_delta", {784, 320, 128, 10}, EncodingKind::kDelta, 0.12,
                   7102, InputSet::kFashion, 1.0});
    out.push_back({"paper_cifar5_mixed", {3072, 128, 64, 10}, EncodingKind::kMixed, 0.12,
                   7103, InputSet::kCifar5, 1.0});
    return out;
  }
  // Rank order interleaves shapes and encodings, so popularity is not tied to one kind.
  const EncodingKind order[] = {EncodingKind::kBlock, EncodingKind::kDelta,
                                EncodingKind::kUnrolled, EncodingKind::kMixed,
                                EncodingKind::kCsc};
  for (size_t k = 0; k < 12; ++k) {
    CatalogueEntry e;
    const size_t hidden = k % 2 == 0 ? 64 : 128;
    e.encoding = order[k % 5];
    e.dims = {784, hidden, 10};
    e.density = 0.12;
    e.model_seed = 7200 + k;
    e.inputs = InputSet::kMnist;
    e.popularity = 1.0 / static_cast<double>(k + 1);
    char name[64];
    std::snprintf(name, sizeof(name), "churn%02zu_784x%zu_%s", k, hidden,
                  neuroc::EncodingKindName(e.encoding));
    e.name = name;
    out.push_back(std::move(e));
  }
  return out;
}

neuroc::NeuroCModel BuildCatalogueModel(const CatalogueEntry& entry) {
  neuroc::Rng rng(entry.model_seed);
  std::vector<neuroc::QuantNeuroCLayer> layers;
  for (size_t i = 0; i + 1 < entry.dims.size(); ++i) {
    neuroc::SyntheticNeuroCLayerSpec spec;
    spec.in_dim = entry.dims[i];
    spec.out_dim = entry.dims[i + 1];
    spec.density = entry.density;
    spec.encoding = entry.encoding;
    spec.relu = i + 2 < entry.dims.size();
    layers.push_back(neuroc::MakeSyntheticNeuroCLayer(spec, rng));
  }
  return neuroc::NeuroCModel::FromLayers(std::move(layers));
}

std::vector<neuroc::QuantizedDataset> MakeInputPools(uint64_t seed, size_t count,
                                                     bool mnist_only) {
  std::vector<neuroc::QuantizedDataset> pools(kInputSetCount);
  pools[0] = neuroc::QuantizeInputs(neuroc::MakeMnistLike(count, seed));
  if (!mnist_only) {
    pools[1] = neuroc::QuantizeInputs(neuroc::MakeFashionLike(count, seed + 1));
    pools[2] = neuroc::QuantizeInputs(neuroc::MakeCifar5Like(count, seed + 2));
  }
  return pools;
}

std::vector<RequestSpec> MakeRequestStream(const std::vector<double>& popularity, size_t n,
                                           uint64_t seed, size_t tenants, size_t images) {
  std::vector<double> cumulative;
  double total = 0.0;
  for (double p : popularity) {
    total += p;
    cumulative.push_back(total);
  }
  neuroc::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  std::vector<RequestSpec> stream(n);
  for (RequestSpec& r : stream) {
    const double u = rng.NextDouble() * total;
    const size_t m = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) - cumulative.begin());
    r.model = static_cast<uint32_t>(std::min(m, popularity.size() - 1));
    r.tenant = static_cast<uint32_t>(rng.NextBounded(tenants));
    r.image = static_cast<uint32_t>(rng.NextBounded(images));
  }
  return stream;
}

neuroc::StatusOr<DeviceFacts> MeasureDevice(const neuroc::NeuroCModel& model,
                                            const neuroc::MachineConfig& config) {
  neuroc::StatusOr<neuroc::DeployedModel> dm = neuroc::DeployedModel::TryDeploy(model, config);
  if (!dm.ok()) {
    return dm.status();
  }
  // The same estimate the serving cache attaches to every response of a loaded model.
  const neuroc::ExecutionProfile prof = neuroc::ProfileInference(*dm);
  const neuroc::EnergyEstimate energy = neuroc::EstimateEnergy(
      neuroc::EnergyModel::CortexM0Proxy(),
      {prof.alu_cycles, prof.multiply_cycles, prof.load_cycles, prof.store_cycles,
       prof.branch_cycles, prof.stack_cycles},
      prof.flash_reads, prof.sram_reads, prof.sram_writes);
  const neuroc::InferenceProfile detailed = neuroc::ProfileInferenceDetailed(*dm);
  DeviceFacts facts;
  facts.cycles = prof.cycles;
  facts.instructions = prof.instructions;
  facts.energy_pj = static_cast<uint64_t>(std::llround(energy.total_pj));
  facts.energy_uj = energy.total_uj();
  facts.flash_bytes = dm->report().program_bytes;
  facts.sram_bytes = dm->report().ram_bytes + detailed.stack_bytes_used;
  facts.layer_cycles = detailed.layer_cycles;
  return facts;
}

}  // namespace e2ebench
