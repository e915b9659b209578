// Sequential container of modules plus builders for the architectures used in the paper's
// evaluation (MLP baselines, Neuro-C stacks, TNN ablations).

#ifndef NEUROC_SRC_TRAIN_NETWORK_H_
#define NEUROC_SRC_TRAIN_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/train/module.h"
#include "src/train/neuroc_layer.h"

namespace neuroc {

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  template <typename ModuleT, typename... Args>
  ModuleT* Add(Args&&... args) {
    auto mod = std::make_unique<ModuleT>(std::forward<Args>(args)...);
    ModuleT* raw = mod.get();
    if (modules_.empty()) {
      raw->needs_input_grad_ = false;
    }
    modules_.push_back(std::move(mod));
    return raw;
  }

  const Tensor& Forward(const Tensor& input, bool training);
  void Backward(const Tensor& grad_loss);

  std::vector<ParamRef> Params();
  const std::vector<std::unique_ptr<Module>>& modules() const { return modules_; }

  // Deployed parameter count summed over layers (paper's model-size axis).
  size_t DeployedParameterCount() const;
  std::string Summary() const;

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

// ---------------------------------------------------------------------------
// Architecture builders
// ---------------------------------------------------------------------------

struct MlpSpec {
  std::vector<size_t> hidden;  // hidden layer widths
  float dropout = 0.0f;        // applied after each hidden ReLU when > 0
  bool batch_norm = false;     // BN after each hidden dense
};

// Standard MLP baseline: [dense → (bn) → relu → (dropout)]* → dense.
Network BuildMlp(size_t in_dim, size_t num_classes, const MlpSpec& spec, Rng& rng);

struct NeuroCSpec {
  std::vector<size_t> hidden;
  NeuroCLayerConfig layer;  // applies to every Neuro-C layer (incl. the output layer)
};

// Neuro-C network: [neuroc → relu]* → neuroc. Setting layer.use_per_neuron_scale = false
// yields the conventional-TNN ablation.
Network BuildNeuroC(size_t in_dim, size_t num_classes, const NeuroCSpec& spec, Rng& rng);

// Fig. 1 network: one fixed-adjacency hidden layer (+ relu) and a dense readout.
Network BuildFixedAdjacency(size_t in_dim, size_t num_classes, size_t hidden,
                            const FixedAdjacencyConfig& cfg, Rng& rng);

}  // namespace neuroc

#endif  // NEUROC_SRC_TRAIN_NETWORK_H_
