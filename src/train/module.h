// Base interface for trainable network modules.
//
// The training substrate is a deliberately small define-by-run framework with hand-written
// backward passes (the role Larq/TensorFlow played for the paper's authors). Each module owns
// its parameters, their gradients, and whatever activation caches its backward pass needs.

#ifndef NEUROC_SRC_TRAIN_MODULE_H_
#define NEUROC_SRC_TRAIN_MODULE_H_

#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace neuroc {

// A parameter tensor paired with its gradient accumulator (same shape).
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

class Module {
 public:
  virtual ~Module() = default;

  // Computes the module output for a [batch, in] input. `training` enables behaviours that
  // differ between fit and inference time (dropout masks, batch-norm statistics).
  virtual const Tensor& Forward(const Tensor& input, bool training) = 0;

  // Given dLoss/dOutput, accumulates parameter gradients and returns dLoss/dInput.
  // Must be called after a Forward with training == true on the same batch (eval-mode
  // forwards skip the activation caches that backward passes consume). The first module of
  // a Network may return an empty tensor instead: see needs_input_grad().
  virtual const Tensor& Backward(const Tensor& grad_output) = 0;

  // Appends this module's trainable parameters.
  virtual void CollectParams(std::vector<ParamRef>& out) { (void)out; }

  // Human-readable identifier used in logs and summaries.
  virtual std::string Name() const = 0;

  // Number of scalar parameters that end up in the deployed model (used for the paper's
  // "total parameters" axes). Differs from trainable parameter count for ternary layers,
  // where the deployed cost is |nonzero adjacency entries| + neurons, not the latent floats.
  virtual size_t DeployedParameterCount() const { return 0; }

 protected:
  // False for the first module of a Network, whose input gradient nobody reads (it would
  // be dLoss/dData): layers that pay for an input gradient skip it there.
  bool needs_input_grad() const { return needs_input_grad_; }

 private:
  friend class Network;  // marks its first module when it is added
  bool needs_input_grad_ = true;
};

}  // namespace neuroc

#endif  // NEUROC_SRC_TRAIN_MODULE_H_
