#include "src/core/neuroc_model.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/fixed_point.h"
#include "src/tensor/matrix_ops.h"
#include "src/train/layers.h"
#include "src/train/trainer.h"

namespace neuroc {

size_t QuantNeuroCLayer::WeightBytes() const {
  size_t bytes = encoding->Sizes().total();
  bytes += scale_q.size() * sizeof(int8_t);
  bytes += bias_q.size() * sizeof(int32_t);
  return bytes;
}

NeuroCModel NeuroCModel::FromTrained(Network& net, const Dataset& calibration,
                                     const NeuroCQuantOptions& options) {
  // Collect the quantizable layers and the index of each module's activation output.
  struct LayerSite {
    NeuroCLayer* layer;
    size_t output_module;  // module whose output feeds the next quant layer
  };
  std::vector<LayerSite> sites;
  const auto& modules = net.modules();
  for (size_t m = 0; m < modules.size(); ++m) {
    if (auto* nl = dynamic_cast<NeuroCLayer*>(modules[m].get())) {
      size_t out_idx = m;
      if (m + 1 < modules.size() && dynamic_cast<ReluLayer*>(modules[m + 1].get())) {
        out_idx = m + 1;
      }
      sites.push_back({nl, out_idx});
    }
  }
  NEUROC_CHECK_MSG(!sites.empty(), "network contains no NeuroCLayer modules");

  // Calibration pass: float forward (inference mode) recording max-abs after every module.
  const size_t n_cal = std::min(calibration.num_examples(), options.max_calibration_examples);
  NEUROC_CHECK(n_cal > 0);
  std::vector<size_t> idx(n_cal);
  for (size_t i = 0; i < n_cal; ++i) {
    idx[i] = i;
  }
  Tensor batch;
  std::vector<int> labels_unused;
  GatherBatch(calibration, idx, batch, labels_unused);
  std::vector<float> module_max_abs(modules.size(), 0.0f);
  {
    const Tensor* cur = &batch;
    for (size_t m = 0; m < modules.size(); ++m) {
      cur = &modules[m]->Forward(*cur, /*training=*/false);
      module_max_abs[m] = MaxAbs(*cur);
    }
  }

  NeuroCModel model;
  int prev_out_frac = options.input_frac;
  for (size_t s = 0; s < sites.size(); ++s) {
    NeuroCLayer* nl = sites[s].layer;
    QuantNeuroCLayer q;
    q.in_dim = static_cast<uint32_t>(nl->in_dim());
    q.out_dim = static_cast<uint32_t>(nl->out_dim());
    q.relu = sites[s].output_module != 0 &&
             dynamic_cast<ReluLayer*>(modules[sites[s].output_module].get()) != nullptr;
    q.in_frac = prev_out_frac;

    // Ternary adjacency → chosen encoding.
    Tensor adj;
    Ternarize(nl->latent(), nl->CurrentThreshold(), adj);
    q.encoding = BuildEncoding(options.encoding, TernaryMatrix::FromSignTensor(adj),
                               options.encoding_options);

    // Per-neuron scale (absent in the TNN ablation).
    if (nl->config().use_per_neuron_scale) {
      const Tensor& scale = nl->scale();
      q.scale_frac = ChooseFracBits(MaxAbs(scale), 8);
      q.scale_q.resize(q.out_dim);
      for (size_t j = 0; j < q.out_dim; ++j) {
        q.scale_q[j] = QuantizeQ7(scale[j], q.scale_frac);
      }
    } else {
      q.scale_frac = 0;
    }

    // Output format from the calibrated post-activation range; the requantization shift must
    // be non-negative (the kernel only shifts right).
    const float post_act_max = module_max_abs[sites[s].output_module];
    q.out_frac = ChooseFracBits(post_act_max, 8, /*min_frac=*/-8,
                                /*max_frac=*/q.in_frac + q.scale_frac);
    q.requant_shift = q.in_frac + q.scale_frac - q.out_frac;
    NEUROC_CHECK(q.requant_shift >= 0);

    // Bias at accumulator scale.
    const Tensor& bias = nl->bias();
    q.bias_q.resize(q.out_dim);
    for (size_t j = 0; j < q.out_dim; ++j) {
      q.bias_q[j] = QuantizeFixed(bias[j], q.in_frac + q.scale_frac, 32);
    }

    prev_out_frac = q.out_frac;
    model.layers_.push_back(std::move(q));
  }
  return model;
}

NeuroCModel StripScales(const NeuroCModel& model) {
  std::vector<QuantNeuroCLayer> layers;
  for (const QuantNeuroCLayer& src : model.layers()) {
    QuantNeuroCLayer l;
    l.in_dim = src.in_dim;
    l.out_dim = src.out_dim;
    // Rebuild the identical encoding (unique_ptr prevents a plain copy).
    l.encoding = BuildEncoding(src.encoding->kind(), src.encoding->Decode());
    l.bias_q = src.bias_q;
    l.in_frac = src.in_frac;
    l.scale_frac = 0;
    l.out_frac = src.out_frac;
    l.requant_shift = std::max(0, src.in_frac - src.out_frac);
    l.relu = src.relu;
    layers.push_back(std::move(l));
  }
  return NeuroCModel::FromLayers(std::move(layers));
}

StatusOr<NeuroCModel> ReencodeModel(const NeuroCModel& model, EncodingKind kind,
                                    const EncodingOptions& options) {
  std::vector<QuantNeuroCLayer> layers;
  for (const QuantNeuroCLayer& src : model.layers()) {
    const TernaryMatrix matrix = src.encoding->Decode();
    if (Status fits = CheckEncodable(kind, matrix); !fits.ok()) {
      return fits;
    }
    QuantNeuroCLayer l;
    l.in_dim = src.in_dim;
    l.out_dim = src.out_dim;
    l.encoding = BuildEncoding(kind, matrix, options);
    l.scale_q = src.scale_q;
    l.bias_q = src.bias_q;
    l.in_frac = src.in_frac;
    l.out_frac = src.out_frac;
    l.scale_frac = src.scale_frac;
    l.requant_shift = src.requant_shift;
    l.relu = src.relu;
    layers.push_back(std::move(l));
  }
  return NeuroCModel::FromLayers(std::move(layers));
}

NeuroCModel NeuroCModel::FromLayers(std::vector<QuantNeuroCLayer> layers) {
  NEUROC_CHECK(!layers.empty());
  for (size_t k = 0; k + 1 < layers.size(); ++k) {
    NEUROC_CHECK(layers[k].out_dim == layers[k + 1].in_dim);
  }
  NeuroCModel model;
  model.layers_ = std::move(layers);
  return model;
}

void RunQuantNeuroCLayer(const QuantNeuroCLayer& layer, std::span<const int8_t> input,
                         std::span<int32_t> sums, std::span<int8_t> output) {
  NEUROC_CHECK(input.size() == layer.in_dim);
  NEUROC_CHECK(sums.size() >= layer.out_dim && output.size() >= layer.out_dim);
  layer.encoding->Accumulate(input, sums.subspan(0, layer.out_dim));
  const bool scaled = layer.has_scale();
  for (size_t j = 0; j < layer.out_dim; ++j) {
    int32_t acc = sums[j];
    if (scaled) {
      acc *= layer.scale_q[j];
    }
    acc += layer.bias_q[j];
    int32_t v = SatInt8(RoundingRightShift(acc, layer.requant_shift));
    if (layer.relu && v < 0) {
      v = 0;
    }
    output[j] = static_cast<int8_t>(v);
  }
}

void NeuroCModel::Forward(std::span<const int8_t> input, std::vector<int8_t>& out) const {
  NEUROC_CHECK(!layers_.empty());
  NEUROC_CHECK(input.size() == in_dim());
  const size_t max_dim = MaxActivationDim();
  std::vector<int8_t> buf_a(input.begin(), input.end());
  std::vector<int8_t> buf_b(max_dim);
  std::vector<int32_t> sums(max_dim);
  buf_a.resize(max_dim);
  std::span<int8_t> cur(buf_a);
  std::span<int8_t> next(buf_b);
  size_t cur_dim = in_dim();
  for (const QuantNeuroCLayer& layer : layers_) {
    NEUROC_CHECK(cur_dim == layer.in_dim);
    RunQuantNeuroCLayer(layer, std::span<const int8_t>(cur.data(), layer.in_dim), sums, next);
    std::swap(cur, next);
    cur_dim = layer.out_dim;
  }
  out.assign(cur.begin(), cur.begin() + cur_dim);
}

int NeuroCModel::Predict(std::span<const int8_t> input) const {
  std::vector<int8_t> logits;
  Forward(input, logits);
  int best = 0;
  for (size_t i = 1; i < logits.size(); ++i) {
    if (logits[i] > logits[best]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

float NeuroCModel::EvaluateAccuracy(const QuantizedDataset& ds) const {
  NEUROC_CHECK(ds.input_dim == in_dim());
  size_t correct = 0;
  for (size_t i = 0; i < ds.num_examples(); ++i) {
    if (Predict(std::span<const int8_t>(ds.example(i), ds.input_dim)) == ds.labels[i]) {
      ++correct;
    }
  }
  return ds.num_examples() == 0
             ? 0.0f
             : static_cast<float>(correct) / static_cast<float>(ds.num_examples());
}

size_t NeuroCModel::WeightBytes() const {
  size_t bytes = 0;
  for (const QuantNeuroCLayer& l : layers_) {
    bytes += l.WeightBytes();
  }
  return bytes;
}

size_t NeuroCModel::MaxActivationDim() const {
  size_t d = in_dim();
  for (const QuantNeuroCLayer& l : layers_) {
    d = std::max(d, static_cast<size_t>(l.out_dim));
  }
  return d;
}

std::string NeuroCModel::Summary() const {
  std::string s;
  for (const QuantNeuroCLayer& l : layers_) {
    if (!s.empty()) {
      s += " -> ";
    }
    s += std::string(EncodingKindName(l.encoding->kind())) + "[" + std::to_string(l.in_dim) +
         "x" + std::to_string(l.out_dim) + (l.has_scale() ? ",w" : "") +
         (l.relu ? ",relu" : "") + "]";
  }
  return s;
}

}  // namespace neuroc
