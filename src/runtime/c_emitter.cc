#include "src/runtime/c_emitter.h"

#include <cstdio>

#include "src/common/check.h"

namespace neuroc {

namespace {

std::string U32(uint32_t v) { return std::to_string(v); }

void EmitByteArray(std::string& out, const std::string& name,
                   const std::vector<uint8_t>& bytes) {
  out += "static const uint8_t " + name + "[] = {";
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (i % 16 == 0) {
      out += "\n    ";
    }
    out += std::to_string(static_cast<unsigned>(bytes[i])) + ",";
  }
  out += "\n};\n";
}

void EmitI8Array(std::string& out, const std::string& name, const std::vector<int8_t>& v) {
  out += "static const int8_t " + name + "[] = {";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i % 16 == 0) {
      out += "\n    ";
    }
    out += std::to_string(static_cast<int>(v[i])) + ",";
  }
  out += "\n};\n";
}

void EmitI32Array(std::string& out, const std::string& name, const std::vector<int32_t>& v) {
  out += "static const int32_t " + name + "[] = {";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i % 8 == 0) {
      out += "\n    ";
    }
    out += std::to_string(v[i]) + ",";
  }
  out += "\n};\n";
}

// The generic, freestanding traversal code shared by every emitted model. Kept in plain C99
// with static memory only, mirroring the deployment constraints of Sec. 4.
constexpr const char* kRuntimeCode = R"(
typedef struct {
  uint32_t kind;      /* 0 csc, 1 delta, 2 mixed, 3 block */
  uint32_t in_dim;
  uint32_t out_dim;
  uint32_t has_scale;
  uint32_t relu;
  uint32_t shift;
  uint32_t meta_w;
  uint32_t idx_w;
  uint32_t block_size;
  uint32_t num_blocks;
  const uint8_t* enc;       /* packed encoding blob */
  uint32_t pos_meta, pos_idx, neg_meta, neg_idx;  /* offsets into enc */
  const int8_t* scale;
  const int32_t* bias;
} nc_layer_t;

static uint32_t nc_elem(const uint8_t* p, uint32_t i, uint32_t w) {
  return w == 1 ? p[i] : (uint32_t)(p[2u * i] | ((uint32_t)p[2u * i + 1] << 8));
}

static int8_t nc_requant(const nc_layer_t* l, int32_t acc, uint32_t j) {
  if (l->has_scale) {
    acc *= l->scale[j];
  }
  acc += l->bias[j];
  if (l->shift > 0) {
    acc = (acc + (1 << (l->shift - 1))) >> l->shift;
  }
  if (acc > 127) { acc = 127; }
  if (acc < -128) { acc = -128; }
  if (l->relu && acc < 0) { acc = 0; }
  return (int8_t)acc;
}

static void nc_run_layer(const nc_layer_t* l, const int8_t* x, int8_t* y, int32_t* scratch) {
  const uint8_t* pm = l->enc + l->pos_meta;
  const uint8_t* pi = l->enc + l->pos_idx;
  const uint8_t* nm = l->enc + l->neg_meta;
  const uint8_t* ni = l->enc + l->neg_idx;
  uint32_t j, k, b;
  if (l->kind == 3u) { /* block */
    uint32_t pp = 0, np = 0, mpos = 0;
    for (j = 0; j < l->out_dim; ++j) { scratch[j] = 0; }
    for (b = 0; b < l->num_blocks; ++b) {
      const int8_t* xb = x + b * l->block_size;
      for (j = 0; j < l->out_dim; ++j, ++mpos) {
        int32_t acc = scratch[j];
        uint32_t cp = pm[mpos];
        uint32_t cn = nm[mpos];
        for (k = 0; k < cp; ++k) { acc += xb[pi[pp++]]; }
        for (k = 0; k < cn; ++k) { acc -= xb[ni[np++]]; }
        scratch[j] = acc;
      }
    }
    for (j = 0; j < l->out_dim; ++j) { y[j] = nc_requant(l, scratch[j], j); }
    return;
  }
  {
    uint32_t pp = 0, np = 0;
    for (j = 0; j < l->out_dim; ++j) {
      int32_t acc = 0;
      if (l->kind == 0u) { /* csc */
        uint32_t s0 = nc_elem(pm, j, l->meta_w), e0 = nc_elem(pm, j + 1, l->meta_w);
        uint32_t s1 = nc_elem(nm, j, l->meta_w), e1 = nc_elem(nm, j + 1, l->meta_w);
        for (k = s0; k < e0; ++k) { acc += x[nc_elem(pi, k, l->idx_w)]; }
        for (k = s1; k < e1; ++k) { acc -= x[nc_elem(ni, k, l->idx_w)]; }
      } else if (l->kind == 1u) { /* delta: first absolute, then offsets */
        uint32_t cp = nc_elem(pm, j, l->meta_w);
        uint32_t cn = nc_elem(nm, j, l->meta_w);
        uint32_t i = 0;
        for (k = 0; k < cp; ++k, ++pp) {
          i = (k == 0) ? nc_elem(pi, pp, l->idx_w) : i + nc_elem(pi, pp, l->idx_w);
          acc += x[i];
        }
        for (k = 0; k < cn; ++k, ++np) {
          i = (k == 0) ? nc_elem(ni, np, l->idx_w) : i + nc_elem(ni, np, l->idx_w);
          acc -= x[i];
        }
      } else { /* mixed */
        uint32_t cp = nc_elem(pm, j, l->meta_w);
        uint32_t cn = nc_elem(nm, j, l->meta_w);
        for (k = 0; k < cp; ++k) { acc += x[nc_elem(pi, pp++, l->idx_w)]; }
        for (k = 0; k < cn; ++k) { acc -= x[nc_elem(ni, np++, l->idx_w)]; }
      }
      y[j] = nc_requant(l, acc, j);
    }
  }
}
)";

}  // namespace

CSources EmitCSources(const NeuroCModel& model, const std::string& prefix) {
  NEUROC_CHECK(!model.layers().empty());
  CSources out;

  out.header = "/* Generated by neuroc::EmitCSources — do not edit. */\n";
  out.header += "#ifndef NEUROC_GEN_" + prefix + "_H_\n#define NEUROC_GEN_" + prefix +
                "_H_\n\n#include <stdint.h>\n\n";
  out.header += "#define " + prefix + "_INPUT_DIM " + U32(static_cast<uint32_t>(model.in_dim())) + "\n";
  out.header += "#define " + prefix + "_OUTPUT_DIM " + U32(static_cast<uint32_t>(model.out_dim())) + "\n";
  out.header += "#define " + prefix + "_INPUT_FRAC " + std::to_string(model.input_frac()) + "\n\n";
  out.header += "/* Runs one inference; input holds " + prefix +
                "_INPUT_DIM q7 values. Returns the arg-max class. */\n";
  out.header += "int " + prefix + "_predict(const int8_t* input);\n\n";
  out.header += "/* Raw final-layer activations of the last call. */\n";
  out.header += "const int8_t* " + prefix + "_logits(void);\n\n#endif\n";

  std::string& s = out.source;
  s = "/* Generated by neuroc::EmitCSources — do not edit. */\n";
  s += "#include \"" + prefix + ".h\"\n";
  s += kRuntimeCode;
  s += "\n";

  size_t max_dim = model.MaxActivationDim();
  size_t max_out = 0;
  std::vector<std::string> layer_inits;
  for (size_t k = 0; k < model.layers().size(); ++k) {
    const QuantNeuroCLayer& l = model.layers()[k];
    max_out = std::max(max_out, static_cast<size_t>(l.out_dim));
    std::vector<uint8_t> blob;
    // kUnrolled has no data blob (its weights live in generated Thumb, which this portable
    // C export cannot carry) — fall back to the mixed format for the same adjacency.
    std::unique_ptr<Encoding> reencoded;
    const Encoding* enc_src = l.encoding.get();
    if (enc_src->kind() == EncodingKind::kUnrolled) {
      reencoded = BuildEncoding(EncodingKind::kMixed, enc_src->Decode());
      enc_src = reencoded.get();
    }
    const EncodingDeviceLayout lay = enc_src->Pack(blob);
    const std::string ln = std::string("l").append(std::to_string(k));
    EmitByteArray(s, ln + "_enc", blob);
    if (l.has_scale()) {
      EmitI8Array(s, ln + "_scale", l.scale_q);
    }
    EmitI32Array(s, ln + "_bias", l.bias_q);
    const uint8_t meta_w = std::max(lay.pos_meta.elem_width, lay.neg_meta.elem_width);
    const uint8_t idx_w = std::max(lay.pos_idx.elem_width, lay.neg_idx.elem_width);
    std::string init = "    {" + U32(static_cast<uint32_t>(lay.kind)) + "u, " +
                       U32(l.in_dim) + "u, " + U32(l.out_dim) + "u, " +
                       (l.has_scale() ? "1u" : "0u") + ", " + (l.relu ? "1u" : "0u") + ", " +
                       U32(static_cast<uint32_t>(l.requant_shift)) + "u, " +
                       U32(meta_w) + "u, " + U32(idx_w) + "u, " + U32(lay.block_size) +
                       "u, " + U32(lay.num_blocks) + "u, " + ln + "_enc, " +
                       U32(lay.pos_meta.offset) + "u, " + U32(lay.pos_idx.offset) + "u, " +
                       U32(lay.neg_meta.offset) + "u, " + U32(lay.neg_idx.offset) + "u, " +
                       (l.has_scale() ? ln + "_scale" : "0") + ", " + ln + "_bias},";
    layer_inits.push_back(init);
  }

  s += "static const nc_layer_t " + prefix + "_layers[] = {\n";
  for (const std::string& init : layer_inits) {
    s += init + "\n";
  }
  s += "};\n\n";
  s += "static int8_t " + prefix + "_buf_a[" + U32(static_cast<uint32_t>(max_dim)) + "];\n";
  s += "static int8_t " + prefix + "_buf_b[" + U32(static_cast<uint32_t>(max_dim)) + "];\n";
  s += "static int32_t " + prefix + "_scratch[" + U32(static_cast<uint32_t>(max_out)) + "];\n";
  s += "static const int8_t* " + prefix + "_out = " + prefix + "_buf_a;\n\n";
  s += "int " + prefix + "_predict(const int8_t* input) {\n";
  s += "  int8_t* cur = " + prefix + "_buf_a;\n";
  s += "  int8_t* nxt = " + prefix + "_buf_b;\n";
  s += "  uint32_t k, i;\n";
  s += "  int best = 0;\n";
  s += "  for (i = 0; i < " + prefix + "_INPUT_DIM; ++i) { cur[i] = input[i]; }\n";
  s += "  for (k = 0; k < " + U32(static_cast<uint32_t>(model.layers().size())) +
       "u; ++k) {\n";
  s += "    int8_t* tmp;\n";
  s += "    nc_run_layer(&" + prefix + "_layers[k], cur, nxt, " + prefix + "_scratch);\n";
  s += "    tmp = cur; cur = nxt; nxt = tmp;\n";
  s += "  }\n";
  s += "  " + prefix + "_out = cur;\n";
  s += "  for (i = 1; i < " + prefix + "_OUTPUT_DIM; ++i) {\n";
  s += "    if (cur[i] > cur[best]) { best = (int)i; }\n";
  s += "  }\n";
  s += "  return best;\n";
  s += "}\n\n";
  s += "const int8_t* " + prefix + "_logits(void) { return " + prefix + "_out; }\n";
  return out;
}

}  // namespace neuroc
