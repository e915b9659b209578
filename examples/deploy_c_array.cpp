// Deployment-artifact export: trains a compact Neuro-C model and emits freestanding C
// sources (weights as const arrays + a plain-C inference routine), the files a firmware
// engineer would drop into an arm-none-eabi-gcc project for a real board.
//
// Usage: deploy_c_array [output_dir]     (default: ./neuroc_generated)

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/core/neuroc_model.h"
#include "src/data/synth.h"
#include "src/runtime/c_emitter.h"
#include "src/runtime/deployed_model.h"
#include "src/train/trainer.h"

using namespace neuroc;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "neuroc_generated";

  Dataset all = MakeDigits8x8(1500, 7);
  Rng rng(8);
  auto [train, test] = all.Split(0.2, rng);

  NeuroCSpec spec;
  spec.hidden = {32};
  spec.layer.ternary.target_density = 0.15f;
  Network net = BuildNeuroC(train.input_dim(), 10, spec, rng);
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3f;
  Train(net, train, test, cfg);

  NeuroCModel model = NeuroCModel::FromTrained(net, train);
  const float acc = model.EvaluateAccuracy(QuantizeInputs(test));
  std::printf("trained model: %s, int8 accuracy %.2f%%\n", model.Summary().c_str(),
              100.0f * acc);
  std::printf("constant data: %zu B; estimated program memory: %zu B\n", model.WeightBytes(),
              LinkModel(model).program_bytes);

  const CSources sources = EmitCSources(model, "digits");
  std::filesystem::create_directories(out_dir);
  const std::string h_path = out_dir + "/digits.h";
  const std::string c_path = out_dir + "/digits.c";
  std::ofstream(h_path) << sources.header;
  std::ofstream(c_path) << sources.source;
  std::printf("\nwrote %s (%zu bytes)\n", h_path.c_str(), sources.header.size());
  std::printf("wrote %s (%zu bytes)\n", c_path.c_str(), sources.source.size());

  std::printf("\nAPI:\n");
  std::printf("  #include \"digits.h\"\n");
  std::printf("  int cls = digits_predict(input);   // input: %zu q7 values (frac=%d)\n",
              model.in_dim(), model.input_frac());
  std::printf("\nCompile check: cc -std=c99 -c %s\n", c_path.c_str());
  const std::string cmd = "cc -std=c99 -O2 -Wall -c " + c_path + " -o " + out_dir +
                          "/digits.o && echo '  -> generated C compiles cleanly'";
  return std::system(cmd.c_str()) == 0 ? 0 : 1;
}
