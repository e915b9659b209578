// Shared helpers for the unit tests: seeded random-model construction (previously
// duplicated across the firmware, robustness and fault-campaign tests), the simulator
// execution-path selection (block dispatch vs the step interpreter), the global
// thread-pool guard, and the scripted FakeClient for the serve protocol (tests that use it
// must link neuroc_serve). Layers are built sequentially from a single Rng, so a (seed, spec)
// pair fully determines the model.

#ifndef NEUROC_TESTS_TEST_UTIL_H_
#define NEUROC_TESTS_TEST_UTIL_H_

#include <poll.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/synthetic.h"
#include "src/serve/frame.h"
#include "src/sim/cpu.h"

namespace neuroc::testutil {

struct TestModelSpec {
  std::vector<size_t> dims = {64, 24, 10};  // in_dim, hidden..., out_dim
  double density = 0.2;
  EncodingKind encoding = EncodingKind::kBlock;
  bool has_scale = true;
  bool final_relu = false;  // hidden layers always use relu
};

inline NeuroCModel MakeTestModel(uint64_t seed, const TestModelSpec& spec = {}) {
  Rng rng(seed);
  std::vector<QuantNeuroCLayer> layers;
  for (size_t i = 0; i + 1 < spec.dims.size(); ++i) {
    SyntheticNeuroCLayerSpec layer;
    layer.in_dim = spec.dims[i];
    layer.out_dim = spec.dims[i + 1];
    layer.density = spec.density;
    layer.encoding = spec.encoding;
    layer.has_scale = spec.has_scale;
    layer.relu = i + 2 < spec.dims.size() ? true : spec.final_relu;
    layers.push_back(MakeSyntheticNeuroCLayer(layer, rng));
  }
  return NeuroCModel::FromLayers(std::move(layers));
}

// The deploy-layer model set that pins the linked flash layout: each of the five encodings
// at 64-32-10 and at 784-128-10 (density 0.12), a model that mixes encodings per layer, and
// a dense MLP baseline.
struct LinkCase {
  std::string name;
  std::variant<NeuroCModel, MlpModel> model;
};

inline std::vector<LinkCase> MakeLinkCases() {
  std::vector<LinkCase> cases;
  uint64_t seed = 60;
  for (const std::vector<size_t>& dims :
       {std::vector<size_t>{64, 32, 10}, std::vector<size_t>{784, 128, 10}}) {
    for (EncodingKind kind : kAllEncodingKinds) {
      TestModelSpec spec;
      spec.dims = dims;
      spec.density = 0.12;
      spec.encoding = kind;
      cases.push_back({std::to_string(dims[0]) + "-" + EncodingKindName(kind),
                       MakeTestModel(seed++, spec)});
    }
  }
  Rng rng(seed++);
  std::vector<QuantNeuroCLayer> mixed;
  const EncodingKind kinds[] = {EncodingKind::kDelta, EncodingKind::kUnrolled,
                                EncodingKind::kCsc};
  const size_t dims[] = {100, 33, 17, 10};
  for (size_t i = 0; i < 3; ++i) {
    SyntheticNeuroCLayerSpec layer;
    layer.in_dim = dims[i];
    layer.out_dim = dims[i + 1];
    layer.density = 0.2;
    layer.encoding = kinds[i];
    layer.relu = i < 2;
    mixed.push_back(MakeSyntheticNeuroCLayer(layer, rng));
  }
  cases.push_back({"mixed-layers", NeuroCModel::FromLayers(std::move(mixed))});
  std::vector<QuantDenseLayer> dense;
  dense.push_back(MakeSyntheticDenseLayer(128, 32, true, 10, rng));
  dense.push_back(MakeSyntheticDenseLayer(32, 10, false, 9, rng));
  cases.push_back({"mlp", MlpModel::FromLayers(std::move(dense))});
  return cases;
}

// Records every retire callback verbatim, so two runs can be compared observation by
// observation.
struct RecordingProbe : CpuProbe {
  struct Retire {
    uint32_t addr;
    Op op;
    uint32_t cycles;
    bool operator==(const Retire&) const = default;
  };
  std::vector<Retire> retires;
  void OnRetire(uint32_t addr, Op op, uint32_t cycles) override {
    retires.push_back({addr, op, cycles});
  }
};

// The two simulator execution paths. Attaching any CpuProbe routes Cpu::Run through the
// step interpreter for every instruction; with none attached, flash code runs on block
// dispatch (the deploy default). Both execute the one copy of the op semantics, so
// parity between them pins the paths' fetch, accounting and fault bookkeeping.
enum class Path { kInterpreter, kBlock };
constexpr Path kAllPaths[] = {Path::kInterpreter, Path::kBlock};

inline void ConfigurePath(Cpu& cpu, Path path) {
  struct NullProbe : CpuProbe {
    void OnRetire(uint32_t, Op, uint32_t) override {}
  };
  static NullProbe probe;  // stateless, so one instance serves every machine
  cpu.set_probe(path == Path::kInterpreter ? &probe : nullptr);
}

// Restores the default (env-derived) global pool size when a test returns or throws.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { ThreadPool::SetGlobalThreads(0); }
};

// Scripted serve-protocol client over one end of a socketpair: sends request frames (or
// raw bytes, for malformed-input tests) and reads response frames with a poll timeout so
// a server bug can never hang the test binary. Every read is bounded; responses arrive
// in completion order and are matched to requests by request_id, not stream position.
class FakeClient {
 public:
  explicit FakeClient(int fd) : fd_(fd) {}
  ~FakeClient() { Close(); }
  FakeClient(const FakeClient&) = delete;
  FakeClient& operator=(const FakeClient&) = delete;

  bool SendRequest(const ServeRequest& request) {
    const std::vector<uint8_t> frame = EncodeRequestFrame(request);
    return SendBytes(frame.data(), frame.size());
  }

  bool SendBytes(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd_, p + off, n - off);
      if (w <= 0) {
        return false;
      }
      off += static_cast<size_t>(w);
    }
    return true;
  }

  // Blocks (bounded by `timeout_ms`) for the next response frame on the stream.
  StatusOr<ServeResponse> ReadResponse(int timeout_ms = 10000) {
    for (;;) {
      std::vector<uint8_t> payload;
      StatusOr<bool> got = reader_.Next(&payload);
      if (!got.ok()) {
        return got.status();
      }
      if (*got) {
        return DecodeResponsePayload(payload);
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready <= 0) {
        return Status(ErrorCode::kDeadlineExceeded, "FakeClient: response timeout");
      }
      uint8_t buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        return Status(ErrorCode::kIoError, "FakeClient: connection closed");
      }
      reader_.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace neuroc::testutil

#endif  // NEUROC_TESTS_TEST_UTIL_H_
