// serve_paper and serve_churn: wire-to-wire serving through FrameServer on socketpair
// connections, driven by the benchmark's own load generator.
//
// The open-loop driver times every request from the moment it was *due*, not from when it
// was actually written, so a stalled generator or server shows up as latency of the
// requests queued behind the stall; how late the writes ran is reported separately as
// loadgen.lag_ms. (The library's own RunOpenLoop in src/serve/load_gen.cc stamps the
// send time after sleep_until and so hides that wait; it is not used here.)

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "e2ebench/src/layer_metrics.h"
#include "e2ebench/src/stats.h"
#include "e2ebench/src/trace.h"
#include "e2ebench/src/workloads.h"
#include "src/core/model_serde.h"
#include "src/obs/registry.h"
#include "src/serve/frame.h"
#include "src/serve/server.h"
#include "src/serve/service.h"

namespace e2ebench {

namespace {

using neuroc::ServeRequest;
using neuroc::ServeResponse;

// Connections into the measured server, one closed-loop caller each. serve_paper has
// one: with two, its closed-loop p99 depended on how often the callers' requests met in
// one dispatch round, and rose 20 % with two busy loops beside the benchmark (4.3-4.7 to
// 5.1-5.4 ms) and up to 8.9 ms in slow periods of the host, while one caller's stayed at
// 2.5-2.9 ms; a second caller added only about 10 % of throughput. serve_churn keeps two,
// so that the cache serves two callers' models at once.
size_t Connections(bool churn) { return churn ? 2 : 1; }
constexpr size_t kTenants = 3;
constexpr size_t kPoolImages = 64;
// Requests in the seeded stream; load phases wrap around it if they ever run past it.
constexpr size_t kStreamLength = size_t{1} << 18;
// Cold starts before the load phases; one more runs in every load round.
constexpr int kColdStarts = 3;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsBetween(int64_t a_ns, int64_t b_ns) { return static_cast<double>(b_ns - a_ns) * 1e-6; }

// Correctness failures reported from client threads.
class SharedStatus {
 public:
  explicit SharedStatus(RunStatus* status) : status_(status) {}
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    status_->Fail(why);
  }

 private:
  std::mutex mutex_;
  RunStatus* status_;
};

// Everything a response is checked against, plus the inputs requests are built from.
struct Oracle {
  std::vector<CatalogueEntry> entries;
  std::vector<neuroc::NeuroCModel> models;
  std::vector<DeviceFacts> facts;
  std::vector<neuroc::QuantizedDataset> pools;
  std::vector<std::vector<int>> host_pred;  // [model][image]
  std::vector<RequestSpec> stream;

  // The request with id `id` is stream position id, so successive load phases walk on
  // through the stream instead of replaying its start.
  const RequestSpec& Spec(uint64_t id) const { return stream[id % stream.size()]; }

  ServeRequest MakeRequest(uint64_t id, const RequestSpec& spec) const {
    ServeRequest req;
    req.request_id = id;
    req.tenant = "tenant" + std::to_string(spec.tenant);
    req.model = entries[spec.model].name;
    const neuroc::QuantizedDataset& pool = pools[static_cast<int>(entries[spec.model].inputs)];
    const int8_t* x = pool.example(spec.image);
    req.input.assign(x, x + pool.input_dim);
    return req;
  }

  // True when an OK response carries the reference prediction, the model's constant
  // cycle count and its energy estimate.
  bool Matches(const ServeResponse& r, const RequestSpec& spec) const {
    return r.prediction == host_pred[spec.model][spec.image] &&
           r.cycles == facts[spec.model].cycles && r.energy_pj == facts[spec.model].energy_pj;
  }
};

// One FrameServer over an InferenceService, with `connections` socketpair clients.
class ServerBundle {
 public:
  ServerBundle(const neuroc::ServeConfig& config, neuroc::ModelLoader loader,
               size_t connections)
      : service_(config, std::move(loader)), server_(&service_) {
    service_.Start();
    for (size_t c = 0; c < connections; ++c) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        std::perror("socketpair");
        std::abort();
      }
      server_.AddConnection(fds[0]);
      client_fds_.push_back(fds[1]);
    }
  }
  ~ServerBundle() {
    server_.Stop();
    service_.Stop();
    for (int fd : client_fds_) {
      ::close(fd);
    }
  }
  ServerBundle(const ServerBundle&) = delete;
  ServerBundle& operator=(const ServerBundle&) = delete;

  int fd(size_t c) const { return client_fds_[c]; }
  size_t connections() const { return client_fds_.size(); }

 private:
  neuroc::InferenceService service_;
  neuroc::FrameServer server_;
  std::vector<int> client_fds_;
};

bool WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w <= 0) {
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

// Reads what is available on `fd` into `reader`; false on EOF or error.
bool ReadInto(int fd, neuroc::FrameReader& reader) {
  uint8_t buf[16384];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    reader.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(r)));
    return true;
  }
}

// Encodes and writes one request inside the request's spans.
bool SendRequest(int fd, const ServeRequest& req, uint64_t root_span) {
  std::vector<uint8_t> frame;
  {
    Span s("client.frame_encode", req.request_id, root_span);
    frame = neuroc::EncodeRequestFrame(req);
  }
  Span s("client.write", req.request_id, root_span);
  return WriteAll(fd, frame);
}

uint64_t NewSpanId() {
  Tracer* t = Tracer::Active();
  return t == nullptr ? 0 : t->NewId();
}

// Records a span whose id, parent or request is only known after it ended (a response
// is matched to its request by decoding it).
void RecordSpan(const char* name, uint64_t id, uint64_t parent, uint64_t request_id,
                int64_t start_ns, int64_t end_ns) {
  if (Tracer* t = Tracer::Active()) {
    SpanRecord r;
    r.name = name;
    r.id = id != 0 ? id : t->NewId();
    r.parent = parent;
    r.trace = request_id;
    r.start_ns = start_ns;
    r.end_ns = end_ns;
    r.thread = ThreadTag();
    t->Record(r);
  }
}

// A decoded response and when its decode started and ended.
struct Decoded {
  neuroc::StatusOr<ServeResponse> response;
  int64_t start_ns;
  int64_t end_ns;
};

Decoded Decode(const std::vector<uint8_t>& payload) {
  const int64_t start = ToNs(Clock::now());
  neuroc::StatusOr<ServeResponse> resp = neuroc::DecodeResponsePayload(payload);
  return {std::move(resp), start, ToNs(Clock::now())};
}

// Latency and accounting of a load phase, or of several pooled.
struct PhaseResult {
  // Per correctly answered request: latency from the due (open) or send (closed) time.
  std::vector<double> latency_ms;
  std::vector<double> from_send_ms;  // per answered request, from the actual send
  std::vector<double> lag_ms;        // open loop: send time minus due time
  uint64_t sent = 0;
  uint64_t ok = 0;         // answered correctly
  uint64_t errors = 0;     // error responses, admission rejections included
  uint64_t wrong = 0;      // answers that differ from the oracle
  uint64_t within_slo = 0; // answered correctly within kSloMs
  double wall_s = 0.0;

  void Add(const PhaseResult& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    from_send_ms.insert(from_send_ms.end(), o.from_send_ms.begin(), o.from_send_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    sent += o.sent;
    ok += o.ok;
    errors += o.errors;
    wrong += o.wrong;
    within_slo += o.within_slo;
    wall_s += o.wall_s;
  }
};

// Sends `n` requests (ids first_id..) at `rps` from one thread, round-robin over the
// bundle's connections; one receiver thread polls all of them.
PhaseResult RunOpenLoop(const ServerBundle& bundle, const Oracle& oracle, uint64_t first_id,
                        size_t n, double rps, SharedStatus* status) {
  struct Slot {
    std::atomic<int64_t> sent_ns{0};
    std::atomic<uint64_t> span{0};
    int64_t done_ns = 0;
    int state = 0;  // 0 pending, 1 ok, 2 error response, 3 wrong answer
  };
  std::vector<Slot> slots(n);
  const size_t conns = bundle.connections();
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const int64_t t0_ns = ToNs(t0);
  const double interval_ns = 1e9 / rps;
  auto due_ns = [&](size_t i) {
    return t0_ns + static_cast<int64_t>(interval_ns * static_cast<double>(i));
  };
  const auto give_up = t0 + std::chrono::milliseconds(static_cast<int64_t>(
                                1000.0 * static_cast<double>(n) / rps + 30000.0));

  std::thread receiver([&] {
    std::vector<neuroc::FrameReader> readers(conns);
    std::vector<pollfd> fds(conns);
    for (size_t c = 0; c < conns; ++c) {
      fds[c] = {bundle.fd(c), POLLIN, 0};
    }
    size_t received = 0;
    std::vector<uint8_t> payload;
    while (received < n && Clock::now() < give_up) {
      if (::poll(fds.data(), fds.size(), 50) <= 0) {
        continue;
      }
      for (size_t c = 0; c < conns; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        if (!ReadInto(fds[c].fd, readers[c])) {
          status->Fail("open loop: connection closed by the server");
          return;
        }
        for (;;) {
          const neuroc::StatusOr<bool> more = readers[c].Next(&payload);
          if (!more.ok() || !*more) {
            break;
          }
          const Decoded d = Decode(payload);
          const neuroc::StatusOr<ServeResponse>& resp = d.response;
          const int64_t done = d.end_ns;
          if (!resp.ok()) {
            status->Fail("open loop: undecodable response: " + resp.status().ToString());
            continue;
          }
          const uint64_t idx = resp->request_id - first_id;
          if (resp->request_id < first_id || idx >= n || slots[idx].state != 0) {
            status->Fail("open loop: unexpected or duplicate response id " +
                         std::to_string(resp->request_id));
            continue;
          }
          Slot& slot = slots[idx];
          slot.done_ns = done;
          const RequestSpec& spec = oracle.Spec(resp->request_id);
          if (!resp->ok()) {
            slot.state = 2;
          } else if (oracle.Matches(*resp, spec)) {
            slot.state = 1;
          } else {
            slot.state = 3;
            status->Fail("open loop: wrong answer for request " +
                         std::to_string(resp->request_id));
          }
          const uint64_t root = slot.span.load(std::memory_order_acquire);
          RecordSpan("client.frame_decode", 0, root, resp->request_id, d.start_ns, d.end_ns);
          RecordSpan("client.request", root, 0, resp->request_id, due_ns(idx), done);
          ++received;
        }
      }
    }
  });

  PhaseResult out;
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due_ns(i))));
    const uint64_t id = first_id + i;
    const ServeRequest req = oracle.MakeRequest(id, oracle.Spec(id));
    const uint64_t root = NewSpanId();
    slots[i].span.store(root, std::memory_order_release);
    slots[i].sent_ns.store(ToNs(Clock::now()), std::memory_order_release);
    if (!SendRequest(bundle.fd(i % conns), req, root)) {
      status->Fail("open loop: write failed");
      break;
    }
    ++out.sent;
  }
  receiver.join();
  out.wall_s = SecondsSince(t0);
  for (size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    if (i < out.sent) {
      out.lag_ms.push_back(MsBetween(due_ns(i), s.sent_ns.load(std::memory_order_acquire)));
    }
    if (s.state == 0) {
      if (i < out.sent) {
        status->Fail("open loop: request " + std::to_string(first_id + i) +
                     " got no response");
      }
      continue;
    }
    const double latency = MsBetween(due_ns(i), s.done_ns);
    out.from_send_ms.push_back(MsBetween(s.sent_ns.load(std::memory_order_acquire), s.done_ns));
    if (s.state == 1) {
      ++out.ok;
      out.within_slo += latency <= kSloMs ? 1 : 0;
      out.latency_ms.push_back(latency);
    } else if (s.state == 2) {
      ++out.errors;
    } else {
      ++out.wrong;
    }
  }
  return out;
}

// One waiting caller per connection: send, wait for the reply, repeat until `seconds`
// have passed. Request ids are handed out from first_id upward.
PhaseResult RunClosedLoop(const ServerBundle& bundle, const Oracle& oracle, uint64_t first_id,
                          double seconds, SharedStatus* status) {
  std::atomic<uint64_t> next_id{first_id};
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<PhaseResult> per(bundle.connections());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < bundle.connections(); ++c) {
    clients.emplace_back([&, c] {
      PhaseResult& r = per[c];
      neuroc::FrameReader reader;
      std::vector<uint8_t> payload;
      while (Clock::now() < end) {
        const uint64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
        const RequestSpec& spec = oracle.Spec(id);
        const ServeRequest req = oracle.MakeRequest(id, spec);
        const uint64_t root = NewSpanId();
        const int64_t sent = ToNs(Clock::now());
        if (!SendRequest(bundle.fd(c), req, root)) {
          status->Fail("closed loop: write failed");
          return;
        }
        ++r.sent;
        bool got = false;
        while (!got) {
          const neuroc::StatusOr<bool> more = reader.Next(&payload);
          if (!more.ok()) {
            status->Fail("closed loop: framing error: " + more.status().ToString());
            return;
          }
          if (!*more) {
            if (!ReadInto(bundle.fd(c), reader)) {
              status->Fail("closed loop: connection closed by the server");
              return;
            }
            continue;
          }
          got = true;
        }
        const Decoded d = Decode(payload);
        const neuroc::StatusOr<ServeResponse>& resp = d.response;
        const int64_t done = d.end_ns;
        if (!resp.ok() || resp->request_id != id) {
          status->Fail("closed loop: bad or mismatched response for request " +
                       std::to_string(id));
          return;
        }
        RecordSpan("client.frame_decode", 0, root, id, d.start_ns, d.end_ns);
        RecordSpan("client.request", root, 0, id, sent, done);
        if (!resp->ok()) {
          ++r.errors;
          continue;
        }
        if (!oracle.Matches(*resp, spec)) {
          ++r.wrong;
          status->Fail("closed loop: wrong answer for request " + std::to_string(id));
          continue;
        }
        const double latency = MsBetween(sent, done);
        ++r.ok;
        r.within_slo += latency <= kSloMs ? 1 : 0;
        r.latency_ms.push_back(latency);
        r.from_send_ms.push_back(latency);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  PhaseResult out;
  for (const PhaseResult& r : per) {
    out.Add(r);
  }
  out.wall_s = SecondsSince(t0);
  return out;
}

// Sends one request per catalogue model, one after another on one connection, and waits
// for each reply. Returns false on any error or wrong answer.
bool OnePerModel(const ServerBundle& bundle, const Oracle& oracle, uint64_t first_id,
                 SharedStatus* status) {
  neuroc::FrameReader reader;
  std::vector<uint8_t> payload;
  for (size_t m = 0; m < oracle.entries.size(); ++m) {
    RequestSpec spec;
    spec.model = static_cast<uint32_t>(m);
    const uint64_t id = first_id + m;
    if (!SendRequest(bundle.fd(0), oracle.MakeRequest(id, spec), 0)) {
      status->Fail("warm-up: write failed");
      return false;
    }
    for (;;) {
      const neuroc::StatusOr<bool> more = reader.Next(&payload);
      if (more.ok() && *more) {
        break;
      }
      if (!more.ok() || !ReadInto(bundle.fd(0), reader)) {
        status->Fail("warm-up: connection failed");
        return false;
      }
    }
    const neuroc::StatusOr<ServeResponse> resp = neuroc::DecodeResponsePayload(payload);
    if (!resp.ok() || resp->request_id != id || !resp->ok() || !oracle.Matches(*resp, spec)) {
      status->Fail("warm-up: bad response from model " + oracle.entries[m].name);
      return false;
    }
  }
  return true;
}

// Loader over the written .ncm files, with a span around each load.
neuroc::ModelLoader TimedDirectoryLoader(const std::string& dir) {
  return [inner = neuroc::DirectoryModelLoader(dir)](const std::string& name) {
    Span s("core.serde_load");
    return inner(name);
  };
}

neuroc::ServeConfig MakeServeConfig() {
  neuroc::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_queue_depth = 1024;
  cfg.cache_capacity = 4;  // holds all of serve_paper's 3 models; a third of serve_churn's
  return cfg;
}

// The load phases run in alternating slices spread over the whole measurement. On a
// shared virtual machine the host has slow spells a few seconds long; slicing makes a
// spell fall on both phases alike, instead of on whichever phase it happens to meet.
// Every figure is taken over the slices of a phase pooled.
constexpr double kOpenSliceS = 0.5;
constexpr double kClosedSliceS = 1.0;
// Untimed closed-loop load on the measured server before the load phases: the first
// second of load in a process ran slower than the rest.
constexpr double kWarmUpS = 1.0;

uint64_t Counter(const char* name) {
  return neuroc::MetricsRegistry::Global().GetCounter(name).value();
}

// The registry figures the traced run reports. Cold starts run between the load slices
// on their own servers, which count into the same process registry; their share is
// taken off.
struct ServeFigures {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t batches = 0;
  uint64_t rejected = 0;
  neuroc::MetricsRegistry::Histogram::Snapshot in_service;  // serve.latency_ms
  neuroc::MetricsRegistry::Histogram::Snapshot batch_size;

  static ServeFigures Read() {
    neuroc::MetricsRegistry& reg = neuroc::MetricsRegistry::Global();
    ServeFigures f;
    f.hits = Counter("serve.cache.hits");
    f.misses = Counter("serve.cache.misses");
    f.evictions = Counter("serve.cache.evictions");
    f.batches = Counter("serve.batches");
    f.rejected = Counter("serve.rejected");
    f.in_service = reg.GetHistogram("serve.latency_ms").snapshot();
    f.batch_size = reg.GetHistogram("serve.batch_size").snapshot();
    return f;
  }

  // Counts and sums of `this` plus `sign` times those of `o` (min and max are not kept).
  ServeFigures Plus(const ServeFigures& o, int sign) const {
    ServeFigures r;
    const auto add = [sign](uint64_t a, uint64_t b) { return sign > 0 ? a + b : a - b; };
    r.hits = add(hits, o.hits);
    r.misses = add(misses, o.misses);
    r.evictions = add(evictions, o.evictions);
    r.batches = add(batches, o.batches);
    r.rejected = add(rejected, o.rejected);
    r.in_service.count = add(in_service.count, o.in_service.count);
    r.in_service.sum = in_service.sum + sign * o.in_service.sum;
    r.batch_size.count = add(batch_size.count, o.batch_size.count);
    r.batch_size.sum = batch_size.sum + sign * o.batch_size.sum;
    return r;
  }
};

// One set-up as a user pays it: the input datasets, the catalogue models built and
// written as .ncm files into `dir`, and a server over them started.
std::unique_ptr<ServerBundle> SetUp(uint64_t seed, bool churn, const std::string& dir,
                                    const neuroc::ServeConfig& cfg, Oracle* oracle,
                                    SharedStatus* status) {
  {
    Span s("data.generate");
    oracle->pools = MakeInputPools(seed, kPoolImages, /*mnist_only=*/churn);
  }
  oracle->models.clear();
  for (const CatalogueEntry& e : oracle->entries) {
    oracle->models.push_back(BuildCatalogueModel(e));
    if (!neuroc::SaveModel(oracle->models.back(), dir + "/" + e.name + ".ncm")) {
      status->Fail("setup: cannot write " + dir + "/" + e.name + ".ncm");
      return nullptr;
    }
  }
  return std::make_unique<ServerBundle>(cfg, TimedDirectoryLoader(dir), Connections(churn));
}

}  // namespace

MeasureResult MeasureServe(const Measurement& m, bool churn, RunStatus* run_status) {
  SharedStatus status(run_status);
  MeasureResult out;
  Oracle oracle;
  oracle.entries = ServeCatalogue(churn);
  const std::string model_dir = m.work_dir + "/models";
  std::filesystem::create_directories(model_dir);
  const neuroc::ServeConfig serve_cfg = MakeServeConfig();

  // Set-up: input datasets, model build, .ncm write, server start. It is timed here and
  // once more in every load round (into a directory of its own, on a server that takes
  // no requests), so its median covers the whole run.
  std::vector<double> setup_s;
  auto t_setup = Clock::now();
  std::unique_ptr<ServerBundle> bundle =
      SetUp(m.seed, churn, model_dir, serve_cfg, &oracle, &status);
  if (bundle == nullptr) {
    return out;
  }
  setup_s.push_back(SecondsSince(t_setup));
  const std::string spare_dir = m.work_dir + "/setup";
  std::filesystem::create_directories(spare_dir);

  // Oracle preparation (untimed): device facts from an independent deployment and host
  // reference predictions for every pool image.
  std::vector<double> popularity;
  for (size_t k = 0; k < oracle.entries.size(); ++k) {
    neuroc::StatusOr<DeviceFacts> facts =
        MeasureDevice(oracle.models[k], serve_cfg.machine);
    if (!facts.ok()) {
      status.Fail("setup: cannot deploy " + oracle.entries[k].name + ": " +
                  facts.status().ToString());
      return out;
    }
    oracle.facts.push_back(*facts);
    const neuroc::QuantizedDataset& pool =
        oracle.pools[static_cast<int>(oracle.entries[k].inputs)];
    std::vector<int> preds;
    for (size_t i = 0; i < pool.num_examples(); ++i) {
      preds.push_back(oracle.models[k].Predict(
          std::span<const int8_t>(pool.example(i), pool.input_dim)));
    }
    oracle.host_pred.push_back(std::move(preds));
    popularity.push_back(oracle.entries[k].popularity);
  }
  oracle.stream = MakeRequestStream(popularity, kStreamLength, m.seed, kTenants, kPoolImages);

  // pipeline_s: from a fresh server (started outside the timing) to one correct reply
  // from every catalogue model — loads through the .ncm loader, deploy, calibration. Timed
  // before the load phases and once more in every load round.
  std::vector<double> cold_s;
  uint64_t next_id = 1;
  auto cold_start = [&]() {
    ServerBundle fresh(serve_cfg, TimedDirectoryLoader(model_dir), 1);
    const auto t0 = Clock::now();
    if (!OnePerModel(fresh, oracle, next_id, &status)) {
      return false;
    }
    cold_s.push_back(SecondsSince(t0));
    next_id += oracle.entries.size();
    run_status->attempted += oracle.entries.size();
    return true;
  };
  for (int r = 0; r < kColdStarts; ++r) {
    if (!cold_start()) {
      return out;
    }
  }

  // Warm-up on the measured server (untimed), then count from zero.
  if (!OnePerModel(*bundle, oracle, next_id, &status)) {
    return out;
  }
  next_id += oracle.entries.size();
  run_status->attempted += oracle.entries.size();
  const auto load_start = Clock::now();  // the warm-up counts into the budget
  const PhaseResult warm_up = RunClosedLoop(*bundle, oracle, next_id, kWarmUpS, &status);
  next_id += warm_up.sent;
  run_status->attempted += warm_up.sent;
  run_status->failed += warm_up.sent - warm_up.ok;
  neuroc::MetricsRegistry::Global().Reset();

  // serve_paper alternates an open-loop slice at the fixed rate with a closed-loop
  // slice; serve_churn runs closed-loop slices only. Both stop before the budget runs out.
  PhaseResult open;    // all open-loop slices, pooled
  PhaseResult closed;  // all closed-loop slices, pooled
  size_t slices = 0;
  double last_round_s = kClosedSliceS + (churn ? 0.0 : kOpenSliceS);
  ServeFigures cold_start_share;  // registry figures of the interleaved cold starts
  do {
    const auto round_start = Clock::now();
    if (!churn) {
      const size_t n = static_cast<size_t>(kPaperOpenLoopRps * kOpenSliceS);
      open.Add(RunOpenLoop(*bundle, oracle, next_id, n, kPaperOpenLoopRps, &status));
      next_id += n;
    }
    const PhaseResult slice = RunClosedLoop(*bundle, oracle, next_id, kClosedSliceS, &status);
    closed.Add(slice);
    next_id += slice.sent;
    ++slices;

    Oracle spare;
    spare.entries = oracle.entries;
    t_setup = Clock::now();
    std::unique_ptr<ServerBundle> spare_server =
        SetUp(m.seed, churn, spare_dir, serve_cfg, &spare, &status);
    if (spare_server == nullptr) {
      return out;
    }
    setup_s.push_back(SecondsSince(t_setup));
    spare_server.reset();
    const ServeFigures before = ServeFigures::Read();
    if (!cold_start()) {
      return out;
    }
    cold_start_share = cold_start_share.Plus(ServeFigures::Read().Plus(before, -1), 1);
    last_round_s = SecondsSince(round_start);
  } while (run_status->correct && SecondsSince(load_start) + last_round_s <= m.budget_s);
  bundle.reset();  // stop the server before reading its counters
  run_status->attempted += open.sent + closed.sent;
  run_status->failed += (open.sent - open.ok) + (closed.sent - closed.ok);

  // Device metrics: per-request means over the whole seeded stream (every response was
  // checked to carry its model's cycles and energy) and catalogue totals.
  double cycles = 0.0;
  double energy = 0.0;
  for (const RequestSpec& r : oracle.stream) {
    cycles += static_cast<double>(oracle.facts[r.model].cycles);
    energy += oracle.facts[r.model].energy_uj;
  }
  const double stream_length = static_cast<double>(oracle.stream.size());
  uint64_t flash = 0;
  uint64_t sram = 0;
  for (const DeviceFacts& f : oracle.facts) {
    flash += f.flash_bytes;
    sram = std::max(sram, f.sram_bytes);
  }
  // serve_paper's fixed-rate open loop decides slo_attain and p50_ms (timed from each
  // request's due time). Its p99 follows how long the host stalls the load generator, so
  // p99_ms comes from the closed loop. (With two closed-loop callers, the closed loop's
  // p50 ran 2.0-3.0 ms from seed to seed against 1.6-1.9 ms for the open loop's.)
  const PhaseResult& fixed_rate = churn ? closed : open;
  const uint64_t right = open.ok + closed.ok;
  const uint64_t answered = right + open.wrong + closed.wrong;
  Metrics& e = out.end_to_end;
  e["setup_s"] = Median(setup_s);
  e["pipeline_s"] = Median(cold_s);
  // Share of answered requests that carried the host reference answer; any wrong answer
  // also fails the run.
  e["accuracy"] =
      answered == 0 ? 0.0 : static_cast<double>(right) / static_cast<double>(answered);
  e["device_latency_ms"] = CyclesToMs(cycles / stream_length);
  e["flash_bytes"] = static_cast<double>(flash);
  e["device_sram_bytes"] = static_cast<double>(sram);
  e["device_energy_uj"] = energy / stream_length;
  e["p50_ms"] = Quantile(fixed_rate.latency_ms, 0.50);
  e["p99_ms"] = WindowedQuantile(closed.latency_ms, kTailWindow, 0.99);
  e["capacity_rps"] = static_cast<double>(closed.ok) / closed.wall_s;
  e["slo_attain"] = fixed_rate.sent == 0 ? 0.0
                                         : static_cast<double>(fixed_rate.within_slo) /
                                               static_cast<double>(fixed_rate.sent);
  std::printf("%s: %zu models, open loop %llu sent / %llu ok at %.0f req/s, closed loop "
              "%llu sent / %llu ok in %.2f s over %zu slices\n",
              churn ? "serve_churn" : "serve_paper", oracle.entries.size(),
              static_cast<unsigned long long>(open.sent),
              static_cast<unsigned long long>(open.ok), churn ? 0.0 : kPaperOpenLoopRps,
              static_cast<unsigned long long>(closed.sent),
              static_cast<unsigned long long>(closed.ok), closed.wall_s,
              slices);

  if (m.traced) {
    Metrics& l = out.per_layer;
    const ServeFigures f = ServeFigures::Read().Plus(cold_start_share, -1);
    std::vector<double> from_send = open.from_send_ms;
    from_send.insert(from_send.end(), closed.from_send_ms.begin(), closed.from_send_ms.end());
    l["serve.in_service_ms"] = f.in_service.mean();
    l["serve.wire_ms"] = Mean(from_send) - f.in_service.mean();
    l["serve.batch_size_mean"] = f.batch_size.mean();
    l["serve.batches"] = static_cast<double>(f.batches);
    l["serve.rejected"] = static_cast<double>(f.rejected);
    l["serve.cache_hit_frac"] =
        f.hits + f.misses == 0
            ? 0.0
            : static_cast<double>(f.hits) / static_cast<double>(f.hits + f.misses);
    l["serve.cache_misses"] = static_cast<double>(f.misses);
    l["serve.cache_evictions"] = static_cast<double>(f.evictions);
    const uint64_t attempted = open.sent + closed.sent;
    l["serve.failed_frac"] =
        attempted == 0 ? 0.0
                       : static_cast<double>(attempted - open.ok - closed.ok) /
                             static_cast<double>(attempted);
    l["loadgen.lag_ms"] = Mean(open.lag_ms);
    if (!churn) {
      l["serve.open_loop_p50_ms"] = Quantile(open.latency_ms, 0.50);
      l["serve.open_loop_p99_ms"] = Quantile(open.latency_ms, 0.99);
    }

    ProbeResult probe;
    for (const neuroc::NeuroCModel& model : oracle.models) {
      ProbeModelLayers(model, churn ? 16 : 8, &probe, run_status);
    }
    LayerView v(*Tracer::Active());
    l["serve.frame_encode_us"] = v.MeanMs("client.frame_encode") * 1000.0;
    l["serve.frame_decode_us"] = v.MeanMs("client.frame_decode") * 1000.0;
    l["data.generate_s"] = v.MeanMs("data.generate") / 1000.0;
    AddProbeMetrics(v, probe, &l);
    AddLayerCycles(oracle.facts.front(), &l);
  }
  return out;
}

}  // namespace e2ebench
