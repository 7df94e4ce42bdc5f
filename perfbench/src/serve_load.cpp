// serve-saturate: the six W8A8 zoo programs served over loopback TCP through
// a 2-shard ShardedGateway to two unlimited tenants, gold (DWRR weight 2) and
// bronze (weight 1), from one load-generating process.
//
// Load is a pipelined closed loop on 4 connections. Each connection keeps
// kPerLane requests in flight for every model, and answers each response
// with a new request for the same model. Every model lane of every shard so
// holds 2 x kPerLane requests: enough to fill a batch of kMaxBatch while the
// previous one runs, whatever the models' speeds. The served model mix is
// therefore set by the lanes' own service rates, not chosen by the benchmark.
//
// The connections are opened one after another before the load starts, and
// each is given its tenant by the shard that accepted it: every shard serves
// one gold and one bronze connection, so both tenants share every DWRR queue.
//
// The server uses the command-line server's defaults (max batch 8, 200 us
// batch window, queue 256) and the default thread-pool size. Every response
// is checked against the int64 reference output precomputed for its
// (model, sample).
#include <pthread.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "net/client.h"
#include "qos/shard.h"
#include "qos/tenant.h"
#include "runtime/parallel.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;  // set-up repetitions (timed_setup, gateway start-up)
constexpr int kShards = 2;
constexpr int kConns = 4;     // 2 per shard
constexpr int kSamples = 16;  // seeded samples per model
constexpr int kPerLane = 16;  // requests in flight per connection and model
constexpr double kWarmupS = 1.0;
constexpr double kSliceS = 1.0;  // end-to-end metrics are medians over slices this long
constexpr int64_t kMaxBatch = 8;

struct TenantSpec {
  const char* name;
  const char* token;
  int weight;
};
const TenantSpec kTenants[] = {{"gold", "gold-token", 2}, {"bronze", "bronze-token", 1}};

struct Served {
  std::vector<std::string> models;
  std::vector<QuantGraph> graphs;  // kept for the run, as engine-zoo keeps its own
  std::vector<std::string> paths;
  std::vector<int64_t> file_bytes;
  std::unique_ptr<tqt::qos::TenantTable> tenants;
  std::unique_ptr<tqt::qos::ShardedGateway> gw;
};

/// Set-up piece: build and save one W8A8 program.
double build_program(Served& s, const std::string& dir, int m, int rep) {
  const double t0 = now_s();
  const ModelKind kind = tqt::all_model_kinds()[static_cast<size_t>(m)];
  QuantGraph qg = quantize_graph(kind, Precision::kW8, /*trainable=*/false);
  const std::string path =
      dir + "/serve." + tqt::model_name(kind) + ".r" + std::to_string(rep) + ".tqtp";
  const int64_t bytes = compile_and_save(qg, path).file_bytes;
  const double secs = now_s() - t0;
  if (rep == kSetupReps - 1) {
    s.graphs[static_cast<size_t>(m)] = std::move(qg);
    s.paths[static_cast<size_t>(m)] = path;
    s.file_bytes[static_cast<size_t>(m)] = bytes;
  }
  return secs;
}

/// Set-up piece: start the gateway with its tenant table and deploy each
/// saved program from its file. Replaces any gateway started before.
double start_gateway(Served& s) {
  s.gw.reset();  // drains; the tenant table it uses goes after it
  s.tenants.reset();
  const double t0 = now_s();
  auto& reg = tqt::observe::MetricsRegistry::global();
  s.tenants = std::make_unique<tqt::qos::TenantTable>(&reg);
  std::vector<tqt::qos::TenantConfig> cfgs;
  for (const TenantSpec& t : kTenants) {
    tqt::qos::TenantConfig c;
    c.token = t.token;
    c.name = t.name;
    c.weight = t.weight;
    cfgs.push_back(c);
  }
  s.tenants->load(cfgs);

  tqt::qos::ShardedGatewayConfig gc;
  gc.num_shards = kShards;
  // Accept handoff deals connections to the shards round-robin in accept
  // order; SO_REUSEPORT hashing can put 3 or 4 on one shard.
  gc.mode = tqt::qos::ShardMode::kHandoff;
  gc.batch.max_batch = kMaxBatch;
  gc.batch.max_delay_us = 200;
  gc.batch.max_queue = 256;
  gc.tenants = s.tenants.get();
  gc.metrics = &reg;
  s.gw = std::make_unique<tqt::qos::ShardedGateway>(gc);
  const tqt::DatasetConfig& d = dataset().config();
  for (size_t i = 0; i < s.models.size(); ++i) {
    TQT_TRACE("fixedpoint.load", "perfbench");
    s.gw->deploy_file(s.models[i], s.paths[i], {d.image_size, d.image_size, d.channels});
  }
  return now_s() - t0;
}

/// Seeded samples and their reference outputs, per model.
struct Oracle {
  std::vector<std::vector<Tensor>> samples;  // [model][k], each [1, H, W, C]
  std::vector<std::vector<Tensor>> want;     // [model][k], reference output row
  double arena_kb = 0;
};

Oracle make_oracle(const Served& s, uint64_t seed) {
  Oracle o;
  for (size_t m = 0; m < s.models.size(); ++m) {
    const Tensor batch = dataset().calibration_batch(kSamples, seed * 7919 + m);
    const FixedPointProgram prog = FixedPointProgram::load(s.paths[m]);
    const Tensor ref = prog.run_reference(batch);
    o.samples.emplace_back();
    o.want.emplace_back();
    for (int k = 0; k < kSamples; ++k) {
      o.samples.back().push_back(row_of(batch, k));
      o.want.back().push_back(row_of(ref, k));
    }
    // Arena of one engine context at the served batch size.
    tqt::ExecContext ctx;
    Tensor out;
    prog.run_into(dataset().calibration_batch(kMaxBatch, seed), ctx, out);
    o.arena_kb += static_cast<double>(ctx.arena_bytes()) / 1024.0;
  }
  return o;
}

bool same_values(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

uint64_t accepted(int shard) {
  return global_counter("net.shard" + std::to_string(shard) + ".connections_accepted");
}

/// A load connection: its client, its tenant and the shard that took it.
struct Conn {
  std::unique_ptr<tqt::net::GatewayClient> client;
  int tenant = 0;
  int shard = 0;
};

/// Opens the connections one at a time, waiting for each to be accepted, and
/// gives each shard's first connection to gold and its second to bronze.
std::vector<Conn> connect_all(uint16_t port) {
  std::array<uint64_t, kShards> base{};
  std::array<int, kShards> taken{};
  for (int i = 0; i < kShards; ++i) base[static_cast<size_t>(i)] = accepted(i);
  std::vector<Conn> conns;
  for (int c = 0; c < kConns; ++c) {
    Conn conn;
    conn.client = std::make_unique<tqt::net::GatewayClient>("localhost", port);
    const double deadline = now_s() + 5.0;
    int shard = -1;
    while (shard < 0) {
      for (int i = 0; i < kShards; ++i) {
        const auto si = static_cast<size_t>(i);
        if (accepted(i) - base[si] > static_cast<uint64_t>(taken[si])) shard = i;
      }
      if (shard < 0 && now_s() > deadline) throw std::runtime_error("serve: connect not accepted");
      if (shard < 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    conn.shard = shard;
    conn.tenant = taken[static_cast<size_t>(shard)]++;
    if (conn.tenant >= 2) throw std::runtime_error("serve: a shard took a third connection");
    conn.client->set_token(kTenants[conn.tenant].token);
    conns.push_back(std::move(conn));
  }
  return conns;
}

/// Response latencies in 1 us buckets up to `max_us` (longer ones land in
/// the last bucket). A fixed table, not a list of samples, so that the load
/// generator's memory does not grow with the number of responses.
class LatencyHist {
 public:
  explicit LatencyHist(size_t max_us = 250'000) : n_(max_us, 0) {}
  void add(double us) {
    ++n_[std::min(static_cast<size_t>(std::max(us, 0.0)), n_.size() - 1)];
    ++count_;
  }
  void merge(const LatencyHist& o) {
    for (size_t b = 0; b < n_.size(); ++b) n_[b] += o.n_[b];
    count_ += o.count_;
  }
  uint64_t count() const { return count_; }
  /// The p-quantile, interpolated linearly inside its bucket.
  double quantile(double p) const {
    const double rank = p * static_cast<double>(count_);
    uint64_t below = 0;
    for (size_t b = 0; b < n_.size(); ++b) {
      if (n_[b] && static_cast<double>(below + n_[b]) >= rank) {
        return static_cast<double>(b) + (rank - static_cast<double>(below)) / n_[b];
      }
      below += n_[b];
    }
    return 0.0;
  }

 private:
  std::vector<uint32_t> n_;
  uint64_t count_ = 0;
};

/// Per-connection tallies; phases: 0 = warm-up/drain, 1 = A (untraced or
/// whole window), 2 = B (traced half of a traced run).
struct ConnStats {
  uint64_t sent = 0, failed = 0, wrong = 0;
  LatencyHist lat_us[3];
  uint64_t ok[3] = {0, 0, 0};
  std::vector<LatencyHist> slice_lat_us;  // phase 1, per kSliceS slice
};

/// Registry figures snapshotted at a phase boundary.
struct Snap {
  double t = 0, cpu = 0;
  uint64_t batches = 0, batch_samples = 0, pool_regions = 0, net_requests = 0, net_bytes = 0;
  std::vector<tqt::observe::HistogramSnapshot> batch_size;  // per model lane
  std::vector<tqt::observe::HistogramSnapshot> latency;     // per model lane
};

Snap snap(const Served& s) {
  auto& reg = tqt::observe::MetricsRegistry::global();
  Snap x;
  x.t = now_s();
  x.cpu = process_cpu_s();
  for (const std::string& m : s.models) {
    const auto bs = reg.histogram("serve." + m + ".batch_size",
                                  tqt::observe::Histogram::Layout::kLinear)
                        .snapshot();
    x.batches += bs.count;
    x.batch_samples += bs.sum;
    x.batch_size.push_back(bs);
    x.latency.push_back(reg.histogram("serve." + m + ".latency_us").snapshot());
  }
  x.pool_regions = reg.counter("pool.regions").value();
  for (int i = 0; i < s.gw->num_shards(); ++i) {
    const std::string p = "net.shard" + std::to_string(i) + ".";
    x.net_requests += reg.counter(p + "requests").value();
    x.net_bytes += reg.counter(p + "bytes_in").value() + reg.counter(p + "bytes_out").value();
  }
  return x;
}

/// Median of the server-side latency histograms over (a, b], merged across
/// lanes (upper bucket bound, as the serving dashboard reports it).
double server_p50_us(const Snap& a, const Snap& b) {
  std::map<uint64_t, uint64_t> buckets;
  tqt::observe::HistogramSnapshot d;
  for (size_t m = 0; m < b.latency.size(); ++m) {
    for (const auto& [bound, n] : b.latency[m].buckets) buckets[bound] += n;
    for (const auto& [bound, n] : a.latency[m].buckets) buckets[bound] -= n;
    d.count += b.latency[m].count - a.latency[m].count;
    d.max = std::max(d.max, b.latency[m].max);
  }
  for (const auto& [bound, n] : buckets) {
    if (n) d.buckets.push_back({bound, n});
  }
  return static_cast<double>(d.percentile(0.5));
}

struct Phase {
  Snap a, b;
};

}  // namespace

void run_serve_saturate(const Options& o, Report& r) {
  TraceCollector tc;
  if (o.trace) tc.start(/*background=*/true);

  Served s;
  for (ModelKind kind : tqt::all_model_kinds()) s.models.push_back(tqt::model_name(kind));
  s.graphs.resize(s.models.size());
  s.paths.resize(s.models.size());
  s.file_bytes.resize(s.models.size());
  const double setup_s =
      timed_setup(static_cast<int>(s.models.size()), kSetupReps,
                  [&](int m, int rep) { return build_program(s, o.tmp_dir, m, rep); }) +
      [&] {
        std::vector<double> t;
        for (int i = 0; i < kSetupReps; ++i) t.push_back(start_gateway(s));
        return median(t);
      }();
  if (o.trace) {
    report_setup_layers(r, tc, kSetupReps);
    tc.set_recording(false);
    tc.reset();
  }
  const Oracle oracle = make_oracle(s, o.seed);
  std::vector<Conn> conns = connect_all(s.gw->port());

  // Phase clock: responses are classified by completion time against these
  // boundaries, set before the load starts.
  const double t_start = now_s() + 0.2;
  const double w0 = t_start + kWarmupS;
  const double w_mid = w0 + (o.trace ? o.seconds / 2 : o.seconds);
  const double w1 = w0 + o.seconds;
  auto phase_of = [&](double t) { return t < w0 || t >= w1 ? 0 : (t < w_mid ? 1 : 2); };
  // Host speed on a shared machine drops for seconds at a time, and serving,
  // whose threads sleep and wake for every batch, feels it most: the served
  // rate of one run ranged from 26k to 49k req/s between 1 s slices. The
  // end-to-end metrics are therefore medians over the slices of phase 1.
  const int n_slices = std::max(1, static_cast<int>((w_mid - w0) / kSliceS));

  const int n_models = static_cast<int>(s.models.size());
  std::atomic<bool> stop{false};
  std::vector<ConnStats> stats(kConns);
  for (ConnStats& st : stats) st.slice_lat_us.assign(static_cast<size_t>(n_slices), LatencyHist(20'000));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      ConnStats& st = stats[static_cast<size_t>(c)];
      tqt::net::GatewayClient& cl = *conns[static_cast<size_t>(c)].client;
      std::mt19937_64 rng(o.seed * 1000003 + static_cast<uint64_t>(c));
      struct Pending {
        int m, k;
        double sent;
      };
      std::unordered_map<uint32_t, Pending> pending;
      auto send = [&](int m) {
        const int k = static_cast<int>(rng() % kSamples);
        const uint32_t id = cl.send_infer(
            s.models[static_cast<size_t>(m)],
            oracle.samples[static_cast<size_t>(m)][static_cast<size_t>(k)]);
        pending[id] = {m, k, now_s()};
        ++st.sent;
      };
      while (now_s() < t_start) std::this_thread::sleep_for(std::chrono::microseconds(200));
      for (int i = 0; i < kPerLane; ++i) {
        for (int m = 0; m < n_models; ++m) send(m);
      }
      while (!pending.empty()) {
        const auto tr = cl.recv_response();
        const double t = now_s();
        const auto it = pending.find(tr.request_id);
        if (it == pending.end()) throw std::runtime_error("serve: response to unknown id");
        const Pending p = it->second;
        pending.erase(it);
        const int ph = phase_of(t);
        if (tr.response.status != tqt::net::WireStatus::kOk) {
          ++st.failed;
        } else {
          if (!same_values(tr.response.output,
                           oracle.want[static_cast<size_t>(p.m)][static_cast<size_t>(p.k)])) {
            ++st.wrong;
          }
          ++st.ok[ph];
          st.lat_us[ph].add((t - p.sent) * 1e6);
          const auto slice = static_cast<size_t>((t - w0) / kSliceS);
          if (ph == 1 && slice < st.slice_lat_us.size()) st.slice_lat_us[slice].add((t - p.sent) * 1e6);
        }
        if (!stop.load(std::memory_order_relaxed)) send(p.m);
      }
    });
  }

  // Phase boundaries: snapshot registry figures and switch tracing.
  auto sleep_to = [](double t) {
    while (now_s() < t) std::this_thread::sleep_for(std::chrono::microseconds(500));
  };
  // In phase 1 this thread runs a host-gauge chunk every 5 ms. Serving is
  // the workload that feels time the hypervisor takes most, and only the
  // chunks' wall time sees it. The thread runs under SCHED_FIFO meanwhile,
  // so that its chunks do not wait behind the server's own threads (about
  // 5% of one CPU); where the policy is not allowed it runs as it is.
  // Each slice is scaled by its own chunks, since the host's speed changes
  // within a run too.
  std::vector<HostGauge> slice_gauge(static_cast<size_t>(n_slices));
  sched_param fifo{};
  fifo.sched_priority = 1;
  const bool gauge_fifo = pthread_setschedparam(pthread_self(), SCHED_FIFO, &fifo) == 0;
  Phase pa, pb;
  sleep_to(w0);
  pa.a = snap(s);
  // Process CPU time of each slice, the gauge's own left out.
  std::vector<double> slice_cpu;
  double c_prev = pa.a.cpu;
  for (int i = 0; i < n_slices; ++i) {
    HostGauge& g = slice_gauge[static_cast<size_t>(i)];
    while (now_s() < w0 + (i + 1) * kSliceS) {
      g.sample();
      std::this_thread::sleep_for(std::chrono::microseconds(4500));
    }
    const double c = process_cpu_s();
    slice_cpu.push_back(c - c_prev - g.cpu_s());
    c_prev = c;
  }
  sched_param other{};
  if (gauge_fifo) pthread_setschedparam(pthread_self(), SCHED_OTHER, &other);
  sleep_to(w_mid);
  pa.b = snap(s);
  if (o.trace) {
    tc.reset();
    tc.set_recording(true);
    pb.a = snap(s);
    sleep_to(w1);
    pb.b = snap(s);
    tc.set_recording(false);
  }
  stop = true;
  for (auto& t : threads) t.join();
  if (o.trace) tc.stop();
  s.gw->stop_and_drain();

  ConnStats all;
  uint64_t ok_by_tenant[2][3] = {};
  for (int c = 0; c < kConns; ++c) {
    const ConnStats& st = stats[static_cast<size_t>(c)];
    all.sent += st.sent;
    all.failed += st.failed;
    all.wrong += st.wrong;
    for (int ph = 0; ph < 3; ++ph) {
      all.ok[ph] += st.ok[ph];
      ok_by_tenant[conns[static_cast<size_t>(c)].tenant][ph] += st.ok[ph];
      all.lat_us[ph].merge(st.lat_us[ph]);
    }
  }
  r.ops(all.sent, all.failed);
  if (all.wrong) r.wrong(std::to_string(all.wrong) + " responses differ from run_reference");

  const double wa = pa.b.t - pa.a.t;
  auto ips = [&](int ph, double secs) { return static_cast<double>(all.ok[ph]) / secs; };
  const double p50_a = all.lat_us[1].quantile(0.5);
  char note[256];
  std::snprintf(note, sizeof note,
                "{\"responses\": %llu, \"p50_us\": %.1f, \"p99_us\": %.1f, \"pool_threads\": %d, "
                "\"gauge_fifo\": %s, \"shards\": {",
                static_cast<unsigned long long>(all.lat_us[1].count()), p50_a,
                all.lat_us[1].quantile(0.99), tqt::num_threads(), gauge_fifo ? "true" : "false");
  std::string note_s = note;
  for (int i = 0; i < kShards; ++i) {
    note_s += std::string(i ? ", " : "") + "\"" + std::to_string(i) + "\": [";
    bool first = true;
    for (const Conn& c : conns) {
      if (c.shard != i) continue;
      note_s += std::string(first ? "" : ", ") + "\"" + kTenants[c.tenant].name + "\"";
      first = false;
    }
    note_s += "]";
  }
  note_s += "}, \"batch_mean_by_model\": {";
  for (size_t m = 0; m < s.models.size(); ++m) {
    const double nb = static_cast<double>(pa.b.batch_size[m].count - pa.a.batch_size[m].count);
    const double ns = static_cast<double>(pa.b.batch_size[m].sum - pa.a.batch_size[m].sum);
    std::snprintf(note, sizeof note, "%s\"%s\": %.2f", m ? ", " : "", s.models[m].c_str(),
                  nb > 0 ? ns / nb : 0.0);
    note_s += note;
  }
  r.note(o.workload, note_s + "}}");

  if (!o.trace) {
    std::vector<double> rate, p50, cpu_per_req, ref_rate, ref_p50, ref_cpu_per_req;
    HostGauge gauge;
    for (size_t i = 0; i < static_cast<size_t>(n_slices); ++i) {
      LatencyHist h(20'000);
      for (const ConnStats& st : stats) h.merge(st.slice_lat_us[i]);
      const double n = static_cast<double>(std::max<uint64_t>(h.count(), 1));
      const WindowFigures raw{static_cast<double>(h.count()) / kSliceS, h.quantile(0.5),
                              slice_cpu[i] * 1e6 / n};
      const WindowFigures ref = at_reference(raw, slice_gauge[i].speed());
      gauge.merge(slice_gauge[i]);
      rate.push_back(raw.img_per_s);
      p50.push_back(raw.p50_us);
      cpu_per_req.push_back(raw.cpu_us_per_req);
      ref_rate.push_back(ref.img_per_s);
      ref_p50.push_back(ref.p50_us);
      ref_cpu_per_req.push_back(ref.cpu_us_per_req);
    }
    double program_kb = 0;
    for (int64_t b : s.file_bytes) program_kb += static_cast<double>(b) / 1024.0;
    report_end_to_end(r, setup_s, {median(rate), median(p50), median(cpu_per_req)},
                      {median(ref_rate), median(ref_p50), median(ref_cpu_per_req)},
                      gauge.speed(), oracle.arena_kb, program_kb);
    return;
  }

  // Per-layer figures from the traced half (B).
  const Snap& a = pb.a;
  const Snap& b = pb.b;
  const double wb = b.t - a.t;
  const double batches = static_cast<double>(b.batches - a.batches);
  const double execute_us = tc.mean_us("serve.execute");
  r.metric("serve.batch_mean",
           batches ? static_cast<double>(b.batch_samples - a.batch_samples) / batches : 0.0,
           "count");
  r.metric("serve.execute_us", execute_us, "us");
  r.metric("serve.batch_overhead_us", tc.mean_us("serve.batch") - execute_us, "us");
  r.metric("serve.server_p50_us", server_p50_us(a, b), "us");
  r.metric("serve.engine_wall_per_cpu",
           static_cast<double>(tc.get("engine.run_into").total_ns) * 1e-9 / (b.cpu - a.cpu),
           "ratio");
  r.metric("net.parse_us", tc.mean_us("net.parse"), "us");
  r.metric("net.respond_us", tc.mean_us("net.respond"), "us");
  const double reqs = static_cast<double>(b.net_requests - a.net_requests);
  r.metric("net.bytes_per_req", reqs ? static_cast<double>(b.net_bytes - a.net_bytes) / reqs : 0.0,
           "bytes");
  const double served = static_cast<double>(ok_by_tenant[0][2] + ok_by_tenant[1][2]);
  const double wsum = kTenants[0].weight + kTenants[1].weight;
  for (int t = 0; t < 2; ++t) {
    const std::string n = kTenants[t].name;
    r.metric("qos.served_share." + n,
             served ? static_cast<double>(ok_by_tenant[t][2]) / served : 0.0, "ratio");
    r.metric("qos.weight_share." + n, kTenants[t].weight / wsum, "ratio");
  }
  r.metric("runtime.pool.regions_per_batch",
           batches ? static_cast<double>(b.pool_regions - a.pool_regions) / batches : 0.0,
           "count");
  const int workers = tqt::num_threads() - 1;
  r.metric("runtime.pool.worker_busy_share",
           workers > 0 ? tc.total_ms("pool.worker") * 1e-3 / (workers * wb) : 0.0, "ratio");
  report_exec_shares(r, tc);
  r.metric("observe.trace_overhead", ips(2, wb) / ips(1, wa), "ratio");
  r.metric("observe.trace_dropped", static_cast<double>(tc.dropped()), "count");
}

}  // namespace perfbench
