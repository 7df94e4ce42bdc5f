// tqt-retrain: the paper's method. TQT retraining of weights and power-of-2
// thresholds (train_graph, default retrain schedule) of mini_mobilenet_v1
// (depthwise, the case static calibration hurts most) and mini_resnet (dense
// convolutions with residual adds). The nn backward pass, the fake-quant
// threshold gradients, Adam and the core training loop do the work here and
// nowhere else in the benchmark.
//
// The measured window runs one trainer per CPU (nproc, at most 4), each
// retraining its own copy of both calibrated graphs with the pool pinned to
// one thread. With the default pool every parallel region waits for its
// slowest thread, so one preempted virtual CPU stalls the whole step; that
// made img_per_s bimodal from run to run on a shared host (README.md). The
// default-pool path is still timed in the traced run, for the runtime
// per-layer metrics.
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "graph_opt/transforms.h"
#include "runtime/parallel.h"
#include "tensor/serialize.h"

namespace perfbench {
namespace {

// Set-up repetitions (timed_setup). The two pieces are short: with 3 or 5
// repetitions their median followed the host's speed of the moment
// (README.md).
constexpr int kSetupReps = 9;
constexpr double kTop1Margin = 0.03;  // retrained top-1 may trail FP32 by this much
const ModelKind kModels[] = {ModelKind::kMiniMobileNetV1, ModelKind::kMiniResNet};
constexpr int kNumModels = 2;

/// Both models loaded, folded, quantized and calibrated for TQT, one timed
/// piece each (timed_setup); the last repetition is kept.
std::vector<QuantGraph> set_up(double& setup_s) {
  std::vector<QuantGraph> g(kNumModels);
  setup_s = timed_setup(kNumModels, kSetupReps, [&](int i, int rep) {
    const double t0 = now_s();
    QuantGraph q = quantize_graph(kModels[i], Precision::kW8, /*trainable=*/true);
    const double secs = now_s() - t0;
    if (rep == kSetupReps - 1) g[static_cast<size_t>(i)] = std::move(q);
    return secs;
  });
  return g;
}

/// A trainer's own copy of a calibrated graph: the same graph surgery, then
/// the calibrated parameters (weights and thresholds) copied over.
QuantGraph copy_of(const QuantGraph& src) {
  QuantGraph q;
  q.kind = src.kind;
  q.model = tqt::build_model(src.kind, dataset().config().num_classes);
  q.model.graph.load_state_dict(tqt::load_tensors(artifact_path(src.kind)));
  q.model.graph.set_training(false);
  tqt::optimize_for_quantization(q.model.graph, q.model.input, dataset().calibration_batch(2, 1));
  q.qres = tqt::quantize_pass(q.model.graph, q.model.input, q.model.logits, tqt::QuantizeConfig{});
  q.model.graph.load_state_dict(src.model.graph.state_dict());
  return q;
}

struct TrainRun {
  int64_t steps = 0, images = 0;
  double wall_s = 0;
  std::vector<double> step_s;  // gaps between consecutive optimizer steps
};

/// Retrains `qg`. With a `gauge`, one host-gauge chunk runs after every
/// optimizer step, left out of the step times.
TrainRun train(QuantGraph& qg, HostGauge* gauge = nullptr) {
  tqt::TrainSchedule sched = tqt::default_retrain_schedule();
  TrainRun run;
  double last = 0;
  sched.on_step = [&](int64_t) {
    const double t = now_s();
    run.step_s.push_back(t - last);
    if (gauge) gauge->sample();
    last = gauge ? now_s() : t;
  };
  const double t0 = now_s();
  last = t0;
  const tqt::TrainResult res = tqt::train_graph(qg.model.graph, qg.model.input,
                                                qg.qres.quantized_output, dataset(), sched);
  run.wall_s = now_s() - t0;
  run.steps = res.steps;
  run.images = res.steps * sched.batch_size;
  return run;
}

double top1(QuantGraph& qg) {
  return tqt::evaluate_graph(qg.model.graph, qg.model.input, qg.qres.quantized_output, dataset())
      .top1();
}

}  // namespace

void run_tqt_retrain(const Options& o, Report& r) {
  const tqt::SyntheticImageDataset& data = dataset();
  TraceCollector tc;
  if (o.trace) tc.start(/*background=*/true);

  double setup_s = 0;
  const std::vector<QuantGraph> base = set_up(setup_s);
  if (o.trace) {
    report_setup_layers(r, tc, kSetupReps);
    tc.set_recording(false);
    tc.reset();
  }

  // Measured window: whole rounds until --seconds have passed. In a round
  // every trainer retrains fresh copies of both graphs; rounds are joined so
  // that all trainers always do the same work.
  const int n_trainers = load_threads();
  std::vector<std::vector<QuantGraph>> graphs(static_cast<size_t>(n_trainers));
  std::vector<std::vector<TrainRun>> runs(static_cast<size_t>(n_trainers));
  std::vector<HostGauge> gauges(static_cast<size_t>(n_trainers));
  tqt::set_num_threads(1);
  const double c0 = process_cpu_s(), t0 = now_s();
  do {
    std::vector<std::thread> threads;
    for (int w = 0; w < n_trainers; ++w) {
      threads.emplace_back([&, w] {
        auto& mine = graphs[static_cast<size_t>(w)];
        mine.clear();
        for (const QuantGraph& b : base) mine.push_back(copy_of(b));
        for (QuantGraph& q : mine) {
          runs[static_cast<size_t>(w)].push_back(train(q, &gauges[static_cast<size_t>(w)]));
        }
      });
    }
    for (auto& t : threads) t.join();
  } while (now_s() - t0 < o.seconds);
  HostGauge gauge;
  for (const HostGauge& g : gauges) gauge.merge(g);
  // Window time per trainer and CPU time, the gauge chunks left out.
  const double wall_s = now_s() - t0 - gauge.wall_s() / static_cast<double>(n_trainers);
  const double cpu_s = process_cpu_s() - c0 - gauge.cpu_s();

  int64_t steps = 0, images = 0;
  std::vector<double> step_s[kNumModels];
  for (const auto& per_trainer : runs) {
    for (size_t k = 0; k < per_trainer.size(); ++k) {
      steps += per_trainer[k].steps;
      images += per_trainer[k].images;
      auto& dst = step_s[k % kNumModels];
      dst.insert(dst.end(), per_trainer[k].step_s.begin(), per_trainer[k].step_s.end());
    }
  }
  r.ops(static_cast<uint64_t>(steps), 0);
  double p50_us = 0;  // one optimizer step of each model at its median time
  for (const auto& s : step_s) p50_us += median(s) * 1e6;

  if (o.trace) {
    for (int i = 0; i < kNumModels; ++i) {
      r.metric("core.train_step_ms." + tqt::model_name(kModels[i]), median(step_s[i]) * 1e3,
               "ms");
    }
    // The default-pool path: the mobilenet retraining once untraced (pool
    // regions per step) and once traced (pool spans, tracing overhead).
    tqt::set_num_threads(0);
    QuantGraph plain_g = copy_of(base[0]), traced_g = copy_of(base[0]);
    const uint64_t regions0 = global_counter("pool.regions");
    const TrainRun plain = train(plain_g);
    const uint64_t regions = global_counter("pool.regions") - regions0;
    tc.reset();
    tc.set_recording(true);
    const TrainRun traced = train(traced_g);
    tc.stop();
    r.ops(static_cast<uint64_t>(plain.steps + traced.steps), 0);
    r.metric("runtime.pool.regions_per_step",
             static_cast<double>(regions) / static_cast<double>(plain.steps), "count");
    const int workers = tqt::num_threads() - 1;
    r.metric("runtime.pool.worker_busy_share",
             workers > 0 ? tc.total_ms("pool.worker") * 1e-3 / (workers * traced.wall_s) : 0.0,
             "ratio");
    r.metric("observe.trace_overhead", plain.wall_s / traced.wall_s, "ratio");
    r.metric("observe.trace_dropped", static_cast<double>(tc.dropped()), "count");
  }

  // Oracles, apart from the timed path: FP32 and static-calibration top-1 of
  // the same committed weights, the retrained top-1, every trainer's
  // parameters (training is deterministic, so all must equal trainer 0's),
  // and bit-exactness of the program compiled from each retrained graph. They
  // run on one thread, so that their allocations, and the peak RSS they may
  // set, are the same in every run.
  tqt::set_num_threads(1);
  const Tensor held_out = data.calibration_batch(16, o.seed * 1000 + 777);
  double arena_kb = 0, program_kb = 0;
  std::string note = "{";
  for (int i = 0; i < kNumModels; ++i) {
    const ModelKind kind = kModels[i];
    const std::string name = tqt::model_name(kind);
    const double fp32 = tqt::eval_fp32(kind, tqt::load_tensors(artifact_path(kind)), data).top1();
    const auto want = graphs[0][static_cast<size_t>(i)].model.graph.state_dict();
    for (size_t w = 1; w < graphs.size(); ++w) {
      const auto got = graphs[w][static_cast<size_t>(i)].model.graph.state_dict();
      bool same = got.size() == want.size();
      for (const auto& [key, t] : want) {
        const auto it = got.find(key);
        same = same && it != got.end() && it->second.equals(t);
      }
      r.op(true);
      if (!same) r.wrong(name + ": trainer " + std::to_string(w) + " parameters differ from trainer 0");
    }
    const double tqt_top1 = top1(graphs[0][static_cast<size_t>(i)]);
    r.op(true);
    if (tqt_top1 < fp32 - kTop1Margin) {
      r.wrong(name + ": retrained top-1 " + std::to_string(tqt_top1) + " trails FP32 " +
              std::to_string(fp32) + " by more than the margin");
    }
    double static_top1 = -1;
    if (kind == ModelKind::kMiniMobileNetV1) {
      QuantGraph st = quantize_graph(kind, Precision::kW8, /*trainable=*/false);
      static_top1 = top1(st);
      r.op(true);
      if (!(tqt_top1 > static_top1)) {
        r.wrong(name + ": retrained top-1 " + std::to_string(tqt_top1) +
                " is not above static calibration " + std::to_string(static_top1));
      }
    }

    QuantGraph& qg = graphs[0][static_cast<size_t>(i)];
    qg.model.graph.set_training(false);
    const std::string path = o.tmp_dir + "/retrained." + name + ".tqtp";
    program_kb += static_cast<double>(compile_and_save(qg, path).file_bytes) / 1024.0;
    const FixedPointProgram prog = FixedPointProgram::load(path);
    tqt::ExecContext ctx;
    Tensor y;
    prog.run_into(held_out, ctx, y);
    arena_kb += static_cast<double>(ctx.arena_bytes()) / 1024.0;
    const Tensor fq = qg.model.graph.run({{qg.model.input, held_out}}, qg.qres.quantized_output);
    r.op(true);
    if (!y.equals(fq)) r.wrong(name + ": retrained program differs from its fake-quant graph");
    if (!y.equals(prog.run_reference(held_out))) {
      r.wrong(name + ": retrained program differs from run_reference");
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"fp32\": %.4f, \"static\": %.4f, \"tqt\": %.4f}",
                  i ? ", " : "", name.c_str(), fp32, static_top1, tqt_top1);
    note += buf;
  }
  r.note("tqt-retrain", note + ", \"trainers\": " + std::to_string(n_trainers) +
                            ", \"pool_threads\": 1}");

  if (!o.trace) {
    const WindowFigures raw{static_cast<double>(images) / wall_s, p50_us,
                            cpu_s * 1e6 / static_cast<double>(images)};
    const HostGauge::Speed speed = gauge.speed();
    report_end_to_end(r, setup_s, raw, at_reference(raw, speed), speed, arena_kb, program_kb);
  }
}

}  // namespace perfbench
