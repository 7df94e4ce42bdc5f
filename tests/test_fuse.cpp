// Tests for the fixed-point graph compiler (fuse.cpp + schedule.cpp): fused
// programs are bit-exact against the int64 reference interpreter of the
// UNFUSED program for every zoo model and thread count, every fusible chain
// is actually fused (no bare matmuls or bias-adds survive), the requant-pair
// collapse fires only in the provably exact zero-net-shift case, and the
// memory-aware scheduler never increases the estimated arena footprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "fixedpoint/engine.h"
#include "fixedpoint/fuse.h"
#include "fixedpoint/plan.h"
#include "graph_opt/quantize_pass.h"
#include "graph_opt/transforms.h"
#include "models/zoo.h"
#include "observe/observe.h"
#include "runtime/parallel.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace tqt {
namespace {

struct Prepared {
  BuiltModel m;
  QuantizePassResult qres;
};

Prepared prepare(ModelKind kind, uint64_t seed = 11) {
  Prepared p;
  p.m = build_model(kind, 10, seed);
  Rng rng(seed);
  p.m.graph.set_training(true);
  for (int i = 0; i < 10; ++i) {
    p.m.graph.run({{p.m.input, rng.normal_tensor({8, 16, 16, 3}, 0.2f, 1.0f)}}, p.m.logits);
  }
  p.m.graph.set_training(false);
  Tensor calib = rng.normal_tensor({16, 16, 16, 3}, 0.2f, 1.0f);
  optimize_for_quantization(p.m.graph, p.m.input, calib);
  QuantizeConfig cfg;
  p.qres = quantize_pass(p.m.graph, p.m.input, p.m.logits, cfg);
  calibrate_thresholds(p.m.graph, p.qres, p.m.input, calib, WeightInit::kMax);
  return p;
}

void expect_raw_equal(const IntTensor& a, const IntTensor& b, const std::string& what) {
  ASSERT_EQ(a.shape, b.shape) << what;
  ASSERT_EQ(a.exponent, b.exponent) << what;
  ASSERT_EQ(a.data.size(), b.data.size()) << what;
  for (size_t i = 0; i < a.data.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << what << " lane " << i;
  }
}

class FusedEngine : public ::testing::TestWithParam<ModelKind> {};

// The tentpole contract: compiling with fusion on changes the instruction
// stream but not a single output lane. The unfused program's int64 reference
// interpretation is the oracle; the fused program must match it through both
// its own reference path (the fused oracle cases) and the typed kernels at
// 1 and 4 threads.
TEST_P(FusedEngine, BitExactAgainstUnfusedReference) {
  Prepared p = prepare(GetParam());

  set_fusion_enabled(0);
  const FixedPointProgram unfused =
      compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
  set_fusion_enabled(1);
  const FixedPointProgram fused =
      compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
  set_fusion_enabled(-1);

  ASSERT_EQ(unfused.fusion_stats().fused_matmuls, 0);
  ASSERT_GT(fused.fusion_stats().fused_matmuls, 0) << model_name(GetParam());
  EXPECT_LT(fused.instruction_count(), unfused.instruction_count());

  Rng rng(77);
  const Tensor probe = rng.normal_tensor({3, 16, 16, 3}, 0.2f, 1.2f);
  const IntTensor oracle = unfused.run_raw_reference(probe);
  expect_raw_equal(fused.run_raw_reference(probe), oracle,
                   model_name(GetParam()) + " fused reference");
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    expect_raw_equal(fused.run_raw(probe), oracle,
                     model_name(GetParam()) + " typed @" + std::to_string(threads));
  }
  set_num_threads(0);
}

// Fusion coverage: in every zoo model each matmul feeds a single-use
// requant/bias/activation chain, so after the pass NO bare matmul and no
// standalone bias-add may remain — anything left bare is a missed fusion.
TEST_P(FusedEngine, EveryFusibleChainIsFused) {
  Prepared p = prepare(GetParam());
  const FixedPointProgram prog =
      compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
  for (const FpInstr& in : prog.instructions()) {
    EXPECT_NE(in.kind, FpInstr::Kind::kConv2d) << in.debug_name;
    EXPECT_NE(in.kind, FpInstr::Kind::kDepthwise) << in.debug_name;
    EXPECT_NE(in.kind, FpInstr::Kind::kDense) << in.debug_name;
    EXPECT_NE(in.kind, FpInstr::Kind::kBiasAdd) << in.debug_name;
    if (is_fused_kind(in.kind)) {
      EXPECT_GT(epi_step_count(in), 0) << in.debug_name;
    }
  }
}

// The fusion + scheduling passes must not grow the nominal arena estimate:
// fusing removes wide intermediate registers and the scheduler only accepts
// an order that is no worse than the incoming one.
TEST_P(FusedEngine, ArenaEstimateDoesNotGrow) {
  Prepared p = prepare(GetParam());
  const FixedPointProgram prog =
      compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
  const FuseStats& st = prog.fusion_stats();
  EXPECT_GT(st.arena_bytes_before, 0);
  EXPECT_LE(st.arena_bytes_after, st.arena_bytes_before) << model_name(GetParam());
}

// A saved program is already fused, so load() re-runs fusion over a stream
// with nothing left to rewrite; fusion_stats() and the engine.fusion gauge
// must still report the fused matmuls the loaded stream carries.
TEST_P(FusedEngine, FusedMatmulCountSurvivesSaveAndLoad) {
  Prepared p = prepare(GetParam());
  const FixedPointProgram prog =
      compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
  const std::string path =
      ::testing::TempDir() + "/fused_count_" + model_name(GetParam()) + ".tqtp";
  prog.save(path);
  const FixedPointProgram back = FixedPointProgram::load(path);
  std::remove(path.c_str());
  EXPECT_GT(prog.fusion_stats().fused_matmuls, 0);
  EXPECT_EQ(back.fusion_stats().fused_matmuls, prog.fusion_stats().fused_matmuls);
  EXPECT_EQ(observe::MetricsRegistry::global().gauge("engine.fusion.fused_matmuls").value(),
            prog.fusion_stats().fused_matmuls);
}

INSTANTIATE_TEST_SUITE_P(AllModels, FusedEngine, ::testing::ValuesIn(all_model_kinds()),
                         [](const auto& info) { return model_name(info.param); });

// Compile-time fusion stats are exported as engine.fusion.* gauges for the
// observe CLI; the last compiled program's numbers must be readable there.
TEST(FuseStatsGauges, ExportedThroughMetricsRegistry) {
  Prepared p = prepare(ModelKind::kMiniInception);
  const FixedPointProgram prog =
      compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
  const FuseStats& st = prog.fusion_stats();
  auto& m = observe::MetricsRegistry::global();
  EXPECT_EQ(m.gauge("engine.fusion.fused_matmuls").value(), st.fused_matmuls);
  EXPECT_EQ(m.gauge("engine.fusion.instrs_before").value(), st.instrs_before);
  EXPECT_EQ(m.gauge("engine.fusion.instrs_after").value(), st.instrs_after);
  EXPECT_EQ(m.gauge("engine.fusion.arena_bytes_after").value(), st.arena_bytes_after);
}

// ---- fuse_program micrograph units ----------------------------------------

FpInstr requant(int src, int dst, int out_exp, int64_t lo, int64_t hi) {
  FpInstr in;
  in.kind = FpInstr::Kind::kRequant;
  in.inputs = {src};
  in.output = dst;
  in.out_exponent = out_exp;
  in.clamp_lo = lo;
  in.clamp_hi = hi;
  return in;
}

FpInstr quantize_input(int dst) {
  FpInstr in;
  in.kind = FpInstr::Kind::kQuantizeInput;
  in.inputs = {0};
  in.output = dst;
  in.out_exponent = -4;
  in.clamp_lo = -128;
  in.clamp_hi = 127;
  return in;
}

TEST(FusePass, CollapsesZeroShiftRequantPairByIntersectingClamps) {
  std::vector<FpInstr> instrs = {quantize_input(1),
                                 requant(1, 2, -4, -128, 127),
                                 requant(2, 3, -4, -100, 100)};
  const FuseStats st = fuse_program(instrs, 4, 0, 3);
  EXPECT_EQ(st.collapsed_requants, 1);
  ASSERT_EQ(instrs.size(), 2u);
  const FpInstr& merged = instrs[1];
  EXPECT_EQ(merged.kind, FpInstr::Kind::kRequant);
  EXPECT_EQ(merged.output, 3);
  EXPECT_EQ(merged.clamp_lo, -100);
  EXPECT_EQ(merged.clamp_hi, 100);
}

TEST(FusePass, KeepsRequantPairWithNonzeroNetShift) {
  // rhe(rhe(v, 2), 1) != rhe(v, 3) in general — a pair whose second requant
  // actually shifts must survive verbatim.
  std::vector<FpInstr> instrs = {quantize_input(1),
                                 requant(1, 2, -4, -32768, 32767),
                                 requant(2, 3, -2, -128, 127)};
  const FuseStats st = fuse_program(instrs, 4, 0, 3);
  EXPECT_EQ(st.collapsed_requants, 0);
  EXPECT_EQ(instrs.size(), 3u);
}

TEST(FusePass, DisjointClampPairPinsToNearestBound) {
  // First clamp admits only [-128, -10]; the second demands [5, 100]. Every
  // surviving value saturates to the second clamp's lower bound.
  std::vector<FpInstr> instrs = {quantize_input(1),
                                 requant(1, 2, -4, -128, -10),
                                 requant(2, 3, -4, 5, 100)};
  const FuseStats st = fuse_program(instrs, 4, 0, 3);
  EXPECT_EQ(st.collapsed_requants, 1);
  ASSERT_EQ(instrs.size(), 2u);
  EXPECT_EQ(instrs[1].clamp_lo, 5);
  EXPECT_EQ(instrs[1].clamp_hi, 5);
}

TEST(FusePass, FusesDenseChainIntoOrderedEpilogue) {
  FpInstr dense;
  dense.kind = FpInstr::Kind::kDense;
  dense.inputs = {1};
  dense.output = 2;
  dense.const_data = {1, 2, 3, 4};
  dense.const_shape = {2, 2};
  dense.const_exponent = -4;

  FpInstr bias;
  bias.kind = FpInstr::Kind::kBiasAdd;
  bias.inputs = {3};
  bias.output = 4;
  bias.const_data = {7, -7};
  bias.const_shape = {2};

  FpInstr relu;
  relu.kind = FpInstr::Kind::kRelu;
  relu.inputs = {4};
  relu.output = 5;

  std::vector<FpInstr> instrs = {quantize_input(1), dense, requant(2, 3, -4, -128, 127),
                                 bias, relu};
  const FuseStats st = fuse_program(instrs, 6, 0, 5);
  EXPECT_EQ(st.fused_matmuls, 1);
  EXPECT_EQ(st.absorbed_instrs, 3);
  ASSERT_EQ(instrs.size(), 2u);

  const FpInstr& fused = instrs[1];
  EXPECT_EQ(fused.kind, FpInstr::Kind::kDenseFused);
  EXPECT_EQ(fused.output, 5);
  ASSERT_EQ(epi_step_count(fused), 3);
  EXPECT_EQ(epi_step(fused, 0).op, static_cast<int64_t>(FpInstr::EpiOp::kRequant));
  EXPECT_EQ(epi_step(fused, 1).op, static_cast<int64_t>(FpInstr::EpiOp::kBias));
  EXPECT_EQ(epi_step(fused, 2).op, static_cast<int64_t>(FpInstr::EpiOp::kRelu));
  EXPECT_EQ(fused.bias_data, (std::vector<int64_t>{7, -7}));
}

TEST(FusePass, ChainStopsAtMultiUseIntermediate) {
  // The requant's result is read twice, so it cannot disappear into a
  // register-resident epilogue; the dense must stay bare.
  FpInstr dense;
  dense.kind = FpInstr::Kind::kDense;
  dense.inputs = {1};
  dense.output = 2;
  dense.const_data = {1, 2, 3, 4};
  dense.const_shape = {2, 2};

  FpInstr add;
  add.kind = FpInstr::Kind::kEltwiseAdd;
  add.inputs = {3, 3};
  add.output = 4;

  std::vector<FpInstr> instrs = {quantize_input(1), dense, requant(2, 3, -4, -128, 127),
                                 add};
  const FuseStats st = fuse_program(instrs, 5, 0, 4);
  EXPECT_EQ(st.fused_matmuls, 1);      // the requant alone still fuses
  EXPECT_EQ(st.absorbed_instrs, 1);
  ASSERT_EQ(instrs.size(), 3u);
  EXPECT_EQ(instrs[1].kind, FpInstr::Kind::kDenseFused);
  EXPECT_EQ(instrs[1].output, 3);
  EXPECT_EQ(epi_step_count(instrs[1]), 1);
}

// ---- scheduler units -------------------------------------------------------

// An adversarial order — breadth-first by dataflow depth, which interleaves
// inception's towers and maximizes liveness overlap — must be recovered by
// the scheduler to an arena estimate no worse than the compiled order's.
TEST(Scheduler, RecoversAdversarialBreadthFirstOrders) {
  for (ModelKind kind : all_model_kinds()) {
    Prepared p = prepare(kind);
    const FixedPointProgram prog =
        compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
    const std::vector<FpInstr>& good = prog.instructions();
    const int nr = prog.register_count(), ir = prog.input_reg(), orr = prog.output_reg();

    std::vector<int> producer(static_cast<size_t>(nr), -1);
    for (size_t i = 0; i < good.size(); ++i) {
      producer[static_cast<size_t>(good[i].output)] = static_cast<int>(i);
    }
    std::vector<int> depth(good.size(), 0);
    for (size_t i = 0; i < good.size(); ++i) {
      for (int r : good[i].inputs) {
        const int pi = producer[static_cast<size_t>(r)];
        if (pi >= 0) depth[i] = std::max(depth[i], depth[static_cast<size_t>(pi)] + 1);
      }
    }
    std::vector<FpInstr> bfs = good;
    std::stable_sort(bfs.begin(), bfs.end(), [&](const FpInstr& a, const FpInstr& b) {
      return depth[static_cast<size_t>(producer[static_cast<size_t>(a.output)])] <
             depth[static_cast<size_t>(producer[static_cast<size_t>(b.output)])];
    });

    const std::vector<FpInstr> fixed = schedule_program(bfs, nr, ir, orr);
    EXPECT_LE(estimate_arena_bytes(fixed, nr, ir, orr), estimate_arena_bytes(bfs, nr, ir, orr))
        << model_name(kind);
    EXPECT_LE(estimate_arena_bytes(fixed, nr, ir, orr), estimate_arena_bytes(good, nr, ir, orr))
        << model_name(kind) << ": rescheduling a shuffled program must reach compiled quality";
  }
}

// Scheduling is idempotent: re-running the scheduler on its own output must
// reproduce it instruction for instruction. finalize() relies on this to make
// load-time re-finalization land on the identical plan.
TEST(Scheduler, IsIdempotentOnZooPrograms) {
  for (ModelKind kind : all_model_kinds()) {
    Prepared p = prepare(kind);
    const FixedPointProgram prog =
        compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
    const std::vector<FpInstr>& once = prog.instructions();
    const std::vector<FpInstr> twice = schedule_program(
        once, prog.register_count(), prog.input_reg(), prog.output_reg());
    ASSERT_EQ(twice.size(), once.size()) << model_name(kind);
    for (size_t i = 0; i < once.size(); ++i) {
      EXPECT_EQ(twice[i].output, once[i].output)
          << model_name(kind) << " instruction " << i;
    }
  }
}

}  // namespace
}  // namespace tqt
