// Tests for the typed narrow-width execution engine (exec.cpp + plan.cpp +
// kernels/): bit-exactness against the int64 reference interpreter across
// every zoo model and thread count, the static memory plan's invariants, the
// zero-allocation steady-state contract, kernel-set equivalence, and
// ExecContext reuse across programs and shapes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>

#include "fixedpoint/autotune.h"
#include "fixedpoint/engine.h"
#include "fixedpoint/fuse.h"
#include "fixedpoint/kernels/kernels.h"
#include "fixedpoint/plan.h"
#include "graph_opt/quantize_pass.h"
#include "graph_opt/transforms.h"
#include "models/zoo.h"
#include "observe/observe.h"
#include "runtime/parallel.h"
#include "tensor/rng.h"
#include "test_util.h"

// ---- Global allocation counting hook --------------------------------------
// Replaces the global operator new/delete for this test binary. Counting is
// off by default; the zero-alloc test flips it on around the steady-state
// window only.
namespace {
std::atomic<long long> g_allocs{0};
std::atomic<bool> g_count{false};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count.load(std::memory_order_relaxed)) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tqt {
namespace {

struct Prepared {
  BuiltModel m;
  QuantizePassResult qres;
};

Prepared prepare(ModelKind kind, int weight_bits = 8, uint64_t seed = 11) {
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
  cfg.precision.wbits = weight_bits;
  p.qres = quantize_pass(p.m.graph, p.m.input, p.m.logits, cfg);
  calibrate_thresholds(p.m.graph, p.qres, p.m.input, calib, WeightInit::kMax);
  return p;
}

FixedPointProgram compile(Prepared& p) {
  return compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
}

void expect_raw_equal(const IntTensor& a, const IntTensor& b, const std::string& what) {
  ASSERT_EQ(a.shape, b.shape) << what;
  ASSERT_EQ(a.exponent, b.exponent) << what;
  ASSERT_EQ(a.data.size(), b.data.size()) << what;
  for (size_t i = 0; i < a.data.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << what << " lane " << i;
  }
}

class TypedEngine : public ::testing::TestWithParam<ModelKind> {};

// The headline tentpole contract: the typed narrow-width engine is
// bit-identical to the int64 reference interpreter for every zoo model at
// every thread count (integer arithmetic is exact, so the pool size must be
// invisible).
TEST_P(TypedEngine, MatchesReferenceInterpreterAtAllThreadCounts) {
  Prepared p = prepare(GetParam());
  FixedPointProgram prog = compile(p);
  Rng rng(77);
  const Tensor probe = rng.normal_tensor({3, 16, 16, 3}, 0.2f, 1.2f);
  const IntTensor ref = prog.run_raw_reference(probe);
  for (int threads : {1, 2, 4, 8}) {
    set_num_threads(threads);
    const IntTensor typed = prog.run_raw(probe);
    expect_raw_equal(typed, ref,
                     model_name(GetParam()) + " @" + std::to_string(threads) + " threads");
  }
  set_num_threads(0);
}

// Width inference invariants: quantizer outputs are int8 registers, matmul
// accumulators are at least int32, and liveness folds the register file onto
// strictly fewer arena slots.
TEST_P(TypedEngine, PlanNarrowsWidthsAndReusesSlots) {
  Prepared p = prepare(GetParam());
  FixedPointProgram prog = compile(p);
  const ExecPlan& plan = prog.plan();
  ASSERT_EQ(static_cast<int>(plan.regs.size()), prog.register_count());
  EXPECT_GT(plan.n_slots, 0);
  EXPECT_LT(plan.n_slots, prog.register_count());

  int i8_regs = 0;
  const auto& instrs = prog.instructions();
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    const FpInstr& in = instrs[idx];
    const ExecPlan::Reg& reg = plan.regs[static_cast<size_t>(in.output)];
    EXPECT_GE(reg.slot, 0) << "instruction " << idx;
    EXPECT_LT(reg.slot, plan.n_slots);
    EXPECT_LE(reg.lo, reg.hi);
    if (reg.width == IntWidth::kI8) ++i8_regs;
    switch (in.kind) {
      case FpInstr::Kind::kQuantizeInput:
      case FpInstr::Kind::kRequant:
        // 8-bit quantizers clamp to [-128, 127] (or tighter).
        if (in.clamp_lo >= -128 && in.clamp_hi <= 127) {
          EXPECT_EQ(reg.width, IntWidth::kI8) << in.debug_name;
        }
        break;
      case FpInstr::Kind::kConv2d:
      case FpInstr::Kind::kDepthwise:
      case FpInstr::Kind::kDense:
        EXPECT_GE(static_cast<int>(reg.width), static_cast<int>(IntWidth::kI32))
            << in.debug_name;
        // The plan must prove the int32 accumulator cannot overflow whenever
        // it selects the narrow kernel path.
        if (reg.width == IntWidth::kI32) {
          EXPECT_GE(reg.lo, std::numeric_limits<int32_t>::min());
          EXPECT_LE(reg.hi, std::numeric_limits<int32_t>::max());
        }
        break;
      default:
        break;
    }
  }
  EXPECT_GT(i8_regs, 0) << "no int8 activation registers — widths are not narrowing";
}

// An unfused matmul runs the fused kernels with an empty epilogue that stores
// the int32 accumulator. Every zoo model compiled with fusion off must match
// the int64 reference on both kernel sets; batch 3 gives the dense layers an
// odd M, so the GEMM's 1-row tile retires the last row.
TEST_P(TypedEngine, UnfusedProgramMatchesReferenceOnBothKernelSets) {
  Prepared p = prepare(GetParam());
  set_fusion_enabled(0);
  const FixedPointProgram prog = compile(p);
  set_fusion_enabled(-1);
  ASSERT_EQ(prog.fusion_stats().fused_matmuls, 0);
  int kernel_matmuls = 0;
  for (const auto& row : autotune::explain_kernels(prog)) {
    kernel_matmuls += row.algo == fpk::algo_name(fpk::Algo::kGemmPacked) ||
                      row.algo == fpk::algo_name(fpk::Algo::kDwDirect);
  }
  EXPECT_GT(kernel_matmuls, 0) << "no unfused matmul dispatched to a kernel";

  Rng rng(77);
  const Tensor probe = rng.normal_tensor({3, 16, 16, 3}, 0.2f, 1.2f);
  const IntTensor ref = prog.run_raw_reference(probe);
  for (const fpk::KernelSet* ks : {&fpk::scalar_kernels(), fpk::avx2_kernels()}) {
    if (!ks) continue;
    fpk::set_active_kernels(ks);
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      expect_raw_equal(prog.run_raw(probe), ref,
                       model_name(GetParam()) + " unfused " + ks->name + " @" +
                           std::to_string(threads));
    }
  }
  fpk::set_active_kernels(nullptr);
  set_num_threads(0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, TypedEngine, ::testing::ValuesIn(all_model_kinds()),
                         [](const auto& info) { return model_name(info.param); });

// After one warm-up run at a given (program, shape), steady-state run_into
// performs ZERO heap allocations: shapes, slots, scratch, and the output
// tensor are all grow-only and already sized. This now also covers the
// tqt-observe instrumentation on the entry point — with tracing disabled the
// engine counters and the inactive trace span must not allocate either (the
// registry lookups resolve once, during the warm-up run). Runs on a 1-thread
// pool — the pool handoff path type-erases the loop body, which may
// allocate; the engine's own code never does.
TEST(TypedEngineAlloc, SteadyStateRunsAllocationFree) {
  set_num_threads(1);
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  Rng rng(91);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);

  ASSERT_FALSE(observe::trace_enabled()) << "zero-alloc contract holds with tracing off";
  observe::Counter& runs = observe::MetricsRegistry::global().counter("engine.runs");

  ExecContext ctx;
  Tensor out;
  prog.run_into(probe, ctx, out);  // warm-up sizes every buffer
  const Tensor warm = out;
  const int64_t warm_arena = ctx.arena_bytes();
  EXPECT_GT(warm_arena, 0);
  const uint64_t runs_before = runs.value();

  g_allocs.store(0);
  g_count.store(true);
  for (int i = 0; i < 3; ++i) prog.run_into(probe, ctx, out);
  g_count.store(false);
  EXPECT_EQ(g_allocs.load(), 0) << "steady-state run_into allocated";
  EXPECT_EQ(ctx.arena_bytes(), warm_arena) << "arena grew after warm-up";
  EXPECT_TRUE(out.equals(warm));
  EXPECT_EQ(runs.value(), runs_before + 3) << "engine.runs must count steady-state runs";
  set_num_threads(0);
}

// The scalar and AVX2 kernel sets implement one exact-integer contract, so
// forcing either one through the registry must not change a single lane.
TEST(TypedEngineKernels, ScalarAndSimdSetsAreBitIdentical) {
  Prepared p = prepare(ModelKind::kMiniDarkNet);
  FixedPointProgram prog = compile(p);
  Rng rng(92);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);

  fpk::set_active_kernels(&fpk::scalar_kernels());
  const IntTensor scalar_out = prog.run_raw(probe);
  if (const fpk::KernelSet* avx2 = fpk::avx2_kernels()) {
    fpk::set_active_kernels(avx2);
    const IntTensor simd_out = prog.run_raw(probe);
    expect_raw_equal(simd_out, scalar_out, "avx2 vs scalar");
  } else {
    GTEST_LOG_(INFO) << "AVX2 kernels not available in this build; scalar-only check";
  }
  fpk::set_active_kernels(nullptr);
  expect_raw_equal(prog.run_raw(probe), scalar_out, "auto vs scalar");
}

// One ExecContext serves many programs and input shapes: buffers grow to the
// high-water mark and results stay bit-exact (this is the serve worker's
// usage pattern across hot swaps and varying batch sizes).
TEST(TypedEngineContext, ReusableAcrossProgramsAndBatchSizes) {
  Prepared pv = prepare(ModelKind::kMiniVgg);
  Prepared pr = prepare(ModelKind::kMiniResNet);
  FixedPointProgram vgg = compile(pv);
  FixedPointProgram resnet = compile(pr);
  Rng rng(93);

  ExecContext shared;
  for (int64_t batch : {1, 4, 2}) {
    const Tensor probe = rng.normal_tensor({batch, 16, 16, 3}, 0.2f, 1.2f);
    for (const FixedPointProgram* prog : {&vgg, &resnet}) {
      ExecContext fresh;
      Tensor a, b;
      prog->run_into(probe, shared, a);
      prog->run_into(probe, fresh, b);
      ASSERT_TRUE(a.equals(b)) << "batch " << batch;
    }
  }
}

// The dequantized typed output equals the reference interpreter's (the
// float-facing contract the serve path and CLI rely on).
TEST(TypedEngineContext, RunMatchesRunReference) {
  Prepared p = prepare(ModelKind::kMiniMobileNetV2);
  FixedPointProgram prog = compile(p);
  Rng rng(94);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
  EXPECT_TRUE(test::run_program(prog, probe).equals(prog.run_reference(probe)));
}

// Serialization round-trip preserves the typed path: a loaded program is
// finalized and executes bit-identically to the one that was saved.
TEST(TypedEngineContext, LoadedProgramExecutesTyped) {
  Prepared p = prepare(ModelKind::kMiniInception);
  FixedPointProgram prog = compile(p);
  const std::string path = ::testing::TempDir() + "/typed_prog.tqtp";
  prog.save(path);
  FixedPointProgram back = FixedPointProgram::load(path);
  EXPECT_EQ(back.plan().n_slots, prog.plan().n_slots);
  Rng rng(95);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
  expect_raw_equal(back.run_raw(probe), prog.run_raw(probe), "loaded vs compiled");
  std::remove(path.c_str());
}

// Flatten is a pure reshape, so the planner aliases its output onto its
// input's arena slot and the executor skips the copy entirely — zero bytes
// moved for every flatten in the program.
TEST(TypedEngineContext, FlattenAliasesItsInputSlot) {
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  const ExecPlan& plan = prog.plan();
  int flattens = 0;
  for (const FpInstr& in : prog.instructions()) {
    if (in.kind != FpInstr::Kind::kFlatten) continue;
    ++flattens;
    const ExecPlan::Reg& out = plan.regs[static_cast<size_t>(in.output)];
    const ExecPlan::Reg& src = plan.regs[static_cast<size_t>(in.inputs[0])];
    EXPECT_EQ(out.slot, src.slot) << in.debug_name << ": flatten output must alias its input";
    EXPECT_EQ(out.width, src.width) << in.debug_name;
  }
  EXPECT_GT(flattens, 0) << "mini_vgg should flatten before its dense head";
}

// Traffic estimate sanity: the typed plan must move strictly less data than
// the int64 interpreter — that is the point of narrow storage.
TEST(TypedEngineContext, TypedTrafficIsSmaller)
{
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  const TrafficEstimate t = estimate_traffic(prog, {2, 16, 16, 3});
  EXPECT_GT(t.typed_bytes, 0);
  EXPECT_LT(t.typed_bytes, t.reference_bytes / 2)
      << "typed engine should move < half the reference bytes";
}

}  // namespace
}  // namespace tqt
