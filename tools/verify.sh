#!/usr/bin/env bash
# Full verification loop: configure, build, then run the test suite twice —
# once serial (TQT_NUM_THREADS=1) and once parallel (TQT_NUM_THREADS=4) — so
# any thread-count-dependent result or data race surfaces as a test failure.
# The engine tests (typed executor, kernels, plan, rescale, bit-exactness)
# additionally run from a Debug build, and the engine bench smoke-runs at the
# end as a bit-exactness gate and as the tuned-may-not-lose-to-static gate.
#
# Usage:
#   tools/verify.sh [build-dir]               # default build dir: build
#   TQT_SANITIZE=thread tools/verify.sh tsan  # TSan build in ./tsan
#
# TQT_SANITIZE is forwarded to CMake (-DTQT_SANITIZE=thread|address|undefined).
# A TSan run of the parallel pass is the strongest check: the pool, the
# kernels' disjoint-write claims, and the reduction tree all get exercised
# under the race detector.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
CMAKE_ARGS=(-B "$BUILD_DIR" -S . -G Ninja)
if [[ -n "${TQT_SANITIZE:-}" ]]; then
  CMAKE_ARGS+=(-DTQT_SANITIZE="$TQT_SANITIZE")
fi

cmake "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR"

# Engine tests also run from a Debug build: the typed engine's kernels and
# memory plan are UB-sensitive (masked loads, arena slack, width narrowing),
# and assertions plus -O0 evaluation order give a second angle on them.
DEBUG_DIR="${BUILD_DIR}-debug"
cmake -B "$DEBUG_DIR" -S . -G Ninja -DCMAKE_BUILD_TYPE=Debug
cmake --build "$DEBUG_DIR" --target test_engine_exec test_engine_units test_fixedpoint \
  test_fuse
echo "==== engine + graph-compiler tests (Debug) ===="
ctest --test-dir "$DEBUG_DIR" \
  -R 'TypedEngine|EngineUnit|Rescale|FixedPoint|BitExact|Fuse|Scheduler' \
  --output-on-failure -j "$(nproc)"

# Fail fast on the graph compiler: fusion bit-exactness over the whole zoo,
# the pass-level rewrites, and the scheduler invariants, at both pool sizes.
# Under TQT_SANITIZE=thread this is the race check on the fused kernels'
# epilogue retire (disjoint narrow stores from parallel row chunks).
for threads in 1 4; do
  echo "==== fuse/scheduler tests with TQT_NUM_THREADS=$threads ===="
  TQT_NUM_THREADS=$threads ctest --test-dir "$BUILD_DIR" -R 'Fuse|Scheduler' \
    --output-on-failure -j "$(nproc)"
done

# Fail fast on the serving subsystem: the serve + serialization tests run
# first, at both pool sizes, before the full suite (which includes them too).
for threads in 1 4; do
  echo "==== serve/serialize tests with TQT_NUM_THREADS=$threads ===="
  TQT_NUM_THREADS=$threads ctest --test-dir "$BUILD_DIR" -R 'Serve|Serialize|serve' \
    --output-on-failure -j "$(nproc)"
done

# tqt-gateway loopback end-to-end at both pool sizes: bit-exactness over the
# socket, every typed rejection path, and the wire fuzz pass. Under
# TQT_SANITIZE=thread this is the race check on the event loop / batcher /
# completion-queue handoffs ('^Net' — plain 'Net' would also match the
# MiniMobileNet model tests).
for threads in 1 4; do
  echo "==== net gateway tests with TQT_NUM_THREADS=$threads ===="
  TQT_NUM_THREADS=$threads ctest --test-dir "$BUILD_DIR" -R '^Net' \
    --output-on-failure -j "$(nproc)"
done

# tqt-qos end-to-end at both pool sizes: the token bucket / tenant table /
# DWRR units, wire-v2 token round trips + truncation fuzz, typed
# RATE_LIMITED / QUOTA_EXCEEDED / CANCELLED rejections, the admin-plane
# tenant reload, slow-loris eviction, whole-zoo bit-exactness under 2 and 4
# shards with mixed-tenant connections, the drain barrier, and hedged
# clients. Under TQT_SANITIZE=thread this is the race check on the shared
# TenantTable, the per-tenant buckets, and the multi-reactor accept paths.
for threads in 1 4; do
  echo "==== qos/shard tests with TQT_NUM_THREADS=$threads ===="
  TQT_NUM_THREADS=$threads ctest --test-dir "$BUILD_DIR" -R '^Qos' \
    --output-on-failure -j "$(nproc)"
done

# Fail fast on tqt-autocal: histogram determinism, the online calibrator's
# bit-exactness against offline recalibration, the service's admin plane,
# drift-triggered hot-swap, and the 4-connection soak, at both pool sizes.
# Under TQT_SANITIZE=thread this is the race check on the worker thread /
# mirror ring / promotion hand-offs while serving continues.
for threads in 1 4; do
  echo "==== autocal tests with TQT_NUM_THREADS=$threads ===="
  TQT_NUM_THREADS=$threads ctest --test-dir "$BUILD_DIR" \
    -R 'Calib|StreamingHistogram|OnlineCalibrator' \
    --output-on-failure -j "$(nproc)"
done

# Fail fast on the autotuner: sidecar round trip plus every corruption
# fallback, mode resolution, the explain report, hot-swap across differently
# tuned program versions, and whole-zoo bit-exactness with autotune forced
# on, at both pool sizes. Under TQT_SANITIZE=thread this is the race check on
# the measure-once cache and the tuner-owned probe buffers.
for threads in 1 4; do
  echo "==== autotune tests with TQT_NUM_THREADS=$threads ===="
  TQT_NUM_THREADS=$threads ctest --test-dir "$BUILD_DIR" -R 'Tune|KernelsEnv' \
    --output-on-failure -j "$(nproc)"
done

# The scalar kernel set's pair walk is its only GEMM, and the default run
# above exercises the AVX2 set wherever the host has it: re-run the typed,
# fused, tuned and int4 engine tests with the scalar set forced, at both
# pool sizes, so every matmul family member runs through the portable body.
# The PerChannelVec32 kernel tests call both sets explicitly, so this pass
# also runs them with the pool split across 4 threads.
for threads in 1 4; do
  echo "==== engine tests with TQT_KERNELS=scalar TQT_NUM_THREADS=$threads ===="
  TQT_KERNELS=scalar TQT_NUM_THREADS=$threads ctest --test-dir "$BUILD_DIR" \
    -R 'TypedEngine|FusedEngine|Tune|S4Engine|PerChannelVec32' --output-on-failure \
    -j "$(nproc)"
done

# Fail fast on the INT4 sub-byte path: nibble pack/unpack parities, the
# forced Algo::kGemmS4 candidates' bit-exactness over the zoo (per-tensor and
# per-channel), the per-channel requant's vector epilogue (kernels vs
# epi_apply, the plan's whole-table proof), serializer v3, the QuantUse
# bit-width boundaries, and the deprecated pre-QuantSpec wrappers, at both
# pool sizes.
for threads in 1 4; do
  echo "==== int4 tests with TQT_NUM_THREADS=$threads ===="
  TQT_NUM_THREADS=$threads ctest --test-dir "$BUILD_DIR" \
    -R 'Nib4|S4Engine|PerChannelVec32|SerializeV3|QuantUseBoundaries|DeprecatedWrappers' \
    --output-on-failure -j "$(nproc)"
done

# Fail fast on tqt-observe too: the registry/tracer/JSON tests plus the CLI
# flag-parser contract. Under TQT_SANITIZE=thread this pass is the race
# check on concurrent metric updates and per-thread trace rings.
echo "==== observe/CLI tests ===="
ctest --test-dir "$BUILD_DIR" -R 'Json|Metrics|Tracer|cli_' \
  --output-on-failure -j "$(nproc)"

for threads in 1 4; do
  echo "==== ctest with TQT_NUM_THREADS=$threads ===="
  TQT_NUM_THREADS=$threads ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
done

echo "==== bench_serve_throughput smoke -> $BUILD_DIR/BENCH_serve.json ===="
"$BUILD_DIR/bench/bench_serve_throughput" --smoke -o "$BUILD_DIR/BENCH_serve.json"

# The net bench doubles as the multi-tenant isolation gate: its open-loop
# QoS phases exit nonzero if the abusive tenant is never rate-limited or if
# it drags any well-behaved tenant's p99 past the recorded isolation bound.
echo "==== bench_net_throughput smoke -> $BUILD_DIR/BENCH_net.json ===="
"$BUILD_DIR/bench/bench_net_throughput" --smoke -o "$BUILD_DIR/BENCH_net.json"

# The engine bench doubles as a release gate: it exits nonzero if any zoo
# model's typed output diverges from the reference interpreter. It runs with
# the graph compiler both on and off, so the fusion passes and the plain
# per-op stream each get a bit-exactness check against the int64 reference.
echo "==== bench_engine_kernels smoke (fusion on) -> $BUILD_DIR/BENCH_engine.json ===="
"$BUILD_DIR/bench/bench_engine_kernels" --smoke -o "$BUILD_DIR/BENCH_engine.json"
echo "==== bench_engine_kernels smoke (fusion off) -> $BUILD_DIR/BENCH_engine_nofuse.json ===="
"$BUILD_DIR/bench/bench_engine_kernels" --smoke --no-fuse \
  -o "$BUILD_DIR/BENCH_engine_nofuse.json"

# Fusion must not cost throughput: fail if any model's fused run lands below
# its unfused run beyond smoke-run jitter (the A/B shares one process, but
# two-block smoke timings still wobble a few percent), or if fusion loses on
# the zoo overall.
python3 - "$BUILD_DIR/BENCH_engine.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
slow = [(m["model"], m["fused_speedup"]) for m in report["models"]
        if m["fused_speedup"] < 0.95]
if slow:
    sys.exit(f"fused engine slower than unfused: {slow}")
if report["fused_speedup_geomean"] < 1.0:
    sys.exit(f"fused geomean below 1.0: {report['fused_speedup_geomean']:.3f}")
print(f"fusion gate ok: geomean {report['fused_speedup_geomean']:.3f}, "
      f"arena shrunk on {report['models_arena_shrunk']}/{len(report['models'])} models")

# The measured autotuner may never lose to the static auto-pick: the bench
# binary already exits nonzero on a loss beyond its noise floor, so this is a
# belt-and-braces re-check of the report plus the selection summary.
lost = [(m["model"], m["tuned_speedup"]) for m in report["models"]
        if m["tuned_speedup"] < 0.98]
if lost:
    sys.exit(f"tuned engine lost to static auto-pick: {lost}")
print(f"autotune gate ok: tuned geomean {report['tuned_speedup_geomean']:.3f}, "
      f"blocked layout selected on "
      f"{report['models_blocked_selected']}/{len(report['models'])} models")

# The INT4 arm must be bit-exact everywhere and must actually have routed
# matmuls through the s4 GEMM; the s4-vs-s8 throughput ratio is reported but
# not gated (sub-byte storage trades a little unpack compute for 2x smaller
# weights — the ratio is informational, the exactness is the contract).
if report["models_s4_bit_exact"] != len(report["models"]):
    sys.exit(f"int4 pair not bit-exact: {report['models_s4_bit_exact']}"
             f"/{len(report['models'])}")
no_s4 = [m["model"] for m in report["models"] if m["s4_instrs"] == 0]
if no_s4:
    sys.exit(f"no instruction routed through the s4 GEMM on: {no_s4}")
print(f"int4 gate ok: s4-vs-s8 geomean {report['s4_vs_s8_geomean']:.3f}, "
      f"bit-exact on {report['models_s4_bit_exact']}/{len(report['models'])} models")

# The per-channel INT4 arm (default dispatch) carries its own bit-exactness
# flag; its W4pc-vs-W8 ratio is reported, not gated.
if report["models_w4pc_bit_exact"] != len(report["models"]):
    sys.exit(f"int4 per-channel program not bit-exact: {report['models_w4pc_bit_exact']}"
             f"/{len(report['models'])}")
print(f"int4 per-channel gate ok: w4pc-vs-w8 geomean {report['w4pc_vs_w8_geomean']:.3f}, "
      f"bit-exact on {report['models_w4pc_bit_exact']}/{len(report['models'])} models")
PY

# Observability overhead contract (DESIGN.md §10): with tracing disabled the
# instrumentation must cost < 1% of a steady-state run_into — the bench
# exits nonzero on a breach. Skipped under sanitizers (timings meaningless).
if [[ -z "${TQT_SANITIZE:-}" ]]; then
  echo "==== bench_observe_overhead smoke -> $BUILD_DIR/BENCH_observe.json ===="
  "$BUILD_DIR/bench/bench_observe_overhead" --smoke -o "$BUILD_DIR/BENCH_observe.json"

  # Trace + metrics round trip through the CLI: the exported chrome://tracing
  # file must contain per-instruction engine spans for a zoo model.
  echo "==== tqt_cli --trace/--metrics-json smoke ===="
  "$BUILD_DIR/tools/tqt_cli" export mini_vgg -o "$BUILD_DIR/verify_vgg.tqtp" --epochs 1 \
    >/dev/null
  "$BUILD_DIR/tools/tqt_cli" run mini_vgg -i "$BUILD_DIR/verify_vgg.tqtp" \
    --trace "$BUILD_DIR/verify_trace.json" --metrics-json "$BUILD_DIR/verify_metrics.json" \
    >/dev/null
  grep -q '"name": "conv2d_fused"' "$BUILD_DIR/verify_trace.json"
  grep -q '"traceEvents"' "$BUILD_DIR/verify_trace.json"
  grep -q '"engine.runs"' "$BUILD_DIR/verify_metrics.json"

  # Autotune round trip through the CLI: `tune` measures every fused
  # instruction and writes the .tqt.tune sidecar next to the artifact; a
  # subsequent `run --autotune on` must pick the sidecar up (the explain
  # table marks measured selections) and stay bit-exact end to end.
  echo "==== tqt_cli tune -> run --autotune on round trip ===="
  rm -f "$BUILD_DIR/verify_vgg.tqtp.tqt.tune"
  "$BUILD_DIR/tools/tqt_cli" tune mini_vgg -i "$BUILD_DIR/verify_vgg.tqtp" \
    > "$BUILD_DIR/verify_tune_out.txt"
  grep -q 'wrote .*verify_vgg\.tqtp\.tqt\.tune' "$BUILD_DIR/verify_tune_out.txt"
  test -s "$BUILD_DIR/verify_vgg.tqtp.tqt.tune"
  "$BUILD_DIR/tools/tqt_cli" run mini_vgg -i "$BUILD_DIR/verify_vgg.tqtp" \
    --autotune on --explain-kernels > "$BUILD_DIR/verify_tune_run.txt"
  grep -q 'measured autotuner selection' "$BUILD_DIR/verify_tune_run.txt"
  grep -q 'top-1' "$BUILD_DIR/verify_tune_run.txt"

  # INT4 round trip through the CLI: quantize at 4/8 per-channel with -o
  # (compile + save in one step), run the artifact, then force-tune it — the
  # tuner must measure the s4 candidates without complaint and the sidecar
  # must appear. Also: the precision flags must reject out-of-range widths.
  # The run's explain table must show every fused matmul retiring through
  # the vector epilogue when the AVX2 set is active: a per-channel shift
  # table that silently falls back to the scalar walk fails here.
  echo "==== tqt_cli quantize --wbits 4 -> run -> tune round trip ===="
  "$BUILD_DIR/tools/tqt_cli" quantize mini_vgg --mode static --wbits 4 --per-channel \
    -o "$BUILD_DIR/verify_w4.tqtp" > "$BUILD_DIR/verify_w4_out.txt"
  grep -q 'W4A8 per-channel' "$BUILD_DIR/verify_w4_out.txt"
  grep -q 'wrote .* instructions' "$BUILD_DIR/verify_w4_out.txt"
  "$BUILD_DIR/tools/tqt_cli" run mini_vgg -i "$BUILD_DIR/verify_w4.tqtp" --wbits 4 \
    --explain-kernels > "$BUILD_DIR/verify_w4_run.txt"
  grep -q 'top-1' "$BUILD_DIR/verify_w4_run.txt"
  if grep -q 'kernel set avx2' "$BUILD_DIR/verify_w4_run.txt"; then
    if awk '$3 ~ /_fused$/ && $0 !~ / vec32 / { bad = 1; print "scalar retire: " $0 }
            END { exit !bad }' "$BUILD_DIR/verify_w4_run.txt"; then
      echo "FAIL: a W4A8 per-channel fused matmul retires through the scalar walk"; exit 1
    fi
    grep -q 'conv2d_fused .* vec32' "$BUILD_DIR/verify_w4_run.txt"
  fi
  rm -f "$BUILD_DIR/verify_w4.tqtp.tqt.tune"
  "$BUILD_DIR/tools/tqt_cli" tune mini_vgg -i "$BUILD_DIR/verify_w4.tqtp" \
    > "$BUILD_DIR/verify_w4_tune.txt"
  grep -q 'wrote .*verify_w4\.tqtp\.tqt\.tune' "$BUILD_DIR/verify_w4_tune.txt"
  test -s "$BUILD_DIR/verify_w4.tqtp.tqt.tune"
  if "$BUILD_DIR/tools/tqt_cli" run mini_vgg -i "$BUILD_DIR/verify_w4.tqtp" --wbits 3 \
    2>/dev/null; then
    echo "FAIL: run accepted --wbits 3 (inference range is [4,16])"; exit 1
  fi

  # Network serving round trip through the CLI: start a gateway on an
  # ephemeral port, drive it with the client subcommand, then SIGTERM the
  # server — the graceful drain must still write the metrics snapshot, with
  # the net.* instruments visible in it.
  echo "==== tqt_cli serve --port / client / SIGTERM drain smoke ===="
  rm -f "$BUILD_DIR/verify_net_metrics.json"
  "$BUILD_DIR/tools/tqt_cli" serve mini_vgg -i "$BUILD_DIR/verify_vgg.tqtp" --port 0 \
    --metrics-json "$BUILD_DIR/verify_net_metrics.json" > "$BUILD_DIR/verify_net_out.txt" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    grep -q 'tqt-gateway: serving' "$BUILD_DIR/verify_net_out.txt" 2>/dev/null && break
    sleep 0.1
  done
  NET_PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$BUILD_DIR/verify_net_out.txt")
  "$BUILD_DIR/tools/tqt_cli" client mini_vgg --port "$NET_PORT" --requests 8 | grep -q 'ok'
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  grep -q '"net.requests"' "$BUILD_DIR/verify_net_metrics.json"
  grep -q '"net.responses"' "$BUILD_DIR/verify_net_metrics.json"

  # Multi-tenant sharded round trip through the CLI: serve 2 reactor shards
  # with a tenant table, drive them with two clients at different priorities
  # (one hedged), then drain — the metrics snapshot must show both per-shard
  # net.shard<i>.* instruments and both tenants' qos.tenant.<name>.* counters.
  echo "==== tqt_cli serve --shards 2 --tenants / two-priority clients smoke ===="
  rm -f "$BUILD_DIR/verify_qos_metrics.json"
  cat > "$BUILD_DIR/verify_tenants.cfg" <<'CFG'
token=gold-tok   tenant=gold   class=high weight=4
token=bronze-tok tenant=bronze class=low  weight=1 rate=500 burst=100
CFG
  "$BUILD_DIR/tools/tqt_cli" serve mini_vgg -i "$BUILD_DIR/verify_vgg.tqtp" --port 0 \
    --shards 2 --tenants "$BUILD_DIR/verify_tenants.cfg" \
    --metrics-json "$BUILD_DIR/verify_qos_metrics.json" \
    > "$BUILD_DIR/verify_qos_out.txt" 2>&1 &
  QOS_PID=$!
  for _ in $(seq 1 100); do
    grep -q 'tqt-gateway: serving' "$BUILD_DIR/verify_qos_out.txt" 2>/dev/null && break
    sleep 0.1
  done
  grep -q '2 shards' "$BUILD_DIR/verify_qos_out.txt"
  grep -q '3 tenants' "$BUILD_DIR/verify_qos_out.txt"   # gold + bronze + default
  QOS_PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$BUILD_DIR/verify_qos_out.txt")
  "$BUILD_DIR/tools/tqt_cli" client mini_vgg --port "$QOS_PORT" --requests 8 \
    --tenant gold-tok --hedge-ms 500 | grep -q 'ok'
  "$BUILD_DIR/tools/tqt_cli" client mini_vgg --port "$QOS_PORT" --requests 8 \
    --tenant bronze-tok | grep -q 'ok'
  kill -TERM "$QOS_PID"
  wait "$QOS_PID"
  grep -q '"net.shard0.requests"' "$BUILD_DIR/verify_qos_metrics.json"
  grep -q '"net.shard1.' "$BUILD_DIR/verify_qos_metrics.json"
  grep -q '"qos.tenant.gold.admitted"' "$BUILD_DIR/verify_qos_metrics.json"
  grep -q '"qos.tenant.bronze.admitted"' "$BUILD_DIR/verify_qos_metrics.json"

  # Online-calibration round trip through the CLI: serve with the autocal
  # service attached (reusing the FP32 cache the export smoke warmed), stream
  # calibration batches over the admin plane, dry-run, then trigger a full
  # calibrate -> shadow-validate -> hot-swap cycle and check the promotion
  # and the calib.* counters land in both the status JSON and the metrics
  # snapshot. Inference keeps flowing before and after the swap.
  echo "==== tqt_cli serve --calib / calib admin round trip ===="
  rm -f "$BUILD_DIR/verify_calib_out.txt" "$BUILD_DIR/verify_calib_metrics.json"
  "$BUILD_DIR/tools/tqt_cli" serve mini_vgg --calib --port 0 --calib-min-samples 64 \
    --metrics-json "$BUILD_DIR/verify_calib_metrics.json" \
    > "$BUILD_DIR/verify_calib_out.txt" 2>&1 &
  CALIB_PID=$!
  for _ in $(seq 1 600); do
    grep -q 'tqt-gateway: serving' "$BUILD_DIR/verify_calib_out.txt" 2>/dev/null && break
    sleep 0.1
  done
  CALIB_PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$BUILD_DIR/verify_calib_out.txt")
  "$BUILD_DIR/tools/tqt_cli" client mini_vgg --port "$CALIB_PORT" --requests 8 | grep -q 'ok'
  "$BUILD_DIR/tools/tqt_cli" calib mini_vgg --port "$CALIB_PORT" --batches 2 --dry-run \
    | grep -q 'log2t'
  "$BUILD_DIR/tools/tqt_cli" calib mini_vgg --port "$CALIB_PORT" --trigger --status \
    > "$BUILD_DIR/verify_calib_admin.txt"
  grep -q 'promoted version 2' "$BUILD_DIR/verify_calib_admin.txt"
  grep -q '"promotions": 1' "$BUILD_DIR/verify_calib_admin.txt"
  "$BUILD_DIR/tools/tqt_cli" client mini_vgg --port "$CALIB_PORT" --requests 8 | grep -q 'ok'
  kill -TERM "$CALIB_PID"
  wait "$CALIB_PID"
  grep -q '"calib.promotions"' "$BUILD_DIR/verify_calib_metrics.json"
fi

echo "verify.sh: all test passes completed"
