#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library sources and the benchmark
driver into .bench_build/ (CMake, Release, -O3 -march=native) when needed,
runs the workload in a fresh process with the library's environment knobs
(TQT_*) cleared so every run measures the defaults, and forwards its output.
The last stdout line is the result JSON. Saved programs go to a temporary
directory under .bench_build/ that is removed afterwards.

Exits non-zero without a result when the build or the workload fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("engine-zoo", "serve-saturate", "tqt-retrain")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(".bench_build")


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    bdir = os.path.join(build_dir(), "perfbench")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(bdir, "tqt_perfbench")


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(".git", name)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unavailable"


def stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_sigterm)  # so the child is stopped too
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("TQT_")}
    os.makedirs(build_dir(), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
