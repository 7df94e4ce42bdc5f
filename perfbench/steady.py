#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--out FILE]
    python3 perfbench/steady.py --smoke

Run from the root of a checkout. Reads BENCHMARK.json and runs its command.

Default mode runs two alternating sets (A and B) of --runs runs per workload
on the same build, each run with its own seed (A: 1..N, B: 101..100+N; the
order of A and B alternates per pair). For every end-to-end metric and
workload it prints each set's median and quartiles, the spread
(q3 - q1) / median of each set, whether that spread is within the metric's
bound, and whether B's median is within the bound of A's
in the metric's worse direction. It also checks that the share of failed
operations is identical in both sets. Exit status 1 if any check fails.

--smoke runs every workload once at a short length, untraced and traced, and
checks that every metric named in BENCHMARK.json is printed, with its unit,
for every workload, and that each run reports correct outputs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["notes"] = [l for l in lines[:-1] if l.startswith("#")]
    return result


def smoke(spec):
    ok = True
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            r = run_once(spec, w["name"], 1, 1, trace)
            got = r["metrics"]
            missing = [m["name"] for m in names if m["name"] not in got]
            badunit = [m["name"] for m in names
                       if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
            extra = sorted(set(got) - {m["name"] for m in names})
            status = "ok"
            if missing or badunit or extra or not r["correct"] or r["failed"]:
                ok = False
                status = "FAIL"
            print(f"{status:4} {w['name']:15} trace={trace} metrics={len(got):3} "
                  f"attempted={r['attempted']} failed={r['failed']} correct={r['correct']} "
                  f"wall={r['wall_s']:.1f}s")
            for label, items in (("missing", missing), ("wrong unit", badunit), ("extra", extra)):
                if items:
                    print(f"     {label}: {', '.join(items)}")
            if trace == 0:
                zeros = [m["name"] for m in names if got.get(m["name"], {}).get("value") == 0]
                if zeros:
                    ok = False
                    print(f"     end-to-end metric reads 0: {', '.join(zeros)}")
    return ok


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(spec, runs, workloads, out):
    seconds = spec["run_seconds"]
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(runs):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = (1 if s == "A" else 101) + i
                r = run_once(spec, w, seed, seconds, 0)
                results[w][s].append(r)
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items()))
                print(f"[{i + 1}/{runs}] {w} set {s} seed {seed} ({r['wall_s']:.1f}s) "
                      f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
                      f"{vals}", flush=True)
    if out:
        with open(out, "w") as f:
            json.dump(results, f, indent=1)

    ok = True
    print()
    print(f"{'workload':15} {'metric':15} {'set A median [q1, q3]':>36} {'spread':>7} "
          f"{'set B median [q1, q3]':>36} {'spread':>7} {'B vs A':>7} {'bound':>6}  verdict")
    for w in workloads:
        fail_share = {s: [r["failed"] / r["attempted"] for r in results[w][s]] for s in "AB"}
        if not all(r["correct"] for s in "AB" for r in results[w][s]):
            ok = False
            print(f"{w:15} INCORRECT OUTPUT in some run")
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            a = [r["metrics"][name]["value"] for r in results[w]["A"]]
            b = [r["metrics"][name]["value"] for r in results[w]["B"]]
            qa, qb = spread(a), spread(b)
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if better == "lower" else -change
            verdicts = []
            if qa[3] > bound or qb[3] > bound:
                verdicts.append("SPREAD>bound")
            elif max(qa[3], qb[3]) > bound / 3:
                verdicts.append("spread>bound/3")
            if worse > bound:
                verdicts.append("MEDIANS DISAGREE")
            if "SPREAD>bound" in verdicts or "MEDIANS DISAGREE" in verdicts:
                ok = False
            print(f"{w:15} {name:15} {qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}] {qa[3]:>7.4f} "
                  f"{qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {qb[3]:>7.4f} {change:>+7.4f} "
                  f"{bound:>6}  {' '.join(verdicts) or 'ok'}")
        shares = sorted(set(fail_share["A"] + fail_share["B"]))
        if len(shares) != 1:
            ok = False
        print(f"{w:15} failed share per run: {shares}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="", help="write every run's result JSON here")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        sys.exit("steady.py: run from the root of a checkout (BENCHMARK.json not found)")
    spec = load_spec()
    if args.smoke:
        return 0 if smoke(spec) else 1
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    for w in chosen:
        if w not in names:
            sys.exit(f"steady.py: unknown workload {w}")
    return 0 if steady(spec, args.runs, chosen, args.out) else 1


if __name__ == "__main__":
    sys.exit(main())
