#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload fleet_full --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the libraries under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.

Stability self-check:
    python3 perfbench/run.py --stability 5 [--workload NAME] [--seconds 20]

runs two interleaved sets of N end-to-end runs of each workload, set A
on seeds 1..N and set B on seeds N+1..2N, and reports per metric the
median and quartiles, the spread of each set and of all 2N runs, the
drift of set B's median from set A's and a bimodality flag, against the
bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures (once) and builds gw-perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources: %s/src is missing" % ROOT)
    out = os.path.join(target_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "gw-perfbench"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "gw-perfbench")


def run_once(binary, spec, workload, seed, seconds, trace):
    """Runs one workload; returns the validated result object."""
    work = os.path.join(target_dir(), "perfbench-work",
                        "%s-%d" % (workload, os.getpid()))
    try:
        proc = subprocess.run(
            [binary, "--workload=" + workload, "--seed=%d" % seed,
             "--seconds=%d" % seconds, "--trace=%d" % trace,
             "--work=" + work],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("gw-perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("malformed result line: " + lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        raise RuntimeError("metric names differ from BENCHMARK.json")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            raise RuntimeError("unit of %s differs from BENCHMARK.json"
                               % m["name"])
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bimodal(values):
    """Sarle's bimodality coefficient above 5/9 (the uniform's value)."""
    n = len(values)
    if n < 4 or statistics.pstdev(values) == 0:
        return False
    mean = statistics.fmean(values)
    m2 = sum((v - mean) ** 2 for v in values) / n
    m3 = sum((v - mean) ** 3 for v in values) / n
    m4 = sum((v - mean) ** 4 for v in values) / n
    g = m3 / m2 ** 1.5 * (n * (n - 1)) ** 0.5 / (n - 2)
    k = ((n + 1) * (m4 / m2 ** 2 - 3) + 6) * (n - 1) / ((n - 2) * (n - 3))
    bc = (g * g + 1) / (k + 3 * (n - 1) ** 2 / ((n - 2) * (n - 3)))
    return bc > 5 / 9


def stability(binary, spec, workloads, runs, seconds):
    """Two interleaved sets of end-to-end runs; returns True if all hold."""
    ok = True
    summary = {}
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = 1 + i + (runs if name == "B" else 0)
                r = run_once(binary, spec, workload, seed, seconds, 0)
                sets[name].append(r)
                log("%s set %s seed %d: %s" % (workload, name, seed, json.dumps(
                    {k: v["value"] for k, v in r["metrics"].items()})))
        print("\n%s (%d runs per set, %d s each)" % (workload, runs, seconds))
        print("%-24s %12s %12s %12s %8s %8s %8s %8s %6s %5s" % (
            "metric", "median A", "q1 A", "q3 A", "spreadA", "spreadB",
            "spread", "drift", "bound", "bimod"))
        rows = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
            q1, mid, q3 = quartiles(a + b)
            spread_a, spread_b = (qa3 - qa1) / ma, (qb3 - qb1) / mb
            spread = (q3 - q1) / mid
            worse = (mb - ma) / ma * (1 if m["better"] == "lower" else -1)
            flag = bimodal(a + b)
            held = worse <= m["bound"] and (
                name == "setup_s" or spread <= m["bound"])
            ok &= held
            rows[name] = {"median_a": ma, "q1_a": qa1, "q3_a": qa3,
                          "median_b": mb, "q1_b": qb1, "q3_b": qb3,
                          "spread_a": spread_a, "spread_b": spread_b,
                          "spread": spread, "drift": worse,
                          "bound": m["bound"], "bimodal": flag,
                          "held": held}
            print("%-24s %12.6g %12.6g %12.6g %8.4f %8.4f %8.4f %+8.4f "
                  "%6.2f %5s%s"
                  % (name, ma, qa1, qa3, spread_a, spread_b, spread, worse,
                     m["bound"], "yes" if flag else "no",
                     "" if held else "  EXCEEDS BOUND"))
        share = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
                 for k, v in sets.items()}
        correct = all(r["correct"] for v in sets.values() for r in v)
        ok &= share["A"] == share["B"] and correct
        print("failed share A %.6f B %.6f, all runs correct: %s" % (
            share["A"], share["B"], correct))
        summary[workload] = {"metrics": rows, "failed_share": share,
                             "correct": correct}
    print(json.dumps({"stable": ok, "workloads": summary}))
    return ok


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and waits
    # for the running child before the exception leaves it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--stability", type=int, metavar="N",
                   help="run two interleaved sets of N runs per workload")
    args = p.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        allowed = names if args.stability is None else names + [None]
        if args.workload not in allowed:
            p.error("--workload must be one of " + ", ".join(names))
        started = time.monotonic()
        binary = build()
        log("built gw-perfbench in %.1f s" % (time.monotonic() - started))
        if args.stability is not None:
            chosen = [args.workload] if args.workload else names
            return 0 if stability(binary, spec, chosen, args.stability,
                                  seconds) else 1
        result = run_once(binary, spec, args.workload, args.seed, seconds,
                          args.trace)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
