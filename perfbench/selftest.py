#!/usr/bin/env python3
"""Self-test of the benchmark (run from the repository root):

    python3 perfbench/selftest.py [--seconds 1]

For every workload it checks that
  * the output of a --trace 0 and a --trace 1 run round-trips through the
    library's obs/json parser, and every metric BENCHMARK.json lists for
    that mode appears with its unit (`perfbench roundtrip`);
  * the exact counters repeat exactly across two runs of the default seed
    (`perfbench compare --exact`, which parses the result files with
    obs/json and refuses results from another runner class);
  * a held-out seed passes every invariant check (exact counts are
    enforced only for the default seed; other seeds report them).
Exit code 0 when all hold.
"""
import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build lives there)

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017


def bench(exe, workload, seed, seconds, trace, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out_dir]
    p = subprocess.run(cmd, capture_output=True, text=True)
    return p.returncode, p.stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    exe = run.build()
    if exe is None:
        print("selftest: build failed")
        return 2
    root = os.path.join(run.build_root(), "perfbench-selftest")
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in run.WORKLOADS:
        for trace in (0, 1):
            rc, out = bench(exe, w, DEFAULT_SEED, args.seconds, trace, os.path.join(root, "a"))
            check(rc == 0, f"{w} trace={trace}: run exits 0")
            rt = subprocess.run([exe, "roundtrip", "--schema", "BENCHMARK.json", "--trace",
                                 str(trace)], input=out, text=True)
            check(rt.returncode == 0, f"{w} trace={trace}: output round-trips, metrics listed")
        rc, _ = bench(exe, w, DEFAULT_SEED, args.seconds, 1, os.path.join(root, "b"))
        check(rc == 0, f"{w}: second default-seed run exits 0")
        name = f"{w}-seed{DEFAULT_SEED}-trace1.json"
        cmp = subprocess.run([exe, "compare", "--exact", os.path.join(root, "a", name),
                              os.path.join(root, "b", name)])
        check(cmp.returncode == 0, f"{w}: exact counters repeat across two runs")
        rc, _ = bench(exe, w, HELD_OUT_SEED, args.seconds, 0, os.path.join(root, "held"))
        check(rc == 0, f"{w}: held-out seed {HELD_OUT_SEED} passes every invariant check")

    print("selftest:", "FAILED " + "; ".join(failures) if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
