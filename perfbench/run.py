#!/usr/bin/env python3
"""Fixed-work benchmark of the daemon: build, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-crash-hb --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare A.json B.json

The first call configures and builds `perfbench/` (which compiles the
library sources in `src/`) into `$CARGO_TARGET_DIR/perfbench`, default
`.bench_build/perfbench`; later calls only rebuild what changed. Build
output goes to stderr. The workload binary prints a human-readable
report, the full result object (runner metadata included) and, as the
last line of stdout, `{"correct", "attempted", "failed", "metrics"}`.
Full results and traced spans are also written to
`<build root>/perfbench-results/`. Exit code: 0 when every output check
held, 1 when one failed, 2 on a usage or build error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sim-crash-hb", "rt-saturate", "mc-k3"]


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    bdir = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)  # retry configure next time
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                        stdout=sys.stderr, stderr=sys.stderr).returncode
    exe = os.path.join(bdir, "perfbench")
    return exe if rc == 0 and os.path.exists(exe) else None


def commit():
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if not args.workload and not args.compare:
        ap.error("--workload or --compare is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.compare:
        return subprocess.run([exe, "compare"] + args.compare).returncode

    out_dir = os.path.join(build_root(), "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    rc = 0
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        cmd = [exe, "--workload", name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", args.trace, "--commit", commit(), "--out", out_dir]
        rc = max(rc, subprocess.run(cmd).returncode)
    return rc


if __name__ == "__main__":
    sys.exit(main())
