#!/usr/bin/env python3
"""Build and run the engine benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload eager-shm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steady 10 [--workload eager-shm] [--seconds 10] [--seed 11]

The first form builds the Go program under perfbench/ (into the build
directory: $CARGO_TARGET_DIR, else .bench_build) when its sources changed,
runs one workload and passes its output through; the last line is the
JSON result. The second form is the steadiness report: it repeats each
workload k times with consecutive seeds from --seed on and prints the median and quartiles of every
end-to-end metric, with the spread as a share of the median next to the
metric's bound in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def source_stamp():
    """Hash of every Go source and module file the program builds from."""
    h = hashlib.sha256()
    skip = {".git", build_dir().name}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip and not d.startswith("."))
        for f in sorted(filenames):
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                p = Path(dirpath) / f
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def build():
    """Build the benchmark binary if missing or stale; return its path."""
    out = build_dir()
    binary = out / "perfbench"
    stamp_file = out / "perfbench.stamp"
    stamp = source_stamp()
    if binary.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return binary
    for sub in ("gocache", "gopath", "tmp", "config"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    # Everything the go command writes stays in the build directory,
    # its configuration and telemetry directory included.
    env = dict(os.environ)
    env.update(
        XDG_CONFIG_HOME=str(out / "config"),
        GOCACHE=str(out / "gocache"),
        GOPATH=str(out / "gopath"),
        GOMODCACHE=str(out / "gopath" / "mod"),
        GOTMPDIR=str(out / "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    res = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", str(binary), "."],
        cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if res.returncode != 0:
        sys.exit("perfbench: build failed")
    stamp_file.write_text(stamp)
    return binary


def run_once(binary, workload, seed, seconds, trace, capture):
    """Run one workload; return (exit code, stdout or None)."""
    cmd = [str(binary), "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace), "-out", str(build_dir())]
    # The program ends a stalled run itself; this only guards a wedged exit.
    limit = 3 * seconds + 120
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=limit,
                             stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {limit}s", file=sys.stderr)
        return 1, None
    return res.returncode, res.stdout.decode() if capture else None


def steady(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    worst = 0.0
    for wl in names:
        values = {}
        for seed in range(args.seed, args.seed + args.steady):
            code, out = run_once(binary, wl, seed, seconds, 0, True)
            if code != 0:
                sys.exit(f"perfbench: {wl} seed {seed} exited {code}")
            res = json.loads(out.strip().splitlines()[-1])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{wl}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}, {seconds}s each")
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:12s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:6.1%}  bound {bound:.0%}")
            print("    " + " ".join(f"{x:.5g}" for x in v))
    print(f"largest spread / bound, setup_s aside: {worst:.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="K", help="repeat each workload K times and report spreads")
    args = ap.parse_args()
    binary = build()
    if args.steady:
        steady(binary, args)
        return
    if not args.workload or not args.seconds:
        ap.error("--workload and --seconds are required")
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, False)
    sys.exit(code)


if __name__ == "__main__":
    main()
