#!/usr/bin/env python3
"""End-to-end LightSecAgg round benchmark: build, run, check, compare.

Run one workload:
  python3 bench/e2e/run.py --workload W --seed S --trace 0|1

The run length is BENCHMARK.json's run_seconds. --seconds X is accepted so
that callers can state it, and refused unless X equals run_seconds: p90 and
the spread between runs depend on the number of timed rounds.

Run every workload, or several seeds of each, and keep the results:
  python3 bench/e2e/run.py [--runs K] [--seed S] [--trace] [--out DIR]

Tiny shapes, every metric of BENCHMARK.json checked, under 10 s once built:
  python3 bench/e2e/run.py --smoke

Compare two result files written by --out (each side's median and
quartiles, one row per workload and end-to-end metric):
  python3 bench/e2e/run.py compare A/runs.json B/runs.json

Every run first builds bench/e2e (cmake -S bench/e2e -B build/e2e), which
compiles the library from the checkout's sources. The last line of standard
output is the run's JSON result; the exit code is non-zero when a round
failed, an aggregate was wrong, or a metric is missing.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / "build" / "e2e"
BINARY = BUILD / "lsa_e2e"
RESULTS = BUILD / "results"
RUN_LIMIT_S = 170  # a run of the binary, after its build, ends within this
SMOKE_SECONDS = 0.3
MAX_RESIDUAL = 0.05


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC.name}: {e}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("library sources missing: no CMakeLists.txt and src/ at the "
             "checkout root")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "lsa_e2e"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_one(spec, workload, seed, seconds, trace, smoke):
    """Runs the binary once; returns (result dict, ok)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(RESULTS / f"{workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        # In-process rounds are checked against the round deadline only once
        # they return, so a stalled one ends here.
        fail(f"{workload}: no result within {RUN_LIMIT_S} s (stalled round?)")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: no output (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last line is not JSON (exit {proc.returncode})")
    want = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in want:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            fail(f"{workload}: metric {m['name']} [{m['unit']}] missing")
    ok = (proc.returncode == 0 and result.get("correct") is True
          and result.get("failed") == 0)
    return result, ok


def residual_ok(workload, result):
    residual = result["metrics"].get("trace.residual_frac")
    if residual is None or residual["value"] < MAX_RESIDUAL:
        return True
    print(f"run.py: {workload}: trace residual {residual['value']:.3f} is "
          f"not under {MAX_RESIDUAL}", file=sys.stderr)
    return False


def drive(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have: {', '.join(names)})")
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        fail(f"--seconds {args.seconds:g} differs from BENCHMARK.json's "
             f"run_seconds {seconds}")
    build()
    workloads = [args.workload] if args.workload else names
    trace = args.trace == "1"
    runs = {w: [] for w in workloads}
    all_ok = True
    for w in workloads:
        for k in range(args.runs):
            result, ok = run_one(spec, w, args.seed + k, seconds, trace,
                                 False)
            residual_ok(w, result)  # reported, not fatal, outside --smoke
            runs[w].append(result)
            all_ok = all_ok and ok
            print(json.dumps(result), flush=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "runs.json").write_text(json.dumps(
            {"trace": int(trace), "seconds": seconds, "runs": runs},
            indent=1) + "\n")
    return 0 if all_ok else 1


def smoke(spec):
    start = time.monotonic()
    build()
    built = time.monotonic()
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            result, run_ok = run_one(spec, w["name"], 1, SMOKE_SECONDS, trace,
                                     True)
            ok = residual_ok(w["name"], result) and run_ok and ok
            print(json.dumps(result), flush=True)
    took = time.monotonic() - built
    print(f"smoke: {'ok' if ok else 'FAILED'}; runs took {took:.1f} s "
          f"(build {built - start:.1f} s)")
    return 0 if ok else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt_quartiles(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(spec, path_a, path_b):
    sides = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    for key in ("seconds", "trace"):
        if sides[0].get(key) != sides[1].get(key):
            fail(f"cannot compare: {key} is {sides[0].get(key)} in A and "
                 f"{sides[1].get(key)} in B")
    if sides[0].get("trace"):
        fail("cannot compare: end-to-end metrics come from untraced runs")
    a, b = sides[0]["runs"], sides[1]["runs"]
    print(f"{'workload':28} {'metric':24} {'A median [q1, q3]':36} "
          f"{'B median [q1, q3]':36} {'B vs A':>8}  verdict")
    flagged = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[name]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[name]]
            qa, qb = quartiles(va), quartiles(vb)
            lower = m["better"] == "lower"
            worse = (qb[1] - qa[1]) if lower else (qa[1] - qb[1])
            worse = worse / qa[1] if qa[1] else 0.0
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (qa, qb))
            b_wins_all = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if spread > m["bound"] and not b_wins_all:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            flagged += verdict != "ok"
            change = (qb[1] / qa[1] - 1.0) if qa[1] else 0.0
            print(f"{name:28} {m['name']:24} {fmt_quartiles(qa):36} "
                  f"{fmt_quartiles(qb):36} {change:+8.1%}  {verdict} "
                  f"(bound {m['bound']:.0%}, spread {spread:.1%})")
    return 1 if flagged else 0


def main():
    spec = load_spec()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare A.json B.json")
        return compare(spec, sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="must equal BENCHMARK.json's run_seconds")
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"],
                   help="per-layer metrics from a traced run")
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload, seeds S .. S+K-1")
    p.add_argument("--out", help="directory for runs.json")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.smoke:
        return smoke(spec)
    return drive(args, spec)


if __name__ == "__main__":
    sys.exit(main())
