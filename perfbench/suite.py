"""Run the benchmark as BENCHMARK.json describes it.

    python3 perfbench/suite.py report
        one timed run per workload, seed 1; prints every end-to-end metric by
        name and unit, with correct / attempted / failed
    python3 perfbench/suite.py trace
        one traced run per workload, seed 1; prints every per-layer metric and
        the tracing overhead (spans in perfbench/out/trace-*.json)
    python3 perfbench/suite.py steady [--workload W]
        two sets of ten timed runs per workload, a new seed per run
        counting up from 1; prints each metric's median, quartiles and spread
        (IQR / median) against its bound, the change of the second set's
        median against the first's, and the failed share of every run.
        The spread of setup_s is printed but not gated: set-up time is
        held only by the change of its median between the sets.

Run from the repository root.  Raw results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
RUNS = 10  # runs per set and workload
SETS = 2


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(spec, workload, seed, trace=0):
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    if argv[0] in ("python3", "python"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_result(workload, seed, result):
    print("%s (seed %d): correct=%s attempted=%d failed=%d" % (
        workload, seed, result["correct"], result["attempted"], result["failed"]))
    for name, m in result["metrics"].items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))


def cmd_report(spec, args):
    for w in spec["workloads"]:
        _print_result(w["name"], 1, run_once(spec, w["name"], 1))


def cmd_trace(spec, args):
    for w in spec["workloads"]:
        _print_result(w["name"], 1, run_once(spec, w["name"], 1, trace=1))
        print("  spans: perfbench/out/trace-%s-1.json" % w["name"])


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cmd_steady(spec, args):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results = {}
    seed = 1
    for s in range(SETS):
        for w in workloads:
            for _ in range(RUNS):
                r = run_once(spec, w, seed)
                results.setdefault((s, w), []).append((seed, r))
                print("set %d %s seed %d: %s" % (s + 1, w, seed, json.dumps(r)), flush=True)
                seed += 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / "steady.json", "w") as fh:
        json.dump({"%d/%s" % k: v for k, v in results.items()}, fh, indent=1)
    ok = True
    for w in workloads:
        print("\n%s" % w)
        shares = []
        for s in range(SETS):
            runs = [r for _seed, r in results[(s, w)]]
            shares.append(sorted({(r["failed"], r["attempted"]) for r in runs}))
            if not all(r["correct"] for r in runs):
                ok = False
                print("  set %d: a run reported incorrect outputs" % (s + 1))
        fractions = {Fraction(f, a) for s in shares for f, a in s}
        print("  failed/attempted per run: %s" % shares)
        if len(fractions) != 1:
            ok = False
            print("  FAILED SHARE DIFFERS BETWEEN RUNS")
        for name, m in bounds.items():
            meds = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for _seed, r in results[(s, w)]]
                q1, med, q3 = _quartiles(values)
                spread = (q3 - q1) / med
                meds.append(med)
                verdict = "ok" if spread <= m["bound"] / 3 else (
                    "within bound" if spread <= m["bound"] else "OVER BOUND")
                if name == "setup_s":
                    verdict += " (not gated)"
                elif spread > m["bound"]:
                    ok = False
                print("  set %d %-12s median %12.6g %-3s q1 %12.6g q3 %12.6g spread %.3f (bound %.2f) %s"
                      % (s + 1, name, med, m["unit"], q1, q3, spread, m["bound"], verdict))
            for s in range(1, SETS):
                change = (meds[s] - meds[0]) / meds[0]
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    ok = False
                print("  set %d vs set 1 %-12s %+.3f (bound %.2f)%s"
                      % (s + 1, name, change, m["bound"], "  WORSE" if worse > m["bound"] else ""))
    print("\nsteady: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description="run the benchmark described by BENCHMARK.json")
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("report")
    sub.add_parser("trace")
    sub.add_parser("steady").add_argument(
        "--workload", action="append", help="limit to this workload (repeatable)")
    args = p.parse_args(argv)
    spec = _spec()
    return {"report": cmd_report, "trace": cmd_trace, "steady": cmd_steady}[args.cmd](spec, args) or 0


if __name__ == "__main__":
    sys.exit(main())
