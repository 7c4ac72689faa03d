"""Benchmark entry point for hypbuild.

    python3 perfbench/run.py --workload boundary|words|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  The run sets the workload up, then repeats whole rounds of the
same operations until S seconds have passed and the workload's minimum
of rounds is reached, checks the outputs, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, run_s,
op_p50_ms, peak_rss_mb); with --trace 1 they are the per-layer ones,
from one traced round after untraced reference rounds, and the spans
go to perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-ups per run: this process, then fresh ones until there are at
# least SETUP_MIN and they took SETUP_MIN_S together (or SETUP_MAX are
# done), so that a set-up of a fraction of a second, dominated by process
# start-up, still gets a steady median.
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 3, 15, 2.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print {\"setup_s\": ...} and exit")
    return p.parse_args(argv)


def _setup(wl):
    start = time.perf_counter()
    wl.build()
    return time.perf_counter() - start


def _setup_in_child(args):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed: %s" % proc.stderr.strip()[-400:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _fingerprint(wl, out):
    if isinstance(out, Exception):
        return "failed: %s" % type(out).__name__
    return wl.fingerprint(out)


def _rounds(wl, seconds, min_rounds, keep_first=True, tracer=None):
    """Whole rounds until `seconds` have passed; returns per-round
    (round_s, op latencies, outputs, failed).  Only the first round
    keeps its full outputs, for the checks; later rounds keep
    fingerprints, so memory does not grow with the number of rounds."""
    rounds = []
    start = time.perf_counter()
    while True:
        keep = keep_first and not rounds
        ops = wl.new_round()
        latencies, outputs, failed = [], [], 0
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
                failed += 1
            latencies.append(time.perf_counter() - t)
            outputs.append(out if keep else _fingerprint(wl, out))
        rounds.append((time.perf_counter() - t_round, latencies, outputs, failed))
        if len(rounds) >= min_rounds and time.perf_counter() - start >= seconds:
            return rounds


def _check(wl, rounds):
    """The workload's checks on round 1, and every later round's outputs
    against round 1's."""
    first = rounds[0][2]
    errors = list(wl.check(first))
    reference = [_fingerprint(wl, o) for o in first]
    for n, (_s, _lat, fingerprints, _f) in enumerate(rounds[1:], 2):
        for i, fp in enumerate(fingerprints):
            if fp != reference[i]:
                errors.append("round %d, operation %d: output differs from round 1" % (n, i))
    for i, out in enumerate(first):
        if isinstance(out, Exception):
            sys.stderr.write("operation %d failed: %s: %s\n" % (i, type(out).__name__, out))
    for e in errors[:20]:
        sys.stderr.write("check: %s\n" % e)
    return not errors


def _peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _counts(rounds):
    return sum(len(r[1]) for r in rounds), sum(r[3] for r in rounds)


def _timed_run(wl, args):
    setups = [_setup(wl)]
    while len(setups) < SETUP_MIN or (math.fsum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX):
        setups.append(_setup_in_child(args))
    rounds = _rounds(wl, args.seconds, min_rounds=wl.min_rounds)
    peak_rss_mb = _peak_rss_mb(wl)  # before the checks allocate their own memory
    correct = _check(wl, rounds)
    # Each operation's median latency over the run's rounds.  The shared
    # machine switches between a fast and a slow speed every 10-60 s, and
    # the per-operation median follows the speed that held for most of
    # the run instead of mixing in the rounds that fell in the other one.
    per_op = [statistics.median(lat) for lat in zip(*(r[1] for r in rounds))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (math.fsum(per_op), "s"),
        "op_p50_ms": (1000.0 * statistics.median(per_op), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return correct, rounds, metrics


def _traced_run(wl, args):
    from tracer import Tracer, merge, per_layer_metrics
    from workloads import OUT

    tracer = Tracer()
    if not wl.children:
        tracer.install()
    wl.build()
    tracer.uninstall()
    reference = _rounds(wl, args.seconds / 2, min_rounds=2)
    if wl.children:
        out_dir = OUT / ("trace-%s-%d" % (wl.name, args.seed))
        out_dir.mkdir(parents=True, exist_ok=True)
        for stale in out_dir.glob("*.json"):
            stale.unlink()
        wl.trace_dir = out_dir
    else:
        tracer.install()
    traced = _rounds(wl, 0, min_rounds=1, keep_first=False, tracer=tracer)
    tracer.uninstall()
    rounds = reference + traced
    correct = _check(wl, rounds)
    if wl.children:
        dumps = []
        for path in sorted(out_dir.glob("*.json")):
            with open(path) as fh:
                dumps.append(json.load(fh))
        raw = merge(d["raw"] for d in dumps)
        spans = [dict(s, command=n) for n, d in enumerate(dumps) for s in d["spans"]]
    else:
        raw, spans = tracer.raw(), tracer.span_records()
    untraced_s = statistics.median(r[0] for r in reference)
    overhead = traced[0][0] / untraced_s - 1.0
    metrics = {k: (v["value"], v["unit"]) for k, v in per_layer_metrics(raw).items()}
    metrics["trace.overhead"] = (overhead, "ratio")
    with open(OUT / ("trace-%s-%d.json" % (wl.name, args.seed)), "w") as fh:
        json.dump({
            "workload": wl.name, "seed": args.seed,
            "untraced_round_s": untraced_s, "traced_round_s": traced[0][0],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "spans": spans,
        }, fh)
    return correct, rounds, metrics


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "hypbuild" / "__init__.py").is_file():
        sys.stderr.write("error: no hypbuild source under %s\n" % (ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": _setup(wl)}))
        return 0
    run = _traced_run if args.trace else _timed_run
    correct, rounds, metrics = run(wl, args)
    attempted, failed = _counts(rounds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
