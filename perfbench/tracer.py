"""Layer tracer: wraps hypbuild's public functions from outside.

Each wrapped call records a span (name, start, end, parent span, the
operation it belongs to) and adds to its name's call count, total time
and self time (span time minus the time of its child spans).  Spans are
kept in memory, at most SPAN_CAP per name, and written out at the end;
the aggregates cover every call.

Run as a script, it wraps one hypbuild CLI command in a fresh process:

    PYTHONPATH=src python3 perfbench/tracer.py --out trace.json -- chamber area --chamber "3;2,3,8"

which writes the command's aggregates and spans to trace.json and exits
with the command's own exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

SPAN_CAP = 400

# (module, attribute path, span name, result hook)
_TARGETS = [
    ("coxeter", "CoxeterSystem.canon", "coxeter.canon", None),
    ("coxeter", "CoxeterBall.__init__", "coxeter.ball", "ball_chambers"),
    ("coxeter", "CoxeterBall.walls", "coxeter.walls", None),
    ("rabuilding", "normal_form", "rabuilding.normal_form", None),
    ("rabuilding", "wdist", "rabuilding.wdist", None),
    ("rabuilding", "ApartmentColoring.alpha", "rabuilding.alpha", None),
    ("rabuilding", "BuildingBall.__init__", "rabuilding.ball", "ball_chambers"),
    ("geomrender", "realize", "geomrender.realize", None),
    ("geomrender", "locate", "geomrender.locate", None),
    ("geomrender", "trace", "geomrender.trace", "crossings"),
    ("metrics", "DualGraph.wall_sum", "metrics.wall_sum", None),
    ("metrics", "DualGraph.min_word_weight", "metrics.min_word_weight", None),
    ("metrics", "DualGraph.dist", "metrics.dist", None),
    ("metrics", "boundary_gromov", "metrics.boundary_gromov", "stabilized"),
    ("metrics", "RaySpec.chamber_sequence", "metrics.chamber_sequence", None),
    ("weights", "WeightVector.__lt__", "weights.compare", None),
    ("catalog", "claims_check", "catalog.claims", None),
    ("catalog", "enumerate_triangles", "catalog.search", None),
    ("catalog", "enumerate_quads", "catalog.search", None),
    ("catalog", "Tessellation.step", "catalog.step", None),
    ("catalog", "tessellation", "catalog.tessellation", "tessellation"),
    ("genpoly", "construct", "genpoly.construct", None),
]

# per-layer metric -> (unit, how to read it from the aggregates)
PER_LAYER = {
    "coxeter.canon.calls": ("count", ("calls", "coxeter.canon")),
    "coxeter.canon.self_s": ("s", ("self", "coxeter.canon")),
    "coxeter.ball.build_s": ("s", ("total", "coxeter.ball")),
    "coxeter.ball.chambers": ("count", ("counter", "coxeter.ball.chambers")),
    "coxeter.walls.self_s": ("s", ("self", "coxeter.walls")),
    "rabuilding.normal_form.calls": ("count", ("calls", "rabuilding.normal_form")),
    "rabuilding.normal_form.self_s": ("s", ("self", "rabuilding.normal_form")),
    "rabuilding.wdist.calls": ("count", ("calls", "rabuilding.wdist")),
    "rabuilding.alpha.calls": ("count", ("calls", "rabuilding.alpha")),
    "rabuilding.alpha.self_s": ("s", ("self", "rabuilding.alpha")),
    "rabuilding.ball.build_s": ("s", ("total", "rabuilding.ball")),
    "rabuilding.ball.chambers": ("count", ("counter", "rabuilding.ball.chambers")),
    "geomrender.realize.s": ("s", ("total", "geomrender.realize")),
    "geomrender.locate.calls": ("count", ("calls", "geomrender.locate")),
    "geomrender.locate.self_s": ("s", ("self", "geomrender.locate")),
    "geomrender.trace.calls": ("count", ("calls", "geomrender.trace")),
    "geomrender.trace.self_s": ("s", ("self", "geomrender.trace")),
    "geomrender.trace.crossings": ("count", ("counter", "geomrender.trace.crossings")),
    "metrics.wall_sum.calls": ("count", ("calls", "metrics.wall_sum")),
    "metrics.wall_sum.self_s": ("s", ("self", "metrics.wall_sum")),
    "metrics.wall_sum.miss_ratio": ("ratio", ("ratio", "metrics.min_word_weight", "metrics.wall_sum")),
    "metrics.dist.calls": ("count", ("calls", "metrics.dist")),
    "metrics.dist.self_s": ("s", ("self", "metrics.dist")),
    "metrics.boundary_gromov.calls": ("count", ("calls", "metrics.boundary_gromov")),
    "metrics.boundary_gromov.self_s": ("s", ("self", "metrics.boundary_gromov")),
    "metrics.boundary_gromov.horizon_mean": ("count", ("mean", "metrics.boundary_gromov.horizon", "metrics.boundary_gromov")),
    "metrics.boundary_gromov.index_mean": ("count", ("mean", "metrics.boundary_gromov.index", "metrics.boundary_gromov")),
    "metrics.chamber_sequence.self_s": ("s", ("self", "metrics.chamber_sequence")),
    "weights.compare.calls": ("count", ("calls", "weights.compare")),
    "weights.compare.self_s": ("s", ("self", "weights.compare")),
    "catalog.claims.s": ("s", ("total", "catalog.claims")),
    "catalog.search.s": ("s", ("total", "catalog.search")),
    "catalog.step.calls": ("count", ("calls", "catalog.step")),
    "catalog.tessellation.chambers": ("count", ("counter", "catalog.tessellation.chambers")),
    "genpoly.construct.s": ("s", ("total", "genpoly.construct")),
    "cli.import_s": ("s", ("counter", "cli.import_s")),
    "cli.main.s": ("s", ("counter", "cli.main.s")),
}


class Tracer:
    """Installs timing wrappers on hypbuild's public functions; the
    originals are restored by uninstall()."""

    def __init__(self):
        self.aggregates = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self.spans = []
        self.op = None  # id of the operation being run, set by the runner
        self._stack = []  # [span id, child time]
        self._next_id = 0
        self._per_name = {}
        self._saved = []
        self._tessellations = {}

    # -- installation ---------------------------------------------------

    def install(self):
        for module_name, path, name, hook in _TARGETS:
            module = importlib.import_module("hypbuild." + module_name)
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg = tracer.aggregates.get(name)
                if agg is None:
                    agg = tracer.aggregates[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                kept = tracer._per_name.get(name, 0)
                if kept < SPAN_CAP:
                    tracer._per_name[name] = kept + 1
                    tracer.spans.append((span_id, name, start, end, parent, tracer.op))
            if hook is not None:
                tracer._hook(hook, name, args, result)
            return result

        return wrapper

    def _hook(self, hook, name, args, result):
        if hook == "ball_chambers":
            self.count(name + ".chambers", len(args[0].words))
        elif hook == "crossings":
            self.count("geomrender.trace.crossings", len(result))
        elif hook == "stabilized":
            self.count("metrics.boundary_gromov.horizon", result.horizon)
            self.count("metrics.boundary_gromov.index", result.index)
        elif hook == "tessellation":
            self._tessellations[id(result)] = result

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    # -- results --------------------------------------------------------

    def raw(self):
        """Aggregates and counters in a form that merge() accepts."""
        counters = dict(self.counters)
        if self._tessellations:
            counters["catalog.tessellation.chambers"] = counters.get(
                "catalog.tessellation.chambers", 0
            ) + sum(len(t) for t in self._tessellations.values())
        return {"aggregates": self.aggregates, "counters": counters}

    def span_records(self):
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "op": s[5]}
            for s in self.spans
        ]


def merge(raws):
    """Sum the aggregates and counters of several traced processes."""
    aggregates, counters = {}, {}
    for raw in raws:
        for name, (calls, total, self_s) in raw["aggregates"].items():
            agg = aggregates.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, value in raw["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"aggregates": aggregates, "counters": counters}


def per_layer_metrics(raw):
    """The per-layer metrics named in BENCHMARK.json, from aggregates."""
    aggregates, counters = raw["aggregates"], raw["counters"]

    def calls(name):
        return aggregates.get(name, (0, 0.0, 0.0))[0]

    out = {}
    for metric, (unit, rule) in PER_LAYER.items():
        kind = rule[0]
        if kind == "calls":
            value = calls(rule[1])
        elif kind == "total":
            value = aggregates.get(rule[1], (0, 0.0, 0.0))[1]
        elif kind == "self":
            value = aggregates.get(rule[1], (0, 0.0, 0.0))[2]
        elif kind == "counter":
            value = counters.get(rule[1], 0)
        elif kind == "ratio":
            value = calls(rule[1]) / calls(rule[2]) if calls(rule[2]) else 0.0
        else:  # mean of a counter over the calls of a span name
            value = counters.get(rule[1], 0) / calls(rule[2]) if calls(rule[2]) else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def _main(argv):
    """Trace one CLI command: tracer.py --out FILE -- <cli arguments>."""
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        sys.stderr.write("usage: tracer.py --out FILE -- <hypbuild cli arguments>\n")
        return 2
    out_path, cli_args = argv[1], argv[3:]
    start = time.perf_counter()
    cli = importlib.import_module("hypbuild.cli")
    tracer = Tracer()
    tracer.count("cli.import_s", time.perf_counter() - start)
    tracer.install()
    start = time.perf_counter()
    try:
        return cli.main(cli_args)
    finally:
        tracer.count("cli.main.s", time.perf_counter() - start)
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"raw": tracer.raw(), "spans": tracer.span_records()}, fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
