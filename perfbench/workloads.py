"""The benchmark workloads: set-up, one round of operations, checks.

A workload's set-up reads the stored inputs (perfbench/inputs/), draws
its operations from them with the run's seed, and builds what the
operations need.  A round is the same list of operations every time;
each round starts from fresh per-round state (a new DualGraph and a new
CoxeterSystem on every ball, so the word-problem caches start empty),
while the balls, charts and the module-level caches filled during
set-up are shared by all rounds, as in one user session.  check() compares the outputs of the first round
with the oracles in oracles.py and every later round with the first.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
OUT = BENCH / "out"

CLI_TIMEOUT_S = 170


def load_inputs(name):
    with open(INPUTS / ("%s.json" % name)) as fh:
        return json.load(fh)


def building_word(word):
    return tuple(tuple(letter) for letter in word)


def chamber_index(ball, word, errors):
    """The ball's index of a stored chamber word; a word the ball does
    not hold is recorded as a wrong output, and its operation fails."""
    index = ball.index.get(word)
    if index is None:
        errors.append("chamber %s is not in the ball under this word" % (word,))
    return index


def sphere_counts(ball):
    spheres = [0] * (ball.radius + 1)
    for w in ball.words:
        spheres[len(w)] += 1
    return spheres


def weighted_graph(ball, q):
    """The ball's dual graph for networkx, edges weighted log q_label."""
    import networkx as nx

    g = nx.Graph()
    for c1, c2, label in ball.adjacency():
        g.add_edge(c1, c2, weight=math.log(q[label - 1]))
    return g


def exponents(weight_json):
    """An exact log-prime value as {prime: Fraction} from its JSON form."""
    return {int(p): Fraction(e) for p, e in weight_json.items()}


class Boundary:
    """Cross ratios and Busemann cocycles on the thick right-angled
    pentagon building, with rays traced through the default chart."""

    name = "boundary"
    children = False
    min_rounds = 1

    def __init__(self, seed):
        self.seed = seed

    def build(self):
        from hypbuild import coxeter
        from hypbuild import metrics as mt
        from hypbuild import rabuilding as rb
        from hypbuild.chamber import parse_chamber_string

        self.coxeter, self.mt = coxeter, mt
        data = load_inputs(self.name)
        self.spec = parse_chamber_string(data["spec"])
        self.chart_radius = data["chart_radius"]
        self.ball = rb.ball(self.spec, data["radius"])
        mt.chart_for(mt.DualGraph(self.ball), self.chart_radius)
        rng = random.Random(self.seed)
        self.setup_errors = []

        def index(word):
            return chamber_index(self.ball, building_word(word), self.setup_errors)

        self.quads = []
        for q in rng.sample(data["quadruples"], data["per_round"]):
            self.quads.append({
                "rays": [(tuple(r[:3]), r[3]) for r in q["rays"]],
                "bases": [index(())] + [index(w) for w in q["bases"]],
                "busemann": [index(w) for w in q["busemann"]],
            })

    def new_round(self):
        # the building's word-problem caches (wdist, ApartmentColoring.alpha)
        # live on ball.system; a fresh one keeps every round equally cold
        self.ball.system = self.coxeter.CoxeterSystem(self.spec)
        G = self.mt.DualGraph(self.ball)
        chart = self.mt.chart_for(G, self.chart_radius)
        return [partial(boundary_op, self.mt, G, chart, q) for q in self.quads]

    @staticmethod
    def fingerprint(out):
        return out["cross"], out["busemann"]

    def check(self, outputs):
        errors = list(self.setup_errors)
        k, q = self.spec.k, self.spec.q
        spheres = sphere_counts(self.ball)
        if spheres != oracles.chiswell_spheres(k, q, self.ball.radius):
            errors.append("building ball spheres %s disagree with Chiswell's series" % spheres)
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                continue
            errors.extend("quadruple %d: %s" % (i, e) for e in check_boundary_op(self.mt, out))
        return errors


def boundary_op(mt, G, chart, quad):
    """One stored quadruple: its cross ratio at the base chamber and at
    three inner chambers, and the Busemann values B(C,D), B(D,E), B(C,E)
    of the first ray."""
    if None in quad["bases"] or None in quad["busemann"]:
        raise KeyError("a stored chamber is not in the ball")
    rays = [mt.RaySpec(chart=chart, base=base, theta=theta) for base, theta in quad["rays"]]
    cross = tuple(mt.cross_ratio(G, *rays, c) for c in quad["bases"])
    C, D, E = quad["busemann"]
    busemann = (
        mt.busemann(G, rays[0], C, D),
        mt.busemann(G, rays[0], D, E),
        mt.busemann(G, rays[0], C, E),
    )
    return {"cross": cross, "busemann": busemann, "rays": rays, "graph": G, "base": quad["bases"][0]}


def check_boundary_op(mt, out):
    """Base-point independence, antisymmetry in (xi1, xi2), values in
    (1/2) Z log 2, and the Busemann cocycle identity."""
    errors = []
    cross = out["cross"]
    if any(v != cross[0] for v in cross):
        errors.append("cross ratio depends on the base chamber: %s" % (cross,))
    for v in cross:
        exps = exponents(v.to_json())
        if set(exps) - {2} or any((2 * e).denominator != 1 for e in exps.values()):
            errors.append("cross ratio %r is not in (1/2) Z log 2" % (v,))
    r = out["rays"]
    try:
        swapped = mt.cross_ratio(out["graph"], r[1], r[0], r[2], r[3], out["base"])
    except Exception as exc:  # reported as a wrong output
        swapped = exc
    if swapped != -cross[0]:
        errors.append("swapping xi1, xi2 gives %r, not %r" % (swapped, -cross[0]))
    b_cd, b_de, b_ce = out["busemann"]
    if b_cd + b_de != b_ce:
        errors.append("Busemann cocycle fails: %r + %r != %r" % (b_cd, b_de, b_ce))
    return errors


class Words:
    """The Coxeter word problem and exact weighted distances on thin
    tessellations that are not right-angled."""

    name = "words"
    children = False
    min_rounds = 1

    def __init__(self, seed):
        self.seed = seed

    def build(self):
        from hypbuild import coxeter
        from hypbuild import metrics as mt
        from hypbuild.chamber import parse_chamber_string

        self.coxeter, self.mt = coxeter, mt
        data = load_inputs(self.name)
        rng = random.Random(self.seed)
        self.setup_errors = []
        self.systems = []
        self.queries = []
        for n, system in enumerate(data["systems"]):
            spec = parse_chamber_string(system["chamber"])
            ball = coxeter.CoxeterBall(spec, system["radius"])
            self.systems.append({"spec": spec, "ball": ball, "q": tuple(system["q"])})
            for kind in ("reflection", "random"):
                for group in system[kind]:
                    for query in matched(rng, group["queries"]):
                        self.queries.append(("canon", n, tuple(query["word"])))
            for pair in matched(rng, system["pairs"]):
                C, D = (chamber_index(ball, tuple(w), self.setup_errors) for w in pair["chambers"])
                self.queries.append(("pair", n, (C, D)))
        rng.shuffle(self.queries)

    def new_round(self):
        # one fresh CoxeterSystem per ball and round, shared by its canon
        # queries and its DualGraph, so the braid-class caches start empty
        graphs = []
        for s in self.systems:
            s["ball"].system = self.coxeter.CoxeterSystem(s["spec"])
            graphs.append(self.mt.DualGraph(s["ball"], q=s["q"]))
        ops = []
        for kind, n, arg in self.queries:
            graph = graphs[n]
            if kind == "canon":
                ops.append(partial(graph.ball.system.canon, arg))
            else:
                ops.append(partial(pair_op, graph, *arg))
        return ops

    @staticmethod
    def fingerprint(out):
        return out

    def check(self, outputs):
        import networkx as nx

        errors = list(self.setup_errors)
        for s in self.systems:
            spec, ball = s["spec"], s["ball"]
            spheres = sphere_counts(ball)
            if spheres != oracles.steinberg_spheres(spec.k, spec.m, ball.radius):
                errors.append("%s ball spheres %s disagree with Steinberg's series" % (spec.m, spheres))
        graphs = [weighted_graph(s["ball"], s["q"]) for s in self.systems]
        roots = [oracles.RootOracle(s["spec"].k, s["spec"].m) for s in self.systems]
        for (kind, n, arg), out in zip(self.queries, outputs):
            if isinstance(out, Exception):
                continue
            if kind == "canon":
                ok, point = roots[n].check_canonical(out)
                if not ok:
                    errors.append("canon%s = %s is not reduced ShortLex" % (arg, out))
                elif point != roots[n].point(arg):
                    errors.append("canon%s = %s is another element" % (arg, out))
                continue
            d, w = out
            C, D = arg
            reference = nx.dijkstra_path_length(graphs[n], C, D)
            if d != w:
                errors.append("dist(%d,%d) = %r but wall_sum = %r" % (C, D, d, w))
            if abs(d.value() - reference) > 1e-9 or abs(w.value() - reference) > 1e-9:
                errors.append("dist(%d,%d) = %r, networkx says %.12g" % (C, D, d, reference))
        return errors


def matched(rng, pool):
    """One of each consecutive pair of a pool sorted by expected work."""
    return [rng.choice(pool[i:i + 2]) for i in range(0, len(pool), 2)]


def pair_op(graph, C, D):
    if C is None or D is None:
        raise KeyError("a stored chamber is not in the ball")
    return graph.dist(C, D), graph.wall_sum(C, D)


class Cli:
    """The README commands and a few more, each in a fresh
    `python -m hypbuild.cli` process."""

    name = "cli"
    children = True  # the operations run in child processes
    # A round takes 12-15 s, so a run would hold only two; with three,
    # each command's median latency outvotes a round that fell in a
    # fast or slow phase of the machine.
    min_rounds = 3

    def __init__(self, seed):
        self.seed = seed
        self.trace_dir = None  # set to trace every command into this directory

    def build(self):
        data = load_inputs(self.name)
        self.out_dir = OUT / "cli"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(self.seed)
        fill = {"out": str(self.out_dir), "seed": str(rng.randrange(1000))}
        self.commands = [
            dict(c, argv=[a.format(**fill) for a in c["argv"]]) for c in data["commands"]
        ]
        rng.shuffle(self.commands)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # a user's first cost: starting Python and importing the package
        run_child([sys.executable, "-c", "import hypbuild.cli"], self.env)

    def new_round(self):
        return [partial(self.run_command, i, c) for i, c in enumerate(self.commands)]

    def run_command(self, i, command):
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "hypbuild.cli"] + command["argv"]
        else:
            trace_file = self.trace_dir / ("%02d.json" % i)
            argv = [sys.executable, str(BENCH / "tracer.py"), "--out", str(trace_file), "--"]
            argv += command["argv"]
        code, stdout, stderr = run_child(argv, self.env)
        try:
            report = json.loads(stdout)
        except ValueError:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            raise RuntimeError("exit %d without a report: %s" % (code, tail[0]))
        return {"code": code, "report": report}

    @staticmethod
    def fingerprint(out):
        """The exit code and report, with the order of each claim's
        witness list left out: `catalog claims` lists witnesses in set
        iteration order, which follows the per-process hash seed."""
        report = json.loads(json.dumps(out["report"]))
        for claim in report["witnesses"]:
            if isinstance(claim, dict) and isinstance(claim.get("witnesses"), list):
                claim["witnesses"].sort(key=lambda e: json.dumps(e, sort_keys=True))
        return out["code"], json.dumps(report, sort_keys=True)

    def check(self, outputs):
        errors = []
        done = []
        for command, out in zip(self.commands, outputs):
            if isinstance(out, Exception):
                continue
            done.append((command, out["report"]))
            if out["code"] != 0:
                errors.append("%s exited %d" % (command["name"], out["code"]))
            check = getattr(self, "_check_" + command["check"])
            errors.extend("%s: %s" % (command["name"], e) for e in check(command, out["report"]))
        errors.extend(self._check_catalog_engines(done))
        return errors

    # -- per-command checks ---------------------------------------------

    def _check_area(self, command, report):
        return [] if report["results"][0]["area"] == command["expect"] else [
            "area %s, expected %s" % (report["results"][0]["area"], command["expect"])
        ]

    def _check_coxeter_ball(self, command, report):
        k, m, radius = command["k"], command["m"], command["radius"]
        want = oracles.cumulative(oracles.steinberg_spheres(k, m, radius))[-1]
        got = report["results"][0]["chambers"]
        return [] if got == want else ["%d chambers, Steinberg gives %d" % (got, want)]

    def _check_building_ball(self, command, report):
        k, q, radius = command["k"], command["q"], command["radius"]
        want = oracles.cumulative(oracles.chiswell_spheres(k, q, radius))[-1]
        got = report["results"][0]["chambers"]
        errors = [] if got == want else ["%d chambers, Chiswell gives %d" % (got, want)]
        with open(report["results"][0]["out"]) as fh:
            faces = sum(1 for line in fh if line.startswith("f "))
        if faces != want:
            errors.append("exported complex has %d faces, expected %d" % (faces, want))
        return errors

    def _check_render(self, command, report):
        k, m, radius = command["k"], command["m"], command["radius"]
        want = oracles.cumulative(oracles.steinberg_spheres(k, m, radius))[-1]
        res = report["results"][0]
        with open(res["out"]) as fh:
            faces = fh.read().count('class="chamber"')
        if res["faces"] == res["chambers"] == faces == want:
            return []
        return ["faces %d / chambers %d / file %d, Steinberg gives %d"
                % (res["faces"], res["chambers"], faces, want)]

    def _check_quadrangle(self, command, report):
        # GQ(s,t): (s+1)(st+1) points, (t+1)(st+1) lines, one edge per
        # flag, and flags * s^2 t^2 / 8 apartments (a pair of opposite
        # flags lies in exactly one apartment, which has 8 flags).
        s = t = command["order"]
        flags = (s + 1) * (t + 1) * (s * t + 1)
        want = {
            "m": 4, "params": [s, t], "vertices": (s + t + 2) * (s * t + 1),
            "edges": flags, "apartments": flags * s * s * t * t // 8,
        }
        got = {key: report["results"][0][key] for key in want}
        return [] if got == want else ["got %s, expected %s" % (got, want)]

    def _check_retract(self, command, report):
        res = report["results"][0]
        ok = res["checked"] == command["samples"] and all(v["pass"] for v in report["verdicts"])
        return [] if ok else ["retraction check failed: %s" % report["witnesses"][:3]]

    def _check_dist(self, command, report):
        import networkx as nx
        from hypbuild.chamber import parse_chamber_string
        from hypbuild.coxeter import CoxeterBall

        ball = CoxeterBall(parse_chamber_string(command["chamber"]), command["radius"])
        g = weighted_graph(ball, command["q"])
        reference = nx.dijkstra_path_length(g, command["c"], command["cp"])
        res = report["results"][0]
        exact = sum(float(e) * math.log(p) for p, e in exponents(res["dist"]).items())
        if abs(res["value"] - reference) > 1e-9 or abs(exact - reference) > 1e-9:
            return ["dist %r (%.12g), networkx says %.12g" % (res["dist"], res["value"], reference)]
        return []

    def _check_claims(self, command, report):
        ok = report["results"][0]["pass"] and all(v["pass"] for v in report["verdicts"])
        return [] if ok else ["claims fail: %s" % [v for v in report["verdicts"] if not v["pass"]]]

    def _check_catalog(self, command, report):
        k, m = command["k"], command["m"]
        bad = [e for e in report["results"] if not oracles.gauss_bonnet_ok(e, k, m)]
        return [] if not bad else ["Gauss-Bonnet fails on %s" % bad[:2]]

    def _check_walls(self, command, report):
        return [] if report["results"] else ["no walls reported"]

    @staticmethod
    def _check_catalog_engines(done):
        """Side-driven search (the CLI's catalog lists) against the
        brute-force enumerator, class for class on n <= 8, and the claim
        summary counts against the lists."""
        from hypbuild import catalog as cat
        from hypbuild.chamber import parse_chamber_string

        errors = []
        lists = {
            (command["chamber"], command["shape"]): report["results"]
            for command, report in done if command["check"] == "catalog"
        }
        for (chamber, shape), entries in sorted(lists.items()):
            spec = parse_chamber_string(chamber)
            brute = cat.brute_force_catalog(spec, shape, n_max=8)
            want = sorted(json.dumps(e.to_json(), sort_keys=True) for e in brute)
            got = sorted(json.dumps(e, sort_keys=True) for e in entries if e["n"] <= 8)
            if got != want:
                errors.append("%s %s: side search and brute force disagree" % (chamber, shape))
        for command, report in done:
            if command["check"] != "claims":
                continue
            name = command["name"]
            tris = lists.get((command["chamber"], "triangle"))
            quads = lists.get((command["chamber"], "quadrilateral"))
            summary = report["results"][0]
            if tris is not None and summary["triangles"] != len(tris):
                errors.append("%s: claims count %d triangles, list has %d"
                              % (name, summary["triangles"], len(tris)))
            if quads is not None and summary["quadrilaterals"] != len(quads):
                errors.append("%s: claims count %d quadrilaterals, list has %d"
                              % (name, summary["quadrilaterals"], len(quads)))
        return errors


def run_child(argv, env):
    """Run one child process to completion; returns (code, stdout, stderr)."""
    proc = subprocess.run(
        argv, cwd=str(ROOT), env=env, capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


WORKLOADS = {w.name: w for w in (Boundary, Words, Cli)}

