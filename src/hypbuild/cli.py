"""Command-line entry point.

Every subcommand prints one JSON report to stdout:

    {"command", "config", "results": [...], "verdicts": [...],
     "witnesses": [...], "timings": null | {...}}

Exit codes: 0 when all verdicts pass, 1 when a verification fails,
2 on usage or input-format errors, 3 when a computation ran out of
horizon or numerical precision (an ArithmeticError such as
NoStabilization or NoConvergence), asked for a distance the ball radius
cannot certify (HorizonTooSmall), hit a ResourceCap, or traced a valid
ray through a vertex or out of the ball (NearVertex, LeftBall); the
report's witnesses name the error.  Each of those four classes declares
its code as the class attribute exit_code = 3, so main needs no list of
them.
All randomized experiments take --seed; identical config and seed give
byte-identical reports.

Each subcommand imports the library modules it runs inside its handler,
so a process pays only for those: `chamber area` loads `chamber` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .chamber import ChamberError, area, parse_chamber_string, validate


class UsageError(ValueError):
    pass


# `metrics growth` counts a(n) at n = 0, step, 2 step, ... <= --n + 1e-9:
# at most this many points, floor((n + 1e-9) / step) + 1
GROWTH_GRID_CAP = 10_000


def _jsonable(x):
    if hasattr(x, "to_json"):  # WeightVector
        return x.to_json()
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(command, config, results=(), verdicts=(), witnesses=()):
    """Assemble the report dict; main() prints it and derives the exit
    code from the verdicts."""
    return {
        "command": command,
        "config": _jsonable(config),
        "results": _jsonable(list(results)),
        "verdicts": _jsonable(list(verdicts)),
        "witnesses": _jsonable(list(witnesses)),
        "timings": None,
    }


def _spec_of(args, thin=False):
    spec = parse_chamber_string(args.chamber)
    if thin:
        return validate(spec.k, spec.m)
    return spec


def _weights_of(args, spec):
    """The --q weights, one integer >= 1 per edge label, or None."""
    if args.q is None:
        return None
    if args.host != "apartment":
        raise UsageError("--q overrides weights on an apartment host only; "
                         "a building's thickness comes from --chamber")
    try:
        q = [int(w) for w in args.q.split(",")]
    except ValueError:
        q = []
    if len(q) == spec.k and min(q) >= 1:
        return q
    raise UsageError("--q %s is not %d comma-separated integers >= 1, one per edge label"
                     % (args.q, spec.k))


def _graph_of(args, spec):
    from . import metrics as mt
    from .coxeter import CoxeterBall

    q = _weights_of(args, spec)
    if args.host == "apartment":
        return mt.DualGraph(CoxeterBall(validate(spec.k, spec.m), args.radius), q=q)
    from . import rabuilding as rb

    return mt.DualGraph(rb.ball(spec, args.radius))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_chamber(args, config):
    try:
        spec = parse_chamber_string(args.chamber)
    except ChamberError as exc:
        if "FormatError" in exc.codes():
            raise UsageError(str(exc))
        return _emit(
            "chamber %s" % args.sub, config,
            verdicts=[{"name": "valid", "pass": False}],
            witnesses=[{"codes": exc.codes()}],
        )
    if args.sub == "validate":
        return _emit(
            "chamber validate", config,
            results=[{"k": spec.k, "m": list(spec.m), "q": list(spec.q),
                      "thick": spec.is_thick()}],
            verdicts=[{"name": "valid", "pass": True}],
        )
    a = area(spec)
    return _emit(
        "chamber area", config,
        results=[{"area": str(a), "value": a.radians()}],
    )


def _cmd_coxeter(args, config):
    from .coxeter import BallTooSmall, CoxeterBall, export_complex, wall_type

    spec = _spec_of(args, thin=True)
    ball = CoxeterBall(spec, args.radius)
    if args.sub == "ball":
        results = [{
            "chambers": len(ball.words),
            "edges": len(ball.edges),
            "vertices": len(ball.vertices),
            "interior_vertices": len(ball.interior_vertex_keys()),
        }]
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(export_complex(ball))
            results[0]["out"] = args.out
        return _emit("coxeter ball", config, results=results)
    walls = []
    for wall, edge_list in ball.walls():
        try:
            comp = wall_type(ball, wall)
        except BallTooSmall:
            comp = None
        walls.append({
            "reflection": list(wall.reflection),
            "edges": len(edge_list),
            "component": list(comp) if comp else None,
        })
    return _emit("coxeter walls", config, results=walls)


def _cmd_genpoly(args, config):
    from . import genpoly as gp

    if args.sub == "verify":
        with open(args.infile) as fh:
            adj, color = gp.from_text(fh.read())
        try:
            poly = gp.verify(adj, color, args.m, require_thick=args.thick)
        except gp.GenPolyError as exc:
            return _emit(
                "genpoly verify", config,
                verdicts=[{"name": "polygon", "pass": False}],
                witnesses=[{"code": exc.code, "message": exc.message,
                            "witness": _jsonable(exc.witness)}],
            )
        return _emit(
            "genpoly verify", config,
            results=[{"m": poly.m, "params": poly.params}],
            verdicts=[{"name": "polygon", "pass": True}],
        )
    kind_args = [int(x) for x in args.params.split(",")] if args.params else []
    try:
        poly = gp.construct(args.kind, *kind_args)
    except gp.GenPolyError as exc:
        return _emit(
            "genpoly %s" % args.sub, config,
            verdicts=[{"name": "construct", "pass": False}],
            witnesses=[{"code": exc.code, "message": exc.message}],
        )
    if args.sub == "construct":
        return _emit(
            "genpoly construct", config,
            results=[{"m": poly.m, "params": poly.params,
                      "vertices": len(poly.vertices()),
                      "edges": len(poly.edges()),
                      "apartments": len(poly.apartments())}],
            verdicts=[{"name": "polygon", "pass": True}],
        )
    if args.sub == "opposites":
        v = args.vertex or min(poly.vertices())
        if v not in poly.adj:
            raise UsageError("--vertex %s is not a vertex of the %s" % (v, args.kind))
        return _emit(
            "genpoly opposites", config,
            results=[{"vertex": v, "opposites": gp.opposite_set(poly, v)}],
        )
    # chain between two apartments
    import random

    rng = random.Random(args.seed)
    cycles = poly.apartments()
    a, b = rng.sample(cycles, 2) if len(cycles) > 1 else (cycles[0], cycles[0])
    chain = gp.apartment_chain(poly, a, b)
    return _emit(
        "genpoly chain", config,
        results=[{"from": list(a), "to": list(b), "length": len(chain),
                  "chain": [list(c) for c in chain]}],
        verdicts=[{"name": "chain", "pass": chain[0] == a and chain[-1] == b}],
    )


def _cmd_building(args, config):
    from . import rabuilding as rb
    from .coxeter import export_complex

    spec = _spec_of(args)
    if args.sub == "verify":
        with open(args.infile) as fh:
            text = fh.read()
        report = rb.verify_building_local(text, spec)
        return _emit(
            "building verify", config,
            results=[{"checked": report.checked, "caveats": list(report.caveats)}],
            verdicts=[{"name": "local_axioms", "pass": report.ok}],
            witnesses=list(report.violations),
        )
    b = rb.ball(spec, args.radius)
    if args.sub == "ball":
        results = [{
            "chambers": len(b.words),
            "edges": len(b.edges),
            "vertices": len(b.vertices),
        }]
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(export_complex(b))
            results[0]["out"] = args.out
        return _emit("building ball", config, results=results)
    # retract: spot-check the retraction onto a random two-chamber apartment
    import random

    rng = random.Random(args.seed)
    c1 = rng.randrange(len(b.words))
    A = rb.apartment_through(b, (), b.words[c1])
    rho = rb.retraction(b, A, ())
    failures = []
    checked = 0
    for _ in range(args.samples):
        d = rng.randrange(len(b.words))
        img = rho(b.words[d])
        pos = A.position_of(img)
        if pos is None:
            failures.append({"chamber": list(b.words[d]), "reason": "image off apartment"})
        if len(img) > len(b.words[d]):
            failures.append({"chamber": list(b.words[d]), "reason": "gallery increased"})
        checked += 1
    return _emit(
        "building retract", config,
        results=[{"checked": checked}],
        verdicts=[{"name": "retraction", "pass": not failures}],
        witnesses=failures,
    )


def _rays_from_thetas(G, thetas):
    from . import metrics as mt

    chart = mt.chart_for(G)
    origin = (1.0, 0.0, 0.0)
    return [mt.RaySpec(chart=chart, base=origin, theta=th) for th in thetas]


def _cmd_metrics(args, config):
    from . import metrics as mt

    spec = _spec_of(args)
    if getattr(args, "label", None) is not None and not 1 <= args.label <= spec.k:
        raise UsageError("--label %d is not an edge label in [1, %d]" % (args.label, spec.k))
    flag, thetas = "--theta", [getattr(args, "theta", 0.0)]
    if args.sub == "crossratio":
        flag, thetas = "--thetas entry", [float(x) for x in args.thetas.split(",")]
        if len(thetas) != 4:
            raise UsageError("--thetas needs four comma-separated angles")
    for theta in thetas:
        if not math.isfinite(theta):
            raise UsageError("%s %s is not a finite angle" % (flag, theta))
    if args.sub == "growth" and not 0 <= args.n < math.inf:
        raise UsageError("--n %s is not a finite number >= 0" % args.n)
    if args.sub == "growth" and (args.n + 1e-9) / args.step >= GROWTH_GRID_CAP:
        raise UsageError("--step %s makes more than %d grid points up to --n %s"
                         % (args.step, GROWTH_GRID_CAP, args.n))
    G = _graph_of(args, spec)
    for name in ("c", "cp", "x", "y"):
        idx = getattr(args, name, None)
        if idx is not None and not 0 <= idx < len(G):
            raise UsageError("--%s %d is not a chamber index in [0, %d)" % (name, idx, len(G)))
    if args.sub == "dist":
        d = G.dist(args.c, args.cp)
        return _emit(
            "metrics dist", config,
            results=[{"dist": d, "value": d.value()}],
        )
    if args.sub == "gromov":
        v = mt.gromov(G, args.x, args.y, args.c)
        return _emit(
            "metrics gromov", config,
            results=[{"gromov": v, "value": v.value()}],
        )
    if args.sub == "busemann":
        (xi,) = _rays_from_thetas(G, [args.theta])
        v = mt.busemann(G, xi, args.c, args.cp)
        return _emit(
            "metrics busemann", config,
            results=[{"busemann": v, "value": v.value()}],
        )
    if args.sub == "crossratio":
        xi1, xi2, eta1, eta2 = _rays_from_thetas(G, thetas)
        v = mt.cross_ratio(G, xi1, xi2, eta1, eta2, args.c)
        return _emit(
            "metrics crossratio", config,
            results=[{"cross_ratio": v, "value": v.value()}],
        )
    if args.sub == "growth":
        if all(qi == 1 for qi in G.q):
            raise UsageError("every edge weighs log 1 = 0, so growth never certifies a count; "
                             "give an apartment host weights above 1 with --q")
        values, growth_at = [], mt.growth_counter(G)
        n = 0.0
        while n <= args.n + 1e-9:
            values.append({"n": n, "a": growth_at(n)})
            n += args.step
        results = [{"growth": values}]
        if args.tau:
            est = mt.tau_estimate(G, args.tau)
            results.append({
                "tau": [[n, float(v)] for n, v in est.values],
                "converged": est.converged,
                "note": est.note,
            })
        return _emit("metrics growth", config, results=results)
    if args.sub == "detect-skeleton":
        line = ("generic", args.theta) if args.label is None else ("wall", args.label)
        rep = mt.detect_skeleton_experiment(
            G, line, samples=args.samples, seed=args.seed
        )
        return _emit(
            "metrics detect-skeleton", config,
            results=[{"samples": rep["samples"],
                      "observed": rep["observed"],
                      "errors": rep["errors"]}],
            verdicts=[{"name": "skeleton", "pass": rep["pass"]}],
        )
    rep = mt.detect_side_experiment(
        G, 1 if args.label is None else args.label, configs=args.samples, seed=args.seed
    )
    disagreements = [
        r for r in rep["records"]
        if "error" not in r and not r["agree"]
    ]
    return _emit(
        "metrics detect-side", config,
        results=[{"configs": rep["configs"]}],
        verdicts=[{"name": "side", "pass": rep["pass"]}],
        witnesses=disagreements,
    )


def _cmd_catalog(args, config):
    from . import catalog as cat

    spec = _spec_of(args)
    if args.sub == "claims":
        rep = cat.claims_check(spec)
        verdicts = [
            {"name": name, "pass": v["pass"]}
            for name, v in sorted(rep.items())
            if name != "summary"
        ]
        witnesses = [
            {"claim": name, "witnesses": v["witnesses"]}
            for name, v in sorted(rep.items())
            if name != "summary" and v["witnesses"]
        ]
        return _emit(
            "catalog claims", config,
            results=[rep["summary"]],
            verdicts=verdicts,
            witnesses=witnesses,
        )
    enum = cat.enumerate_triangles if args.sub == "triangles" else cat.enumerate_quads
    entries = sorted(enum(spec), key=lambda e: (e.n, e.code))
    results = [e.to_json() for e in entries]
    if args.svg_dir:
        import os

        from . import geomrender as gr
        from .coxeter import CoxeterBall

        T = cat.tessellation(spec)
        os.makedirs(args.svg_dir, exist_ok=True)
        for i, e in enumerate(entries):
            radius = max(len(T.words[c]) for c in e.rep) + 2
            real = gr.realize(CoxeterBall(validate(spec.k, spec.m), radius))
            svg = gr.render_svg(
                real,
                overlays={"disks": [[real.ball.index[T.words[c]] for c in e.rep]]},
            )
            path = "%s/%s_%02d.svg" % (args.svg_dir, args.sub, i)
            with open(path, "w") as fh:
                fh.write(svg)
    return _emit("catalog %s" % args.sub, config, results=results)


def _cmd_render(args, config):
    from . import geomrender as gr
    from .coxeter import CoxeterBall

    spec = _spec_of(args, thin=True)
    real = gr.realize(CoxeterBall(spec, args.radius))
    svg = gr.render_svg(real)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return _emit(
        "render", config,
        results=[{"out": args.out, "faces": gr.face_count(svg),
                  "chambers": len(real.ball)}],
        verdicts=[{"name": "face_count",
                   "pass": gr.face_count(svg) == len(real.ball)}],
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _radius(text):
    radius = int(text)
    if radius < 0:
        raise argparse.ArgumentTypeError("radius must be >= 0, got %d" % radius)
    return radius


def _count(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % count)
    return count


def _step(text):
    step = float(text)
    if not step > 0:
        raise argparse.ArgumentTypeError("step must be > 0, got %s" % text)
    return step


def _build_parser():
    p = argparse.ArgumentParser(prog="hypbuild")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the report")
    top = p.add_subparsers(dest="command", required=True)

    def add(cmd, subs, handler):
        cp = top.add_parser(cmd)
        cp.set_defaults(handler=handler)
        sp = cp.add_subparsers(dest="sub", required=True)
        out = {}
        for s in subs:
            out[s] = sp.add_parser(s)
        return out

    chamber = add("chamber", ["validate", "area"], _cmd_chamber)
    for s in chamber.values():
        s.add_argument("--chamber", required=True,
                       help="spec string 'k;m1,..,mk[;q1,..,qk]'")

    coxeter = add("coxeter", ["ball", "walls"], _cmd_coxeter)
    for s in coxeter.values():
        s.add_argument("--chamber", required=True)
        s.add_argument("--radius", type=_radius, default=4)
    coxeter["ball"].add_argument("--out", help="write the complex exchange file")

    genpoly = add(
        "genpoly", ["construct", "verify", "opposites", "chain"], _cmd_genpoly
    )
    for name in ("construct", "opposites", "chain"):
        genpoly[name].add_argument(
            "--kind", required=True, choices=["digon", "projective", "quadrangle"]
        )
        genpoly[name].add_argument("--params", help="comma-separated integers")
    genpoly["verify"].add_argument("--in", dest="infile", required=True)
    genpoly["verify"].add_argument("--m", type=int, required=True)
    genpoly["verify"].add_argument("--thick", action="store_true")
    genpoly["opposites"].add_argument("--vertex")
    genpoly["chain"].add_argument("--seed", type=int, default=0)

    building = add("building", ["ball", "verify", "retract"], _cmd_building)
    for s in building.values():
        s.add_argument("--chamber", required=True)
    for name in ("ball", "retract"):
        building[name].add_argument("--radius", type=_radius, default=3)
    building["ball"].add_argument("--out")
    building["verify"].add_argument("--in", dest="infile", required=True)
    building["retract"].add_argument("--samples", type=_count, default=100)
    building["retract"].add_argument("--seed", type=int, default=0)

    metrics = add(
        "metrics",
        ["dist", "gromov", "busemann", "crossratio", "growth",
         "detect-skeleton", "detect-side"],
        _cmd_metrics,
    )
    for s in metrics.values():
        s.add_argument("--chamber", required=True)
        s.add_argument("--host", choices=["apartment", "building"],
                       default="apartment")
        s.add_argument("--radius", type=_radius, default=4)
        s.add_argument("--q", help="override weights on an apartment host")
        s.add_argument("--seed", type=int, default=0)
    metrics["dist"].add_argument("--c", type=int, default=0)
    metrics["dist"].add_argument("--cp", type=int, default=0)
    metrics["gromov"].add_argument("--x", type=int, required=True)
    metrics["gromov"].add_argument("--y", type=int, required=True)
    metrics["gromov"].add_argument("--c", type=int, default=0)
    metrics["busemann"].add_argument("--theta", type=float, required=True)
    metrics["busemann"].add_argument("--c", type=int, default=0)
    metrics["busemann"].add_argument("--cp", type=int, required=True)
    metrics["crossratio"].add_argument("--thetas", required=True)
    metrics["crossratio"].add_argument("--c", type=int, default=0)
    metrics["growth"].add_argument("--n", type=float, default=3.0)
    metrics["growth"].add_argument("--step", type=_step, default=0.5)
    metrics["growth"].add_argument("--tau", type=int, default=0)
    for name in ("detect-skeleton", "detect-side"):
        metrics[name].add_argument("--label", type=int)
        metrics[name].add_argument("--samples", type=_count, default=20)
    metrics["detect-skeleton"].add_argument("--theta", type=float, default=0.77)

    catalog = add("catalog", ["triangles", "quads", "claims"], _cmd_catalog)
    for s in catalog.values():
        s.add_argument("--chamber", required=True)
    for name in ("triangles", "quads"):
        catalog[name].add_argument("--svg-dir",
                                   help="write one SVG per entry here")

    render = top.add_parser("render")
    render.set_defaults(handler=_cmd_render, sub="render")
    render.add_argument("--chamber", required=True)
    render.add_argument("--radius", type=_radius, default=4)
    render.add_argument("--out", required=True)
    return p


# argparse reads a word after a flag as its value only when the word does
# not look like an option; "-0.5" passes, "-1e-3" and "-2,3,5" do not
_SIGNED_FLAGS = ("--theta", "--thetas", "--q")


def _glue_values(argv):
    """argv with each flag that takes a signed value glued to the word
    after it, as "--theta=-1e-3", so that word is the flag's value even
    when it starts with one "-"; a next word that starts with "--" is left
    to be the next flag."""
    out = []
    for word in argv:
        if out and out[-1] in _SIGNED_FLAGS and not word.startswith("--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("handler",) and v is not None and not callable(v)
    }
    t0 = time.time()
    try:
        report = args.handler(args, config)
    except Exception as exc:
        code = getattr(exc, "exit_code", 3 if isinstance(exc, ArithmeticError) else None)
        if code is None:
            if isinstance(exc, (ChamberError, UsageError, FileNotFoundError, ValueError)):
                sys.stderr.write("error: %s\n" % exc)
                return 2
            raise
        # the ray horizon, the ball radius, the numerics or a resource cap
        # ran out, or a valid ray met a vertex or left the ball: a report,
        # not a traceback
        command = args.command if args.sub == args.command else "%s %s" % (args.command, args.sub)
        report = _emit(command, config,
                       witnesses=[{"error": type(exc).__name__, "message": str(exc)}])
    else:
        code = 0 if all(v.get("pass", True) for v in report["verdicts"]) else 1
    if args.timings:
        report["timings"] = {"elapsed_s": round(time.time() - t0, 3)}
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
