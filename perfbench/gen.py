"""Input generators: write the stored inputs under perfbench/inputs/.

    python3 perfbench/gen.py [--workload boundary|words|cli|all] [--seed N]

The stored inputs are pools fixed before any timing; a run draws its
operations from them with its own --seed (see workloads.py).  The
default --seed is the one the committed inputs were made with, so the
command above remakes them byte for byte.

* boundary: ray quadruples in the thick right-angled pentagon building.
  Rays start within half an inradius of the base chamber's incenter in
  uniform directions; each candidate also draws three inner base
  chambers and a Busemann triple.  A candidate is kept only if its
  whole operation stabilizes at ball radius 4 and passes the checks;
  the acceptance count is stored with the pool.
* words: per tessellation, reduced reflection words w s w^-1 and
  random reduced words, binned by the size of their braid class (made
  and counted with the root oracle, not the library), and pairs of
  inner chambers as ShortLex words.
* cli: the command list.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
GEN_SEED = 20261018

BOUNDARY = {"spec": "5;2,2,2,2,2;2,2,2,2,2", "radius": 4, "chart_radius": 7,
            "pool": 240, "per_round": 96}

# (chamber, ball radius, formal weights).  Word queries are reduced
# words of at most 31 letters: reflection words w s w^-1 and random
# reduced words.  Canon's braid-class search visits every reduced word of
# the element, so a query's work is N * len, with N its number of reduced
# words.  The pool holds WORDS_BIN_POOL queries of each kind per bin
# 2^b <= N * len < 2^(b+1), sorted by N * len, and chamber pairs sorted by
# their weighted distance (which sets how far Dijkstra searches); a run draws one query of each consecutive pair
# (a matched pair of nearly equal work), so every seed gets the same mix
# of small and large queries.
WORDS = [
    ("3;2,3,8", 16, [2, 3, 5]),
    ("4;2,2,2,3", 10, [2, 3, 5, 7]),
    ("4;2,4,2,6", 8, [3, 2, 5, 7]),
    ("3;3,3,4", 12, [5, 3, 2]),
]
WORDS_BINS = range(6, 15)
WORDS_MAX_LEN = 31
WORDS_BIN_POOL = 12
WORDS_CANDIDATES = 40_000
WORDS_PAIR_POOL = 128

CHAMBER = "5;2,2,2,2,2;2,2,2,2,2"
RIGHT_TRIANGLES = ["2,3,8", "2,4,6", "2,4,8", "2,6,6", "2,6,8", "2,8,8"]


def _parse_m(chamber):
    k, m = chamber.split(";")[:2]
    return int(k), [int(x) for x in m.split(",")]


def gen_boundary(seed):
    sys.path.insert(0, str(ROOT / "src"))
    from hypbuild import geomrender as gr
    from hypbuild import metrics as mt
    from hypbuild import rabuilding as rb
    from hypbuild.chamber import parse_chamber_string

    import workloads

    cfg = BOUNDARY
    spec = parse_chamber_string(cfg["spec"])
    ball = rb.ball(spec, cfg["radius"])
    G = mt.DualGraph(ball)
    chart = mt.chart_for(G, cfg["chart_radius"])
    inradius = chart.realized.polygon.inradius
    inner = [w for w in ball.words if 0 < len(w) <= cfg["radius"] // 2]
    rng = random.Random(seed)
    pool, rejected, attempted = [], {}, 0
    while len(pool) < cfg["pool"]:
        attempted += 1
        rays = []
        for _ in range(4):
            phi, d = rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.5) * inradius
            base = [math.cosh(d), math.sinh(d) * math.cos(phi), math.sinh(d) * math.sin(phi)]
            rays.append(base + [rng.uniform(0, 2 * math.pi)])
        cand = {"rays": rays, "bases": rng.sample(inner, 3), "busemann": rng.sample(inner, 3)}
        index = ball.index
        quad = {
            "rays": [(tuple(r[:3]), r[3]) for r in rays],
            "bases": [index[()]] + [index[w] for w in cand["bases"]],
            "busemann": [index[w] for w in cand["busemann"]],
        }
        try:
            out = workloads.boundary_op(mt, G, chart, quad)
        except (mt.NoStabilization, gr.NearVertex, gr.LeftBall) as exc:
            name = type(exc).__name__
            rejected[name] = rejected.get(name, 0) + 1
            continue
        errors = workloads.check_boundary_op(mt, out)
        if errors:
            raise SystemExit("accepted quadruple fails its checks: %s" % errors)
        pool.append(cand)
    return dict(cfg, generator={
        "command": "python3 perfbench/gen.py --workload boundary --seed %d" % seed,
        "seed": seed, "attempted": attempted, "accepted": len(pool), "rejected": rejected,
    }, quadruples=pool)


def _binned_words(orc, rng, make):
    """Bins of WORDS_BINS filled with WORDS_BIN_POOL reduced words each,
    from WORDS_CANDIDATES candidates; a bin that no word of at most
    WORDS_MAX_LEN letters fills that often is left out."""
    bins = {b: [] for b in WORDS_BINS}
    for _ in range(WORDS_CANDIDATES):
        word = make()
        n = orc.reduced_word_count(word)
        b = (n * len(word)).bit_length() - 1
        if b in bins and len(bins[b]) < WORDS_BIN_POOL:
            bins[b].append({"word": list(word), "reduced_words": n})
            if all(len(v) == WORDS_BIN_POOL for v in bins.values()):
                break
    return [
        {"work_log2": b,
         "queries": sorted(v, key=lambda q: (q["reduced_words"] * len(q["word"]), q["word"]))}
        for b, v in bins.items() if len(v) == WORDS_BIN_POOL
    ]


def gen_words(seed):
    rng = random.Random(seed)
    systems = []
    for chamber, radius, q in WORDS:
        k, m = _parse_m(chamber)
        orc = oracles.RootOracle(k, m)

        def reflection():
            while True:
                w = orc.random_reduced(rng, rng.randint(1, WORDS_MAX_LEN // 2))
                word = w + (rng.randint(1, k),) + tuple(reversed(w))
                if orc.check_reduced(word):
                    return word

        def random_word():
            return orc.random_reduced(rng, rng.randint(2, WORDS_MAX_LEN))

        pairs = []
        for _ in range(WORDS_PAIR_POOL):
            u, v = (orc.shortlex(orc.random_reduced(rng, rng.randint(0, radius // 2)))
                    for _ in range(2))
            distance = orc.min_weight(tuple(reversed(u)) + v, [math.log(x) for x in q])
            pairs.append({"chambers": [list(u), list(v)], "distance": round(distance, 9)})
        pairs.sort(key=lambda p: (p["distance"], p["chambers"]))
        systems.append({"chamber": chamber, "radius": radius, "q": q,
                        "reflection": _binned_words(orc, rng, reflection),
                        "random": _binned_words(orc, rng, random_word),
                        "pairs": pairs})
    return {
        "generator": {"command": "python3 perfbench/gen.py --workload words --seed %d" % seed,
                      "seed": seed},
        "systems": systems,
    }


def gen_cli(seed):
    """The README commands (without detect-skeleton), catalog claims for
    the six hyperbolic right triangles and (3,3,4), the (2,3,8) catalog
    lists, a building ball export, a larger render and coxeter walls.
    `{out}` and `{seed}` are filled in per run."""
    def k_m(chamber):
        k, m = _parse_m(chamber)
        return {"k": k, "m": m}

    cmds = [
        {"name": "chamber area", "check": "area", "expect": "pi/24",
         "argv": ["chamber", "area", "--chamber", "3;2,3,8;1,1,1"]},
        dict(k_m("3;2,3,8"), name="coxeter ball", check="coxeter_ball", radius=4,
             argv=["coxeter", "ball", "--chamber", "3;2,3,8", "--radius", "4"]),
        {"name": "genpoly construct", "check": "quadrangle", "order": 2,
         "argv": ["genpoly", "construct", "--kind", "quadrangle", "--params", "2"]},
        {"name": "building retract", "check": "retract", "samples": 100,
         "argv": ["building", "retract", "--chamber", CHAMBER, "--samples", "100",
                  "--seed", "{seed}"]},
        {"name": "metrics dist", "check": "dist", "chamber": "3;2,3,8", "radius": 4,
         "q": [2, 3, 5], "c": 0, "cp": 5,
         "argv": ["metrics", "dist", "--chamber", "3;2,3,8", "--q", "2,3,5",
                  "--c", "0", "--cp", "5"]},
    ]
    for m in RIGHT_TRIANGLES + ["3,3,4"]:
        chamber = "3;" + m
        cmds.append({"name": "catalog claims " + m, "check": "claims", "chamber": chamber,
                     "argv": ["catalog", "claims", "--chamber", chamber]})
    for sub, shape in (("triangles", "triangle"), ("quads", "quadrilateral")):
        cmds.append(dict(k_m("3;2,3,8"), name="catalog %s 2,3,8" % sub, check="catalog",
                         chamber="3;2,3,8", shape=shape,
                         argv=["catalog", sub, "--chamber", "3;2,3,8"]))
    for radius in (4, 6):
        cmds.append(dict(k_m("3;2,3,8"), name="render %d" % radius, check="render",
                         radius=radius,
                         argv=["render", "--chamber", "3;2,3,8", "--radius", str(radius),
                               "--out", "{out}/ball%d.svg" % radius]))
    cmds.append({"name": "building ball", "check": "building_ball", "k": 5,
                 "q": [2] * 5, "radius": 4,
                 "argv": ["building", "ball", "--chamber", CHAMBER, "--radius", "4",
                          "--out", "{out}/building4.txt"]})
    cmds.append({"name": "coxeter walls", "check": "walls",
                 "argv": ["coxeter", "walls", "--chamber", "3;2,3,8", "--radius", "12"]})
    return {"generator": {"command": "python3 perfbench/gen.py --workload cli --seed %d" % seed,
                          "seed": seed},
            "commands": cmds}


GENERATORS = {"boundary": gen_boundary, "words": gen_words, "cli": gen_cli}


def main(argv=None):
    p = argparse.ArgumentParser(description="write the stored benchmark inputs")
    p.add_argument("--workload", default="all", choices=["all"] + sorted(GENERATORS))
    p.add_argument("--seed", type=int, default=GEN_SEED)
    args = p.parse_args(argv)
    INPUTS.mkdir(exist_ok=True)
    names = sorted(GENERATORS) if args.workload == "all" else [args.workload]
    for name in names:
        data = GENERATORS[name](args.seed)
        with open(INPUTS / ("%s.json" % name), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % (INPUTS / ("%s.json" % name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
