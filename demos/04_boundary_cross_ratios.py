"""Boundary Gromov products, Busemann cocycles, and cross ratios.

Boundary points are represented by geodesic rays traced through an
apartment chart.  Along their chamber sequences, Gromov products
stabilize to exact values; cross ratios of quadruples are base-point
independent and antisymmetric; and comparing the chambers of one panel
along rays into each of its chambers produces exactly {log q, -log q, 0}.
"""

import math
import random

from hypbuild import geomrender as gr
from hypbuild import metrics as mt
from hypbuild import rabuilding as rb
from hypbuild.chamber import validate

ORIGIN = (1.0, 0.0, 0.0)

spec = validate(5, (2, 2, 2, 2, 2), (2, 2, 2, 2, 2))
G = mt.DualGraph(rb.ball(spec, 5))
chart = mt.chart_for(G)
inner = [c for c, w in enumerate(G.ball.words) if len(w) <= G.ball.radius // 2]
rng = random.Random(3)

print("== cross-ratio invariance on random quadruples ==")
done = 0
while done < 5:
    rays = [
        mt.RaySpec(chart=chart, base=ORIGIN, theta=rng.uniform(0, 2 * math.pi))
        for _ in range(4)
    ]
    try:
        v0 = mt.cross_ratio(G, *rays, 0)
        others = [mt.cross_ratio(G, *rays, b) for b in rng.sample(inner, 3)]
    except (mt.NoStabilization, gr.NearVertex, gr.LeftBall, ValueError):
        continue
    assert all(v == v0 for v in others)
    print("  quadruple %d: [xi1 xi2 | eta1 eta2] = %r at 4 bases" % (done, v0))
    done += 1

print("\n== side-detection experiment across a wall ==")
rep = mt.detect_side_experiment(G, 1, configs=8, seed=0)
print("  %d configurations, sampled verdict always matched the "
      "combinatorial one: %s" % (rep["configs"], rep["pass"]))

print("\n== skeleton-detection experiment ==")
wall = mt.detect_skeleton_experiment(G, ("wall", 1), samples=10, seed=0)
print("  wall line: observed cross ratios %r (pass=%s)"
      % (wall["observed"], wall["pass"]))
gen = mt.detect_skeleton_experiment(G, ("generic", 0.77), samples=6, seed=0)
print("  generic line: observed %r (pass=%s)" % (gen["observed"], gen["pass"]))
