"""Exact weighted distances between chambers.

Distances between chambers are sums of log q over the walls separating
them, kept exact as integer exponent vectors over primes.  Two engines
compute them: Dijkstra on the weighted dual graph, and a direct sum
over the reduced separating-wall word.  They agree exactly.
"""

import random

from hypbuild import metrics as mt
from hypbuild import rabuilding as rb
from hypbuild.chamber import validate
from hypbuild.coxeter import CoxeterBall

print("== (2,3,8) apartment with formal weights q = (2,3,5) ==")
spec = validate(3, (2, 3, 8))
G = mt.DualGraph(CoxeterBall(spec, 6), q=(2, 3, 5))
inner = [c for c, w in enumerate(G.ball.words) if len(w) <= G.ball.radius // 2]
print("  %d chambers, %d inner" % (len(G), len(inner)))
rng = random.Random(1)
for _ in range(3):
    c, d = rng.sample(inner, 2)
    dist = G.dist(c, d)
    assert dist == G.wall_sum(c, d)
    print("  d(%d,%d) = %r  (value %.6f)" % (c, d, dist, dist.value()))

print("\n== Gromov products are exact half-integers in the exponents ==")
x, y, c = inner[3], inner[7], inner[0]
gp = mt.gromov(G, x, y, c)
print("  {%d|%d}_%d = %r (value %.6f)" % (x, y, c, gp, gp.value()))

print("\n== growth function on the thick pentagon building ==")
pent = validate(5, (2, 2, 2, 2, 2), (2, 2, 2, 2, 2))
B = mt.DualGraph(rb.ball(pent, 4))
for n in (0.0, 0.5, 1.0, 1.5, 2.0):
    print("  a(%.1f) = %d" % (n, mt.growth(B, n)))
est = mt.tau_estimate(B, 2)
print("  tau estimates %s (converged=%s)"
      % ([(n, float(v)) for n, v in est.values], est.converged))
