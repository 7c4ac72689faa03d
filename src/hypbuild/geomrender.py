"""Numeric hyperbolic realization and SVG rendering.

Chambers are realized as normal polygons (prescribed angles, inscribed
circle) in the hyperboloid model of the hyperbolic plane: points are
(x0, x1, x2) with x0^2 - x1^2 - x2^2 = 1, x0 > 0, and isometries are
linear maps preserving the Lorentz form.  Tessellation balls are realized
by composing edge reflections along words; geodesics are traced through
the realized chambers; figures are drawn in the Poincare disk projection
with the incenter of the base chamber at the origin.

Points are located by walking the chart (Devillers-Pion-Teillaud,
*Walking in a triangulation*, 2002), not by scanning it.  The chambers
of a reflection tessellation are the Dirichlet domains of the orbit of
the base barycenter, and each edge geodesic of a chamber is the
perpendicular bisector of its barycenter and the neighbor's.  So the
walk starts at the base chamber and crosses an edge whose geodesic
separates the point from the current chamber until none does; each
crossing removes one wall between them, so the walk follows a minimal
gallery, stays in the word-length ball and costs O(word length * k).
Up to rounding it answers what a scan for the nearest barycenter would.
Each chamber's edge normals are computed on first use and kept.
"""

from __future__ import annotations

import math

from .chamber import area


LORENTZ_TOL = 1e-9
# a traced crossing must keep this many inradii away from both ends of
# its edge
VERTEX_MARGIN = 1e-3


class NoConvergence(ArithmeticError):
    pass


class ToleranceFail(ArithmeticError):
    pass


class NearVertex(ValueError):
    pass


class LeftBall(ValueError):
    pass


# ---------------------------------------------------------------------------
# Lorentz linear algebra (plain tuples; k is tiny, numpy not needed here)
# ---------------------------------------------------------------------------

def bform(x, y):
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def _normalize_point(x):
    s = math.sqrt(bform(x, x))
    return (x[0] / s, x[1] / s, x[2] / s)


def _normalize_spacelike(u):
    s = math.sqrt(-bform(u, u))
    return (u[0] / s, u[1] / s, u[2] / s)


def geodesic_normal(a, b):
    """Unit spacelike normal of the geodesic through points a, b."""
    cx = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    u = (cx[0], -cx[1], -cx[2])  # J * (a x b): B(u,a) = B(u,b) = 0
    return _normalize_spacelike(u)


def reflection_matrix(u):
    """Reflection across the geodesic with unit spacelike normal u:
    x -> x + 2 B(x, u) u."""
    ju = (u[0], -u[1], -u[2])
    return [
        [(1.0 if r == c else 0.0) + 2.0 * u[r] * ju[c] for c in range(3)]
        for r in range(3)
    ]


def mat_mul(A, B):
    return [
        [sum(A[r][t] * B[t][c] for t in range(3)) for c in range(3)]
        for r in range(3)
    ]


def mat_apply(A, x):
    return tuple(sum(A[r][c] * x[c] for c in range(3)) for r in range(3))


def lorentz_defect(A):
    """Max abs deviation of A^T J A from J."""
    J = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    worst = 0.0
    for r in range(3):
        for c in range(3):
            val = sum(A[t][r] * J[t][t] * A[t][c] for t in range(3))
            worst = max(worst, abs(val - J[r][c]))
    return worst


def hyp_distance(a, b):
    return math.acosh(max(1.0, bform(a, b)))


def point_reflection(w):
    """Point reflection through the hyperboloid point w: x -> 2B(x,w)w - x."""
    jw = (w[0], -w[1], -w[2])
    return [
        [2.0 * w[r] * jw[c] - (1.0 if r == c else 0.0) for c in range(3)]
        for r in range(3)
    ]


def transvection_to(p):
    """The Lorentz translation mapping the origin (1,0,0) to p along the
    connecting geodesic: the product of the point reflections through the
    midpoint of origin and p and through the origin."""
    o = (1.0, 0.0, 0.0)
    m = _normalize_point((o[0] + p[0], o[1] + p[1], o[2] + p[2]))
    return mat_mul(point_reflection(m), point_reflection(o))


# ---------------------------------------------------------------------------
# normal polygon
# ---------------------------------------------------------------------------

class NormalPolygon:
    """The unique polygon with the spec's angles and an inscribed circle
    centered at the origin; vertex j sits between edges j and j+1."""

    def __init__(self, spec, inradius, vertices, tangent_dirs):
        self.spec = spec
        self.inradius = inradius
        self.vertices = vertices  # list of k hyperboloid points
        self.tangent_dirs = tangent_dirs  # direction angle of each edge's tangent point

    def edge_endpoints(self, label):
        k = self.spec.k
        return self.vertices[(label - 2) % k], self.vertices[label - 1]

    def measured_angles(self):
        k = self.spec.k
        out = []
        for j in range(k):
            v = self.vertices[j]
            a = self.vertices[(j - 1) % k]
            b = self.vertices[(j + 1) % k]
            out.append(_angle_at(v, a, b))
        return out

    def numeric_area(self):
        k = self.spec.k
        return (k - 2) * math.pi - sum(self.measured_angles())


def _angle_at(v, a, b):
    ta = tuple(a[i] - bform(a, v) * v[i] for i in range(3))
    tb = tuple(b[i] - bform(b, v) * v[i] for i in range(3))
    num = -bform(ta, tb)
    den = math.sqrt(bform(ta, ta) * bform(tb, tb))
    return math.acos(max(-1.0, min(1.0, num / den)))


def normal_polygon(spec):
    """Construct the normal polygon by bisection on the inradius.

    At the incenter the polygon splits into 2k right triangles; for
    inradius r the half-angle alpha_j/2 at vertex j forces a central
    angle gamma_j with sin(gamma_j) = cos(alpha_j/2) / cosh(r), and the
    polygon closes exactly when the central angles sum to 2 pi.
    """
    k = spec.k
    halves = [spec.angle_at_vertex(j).radians() / 2.0 for j in range(1, k + 1)]

    def close_defect(r):
        ch = math.cosh(r)
        total = 0.0
        for h in halves:
            s = math.cos(h) / ch
            if s >= 1.0:
                return None  # r too small for this angle
            total += 2.0 * math.asin(s)
        return total - 2.0 * math.pi

    # r -> 0 limit of the closing defect is (k-2)pi - sum(alpha); it must be
    # strictly positive or no hyperbolic polygon exists
    limit0 = (k - 2) * math.pi - 2.0 * sum(halves)
    if limit0 <= 1e-9:
        raise NoConvergence("angle sum admits no hyperbolic polygon")
    lo, hi = 1e-9, 1.0
    flo = close_defect(lo)
    while flo is None or flo <= 0.0:
        lo *= 2.0
        if lo > 64.0:
            raise NoConvergence("no inradius bracket: polygon not hyperbolic")
        flo = close_defect(lo)
        continue
    hi = max(hi, lo * 2.0)
    while True:
        fhi = close_defect(hi)
        if fhi is not None and fhi < 0.0:
            break
        hi *= 2.0
        if hi > 128.0:
            raise NoConvergence("no inradius bracket: central angles never close")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = close_defect(mid)
        if fm is None or fm > 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)

    ch = math.cosh(r)
    gammas = [math.asin(math.cos(h) / ch) for h in halves]
    # vertex distances: cosh d_j = cot(alpha_j/2) * cot(gamma_j)
    dists = [
        math.acosh(max(1.0, (math.cos(h) / math.sin(h)) * (math.cos(g) / math.sin(g))))
        for h, g in zip(halves, gammas)
    ]
    # tangent point of edge 1 at direction 0; vertex j at phi(T_j)+gamma_j
    phis_t = [0.0]
    for j in range(k - 1):
        phis_t.append(phis_t[-1] + 2.0 * gammas[j])
    vertices = []
    for j in range(k):
        phi = phis_t[j] + gammas[j]
        d = dists[j]
        vertices.append((math.cosh(d), math.sinh(d) * math.cos(phi), math.sinh(d) * math.sin(phi)))
    return NormalPolygon(spec, r, vertices, phis_t)


# ---------------------------------------------------------------------------
# realized balls
# ---------------------------------------------------------------------------

class RealizedBall:
    def __init__(self, ball, polygon, matrices):
        self.ball = ball
        self.polygon = polygon
        self.matrices = matrices
        # per-chamber caches, filled on first use: one slot per chamber
        self._barycenters = [None] * len(matrices)
        self._normals = [None] * len(matrices)
        self.base_normals = [
            geodesic_normal(*polygon.edge_endpoints(i))
            for i in range(1, ball.spec.k + 1)
        ]

    def chamber_vertices(self, c):
        M = self.matrices[c]
        return [mat_apply(M, v) for v in self.polygon.vertices]

    def chamber_barycenter(self, c):
        cached = self._barycenters[c]
        if cached is None:
            vs = self.chamber_vertices(c)
            s = [sum(v[i] for v in vs) for i in range(3)]
            cached = self._barycenters[c] = _normalize_point(s)
        return cached

    def edge_normals(self, c):
        """The unit normals of chamber c's edge geodesics, by label - 1."""
        cached = self._normals[c]
        if cached is None:
            M = self.matrices[c]
            cached = self._normals[c] = tuple(
                _normalize_spacelike(mat_apply(M, u)) for u in self.base_normals
            )
        return cached

    def dedup_count(self, digits=9):
        seen = set()
        for c in range(len(self.matrices)):
            b = self.chamber_barycenter(c)
            seen.add(tuple(round(x, digits) for x in b))
        return len(seen)


def realize(ball):
    """Realize a tessellation ball: each chamber's isometry is the
    composition of base-edge reflections along its word, taken as its
    parent's (the word without its last letter: ShortLex words are
    prefix-closed and sorted, so the parent comes first) times one
    reflection."""
    polygon = normal_polygon(ball.spec)
    refl = [
        reflection_matrix(geodesic_normal(*polygon.edge_endpoints(i)))
        for i in range(1, ball.spec.k + 1)
    ]
    matrices = [[[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]]
    for w in ball.words[1:]:
        M = mat_mul(matrices[ball.index[w[:-1]]], refl[w[-1] - 1])
        defect = lorentz_defect(M)
        if defect > LORENTZ_TOL * max(1, 10 * len(w)):
            raise ToleranceFail(
                "Lorentz drift %.2e at word length %d" % (defect, len(w))
            )
        matrices.append(M)
    realized = RealizedBall(ball, polygon, matrices)
    _check_shared_edges(realized)
    return realized


def _check_shared_edges(realized):
    """Both chambers of every adjacency must put the two endpoints of
    their shared edge at the same points."""
    ball, matrices = realized.ball, realized.matrices
    k, vertices = ball.spec.k, realized.polygon.vertices
    for c1, c2, label in ball.adjacency():
        ends = (vertices[(label - 2) % k], vertices[label - 1])
        pts1 = {_round_pt(mat_apply(matrices[c1], v)) for v in ends}
        pts2 = {_round_pt(mat_apply(matrices[c2], v)) for v in ends}
        if pts1 != pts2:
            raise ToleranceFail(
                "chambers %d,%d disagree on shared edge %d" % (c1, c2, label)
            )


def _round_pt(p, digits=6):
    return tuple(round(x, digits) for x in p)


# ---------------------------------------------------------------------------
# geodesic tracing
# ---------------------------------------------------------------------------

def point_in_chamber(realized, p, c, slack=1e-9):
    """Is p on the chamber's side of all k of its edge geodesics?"""
    center = realized.chamber_barycenter(c)
    for u in realized.edge_normals(c):
        if bform(p, u) * bform(center, u) < -slack:
            return False
    return True


def locate(realized, p):
    """Chamber index containing p, or None.

    Walks from the base chamber (index 0, the empty word), each step
    across the edge whose geodesic separates p from the current chamber
    the most.  A separating edge leads away from the base chamber, so
    the walk takes at most `radius` steps.  Taking the most separating
    edge keeps rounding errors from sending the walk across a wall that
    p only touches while another wall clearly separates it.  The walk
    stops where no edge separates p, or where the next step would leave
    the ball or lead back toward the base (which only rounding can ask
    for), and answers that chamber if it holds p."""
    rmul, words = realized.ball.rmul, realized.ball.words
    c = 0
    while True:
        center = realized.chamber_barycenter(c)
        worst, label = 0.0, None
        for i, u in enumerate(realized.edge_normals(c)):
            side = bform(p, u) * bform(center, u)
            if side < worst:
                worst, label = side, i
        if label is None:
            break
        nxt = rmul[c][label]
        if nxt is None or len(words[nxt]) < len(words[c]):
            break
        c = nxt
    return c if point_in_chamber(realized, p, c, slack=1e-7) else None


def tangent_at(p, theta):
    """Unit tangent vector at p in direction theta (theta measured in the
    tangent frame carried from the origin by the canonical translation)."""
    v0 = (0.0, math.cos(theta), math.sin(theta))
    if abs(p[0] - 1.0) < 1e-15:
        return v0
    return mat_apply(transvection_to(p), v0)


def geodesic_point(p, v, t):
    c, s = math.cosh(t), math.sinh(t)
    return tuple(c * p[i] + s * v[i] for i in range(3))


def trace(realized, base, theta, length, tangent=None, stop_at_boundary=False):
    """Trace the geodesic from `base` in direction `theta` for hyperbolic
    arc length `length` through the realized ball.

    Returns the ordered crossings as (edge label, chamber entered,
    crossing parameter).  Raises NearVertex if a crossing point passes
    within VERTEX_MARGIN * inradius of an edge endpoint, LeftBall if the
    geodesic exits the realized ball.
    """
    margin = VERTEX_MARGIN * realized.polygon.inradius
    ball = realized.ball
    k = ball.spec.k
    c = locate(realized, base)
    if c is None:
        raise LeftBall("base point is not inside the realized ball")
    v = tangent_at(base, theta) if tangent is None else tangent
    crossings = []
    t0 = 0.0
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise ToleranceFail("trace did not terminate")
        best = None
        for label, u in enumerate(realized.edge_normals(c), 1):
            bp, bv = bform(base, u), bform(v, u)
            denom = bv
            if abs(denom) < 1e-15:
                continue
            x = -bp / denom
            if abs(x) >= 1.0:
                continue
            t = math.atanh(x)
            if t <= t0 + 1e-12:
                continue
            if best is None or t < best[0]:
                best = (t, label)
        if best is None or best[0] >= length:
            return crossings
        t, label = best
        xpt = _normalize_point(geodesic_point(base, v, t))
        vs = realized.chamber_vertices(c)
        va, vb = vs[(label - 2) % k], vs[label - 1]
        if hyp_distance(xpt, va) < margin or hyp_distance(xpt, vb) < margin:
            raise NearVertex("crossing at t=%.6f too close to a vertex" % t)
        nxt = ball.rmul[c][label - 1]
        if nxt is None:
            if stop_at_boundary:
                return crossings
            raise LeftBall("geodesic exits the ball at t=%.6f" % t)
        c = nxt
        crossings.append((label, c, t))
        t0 = t


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def to_disk(p):
    """Poincare disk projection of a hyperboloid point."""
    return (p[1] / (1.0 + p[0]), p[2] / (1.0 + p[0]))


def _fmt(x):
    return ("%.6f" % (x + 0.0)).rstrip("0").rstrip(".")


def _arc_to(z1, z2):
    """SVG path segment from z1 to z2 along the geodesic (circular arc
    orthogonal to the unit circle, or a straight segment through the
    center)."""
    x1, y1 = z1
    x2, y2 = z2
    det = 2.0 * (x1 * y2 - x2 * y1)
    if abs(det) < 1e-9:
        return "L %s %s" % (_fmt(x2), _fmt(y2))
    r1 = x1 * x1 + y1 * y1 + 1.0
    r2 = x2 * x2 + y2 * y2 + 1.0
    cx = (y2 * r1 - y1 * r2) / det
    cy = (x1 * r2 - x2 * r1) / det
    rad = math.hypot(x1 - cx, y1 - cy)
    if rad > 50.0:
        return "L %s %s" % (_fmt(x2), _fmt(y2))
    cross = (x1 - cx) * (y2 - cy) - (y1 - cy) * (x2 - cx)
    sweep = 1 if cross > 0 else 0
    return "A %s %s 0 0 %d %s %s" % (_fmt(rad), _fmt(rad), sweep, _fmt(x2), _fmt(y2))


def _chamber_path(points):
    zs = [to_disk(p) for p in points]
    parts = ["M %s %s" % (_fmt(zs[0][0]), _fmt(zs[0][1]))]
    for i in range(1, len(zs) + 1):
        parts.append(_arc_to(zs[i - 1], zs[i % len(zs)]))
    parts.append("Z")
    return " ".join(parts)


def render_svg(realized, overlays=None, size=800):
    """Render the realized ball as an SVG document (Poincare disk,
    incenter of the base chamber at the origin).  `overlays` may contain
    `walls` (lists of hyperboloid segment endpoints), `rays` (lists of
    hyperboloid points) and `disks` (lists of chamber indices)."""
    overlays = overlays or {}
    half = size / 2.0
    scale = half * 0.95

    def pt(z):
        return (half + scale * z[0], half - scale * z[1])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (size, size, size, size),
        '<circle cx="%s" cy="%s" r="%s" fill="#ffffff" stroke="#888888"/>'
        % (_fmt(half), _fmt(half), _fmt(scale)),
        '<g transform="translate(%s,%s) scale(%s,%s)">'
        % (_fmt(half), _fmt(half), _fmt(scale), _fmt(-scale)),
    ]
    disk_members = set()
    for disk in overlays.get("disks", []):
        disk_members.update(disk)
    for c in range(len(realized.matrices)):
        path = _chamber_path(realized.chamber_vertices(c))
        fill = "#ffd9a0" if c in disk_members else ("#e8eef7" if c % 2 else "#f7f7f7")
        lines.append(
            '<path class="chamber" d="%s" fill="%s" stroke="#304050" '
            'stroke-width="0.004"/>' % (path, fill)
        )
    for seglist in overlays.get("walls", []):
        for (a, b) in seglist:
            za, zb = to_disk(a), to_disk(b)
            d = "M %s %s %s" % (_fmt(za[0]), _fmt(za[1]), _arc_to(za, zb))
            lines.append(
                '<path class="wall" d="%s" fill="none" stroke="#c03030" '
                'stroke-width="0.008"/>' % d
            )
    for ray in overlays.get("rays", []):
        zs = [to_disk(p) for p in ray]
        d = "M " + " L ".join("%s %s" % (_fmt(x), _fmt(y)) for x, y in zs)
        lines.append(
            '<path class="ray" d="%s" fill="none" stroke="#2060c0" '
            'stroke-width="0.006"/>' % d
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def face_count(svg_text):
    return svg_text.count('class="chamber"')
