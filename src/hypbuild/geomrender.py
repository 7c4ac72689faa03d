"""Numeric hyperbolic realization and SVG rendering.

Chambers are realized as normal polygons (prescribed angles, inscribed
circle) in the hyperboloid model of the hyperbolic plane: points are
(x0, x1, x2) with x0^2 - x1^2 - x2^2 = 1, x0 > 0, and isometries are
linear maps preserving the Lorentz form.  Balls are realized for
rendering by composing edge reflections along words, and drawn in the
Poincare disk projection with the incenter of the base chamber at the
origin.

Point location and ray tracing realize no chamber.  They keep the point
(and tangent) in the current chamber's own frame, where that chamber is
the base polygon, and carry it across edge i into the next frame by the
base reflection in edge i.  So they read only the polygon and a thin
ball's `step`, `words` and `radius`, and no matrix product drifts along
a word.  The ball is a CoxeterBall or a metrics chart, whose
coxeter.Tessellation steps each chamber when a walk or a ray first
reaches it.
Points are located by walking (Devillers-Pion-Teillaud, *Walking in a
triangulation*, 2002), not by scanning: chambers are the Dirichlet
domains of the orbit of the base barycenter, so crossing an edge that
separates the point from the current chamber removes one wall between
them, and the walk follows a minimal gallery in O(word length * k).
Rays are traced as billiards in the base polygon, along their cutting
sequences (Bowen-Series, Publ. IHES 50, 1979; Series, ETDS 6, 1986).
The edge just entered is never tested, so a ray never steps back
through it.
"""

from __future__ import annotations

import math


LORENTZ_TOL = 1e-9
# a traced crossing must keep this many inradii away from both ends of
# its edge
VERTEX_MARGIN = 1e-3


class NoConvergence(ArithmeticError):
    pass


class ToleranceFail(ArithmeticError):
    pass


class NearVertex(ValueError):
    exit_code = 3  # the CLI reports it and exits 3


class LeftBall(ValueError):
    exit_code = 3  # the CLI reports it and exits 3


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


# left folds, not sum(), which compensates float sums from Python 3.12 on:
# every interpreter then gives the bits that trace's inlined rows give
def mat_mul(A, B):
    return [
        [A[r][0] * B[0][c] + A[r][1] * B[1][c] + A[r][2] * B[2][c] for c in range(3)]
        for r in range(3)
    ]


def mat_apply(A, x):
    return tuple(A[r][0] * x[0] + A[r][1] * x[1] + A[r][2] * x[2] for r in range(3))


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
        # unit normal of each edge geodesic and the reflection in it, by
        # label - 1
        self.normals = [
            geodesic_normal(*self.edge_endpoints(i)) for i in range(1, spec.k + 1)
        ]
        self.reflections = [reflection_matrix(u) for u in self.normals]
        self.barycenter = _normalize_point([sum(v[i] for v in vertices) for i in range(3)])

    def edge_endpoints(self, label):
        k = self.spec.k
        return self.vertices[(label - 2) % k], self.vertices[label - 1]


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

    def chamber_vertices(self, c):
        M = self.matrices[c]
        return [mat_apply(M, v) for v in self.polygon.vertices]

    def chamber_barycenter(self, c):
        return _normalize_point(mat_apply(self.matrices[c], self.polygon.barycenter))

    def dedup_count(self):
        """Number of distinct chamber barycenters, rounded to 9 digits."""
        seen = set()
        for c in range(len(self.matrices)):
            b = self.chamber_barycenter(c)
            seen.add(tuple(round(x, 9) for x in b))
        return len(seen)


def realize(ball):
    """Realize a tessellation ball: each chamber's isometry is the
    composition of base-edge reflections along its word, taken as its
    parent's (the word without its last letter: ShortLex words are
    prefix-closed and sorted, so the parent comes first) times one
    reflection."""
    polygon = normal_polygon(ball.spec)
    matrices = [[[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]]
    for w in ball.words[1:]:
        M = mat_mul(matrices[ball.index[w[:-1]]], polygon.reflections[w[-1] - 1])
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

def _walk(realized, p, *carried):
    """Walk from the base chamber (index 0) toward p, each step across
    the edge whose geodesic separates p from the current chamber the
    most, carrying p and the `carried` vectors into the next frame.
    Taking the most separating edge keeps rounding from sending the walk
    across a wall that p only touches.  The walk stops where no edge
    separates p, or where the next step would leave the ball (see
    `trace`) or lead back toward the base (which only rounding can ask
    for).  Returns the chamber, its most negative side product (0.0 when
    it holds p), and the vectors in its frame."""
    polygon, ball = realized.polygon, realized.ball
    step, words, radius = ball.step, ball.words, ball.radius
    inside = [bform(polygon.barycenter, u) for u in polygon.normals]
    vecs = (p,) + carried
    c = 0
    while True:
        worst, label = 0.0, None
        for i, u in enumerate(polygon.normals):
            side = bform(vecs[0], u) * inside[i]
            if side < worst:
                worst, label = side, i
        if label is None:
            return c, worst, vecs
        nxt = step(c, label + 1)
        if nxt is None or len(words[nxt]) > radius or len(words[nxt]) < len(words[c]):
            return c, worst, vecs
        c = nxt
        vecs = tuple(mat_apply(polygon.reflections[label], x) for x in vecs)


def locate(realized, p):
    """Chamber index containing p, or None, found by `_walk`.  `realized`
    is anything with a thin ball `.ball` and its `.polygon`: a
    RealizedBall, or a metrics chart, whose chambers are never
    realized and are stepped on demand."""
    c, worst, _vecs = _walk(realized, p)
    return c if worst >= -1e-7 else None


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
    arc length `length` through the thin ball `realized.ball`, in chamber
    frames (`realized` as for `locate`).  The ball gives `words`,
    `radius` and `step(c, label)`; a neighbour lies outside the ball when
    `step` returns None (a CoxeterBall's rim) or its word is longer than
    the radius (a chart, whose table steps chambers on demand).

    Returns the ordered crossings as (edge label, chamber entered,
    crossing parameter).  Raises NearVertex if a crossing point passes
    within VERTEX_MARGIN * inradius of an edge endpoint, LeftBall if the
    geodesic exits the ball.

    The loop is written out on coordinates.  Its contract is the order of
    its float operations: those of the helpers it inlines (bform,
    geodesic_point, hyp_distance, mat_apply, the normalizations).
    """
    polygon, ball = realized.polygon, realized.ball
    step, words, radius = ball.step, ball.words, ball.radius
    margin = VERTEX_MARGIN * polygon.inradius
    v = tangent_at(base, theta) if tangent is None else tangent
    c, worst, ((p0, p1, p2), (v0, v1, v2)) = _walk(realized, base, v)
    if worst < -1e-7:
        raise LeftBall("base point is not inside the ball")
    # by label: each edge's normal, and its reflection rows and endpoints
    normals = [(label, *u) for label, u in enumerate(polygon.normals, 1)]
    frames = [(*refl, *polygon.edge_endpoints(label))
              for label, refl in enumerate(polygon.reflections, 1)]
    acosh, atanh, cosh, sinh, sqrt = math.acosh, math.atanh, math.cosh, math.sinh, math.sqrt
    crossings = []
    t0 = 0.0  # arc length from base to p
    entry = None  # the edge p lies on, never crossed again
    for _ in range(10000):
        label = None
        for i, u0, u1, u2 in normals:
            bv = v0 * u0 - v1 * u1 - v2 * u2
            if i == entry or abs(bv) < 1e-15:
                continue
            # tanh of the arc length to the edge geodesic
            x = -(p0 * u0 - p1 * u1 - p2 * u2) / bv
            if 1e-12 < x < 1.0 and (label is None or x < bx):
                bx, label = x, i
        t = atanh(bx) if label else math.inf
        if t0 + t >= length:
            return crossings
        r0, r1, r2, va, vb = frames[label - 1]
        ch, sh = cosh(t), sinh(t)
        g0, g1, g2 = ch * p0 + sh * v0, ch * p1 + sh * v1, ch * p2 + sh * v2
        s = sqrt(g0 * g0 - g1 * g1 - g2 * g2)
        x0, x1, x2 = g0 / s, g1 / s, g2 / s
        da = x0 * va[0] - x1 * va[1] - x2 * va[2]
        db = x0 * vb[0] - x1 * vb[1] - x2 * vb[2]
        if acosh(max(1.0, da)) < margin or acosh(max(1.0, db)) < margin:
            raise NearVertex("crossing at t=%.6f too close to a vertex" % (t0 + t))
        nxt = step(c, label)
        if nxt is None or len(words[nxt]) > radius:
            if stop_at_boundary:
                return crossings
            raise LeftBall("geodesic exits the ball at t=%.6f" % (t0 + t))
        # the tangent at the crossing, then both into the next frame
        w0, w1, w2 = sh * p0 + ch * v0, sh * p1 + ch * v1, sh * p2 + ch * v2
        g0 = r0[0] * x0 + r0[1] * x1 + r0[2] * x2
        g1 = r1[0] * x0 + r1[1] * x1 + r1[2] * x2
        g2 = r2[0] * x0 + r2[1] * x1 + r2[2] * x2
        s = sqrt(g0 * g0 - g1 * g1 - g2 * g2)
        p0, p1, p2 = g0 / s, g1 / s, g2 / s
        w0, w1, w2 = (r0[0] * w0 + r0[1] * w1 + r0[2] * w2,
                      r1[0] * w0 + r1[1] * w1 + r1[2] * w2,
                      r2[0] * w0 + r2[1] * w1 + r2[2] * w2)
        d = w0 * p0 - w1 * p1 - w2 * p2
        n0, n1, n2 = w0 - d * p0, w1 - d * p1, w2 - d * p2
        s = sqrt(-(n0 * n0 - n1 * n1 - n2 * n2))
        v0, v1, v2 = n0 / s, n1 / s, n2 / s
        c, entry, t0 = nxt, label, t0 + t
        crossings.append((label, c, t0))
    raise ToleranceFail("trace did not terminate")


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


SVG_SIZE = 800  # width and height of a rendered SVG, in pixels


def render_svg(realized, overlays=None):
    """Render the realized ball as an SVG document (Poincare disk,
    incenter of the base chamber at the origin).  `overlays` may contain
    `walls` (lists of hyperboloid segment endpoints), `rays` (lists of
    hyperboloid points) and `disks` (lists of chamber indices)."""
    overlays = overlays or {}
    half = SVG_SIZE / 2.0
    scale = half * 0.95
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % ((SVG_SIZE,) * 4),
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
