import decimal
import math
import random

import pytest

from hypbuild import geomrender as gr, metrics as mt
from hypbuild.chamber import ChamberSpec, area, validate
from hypbuild.coxeter import CoxeterBall


@pytest.fixture(scope="module")
def real238(spec238):
    return gr.realize(CoxeterBall(spec238, 6))


def _angle_at(v, a, b):
    ta = tuple(a[i] - gr.bform(a, v) * v[i] for i in range(3))
    tb = tuple(b[i] - gr.bform(b, v) * v[i] for i in range(3))
    num = -gr.bform(ta, tb)
    den = math.sqrt(gr.bform(ta, ta) * gr.bform(tb, tb))
    return math.acos(max(-1.0, min(1.0, num / den)))


def measured_angles(poly):
    """The interior angle of a NormalPolygon at each vertex, measured
    from its realized vertices."""
    k = poly.spec.k
    out = []
    for j in range(k):
        v = poly.vertices[j]
        a = poly.vertices[(j - 1) % k]
        b = poly.vertices[(j + 1) % k]
        out.append(_angle_at(v, a, b))
    return out


def numeric_area(poly):
    """Gauss-Bonnet area of a NormalPolygon from its measured angles."""
    return (poly.spec.k - 2) * math.pi - sum(measured_angles(poly))


# ---------------------------------------------------------------------------
# normal polygons
# ---------------------------------------------------------------------------

NUMERIC_AREA_CASES = [
    (3, (2, 3, 8)),
    (3, (2, 4, 8)),
    (3, (2, 6, 8)),
    (3, (3, 3, 4)),
    (5, (2, 2, 2, 2, 2)),
]


@pytest.mark.parametrize("k,m", NUMERIC_AREA_CASES)
def test_normal_polygon_area_matches_exact(k, m):
    spec = validate(k, m)
    poly = gr.normal_polygon(spec)
    want = float(area(spec)) * math.pi
    assert abs(numeric_area(poly) - want) < 1e-9


@pytest.mark.parametrize("k,m", NUMERIC_AREA_CASES)
def test_normal_polygon_angles(k, m):
    spec = validate(k, m)
    poly = gr.normal_polygon(spec)
    for j, ang in enumerate(measured_angles(poly), 1):
        assert abs(ang - spec.angle_at_vertex(j).radians()) < 1e-9


def test_normal_polygon_incircle_touches_all_edges():
    spec = validate(3, (2, 3, 8))
    poly = gr.normal_polygon(spec)
    o = (1.0, 0.0, 0.0)
    for i in (1, 2, 3):
        u = gr.geodesic_normal(*poly.edge_endpoints(i))
        # distance from center to the edge geodesic: sinh(d) = |B(o, u)|
        d = math.asinh(abs(gr.bform(o, u)))
        assert abs(d - poly.inradius) < 1e-8


def test_isoceles_symmetry_334():
    poly = gr.normal_polygon(validate(3, (3, 3, 4)))

    def elen(i):
        a, b = poly.edge_endpoints(i)
        return gr.hyp_distance(a, b)

    angles = measured_angles(poly)
    # two pi/3 angles => the two edges opposite them have equal length
    assert abs(angles[0] - angles[1]) < 1e-12
    assert abs(elen(1) - elen(3)) < 1e-9


def test_no_convergence_for_flat_spec():
    flat = ChamberSpec(k=3, m=(3, 3, 3), q=(1, 1, 1))
    with pytest.raises(gr.NoConvergence):
        gr.normal_polygon(flat)


# ---------------------------------------------------------------------------
# realized balls
# ---------------------------------------------------------------------------

def test_realize_identity_and_reflections(real238):
    ball = real238.ball
    ident = real238.matrices[ball.index[()]]
    assert max(
        abs(ident[r][c] - (1.0 if r == c else 0.0)) for r in range(3) for c in range(3)
    ) < 1e-12
    for i in (1, 2, 3):
        M = real238.matrices[ball.index[(i,)]]
        det = (
            M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
        )
        assert abs(det + 1.0) < 1e-9  # reflection
        for v in real238.polygon.edge_endpoints(i):
            img = gr.mat_apply(M, v)
            assert max(abs(a - b) for a, b in zip(img, v)) < 1e-9


def test_realize_lorentz_and_dedup(real238):
    for M in real238.matrices:
        assert gr.lorentz_defect(M) < 1e-9
    assert real238.dedup_count() == len(real238.ball)


def test_realize_pentagon_dedup(pentagon):
    real = gr.realize(CoxeterBall(pentagon, 4))
    assert real.dedup_count() == len(real.ball)


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------

def _point_in_chamber(realized, p, c, slack):
    """Is p on the chamber's side of all k of its edge geodesics?"""
    M = realized.matrices[c]
    center = realized.chamber_barycenter(c)
    for u in realized.polygon.normals:
        u = gr._normalize_spacelike(gr.mat_apply(M, u))
        if gr.bform(p, u) * gr.bform(center, u) < -slack:
            return False
    return True


def _scan_locate(realized, centers, p):
    """Oracle: the chamber with the nearest barycenter (`centers`, by
    chamber), found by scanning every realized chamber, if it holds p.
    In exact arithmetic this is the chamber that locate's walk reaches."""
    best, best_d = None, None
    for c, center in enumerate(centers):
        d = gr.bform(p, center)
        if best_d is None or d < best_d:
            best, best_d = c, d
    return best if _point_in_chamber(realized, p, best, slack=1e-7) else None


def _combine(points, weights):
    """Normalized positive combination: a point of the convex hull (the
    hyperboloid model is projectively convex)."""
    s = [sum(w * q[i] for q, w in zip(points, weights)) for i in range(3)]
    return gr._normalize_point(s)


def _base_sample(polygon, rng):
    """A point of the base polygon: spread over it, or pulled toward an
    edge or a vertex, down to a weight of 1e-6 on the inner point."""
    vs = polygon.vertices
    k = len(vs)
    inside = _combine(vs, [rng.random() for _ in vs])
    kind = rng.randrange(3)
    if kind == 0:
        return inside
    eps = 10.0 ** -rng.uniform(1, 6)
    if kind == 1:
        j = rng.randrange(k)
        t = rng.uniform(0.02, 0.98)
        on_edge = _combine([vs[j], vs[(j + 1) % k]], [t, 1 - t])
        return _combine([on_edge, inside], [1 - eps, eps])
    return _combine([vs[rng.randrange(k)], inside], [1 - eps, eps])


LOCATE_CHARTS = [
    (5, (2, 2, 2, 2, 2), 7),
    (3, (2, 3, 8), 12),
    (4, (2, 4, 2, 6), 6),
    (3, (3, 3, 4), 8),
]


@pytest.mark.parametrize("k,m,radius", LOCATE_CHARTS)
def test_locate_matches_scan_oracle(k, m, radius):
    real = gr.realize(CoxeterBall(validate(k, m), radius))
    ball = real.ball
    polygon = real.polygon
    refl = polygon.reflections
    centers = [real.chamber_barycenter(c) for c in range(len(ball))]
    rng = random.Random(100 * k + radius)
    # inside: a sampled chamber's own point, often close to its boundary
    for _ in range(300):
        c = rng.randrange(len(ball))
        p = gr.mat_apply(real.matrices[c], _base_sample(polygon, rng))
        assert gr.locate(real, p) == _scan_locate(real, centers, p) == c
    # outside: interior points of chambers one or two steps past the ball
    rim = [(c, g) for c in range(len(ball)) for g in range(k) if ball.rmul[c][g] is None]
    for _ in range(100):
        c, g = rng.choice(rim)
        word = ball.system.canon(ball.words[c] + (g + 1,))
        M = gr.mat_mul(real.matrices[c], refl[g])
        h = rng.randrange(k)
        if rng.random() < 0.5 and len(ball.system.canon(word + (h + 1,))) > len(word):
            M = gr.mat_mul(M, refl[h])
        assert len(word) > radius
        vs = polygon.vertices
        inner = _combine(vs + [(1.0, 0.0, 0.0)], [rng.uniform(0.2, 1.0) for _ in vs] + [1.0])
        p = gr.mat_apply(M, inner)
        assert gr.locate(real, p) is None
        assert _scan_locate(real, centers, p) is None


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_trace_inside_chamber_is_empty(real238):
    assert gr.trace(real238, (1.0, 0.0, 0.0), 0.3, 0.5 * real238.polygon.inradius) == []


def test_trace_first_crossing_label(real238):
    base = (1.0, 0.0, 0.0)
    for i in (1, 2, 3):
        theta = real238.polygon.tangent_dirs[i - 1]
        tr = gr.trace(real238, base, theta, 3 * real238.polygon.inradius)
        assert tr and tr[0][0] == i


def test_trace_near_vertex_rejected(real238):
    v = real238.polygon.vertices[0]
    theta = math.atan2(v[2], v[1])
    with pytest.raises(gr.NearVertex):
        gr.trace(real238, (1.0, 0.0, 0.0), theta, 1.0)


def test_trace_leaving_ball_rejected(real238):
    rng = random.Random(0)
    with pytest.raises(gr.LeftBall):
        for _ in range(50):
            gr.trace(real238, (1.0, 0.0, 0.0), rng.uniform(0, 2 * math.pi), 5.0)


def test_trace_matches_wall_crossing_oracle(real238):
    """Traced crossing sequences are reduced galleries: the crossed wall
    set equals the separating-wall set of the endpoint chamber pair."""
    ball = real238.ball
    sysc = ball.system
    base = (1.0, 0.0, 0.0)
    rng = random.Random(1)
    checked = 0
    for _ in range(200):
        theta = rng.uniform(0, 2 * math.pi)
        try:
            tr = gr.trace(real238, base, theta, 0.8)
        except (gr.NearVertex, gr.LeftBall):
            continue
        if not tr:
            continue
        word = tuple(lbl for lbl, _c, _t in tr)
        end = tr[-1][1]
        # same group element: the gallery is a path from base to end
        assert sysc.canon(word) == sysc.canon(ball.words[end])
        # crossed walls = inversion set of the endpoint
        crossed = set()
        prefix = ()
        for g in word:
            crossed.add(sysc.canon(prefix + (g,) + tuple(reversed(prefix))))
            prefix = prefix + (g,)
        assert crossed == set(sysc.inversions(sysc.canon(word)))
        # crossing parameters strictly increase
        ts = [t for _l, _c, t in tr]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        checked += 1
    assert checked >= 100


def _reference_trace(realized, base, theta, length, tangent=None, stop_at_boundary=False):
    """The crossing loop of gr.trace as it was written on the helpers, one
    helper call per vector operation: the oracle of the flat kernel."""
    polygon, rmul = realized.polygon, realized.ball.rmul
    margin = gr.VERTEX_MARGIN * polygon.inradius
    v = gr.tangent_at(base, theta) if tangent is None else tangent
    c, worst, (p, v) = gr._walk(realized, base, v)
    if worst < -1e-7:
        raise gr.LeftBall("base point is not inside the ball")
    crossings = []
    t0 = 0.0
    entry = None
    for _ in range(10000):
        best = None
        for label, u in enumerate(polygon.normals, 1):
            bv = gr.bform(v, u)
            if label == entry or abs(bv) < 1e-15:
                continue
            x = -gr.bform(p, u) / bv
            if 1e-12 < x < 1.0 and (best is None or x < best[0]):
                best = (x, label)
        t = math.atanh(best[0]) if best else math.inf
        if t0 + t >= length:
            return crossings
        label = best[1]
        xpt = gr._normalize_point(gr.geodesic_point(p, v, t))
        va, vb = polygon.edge_endpoints(label)
        if gr.hyp_distance(xpt, va) < margin or gr.hyp_distance(xpt, vb) < margin:
            raise gr.NearVertex("crossing at t=%.6f too close to a vertex" % (t0 + t))
        nxt = rmul[c][label - 1]
        if nxt is None:
            if stop_at_boundary:
                return crossings
            raise gr.LeftBall("geodesic exits the ball at t=%.6f" % (t0 + t))
        ch, sh = math.cosh(t), math.sinh(t)
        w = tuple(sh * p[i] + ch * v[i] for i in range(3))
        refl = polygon.reflections[label - 1]
        p = gr._normalize_point(gr.mat_apply(refl, xpt))
        w = gr.mat_apply(refl, w)
        v = gr._normalize_spacelike(tuple(w[i] - gr.bform(w, p) * p[i] for i in range(3)))
        c, entry, t0 = nxt, label, t0 + t
        crossings.append((label, c, t0))
    raise gr.ToleranceFail("trace did not terminate")


def _outcome(fn, realized, *args, **kwargs):
    """The crossings as (label, word of the chamber entered, t), or the
    exception's type and message."""
    try:
        crossings = fn(realized, *args, **kwargs)
    except (gr.NearVertex, gr.LeftBall, gr.ToleranceFail) as exc:
        return type(exc), str(exc)
    return [(label, realized.ball.words[c], t) for label, c, t in crossings]


@pytest.mark.parametrize("k,m,radius", [
    (3, (2, 3, 8), 6), (4, (2, 4, 2, 6), 6), (5, (2, 2, 2, 2, 2), 7),
])
def test_trace_kernel_matches_the_helper_trace(k, m, radius):
    """Same crossings (labels, chamber words, t compared with ==) and the
    same exceptions as the helper-composed loop, with and without
    stop_at_boundary, on 200 seeded rays per chart.  The kernel steps the
    on-demand chart; the helper loop reads a full CoxeterBall's table."""
    spec = validate(k, m)
    chart = mt.realized_apartment(spec, radius)
    full = mt.Apartment(CoxeterBall(spec, radius), chart.polygon)
    inr = chart.polygon.inradius
    rng = random.Random(17 * k + radius)
    kinds = {}
    for n in range(200):
        phi, d = rng.uniform(0, 2 * math.pi), inr * rng.uniform(0, 2.5)
        base = (math.cosh(d), math.sinh(d) * math.cos(phi), math.sinh(d) * math.sin(phi))
        theta = rng.uniform(0, 2 * math.pi)
        tangent = gr.tangent_at(base, theta + 0.5) if n % 4 == 3 else None
        length = 1e9 if n % 2 else rng.uniform(0.1, 4.0)
        for stop in (True, False):
            want = _outcome(_reference_trace, full, base, theta, length, tangent, stop)
            got = _outcome(gr.trace, chart, base, theta, length, tangent, stop)
            assert got == want
            kind = want[0].__name__ if isinstance(want, tuple) else "crossings"
            kinds[kind] = kinds.get(kind, 0) + 1
    # every outcome is exercised
    assert kinds.get("crossings", 0) > 100 and kinds.get("LeftBall", 0) > 20
    assert kinds.get("NearVertex", 0) + kinds["crossings"] + kinds["LeftBall"] == 400


# ---------------------------------------------------------------------------
# precision oracle: the pentagon billiard at 60 digits
# ---------------------------------------------------------------------------

def _dec_pentagon():
    """The right-angled regular pentagon at 60 digits: vertex j at
    direction (2j + 1) pi/5 and cosh-distance cot(pi/5), inradius r with
    cosh r = cos(pi/4) / sin(pi/5); normals and reflections by the
    formulas of gr.geodesic_normal and gr.reflection_matrix."""
    D = decimal.Decimal
    r5 = D(5).sqrt()
    c, s = (1 + r5) / 4, ((5 - r5) / 8).sqrt()  # cos, sin of pi/5
    rc, rs = (r5 - 1) / 4, ((5 + r5) / 8).sqrt()  # cos, sin of 2 pi/5
    ch = c / s
    sh = (ch * ch - 1).sqrt()
    vertices = []
    for _ in range(5):
        vertices.append((ch, sh * c, sh * s))
        c, s = c * rc - s * rs, s * rc + c * rs
    normals, reflections = [], []
    for label in range(1, 6):
        a, b = vertices[(label - 2) % 5], vertices[label - 1]
        u = (a[1] * b[2] - a[2] * b[1], -(a[2] * b[0] - a[0] * b[2]), -(a[0] * b[1] - a[1] * b[0]))
        u = _dec_unit(u, -1)
        ju = (u[0], -u[1], -u[2])
        normals.append(u)
        reflections.append([[(1 if i == j else 0) + 2 * u[i] * ju[j] for j in range(3)]
                            for i in range(3)])
    cosh_r = D(2).sqrt() / 2 / ((5 - r5) / 8).sqrt()
    inradius = (cosh_r + (cosh_r * cosh_r - 1).sqrt()).ln()
    return vertices, normals, reflections, inradius


def _dec_bform(x, y):
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def _dec_unit(x, sign):
    s = (sign * _dec_bform(x, x)).sqrt()
    return tuple(xi / s for xi in x)


def _dec_trace(pentagon, p, v, crossings):
    """Labels and arc lengths of the first `crossings` crossings of the
    billiard from p along v in the base frame, and the arc length of a
    crossing within VERTEX_MARGIN inradii of a vertex that stopped it
    earlier (else None)."""
    vertices, normals, reflections, inradius = pentagon
    margin = decimal.Decimal(gr.VERTEX_MARGIN) * inradius
    labels, ts, t0, entry = [], [], 0, None
    while len(labels) < crossings:
        x, label = min(
            (-_dec_bform(p, u) / _dec_bform(v, u), i)
            for i, u in enumerate(normals, 1)
            if i != entry and _dec_bform(v, u) != 0 and 0 < -_dec_bform(p, u) / _dec_bform(v, u) < 1
        )
        t = ((1 + x) / (1 - x)).ln() / 2
        et = t.exp()
        ch, sh = (et + 1 / et) / 2, (et - 1 / et) / 2
        xpt = _dec_unit(tuple(ch * p[i] + sh * v[i] for i in range(3)), 1)
        for end in (vertices[(label - 2) % 5], vertices[label - 1]):
            b = _dec_bform(xpt, end)
            if (b + (b * b - 1).sqrt()).ln() < margin:
                return labels, ts, t0 + t
        refl = reflections[label - 1]
        w = tuple(sh * p[i] + ch * v[i] for i in range(3))
        p = _dec_unit(tuple(sum(refl[r][j] * xpt[j] for j in range(3)) for r in range(3)), 1)
        w = tuple(sum(refl[r][j] * w[j] for j in range(3)) for r in range(3))
        d = _dec_bform(w, p)
        v = _dec_unit(tuple(w[i] - d * p[i] for i in range(3)), -1)
        entry, t0 = label, t0 + t
        labels.append(label)
        ts.append(t0)
    return labels, ts, None


def test_float_trace_agrees_with_a_60_digit_trace(pentagon):
    """Float labels agree with the 60-digit billiard for 30 crossings, or
    up to a crossing near a vertex that both traces reject.  The arc
    lengths drift apart as geodesics diverge, about e^t times the float
    rounding."""
    chart = mt.realized_apartment(pentagon, math.inf)  # a chart that never ends
    D = decimal.Decimal
    rng = random.Random(60)
    full = 0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dec = _dec_pentagon()
        assert abs(float(dec[3]) - chart.polygon.inradius) < 1e-12
        for _ in range(24):
            phi, d = rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.2)
            base = (math.cosh(d), math.sinh(d) * math.cos(phi), math.sinh(d) * math.sin(phi))
            tangent = gr.tangent_at(base, rng.uniform(0, 2 * math.pi))
            p = _dec_unit(tuple(D(x) for x in base), 1)
            v = tuple(D(x) for x in tangent)
            v = _dec_unit(tuple(v[i] - _dec_bform(v, p) * p[i] for i in range(3)), -1)
            labels, ts, near = _dec_trace(dec, p, v, 30)
            end = float(near if near is not None else ts[-1] + 1)
            if near is not None:
                with pytest.raises(gr.NearVertex):
                    gr.trace(chart, base, 0.0, end + 1e-3, tangent=tangent)
                end -= 1e-3
            else:
                full += 1
            crossings = gr.trace(chart, base, 0.0, end, tangent=tangent)
            assert [lbl for lbl, _c, _t in crossings[:len(labels)]] == labels
            for (_l, _c, t), u in zip(crossings, ts):
                assert abs(t - float(u)) < 1e-12 * math.exp(t)
    assert full >= 20


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_single_polygon(spec238):
    real = gr.realize(CoxeterBall(spec238, 0))
    svg = gr.render_svg(real)
    assert gr.face_count(svg) == 1
    assert svg.startswith("<?xml")


def test_render_face_count_matches_chambers(real238):
    svg = gr.render_svg(real238)
    assert gr.face_count(svg) == len(real238.ball)


def test_render_deterministic(real238):
    a = gr.render_svg(real238)
    b = gr.render_svg(real238)
    assert a == b


def test_render_overlays(real238):
    ball = real238.ball
    # a wall overlay drawn from realized edge endpoints
    from hypbuild.coxeter import wall_type

    segs = None
    for wall, edge_list in ball.walls():
        try:
            comp = wall_type(ball, wall)
        except Exception:
            continue
        if comp == (1,):
            segs = []
            ordered, _labels = ball.wall_edge_path(wall)
            for key in ordered:
                label, cs = ball.edges[key]
                vs = real238.chamber_vertices(cs[0])
                k = ball.spec.k
                segs.append((vs[(label - 2) % k], vs[label - 1]))
            break
    assert segs
    ray_pts = [(math.cosh(t), math.sinh(t), 0.0) for t in (0.0, 0.2, 0.4)]
    svg = gr.render_svg(
        real238, overlays={"walls": [segs], "rays": [ray_pts], "disks": [[0, 1]]}
    )
    assert 'class="wall"' in svg and 'class="ray"' in svg
