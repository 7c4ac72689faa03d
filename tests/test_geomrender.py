import math
import random

import pytest

from hypbuild import geomrender as gr
from hypbuild.chamber import ChamberSpec, area, validate
from hypbuild.coxeter import CoxeterBall


@pytest.fixture(scope="module")
def real238(spec238):
    return gr.realize(CoxeterBall(spec238, 6))


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
    want = float(area(spec).fraction) * math.pi
    assert abs(poly.numeric_area() - want) < 1e-9


@pytest.mark.parametrize("k,m", NUMERIC_AREA_CASES)
def test_normal_polygon_angles(k, m):
    spec = validate(k, m)
    poly = gr.normal_polygon(spec)
    for j, ang in enumerate(poly.measured_angles(), 1):
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

    angles = poly.measured_angles()
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
