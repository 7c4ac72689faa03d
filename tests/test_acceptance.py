"""End-to-end acceptance suite: exact numeric facts, complete
enumerations, and invariant checks across all modules."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from hypbuild import catalog as cat
from hypbuild import genpoly as gp
from hypbuild import geomrender as gr
from hypbuild import metrics as mt
from hypbuild import rabuilding as rb
from hypbuild.chamber import area, validate
from hypbuild.coxeter import CoxeterBall
from hypbuild.weights import WeightVector

from test_genpoly import apartment_opposite_vertex, common_opposite
from test_geomrender import numeric_area

LOG = WeightVector.log_int
ORIGIN = (1.0, 0.0, 0.0)


def _inner(G):
    """Chambers of word length <= radius/2, whose pairwise minimal-weight
    galleries stay inside the ball."""
    return [c for c, w in enumerate(G.ball.words) if len(w) <= G.ball.radius // 2]


@pytest.fixture(scope="module")
def aG6(spec238):
    return mt.DualGraph(CoxeterBall(spec238, 6), q=(2, 3, 5))


@pytest.fixture(scope="module")
def bG4(pentagon_thick):
    return mt.DualGraph(rb.ball(pentagon_thick, 4))


@pytest.fixture(scope="module")
def bG5(pentagon_thick):
    return mt.DualGraph(rb.ball(pentagon_thick, 5))


@pytest.fixture(scope="module")
def real238_6(spec238):
    return gr.realize(CoxeterBall(spec238, 6))


def _ray(chart, base, theta, tangent=None):
    return mt.RaySpec(chart=chart, base=base, theta=theta, tangent=tangent)


def _aim(base, target):
    t = tuple(target[i] - gr.bform(target, base) * base[i] for i in range(3))
    s = math.sqrt(-gr.bform(t, t))
    return tuple(x / s for x in t)


# ---------------------------------------------------------------------------
# 1. exact chamber areas for the six hyperbolic right triangles
# ---------------------------------------------------------------------------

RIGHT_TRIANGLE_AREAS = [
    ((2, 8, 8), Fraction(1, 4)),
    ((2, 6, 6), Fraction(1, 6)),
    ((2, 6, 8), Fraction(5, 24)),
    ((2, 4, 6), Fraction(1, 12)),
    ((2, 4, 8), Fraction(1, 8)),
    ((2, 3, 8), Fraction(1, 24)),
]


def test_right_triangle_area_table():
    for m, frac in RIGHT_TRIANGLE_AREAS:
        assert area(validate(3, m)) == frac


# ---------------------------------------------------------------------------
# 2. Dijkstra distance equals the wall-weight sum on every inner pair
# ---------------------------------------------------------------------------

def _check_dist_equals_wall_sum(G):
    inner = _inner(G)
    assert len(inner) >= 10
    failures = 0
    for C in inner:
        table = G.dist_from(C)
        for Cp in inner:
            if table[Cp] != G.wall_sum(C, Cp):
                failures += 1
    assert failures == 0


def test_distance_equals_separating_wall_sum_apartment(aG6):
    _check_dist_equals_wall_sum(aG6)


def test_distance_equals_separating_wall_sum_building(bG4):
    _check_dist_equals_wall_sum(bG4)


# ---------------------------------------------------------------------------
# 3. catalog claims
# ---------------------------------------------------------------------------

def test_catalog_no_triangles_without_acute_shapes(pentagon):
    assert cat.enumerate_triangles(pentagon) == set()
    assert cat.enumerate_triangles(validate(4, (2, 2, 2, 4))) == set()


def test_catalog_334_only_chamber_boundary(spec334):
    res = cat.enumerate_triangles(spec334)
    assert len(res) == 1 and next(iter(res)).n == 1


def test_catalog_no_quads_for_k5(pentagon):
    assert cat.enumerate_quads(pentagon) == set()


def test_catalog_238_referenced_classes(spec238):
    tris = cat.enumerate_triangles(spec238)
    # a 2-chamber class whose sides lie on walls through m=3 vertices
    t2 = [
        e for e in tris
        if e.n == 2 and all(set(c[5]) <= {2, 3} for c in e.code)
    ]
    assert len(t2) == 1
    # a class with three even angles and n = 6
    t6 = [e for e in tris if e.n == 6 and all(e.even_flags)]
    assert len(t6) == 1


def test_catalog_minimum_triangle_defect(spec238):
    tris = cat.enumerate_triangles(spec238)
    at_min = [e for e in tris if e.defect == Fraction(1, 24)]
    assert len(at_min) == 1 and at_min[0].n == 1
    assert min(e.defect for e in tris) == Fraction(1, 24)


def test_catalog_minimum_quad_defect(spec238):
    quads = cat.enumerate_quads(spec238)
    assert min(e.defect for e in quads) == Fraction(2, 24)
    at_min = [e for e in quads if e.defect == Fraction(2, 24)]
    assert len(at_min) == 1 and at_min[0].n == 2


def test_catalog_defect_at_least_area_everywhere():
    for k, m in [(3, (2, 3, 8)), (3, (2, 4, 8)), (3, (3, 3, 4)),
                 (3, (2, 4, 6)), (4, (2, 2, 2, 4))]:
        spec = validate(k, m)
        a0 = area(spec)
        entries = cat.enumerate_triangles(spec) | cat.enumerate_quads(spec)
        for e in entries:
            assert e.defect >= e.n * a0
        rep = cat.claims_check(spec)
        assert rep["summary"]["pass"]


# ---------------------------------------------------------------------------
# 4. oracle equivalence of the two enumeration engines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [(2, 3, 8), (2, 4, 8), (3, 3, 4)])
def test_enumeration_engines_agree(m):
    spec = validate(3, m)
    for shape, enum in (
        ("triangle", cat.enumerate_triangles),
        ("quadrilateral", cat.enumerate_quads),
    ):
        side = {e for e in enum(spec) if e.n <= 8}
        assert side == cat.brute_force_catalog(spec, shape, n_max=8)


# ---------------------------------------------------------------------------
# 5. cross-ratio invariant suite on the thick pentagon building
# ---------------------------------------------------------------------------

def test_cross_ratio_invariant_suite(bG5):
    G = bG5
    chart = mt.chart_for(G)
    inner = _inner(G)
    inr = chart.realized.polygon.inradius
    rng = random.Random(42)
    done = 0
    attempts = 0
    while done < 200 and attempts < 4000:
        attempts += 1
        rays = []
        for _ in range(4):
            th0 = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(0, 0.5) * inr
            base = gr._normalize_point(
                gr.geodesic_point(
                    ORIGIN, (0.0, math.cos(th0), math.sin(th0)), d
                )
            )
            rays.append(_ray(chart, base, rng.uniform(0, 2 * math.pi)))
        bases = [0] + rng.sample(inner, 4)
        try:
            vals = [mt.cross_ratio(G, *rays, b) for b in bases]
            swap_xi = mt.cross_ratio(
                G, rays[1], rays[0], rays[2], rays[3], bases[0]
            )
            swap_eta = mt.cross_ratio(
                G, rays[0], rays[1], rays[3], rays[2], bases[0]
            )
            E, Ep = rng.sample(inner, 2)
            lhs = mt.boundary_gromov(G, rays[0], rays[2], Ep).value
            rhs = mt.boundary_gromov(G, rays[0], rays[2], E).value + (
                mt.busemann(G, rays[0], E, Ep)
                + mt.busemann(G, rays[2], E, Ep)
            ).halve()
            C, D, F = (rng.choice(inner) for _ in range(3))
            cocycle_ok = (
                mt.busemann(G, rays[0], C, D) + mt.busemann(G, rays[0], D, F)
                == mt.busemann(G, rays[0], C, F)
            )
        except (mt.NoStabilization, gr.NearVertex, gr.LeftBall, ValueError):
            continue
        # base-point independence across 5 base chambers
        assert all(v == vals[0] for v in vals)
        # antisymmetry under swapping either pair
        assert swap_xi == -vals[0] and swap_eta == -vals[0]
        # base-change identity for the boundary Gromov product
        assert lhs == rhs
        # Busemann cocycle identity
        assert cocycle_ok
        done += 1
    assert done >= 200


def test_busemann_trichotomy_values(bG5):
    """Comparing the two chambers of a panel edge along rays entering
    each chamber of the panel yields exactly {log 2, -log 2, 0}."""
    G = bG5
    chart0 = mt.chart_for(G)
    realized = chart0.realized
    ball = G.ball
    mid, _along = mt._wall_frame(realized, 1)
    C1 = ball.index[()]
    C2 = ball.index[rb.normal_form(((1, 1),), G.spec)]
    C3 = ball.index[rb.normal_form(((1, 2),), G.spec)]
    inr = realized.polygon.inradius
    o1 = gr._normalize_point((1.0, 0.04 * inr, 0.023 * inr))
    into_c1 = gr._normalize_point(
        tuple(mid[i] + 0.02 * inr * (o1[i] - mid[i]) for i in range(3))
    )
    xi1 = _ray(chart0, into_c1, 0.0, tangent=_aim(into_c1, o1))
    mirror = realized.polygon.reflections[0]
    o2 = gr._normalize_point(gr.mat_apply(mirror, o1))
    into_c2 = gr._normalize_point(
        tuple(mid[i] + 0.02 * inr * (o2[i] - mid[i]) for i in range(3))
    )
    xi2 = _ray(chart0, into_c2, 0.0, tangent=_aim(into_c2, o2))
    chart_b = mt.chart_for(G, coloring=rb.apartment_through(ball, ball.words[C1], ball.words[C3]))
    xi3 = _ray(chart_b, into_c2, 0.0, tangent=_aim(into_c2, o2))
    observed = {
        mt.busemann(G, xi1, C1, C2),
        mt.busemann(G, xi2, C1, C2),
        mt.busemann(G, xi3, C1, C2),
    }
    assert observed == {LOG(2), -LOG(2), WeightVector.zero()}


# ---------------------------------------------------------------------------
# 6. detection experiments
# ---------------------------------------------------------------------------

def test_detect_skeleton_wall_and_generic(bG5):
    half = WeightVector.half_log_int(2)
    rep = mt.detect_skeleton_experiment(bG5, ("wall", 1), samples=12, seed=0)
    assert rep["pass"]
    for v in rep["observed"]:
        assert v.multiple_of_half_log(2) is not None
    assert any(v.is_zero() for v in rep["observed"])
    assert any(v == -half for v in rep["observed"])
    gen = mt.detect_skeleton_experiment(
        bG5, ("generic", 0.77), samples=8, seed=1
    )
    assert gen["pass"]
    assert all(v.is_zero() for v in gen["observed"])


def test_detect_side_agreement(bG5):
    rep = mt.detect_side_experiment(bG5, 1, configs=20, seed=0)
    assert rep["pass"]
    good = [r for r in rep["records"] if "error" not in r and r["agree"]]
    assert len(good) >= 20


# ---------------------------------------------------------------------------
# 7. generalized polygons
# ---------------------------------------------------------------------------

def test_generalized_polygon_verifier_and_scans():
    k33 = gp.construct("digon", 2, 2)
    fano = gp.construct("projective", 2)
    gq2 = gp.construct("quadrangle", 2)
    for poly in (k33, fano, gq2):
        again = gp.verify(poly.adj, poly.color, poly.m, require_thick=True)
        assert again.params == (2, 2)
    # every apartment admits a vertex opposite to all its far vertices
    for poly in (fano, gq2):
        for ap in poly.apartments():
            v = apartment_opposite_vertex(poly, ap)
            dist = poly.distance(v)
            for a in ap:
                if (poly.color[a] == poly.color[v]) == (poly.m % 2 == 0):
                    assert dist[a] == poly.m
    # every same-type vertex pair has a common opposite
    for poly in (k33, fano, gq2):
        for t in (0, 1):
            vs = [v for v in poly.vertices() if poly.color[v] == t]
            for v1, v2 in itertools.combinations(vs, 2):
                w = common_opposite(poly, v1, v2)
                d = poly.distance(w)
                assert d[v1] == poly.m and d[v2] == poly.m


def test_octagon_equal_parameters_rejected():
    fano = gp.construct("projective", 2)
    with pytest.raises(gp.GenPolyError) as err:
        gp.verify(fano.adj, fano.color, 8)
    assert err.value.code == "ParameterRuleFail"


# ---------------------------------------------------------------------------
# 8. building-ball structure
# ---------------------------------------------------------------------------

def test_building_interior_links_are_k33(bG4):
    ball = bG4.ball
    keys = ball.interior_vertex_keys()
    assert keys
    for key in keys:
        adj, color = ball.vertex_link(key)
        poly = gp.verify(adj, color, 2)
        assert poly.params == (2, 2)
        assert len(adj) == 6


def test_building_retraction_properties(bG4):
    ball = bG4.ball
    spec = ball.spec
    rng = random.Random(7)
    C = ()
    D0 = ball.words[rng.randrange(len(ball.words))]
    A = rb.apartment_through(ball, C, D0)
    r = rb.retraction(ball, A, C)
    samples = [ball.words[rng.randrange(len(ball.words))] for _ in range(100)]
    for E in samples:
        img = r(E)
        # label preservation: the W-distance word from the center is kept
        assert rb.wdist(C, img, spec) == rb.wdist(C, E, spec)
        # apartment chambers are fixed pointwise
        if A.position_of(E) is not None:
            assert img == E
    # gallery-nonincreasing on pairs
    for E, F in zip(samples[::2], samples[1::2]):
        d_img = len(rb.wdist(r(E), r(F), spec))
        d_orig = len(rb.wdist(E, F, spec))
        assert d_img <= d_orig


# ---------------------------------------------------------------------------
# 9. geometric realization cross-checks
# ---------------------------------------------------------------------------

def test_realized_dedup_matches_combinatorics(real238_6):
    assert real238_6.dedup_count() == len(real238_6.ball)


def test_traced_segments_match_wall_crossings(real238_6):
    ball = real238_6.ball
    sysc = ball.system
    rng = random.Random(9)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        theta = rng.uniform(0, 2 * math.pi)
        try:
            tr = gr.trace(real238_6, ORIGIN, theta, 0.8)
        except (gr.NearVertex, gr.LeftBall):
            continue
        if not tr:
            continue
        word = tuple(lbl for lbl, _c, _t in tr)
        crossed = []
        prefix = ()
        for g in word:
            crossed.append(sysc.canon(prefix + (g,) + tuple(reversed(prefix))))
            prefix = prefix + (g,)
        # each wall crossed exactly once, and the multiset equals the
        # separating-wall set of the endpoint chamber
        assert len(set(crossed)) == len(crossed)
        assert sorted(crossed) == sorted(sysc.inversions(sysc.canon(word)))
        checked += 1
    assert checked >= 100


def test_realized_chamber_areas(spec238, real238_6):
    poly = real238_6.polygon
    want = area(spec238).radians()
    assert abs(numeric_area(poly) - want) < 1e-6
    base_lengths = sorted(
        gr.hyp_distance(*poly.edge_endpoints(i)) for i in (1, 2, 3)
    )
    rng = random.Random(4)
    for _ in range(20):
        c = rng.randrange(len(real238_6.ball))
        vs = real238_6.chamber_vertices(c)
        lengths = sorted(
            gr.hyp_distance(vs[i], vs[(i + 1) % 3]) for i in range(3)
        )
        # congruent to the base chamber, hence equal area
        assert all(abs(a - b) < 1e-6 for a, b in zip(lengths, base_lengths))


def test_rendered_svg_face_count(real238_6):
    svg = gr.render_svg(real238_6)
    assert gr.face_count(svg) == len(real238_6.ball)
    assert svg.startswith("<?xml")


# ---------------------------------------------------------------------------
# 10. growth
# ---------------------------------------------------------------------------

def test_growth_monotone_on_all_hosts(aG6, bG4):
    for G in (aG6, bG4):
        assert mt.growth(G, 0) == 1
        vals = [mt.growth(G, n * 0.5) for n in range(5)]
        assert vals[0] == 1
        assert vals == sorted(vals)


def test_tau_estimate_is_flagged_non_converged(bG4):
    est = mt.tau_estimate(bG4, 2)
    assert est.converged is False
    assert "not certified" in est.note
    assert len(est.values) == 2
