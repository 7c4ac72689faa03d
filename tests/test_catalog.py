import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from hypbuild import catalog as cat
from hypbuild.chamber import RationalAngle, area, validate
from hypbuild.coxeter import CoxeterBall, CoxeterSystem, ResourceCap


@pytest.fixture(scope="module")
def quadchamber():
    return validate(4, (2, 2, 2, 4))


@pytest.fixture(scope="module")
def tris238(spec238):
    return cat.enumerate_triangles(spec238)


@pytest.fixture(scope="module")
def quads238(spec238):
    return cat.enumerate_quads(spec238)


# ---------------------------------------------------------------------------
# Gauss-Bonnet guard
# ---------------------------------------------------------------------------

def test_build_entry_raises_when_defect_is_not_n_area(spec238, monkeypatch):
    # the single chamber is a triangle with d = pi/24 = A0; with A0 off
    # by one unit of pi/L the identity d = n * A0 fails on this entry
    T = cat.tessellation(spec238)
    L, a0 = cat._angle_units(spec238)
    assert cat.build_entry(T, {0}, "triangle").defect == RationalAngle(a0, L)
    monkeypatch.setattr(cat, "_angle_units", lambda spec: (L, a0 + 1))
    with pytest.raises(ArithmeticError, match="d=pi/24, n\\*A0=pi/12"):
        cat.build_entry(T, {0}, "triangle")


# ---------------------------------------------------------------------------
# support disks: an independent oracle for the catalog's disks
# ---------------------------------------------------------------------------

class TouchesBoundary(ValueError):
    pass


@dataclass(frozen=True)
class SkeletonPath:
    """A closed edge path in the 1-skeleton: edges as (chamber word,
    label) pairs in cyclic order, with corner marks and corner angles."""

    edges: tuple
    corners: tuple = ()
    angles: tuple = ()


@dataclass(frozen=True)
class SupportDisk:
    chambers: frozenset
    boundary: SkeletonPath
    n: int
    special_points: tuple


def chamber_boundary_path(spec, word=()):
    """The boundary circle of one chamber, as a SkeletonPath."""
    return SkeletonPath(
        edges=tuple((tuple(word), g) for g in range(1, spec.k + 1)),
        corners=tuple(range(spec.k)),
        angles=tuple(spec.angle_at_vertex(j) for j in range(1, spec.k + 1)),
    )


def entry_boundary_path(T, entry):
    """SkeletonPath of an entry's representative disk boundary."""
    disk = cat._disk_from_chambers(T, set(entry.rep))
    vseq, eseq = cat._boundary_walk(T, disk)
    edges = tuple(
        (T.words[disk["boundary_edges"][e]], e[2]) for e in eseq
    )
    binfo = disk["binfo"]
    corners = []
    angles = []
    for i, v in enumerate(vseq):
        rec, cnt = binfo[v]
        if cnt < rec["m"]:
            corners.append(i)
            angles.append(RationalAngle(cnt, rec["m"]))
    return SkeletonPath(edges=edges, corners=tuple(corners), angles=tuple(angles))


def support_disk(ball, circle):
    """Chambers of a CoxeterBall enclosed by an embedded circle in the
    1-skeleton, with special points.  Raises TouchesBoundary when the
    enclosed region cannot be separated from the ball boundary."""
    sysc = ball.system
    bkeys = set()
    for word, g in circle.edges:
        w = sysc.canon(tuple(word))
        other = sysc.canon(w + (g,))
        bkeys.add((min(w, other), g))
    missing = bkeys - set(ball.edges.keys())
    if missing:
        raise TouchesBoundary("circle edge %s outside the ball" % (min(missing),))
    # flood fill both sides of the first edge; the interior is the side
    # that stays finite without touching the ball boundary
    first = next(iter(bkeys))
    _label, cs = ball.edges[first]
    if len(cs) < 2:
        raise TouchesBoundary("circle runs along the ball boundary")

    def fill(seed):
        S = {seed}
        stack = [seed]
        ok = True
        while stack:
            c = stack.pop()
            if not ball.is_inner[c]:
                ok = False
            for g in range(1, ball.spec.k + 1):
                if ball.edge_of[c][g - 1] in bkeys:
                    continue
                d = ball.rmul[c][g - 1]
                if d is None:
                    ok = False
                    continue
                if d not in S:
                    S.add(d)
                    stack.append(d)
        return S, ok

    inside = None
    for seed in cs:
        S, ok = fill(seed)
        if ok:
            inside = S
            break
    if inside is None:
        raise TouchesBoundary("neither side of the circle is interior")
    # special points: boundary vertex with disk angle > pi, or interior
    # vertex with an open link
    specials = []
    vkeys = set()
    for c in inside:
        for j in range(1, ball.spec.k + 1):
            vkeys.add(ball.vertex_of[c][j - 1])
    for key in sorted(vkeys):
        info = ball.vertices[key]
        cnt = sum(1 for ch in info["chambers"] if ch in inside)
        m = info["m"]
        if cnt == 2 * m and info["interior"]:
            continue
        if cnt > m:  # disk angle cnt*pi/m above pi
            specials.append(key)
    return SupportDisk(
        chambers=frozenset(ball.words[c] for c in inside),
        boundary=circle,
        n=len(inside),
        special_points=tuple(specials),
    )


def test_support_disk_single_chamber(spec238):
    ball = CoxeterBall(spec238, 4)
    d = support_disk(ball, chamber_boundary_path(spec238))
    assert d.n == 1
    assert d.chambers == frozenset({()})
    assert d.special_points == ()


def test_support_disk_two_chambers(spec238):
    ball = CoxeterBall(spec238, 4)
    circ = SkeletonPath(
        edges=(((), 2), ((), 3), ((1,), 2), ((1,), 3))
    )
    d = support_disk(ball, circ)
    assert d.n == 2
    assert d.chambers == frozenset({(), (1,)})
    assert d.special_points == ()


def test_support_disk_detects_special_point(spec238):
    # three of the four chambers around an m=2 vertex: the disk angle
    # there is 3*pi/2 > pi
    ball = CoxeterBall(spec238, 4)
    circ = SkeletonPath(
        edges=(((), 2), ((), 3), ((1,), 3), ((1, 2), 1), ((1, 2), 3))
    )
    d = support_disk(ball, circ)
    assert d.n == 3
    assert len(d.special_points) == 1


def test_support_disk_touches_boundary(spec238):
    ball = CoxeterBall(spec238, 3)
    far = max(ball.words, key=len)
    with pytest.raises(TouchesBoundary):
        support_disk(ball, chamber_boundary_path(spec238, far))


# ---------------------------------------------------------------------------
# triangle enumeration
# ---------------------------------------------------------------------------

def test_334_single_triangle_class(spec334):
    res = cat.enumerate_triangles(spec334)
    assert len(res) == 1
    e = next(iter(res))
    assert e.n == 1
    assert sorted(e.corner_angles) == [
        Fraction(1, 4), Fraction(1, 3), Fraction(1, 3)
    ]


def test_pentagon_no_triangles(pentagon):
    assert cat.enumerate_triangles(pentagon) == set()


def test_quad_chamber_no_triangles(quadchamber):
    assert cat.enumerate_triangles(quadchamber) == set()


def test_238_triangle_catalog_contents(spec238, tris238):
    assert any(e.n == 1 and e.defect == RationalAngle(1, 24) for e in tris238)
    # a 2-chamber class whose sides all run along walls through
    # m=3 vertices (edge labels 2 and 3 only)
    t2 = [
        e for e in tris238
        if e.n == 2 and all(set(c[5]) <= {2, 3} for c in e.code)
    ]
    assert len(t2) == 1
    assert sorted(t2[0].corner_angles) == [
        Fraction(1, 4), Fraction(1, 3), Fraction(1, 3)
    ]
    # a 6-chamber class with three even angles
    t6 = [e for e in tris238 if e.n == 6 and all(e.even_flags)]
    assert len(t6) == 1
    assert all(a == Fraction(1, 4) for a in t6[0].corner_angles)


def test_238_triangle_defect_range(tris238):
    for e in tris238:
        assert Fraction(1, 24) <= e.defect <= Fraction(5, 8)


# ---------------------------------------------------------------------------
# quadrilateral enumeration
# ---------------------------------------------------------------------------

def test_pentagon_no_quads(pentagon):
    assert cat.enumerate_quads(pentagon) == set()


def test_238_quad_minimum_defect(quads238):
    mn = min(e.defect for e in quads238)
    assert mn == Fraction(2, 24)
    at_min = [e for e in quads238 if e.defect == mn]
    assert len(at_min) == 1
    assert at_min[0].n == 2


@pytest.mark.parametrize("k,m", [(3, (2, 3, 8)), (3, (3, 3, 4)), (3, (2, 4, 8))])
def test_area_law_exact(k, m):
    spec = validate(k, m)
    a0 = area(spec)
    for e in cat.enumerate_triangles(spec) | cat.enumerate_quads(spec):
        assert e.defect == e.n * a0
        # angle-sum form of the same identity
        l = 3 if e.shape == "triangle" else 4
        total = sum(e.corner_angles)
        assert (l - 2) >= total + e.n * a0


def test_step_cap_enforced(spec238):
    with pytest.raises(ResourceCap):
        cat.enumerate_quads(spec238, step_cap=10)


# ---------------------------------------------------------------------------
# oracle equivalence and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "k,m,shape",
    [
        (3, (3, 3, 4), "triangle"),
        (3, (3, 3, 4), "quadrilateral"),
        (3, (2, 3, 8), "triangle"),
        (3, (2, 4, 8), "quadrilateral"),
        (3, (2, 3, 8), "quadrilateral"),
    ],
)
def test_brute_force_oracle_agrees(k, m, shape):
    spec = validate(k, m)
    enum = (
        cat.enumerate_triangles if shape == "triangle" else cat.enumerate_quads
    )
    side = {e for e in enum(spec) if e.n <= 8}
    assert side == cat.brute_force_catalog(spec, shape, n_max=8)


@pytest.mark.parametrize("m", [(2, 3, 8), (3, 3, 4), (2, 4, 6)])
def test_relabelled_chambers_give_the_same_catalog(m):
    # a rotation or a reflection of the labels is an isometry of the
    # tessellation, so the class count and the (n, defect) list hold; the
    # search's start order by gonality and label moves with the labels
    a, b, c = m
    relabelled = [(b, c, a), (c, a, b), (c, b, a)]

    def profile(mm):
        spec = validate(3, mm)
        return [
            sorted((e.n, e.defect) for e in enum(spec))
            for enum in (cat.enumerate_triangles, cat.enumerate_quads)
        ]

    want = profile(m)
    assert want[1]
    for mm in relabelled:
        assert profile(mm) == want


def test_enumeration_deterministic(spec238):
    a = cat.enumerate_triangles(spec238)
    b = cat.enumerate_triangles(spec238)
    assert a == b
    assert {e.key for e in a} == {e.key for e in b}


@pytest.mark.parametrize("k,m", [(3, (2, 3, 8)), (3, (3, 3, 4)), (4, (2, 2, 2, 3))])
def test_tessellation_words_are_shortlex(k, m):
    # chambers are keyed by reduced words, so growing the table never
    # stores two words for one chamber
    spec = validate(k, m)
    cat.enumerate_triangles(spec)
    cat.enumerate_quads(spec)
    T = cat.tessellation(spec)
    system = CoxeterSystem(spec)
    assert len(T) > 1
    assert all(system.canon(w) == w for w in T.words)
    assert len(set(T.words)) == len(T)


@pytest.mark.parametrize("k,m", [(3, (2, 3, 8)), (4, (2, 2, 2, 4))])
def test_vertex_record_edges_join_their_chambers(k, m):
    # each edge (lo, hi, label) of a vertex record, labelled from the
    # record's own cycle walk, is the step from lo across label
    spec = validate(k, m)
    cat.enumerate_quads(spec)
    T = cat.tessellation(spec)
    assert T._vcache
    for rec in T._vcache.values():
        assert {e[2] for e in rec["edges"]} == {rec["j"], rec["j"] % k + 1}
        for lo, hi, g in rec["edges"]:
            assert T.step(lo, g) == hi


@pytest.mark.parametrize(
    "k,m",
    [(3, (2, 3, 8)), (3, (3, 3, 4)), (3, (2, 4, 6)), (4, (2, 2, 2, 3)),
     (5, (2, 2, 2, 2, 2))],
)
def test_tessellation_step_matches_canon_on_random_walks(k, m):
    # the root-point step against the word problem of a separate system:
    # a walk that jumps back to a random known chamber whenever its word
    # passes 60 letters, so it keeps stepping from chambers both with and
    # without unknown neighbours
    spec = validate(k, m)
    T = cat.Tessellation(spec)
    oracle = CoxeterSystem(spec)
    rng = random.Random(k * 100 + sum(m))
    c = longest = 0
    for _ in range(2500):
        g = rng.randint(1, k)
        d = T.step(c, g)
        assert T.words[d] == oracle.canon(T.words[c] + (g,))
        c = d
        longest = max(longest, len(T.words[c]))
        if len(T.words[c]) > 60:
            c = rng.randrange(len(T))
    assert longest >= 40
    assert len(set(T.words)) == len(T) == len(T._ids)
    # each chamber's key is the point of its word
    for point, idx in T._ids.items():
        cols, x = T.system.identity_matrix()
        for g in T.words[idx]:
            cols, x = T.system.times_generator(cols, x, g)
        assert x == point


# ---------------------------------------------------------------------------
# per-entry disk re-verification
# ---------------------------------------------------------------------------

RIGHT_TRIANGLES = [
    (2, 8, 8), (2, 6, 6), (2, 6, 8), (2, 4, 6), (2, 4, 8), (2, 3, 8)
]


@pytest.mark.parametrize("m", RIGHT_TRIANGLES)
def test_right_triangle_disks_have_no_special_points(m):
    """Every enumerated triangle class bounds a disk whose boundary
    vertices all have angle <= pi and whose interior vertices close up
    to exactly 2*pi, re-verified via an independent ball flood fill."""
    spec = validate(3, m)
    T = cat.tessellation(spec)
    ball = CoxeterBall(spec, 8)
    checked = 0
    for e in cat.enumerate_triangles(spec):
        path = entry_boundary_path(T, e)
        if any(len(w) > 6 for w, _g in path.edges):
            continue  # representative too deep for this ball
        disk = support_disk(ball, path)
        assert disk.n == e.n
        assert disk.special_points == ()
        checked += 1
    assert checked >= 1


def test_entry_boundary_path_chamber(spec238, tris238):
    T = cat.tessellation(spec238)
    e1 = next(e for e in tris238 if e.n == 1)
    path = entry_boundary_path(T, e1)
    assert len(path.edges) == 3
    assert len(path.corners) == 3
    assert sorted(path.angles) == [
        Fraction(1, 8), Fraction(1, 3), Fraction(1, 2)
    ]


def test_entry_json_shape(tris238):
    e = next(iter(tris238))
    j = e.to_json()
    assert j["shape"] == "triangle"
    assert len(j["corners"]) == 3
    assert all(len(c["angle"]) == 2 for c in j["corners"])


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

def test_claims_246_no_even_adjacent_witness():
    rep = cat.claims_check(validate(3, (2, 4, 6)))
    assert rep["quad_adjacent_even_long_side"]["pass"]
    assert rep["quad_adjacent_even_long_side"]["witnesses"] == []
    assert rep["summary"]["pass"]


def test_claims_334_no_three_even_quad(spec334):
    rep = cat.claims_check(spec334)
    assert rep["quad_three_even"]["pass"]
    assert rep["quad_three_even"]["witnesses"] == []
    assert rep["triangle_shapes"]["pass"]
    assert rep["summary"]["pass"]


def test_claims_238_minimal_triangle_unique(spec238):
    rep = cat.claims_check(spec238)
    w = rep["triangle_defect_min"]["witnesses"]
    assert rep["triangle_defect_min"]["pass"]
    assert len(w) == 1 and w[0]["n"] == 1
    assert rep["quad_defect_min"]["pass"]
    assert rep["area_law"]["pass"]
    assert rep["summary"]["pass"]


def test_claims_pentagon_and_quad_chamber(pentagon, quadchamber):
    for spec in (pentagon, quadchamber):
        rep = cat.claims_check(spec)
        assert rep["triangle_shapes"]["pass"]
        assert rep["summary"]["pass"]
    assert cat.claims_check(pentagon)["quad_k5_empty"]["pass"]
