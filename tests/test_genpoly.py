import itertools
from collections import deque

import pytest

from hypbuild import genpoly as gp


@pytest.fixture(scope="module")
def k33():
    return gp.construct("digon", 2, 2)


@pytest.fixture(scope="module")
def fano():
    return gp.construct("projective", 2)


@pytest.fixture(scope="module")
def gq2():
    return gp.construct("quadrangle", 2)


# -- helpers with no caller in the library, kept as test oracles ------------

def common_opposite(poly, v1, v2):
    """A vertex opposite to both v1 and v2 (same type); existence is a
    theorem for thick polygons, so a miss aborts the run."""
    if poly.color[v1] != poly.color[v2]:
        raise gp.GenPolyError("FormatError", "vertices must share a type")
    opp = set(gp.opposite_set(poly, v1)) & set(gp.opposite_set(poly, v2))
    if not opp:
        raise gp.GenPolyError(
            "NoneFound", "no common opposite of %r, %r (axiom violation)" % (v1, v2)
        )
    return min(opp)


def apartment_opposite_vertex(poly, apartment):
    """A vertex opposite to every vertex of the apartment of the
    compatible type (same type for even m, other type for odd m)."""
    if poly.m not in (3, 4):
        raise gp.GenPolyError("UnsupportedParameter", "scan implemented for m in {3,4}")
    if poly.params is None:
        raise gp.GenPolyError("NotThick", "thin polygon")
    apartment = tuple(apartment)
    for v in poly.vertices():
        dist = poly.distance(v)
        want = [
            a
            for a in apartment
            if (poly.color[a] == poly.color[v]) == (poly.m % 2 == 0)
        ]
        if want and all(dist[a] == poly.m for a in want):
            return v
    raise gp.GenPolyError("NoneFound", "no apartment-opposite vertex (axiom violation)")


def to_text(poly):
    """The `p/l/i` exchange format that `genpoly verify --in` reads."""
    lines = []
    for v in poly.vertices():
        lines.append(("p %s" if poly.color[v] == 0 else "l %s") % v)
    for (x, y) in poly.edges():
        p, l = (x, y) if poly.color[x] == 0 else (y, x)
        lines.append("i %s %s" % (p, l))
    return "\n".join(lines) + "\n"


def _rigid_gluing_any_map(c1, c2):
    """Rigid gluing by trying all 2n cycle maps c1 -> c2: is there one
    that fixes V(c1) & V(c2) pointwise and maps shared edges to
    themselves?"""
    n = len(c1)
    shared_v = set(c1) & set(c2)
    shared_e = gp._cycle_edges(c1) & gp._cycle_edges(c2)
    doubled = c2 + c2
    for i in range(n):
        for image in (doubled[i:i + n], tuple(reversed(doubled[i:i + n]))):
            phi = dict(zip(c1, image))
            if all(phi[v] == v for v in shared_v) and all(
                tuple(sorted((phi[a], phi[b]))) == (a, b) for a, b in shared_e
            ):
                return True
    return False


# ---------------------------------------------------------------------------
# constructors + verify
# ---------------------------------------------------------------------------

def test_digon_is_complete_bipartite(k33):
    assert k33.params == (2, 2)
    assert len(k33.vertices()) == 6
    # every point on every line
    for v in k33.vertices():
        assert len(k33.adj[v]) == 3


def test_digon_2_3():
    d = gp.construct("digon", 2, 3)
    assert d.params == (2, 3)


def test_fano_counts(fano):
    assert fano.params == (2, 2)
    assert len(fano.vertices()) == 14
    assert len(fano.edges()) == 21
    # girth 6 / diameter 3, checked independently of verify internals
    assert _girth(fano.adj) == 6
    assert _diameter(fano.adj) == 3
    # 7 points, 3 lines through each point
    points = [v for v in fano.vertices() if fano.color[v] == 0]
    assert len(points) == 7
    assert all(len(fano.adj[p]) == 3 for p in points)


def test_quadrangle_counts(gq2):
    assert gq2.params == (2, 2)
    assert len(gq2.vertices()) == 30
    assert _girth(gq2.adj) == 8
    assert _diameter(gq2.adj) == 4


def test_projective_3():
    p3 = gp.construct("projective", 3)
    assert p3.params == (3, 3)
    assert len(p3.vertices()) == 26


def test_unsupported_parameters():
    with pytest.raises(gp.GenPolyError):
        gp.construct("projective", 4)
    with pytest.raises(gp.GenPolyError):
        gp.construct("quadrangle", 3)


def _girth(adj):
    best = None
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    cyc = dist[x] + dist[y] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def _diameter(adj):
    worst = 0
    for root in adj:
        dist = {root: 0}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        worst = max(worst, max(dist.values()))
    return worst


# ---------------------------------------------------------------------------
# verify failures
# ---------------------------------------------------------------------------

def test_not_bipartite_rejected():
    adj = {"a": ("b", "c"), "b": ("a", "c"), "c": ("a", "b")}
    color = {"a": 0, "b": 1, "c": 0}
    with pytest.raises(gp.GenPolyError) as err:
        gp.verify(adj, color, 2)
    assert err.value.code == "NotBipartite"


def test_degree_anomaly_witnessed(fano):
    adj = {v: list(ns) for v, ns in fano.adj.items()}
    # drop one incidence
    p = adj["l0"].pop()
    adj[p] = [x for x in adj[p] if x != "l0"]
    with pytest.raises(gp.GenPolyError) as err:
        gp.verify(adj, fano.color, 3)
    assert err.value.code == "AxiomFail"


def test_rigid_gluing_matches_the_all_maps_oracle_on_gq2(gq2):
    cycles = gq2.apartments()
    pairs = 0
    for e, idxs in gq2._cycles_by_edge.items():
        for i1, i2 in itertools.combinations(sorted(idxs), 2):
            c1, c2 = cycles[i1], cycles[i2]
            assert gp._rigid_gluing(c1, c2, e) == _rigid_gluing_any_map(c1, c2)
            pairs += 1
    assert pairs > 1000


@pytest.mark.parametrize("c2,rigid", [
    (("a", "b", "c", "x", "y", "z"), True),
    (("a", "b", "x", "y", "c", "z"), False),
], ids=["rigid", "not-rigid"])
def test_rigid_gluing_on_hand_made_six_cycles(c2, rigid):
    # both circuits run a -> b; c follows b on the first and the rigid
    # second, and sits across the circuit from b on the other
    c1 = ("a", "b", "c", "d", "e", "f")
    for image in (c2, c2[::-1]):  # the second runs b -> a
        assert _rigid_gluing_any_map(c1, image) is rigid
        for edge in (("a", "b"), ("b", "a")):
            assert gp._rigid_gluing(c1, image, edge) is rigid
            assert gp._rigid_gluing(image, c1, edge) is rigid


def test_six_cycle_is_not_a_digon():
    cyc = ["a", "x", "b", "y", "c", "z"]
    adj = {v: (cyc[(i - 1) % 6], cyc[(i + 1) % 6]) for i, v in enumerate(cyc)}
    color = {v: i % 2 for i, v in enumerate(cyc)}
    with pytest.raises(gp.GenPolyError) as err:
        gp.verify(adj, color, 2)
    assert err.value.code == "AxiomFail"


def test_thin_circuit_is_a_polygon():
    cyc = ["a", "x", "b", "y", "c", "z"]
    adj = {v: (cyc[(i - 1) % 6], cyc[(i + 1) % 6]) for i, v in enumerate(cyc)}
    color = {v: i % 2 for i, v in enumerate(cyc)}
    poly = gp.verify(adj, color, 3)
    assert poly.params is None  # thin
    with pytest.raises(gp.GenPolyError) as err:
        gp.verify(adj, color, 3, require_thick=True)
    assert err.value.code == "NotThick"


def test_feit_higman_octagon_rule(fano):
    # a fabricated m=8 link with s = t must be rejected before any
    # circuit counting happens
    with pytest.raises(gp.GenPolyError) as err:
        gp.verify(fano.adj, fano.color, 8)
    assert err.value.code == "ParameterRuleFail"


def test_feit_higman_odd_rule():
    d = gp.construct("digon", 2, 3)
    with pytest.raises(gp.GenPolyError) as err:
        gp.verify(d.adj, d.color, 3)
    assert err.value.code == "ParameterRuleFail"


# ---------------------------------------------------------------------------
# oppositeness
# ---------------------------------------------------------------------------

def test_opposite_set_k33(k33):
    blacks = [v for v in k33.vertices() if k33.color[v] == 0]
    v = blacks[0]
    assert gp.opposite_set(k33, v) == sorted(blacks[1:])


def test_opposite_set_fano(fano):
    opp = gp.opposite_set(fano, "p0")
    assert len(opp) == 4
    assert all(o.startswith("l") for o in opp)
    assert all("p0" not in fano.adj[o] for o in opp)
    # same-type vertices are never opposite for odd m (parity)
    assert not any(o.startswith("p") for o in opp)


def test_common_opposite_fano(fano):
    line = common_opposite(fano, "p0", "p1")
    assert "p0" not in fano.adj[line] and "p1" not in fano.adj[line]
    # inclusion-exclusion: exactly 2 candidate lines miss both points
    missing = [
        l
        for l in fano.vertices()
        if fano.color[l] == 1 and "p0" not in fano.adj[l] and "p1" not in fano.adj[l]
    ]
    assert len(missing) == 2


def test_common_opposite_k33(k33):
    blacks = sorted(v for v in k33.vertices() if k33.color[v] == 0)
    assert common_opposite(k33, blacks[0], blacks[1]) == blacks[2]


def test_common_opposite_quadrangle(gq2):
    # two collinear points
    line = next(v for v in gq2.vertices() if gq2.color[v] == 1)
    p1, p2 = gq2.adj[line][:2]
    v = common_opposite(gq2, p1, p2)
    dist = gq2.distance(v)
    assert dist[p1] == 4 and dist[p2] == 4


# ---------------------------------------------------------------------------
# apartment scans (full)
# ---------------------------------------------------------------------------

def test_apartment_opposite_vertex_full_scan_fano(fano):
    for ap in fano.apartments():
        v = apartment_opposite_vertex(fano, ap)
        dist = fano.distance(v)
        for a in ap:
            if fano.color[a] != fano.color[v]:
                assert dist[a] == 3


def test_apartment_opposite_vertex_full_scan_gq2(gq2):
    for ap in gq2.apartments():
        v = apartment_opposite_vertex(gq2, ap)
        dist = gq2.distance(v)
        for a in ap:
            if gq2.color[a] == gq2.color[v]:
                assert dist[a] == 4


def test_apartment_opposite_rejects_digon(k33):
    with pytest.raises(gp.GenPolyError):
        apartment_opposite_vertex(k33, k33.apartments()[0])


# ---------------------------------------------------------------------------
# apartment chains
# ---------------------------------------------------------------------------

def _check_chain(poly, chain):
    cycles = set(poly.apartments())
    for ap in chain:
        assert ap in cycles
    for a, b in zip(chain, chain[1:]):
        inter = gp._intersection_path(a, b)
        assert inter is not None
        path, shared = inter
        assert len(shared) == poly.m  # half apartment, exactly


def test_chain_trivial(fano):
    a = fano.apartments()[0]
    assert gp.apartment_chain(fano, a, a) == [a]


def test_chain_all_pairs_k33(k33):
    aps = k33.apartments()
    for a, b in itertools.combinations(aps, 2):
        chain = gp.apartment_chain(k33, a, b)
        assert chain[0] == a and chain[-1] == b
        _check_chain(k33, chain)


def test_chain_fano_sharing_edge(fano):
    aps = fano.apartments()
    a = aps[0]
    ea = gp._cycle_edges(a)
    partners = [b for b in aps[1:] if ea & gp._cycle_edges(b)]
    assert partners
    for b in partners:
        chain = gp.apartment_chain(fano, a, b)
        _check_chain(fano, chain)


def test_chain_fano_random_pairs(fano):
    import random

    aps = fano.apartments()
    rng = random.Random(11)
    for _ in range(25):
        a, b = rng.sample(aps, 2)
        chain = gp.apartment_chain(fano, a, b)
        assert chain[0] == a and chain[-1] == b
        _check_chain(fano, chain)


def test_chain_gq2_random_pairs(gq2):
    import random

    aps = gq2.apartments()
    rng = random.Random(13)
    for _ in range(10):
        a, b = rng.sample(aps, 2)
        chain = gp.apartment_chain(gq2, a, b)
        assert chain[0] == a and chain[-1] == b
        _check_chain(gq2, chain)


# ---------------------------------------------------------------------------
# convexity of apartments
# ---------------------------------------------------------------------------

def _all_shortest_paths_stay(poly, ap):
    apv = set(ap)
    n = len(ap)
    for i, j in itertools.combinations(range(n), 2):
        u, v = ap[i], ap[j]
        d = poly.distance(u)[v]
        if d >= poly.m:
            continue
        # enumerate all shortest paths by DFS over the BFS DAG
        dist_v = poly.distance(v)
        stack = [(u, (u,))]
        while stack:
            x, path = stack.pop()
            if x == v:
                assert set(path) <= apv, (ap, path)
                continue
            for y in poly.adj[x]:
                if dist_v[y] == dist_v[x] - 1:
                    stack.append((y, path + (y,)))


def test_apartments_convex_k33_fano(k33, fano):
    for ap in k33.apartments():
        _all_shortest_paths_stay(k33, ap)
    for ap in fano.apartments()[:10]:
        _all_shortest_paths_stay(fano, ap)


# ---------------------------------------------------------------------------
# exchange format
# ---------------------------------------------------------------------------

def test_text_roundtrip(fano):
    text = to_text(fano)
    adj, color = gp.from_text(text)
    again = gp.verify(adj, color, 3)
    assert again.params == (2, 2)
    assert sorted(again.vertices()) == sorted(fano.vertices())
