import gc
import hashlib
import heapq
import json
import math
import random
import weakref
from functools import partial
from pathlib import Path

import networkx as nx
import pytest

from hypbuild import geomrender as gr, metrics as mt, rabuilding as rb
from hypbuild.chamber import parse_chamber_string, validate
from hypbuild.coxeter import CoxeterBall, CoxeterSystem
from hypbuild.weights import WeightVector

LOG = WeightVector.log_int
ORIGIN = (1.0, 0.0, 0.0)


def _inner(G):
    """Chambers of word length <= radius/2, whose pairwise minimal-weight
    galleries stay inside the ball."""
    return [c for c, w in enumerate(G.ball.words) if len(w) <= G.ball.radius // 2]


@pytest.fixture(scope="module")
def aG(spec238):
    # thin (2,3,8) apartment with formal thickness weights (2, 3, 5)
    return mt.DualGraph(CoxeterBall(spec238, 4), q=(2, 3, 5))


@pytest.fixture(scope="module")
def bG(pentagon_thick):
    return mt.DualGraph(rb.ball(pentagon_thick, 5))


def _nx_graph(G):
    g = nx.Graph()
    for c in range(len(G)):
        for d, label in G.ball.neighbors(c):
            g.add_edge(c, d, weight=math.log(G.q[label - 1]))
    return g


def _ray(chart, base, theta, tangent=None):
    return mt.RaySpec(chart=chart, base=base, theta=theta, tangent=tangent)


def _aim(base, target):
    """Unit tangent at `base` pointing toward `target`."""
    t = tuple(target[i] - gr.bform(target, base) * base[i] for i in range(3))
    s = math.sqrt(-gr.bform(t, t))
    return tuple(x / s for x in t)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_dist_self_and_adjacent(aG, bG):
    for G in (aG, bG):
        assert G.dist(0, 0) == WeightVector.zero()
        for d, label in G.ball.neighbors(0):
            assert G.dist(0, d) == G.weight(label)


def test_dist_two_letter_word(aG):
    # chamber s1 s2: separated from the base by the walls {s1, s1 s2 s1}
    target = aG.ball.index[aG.ball.system.canon((1, 2))]
    assert aG.dist(0, target) == LOG(2) + LOG(3)


@pytest.mark.parametrize("which", ["apartment", "building"])
def test_dist_matches_independent_dijkstra(which, aG, bG):
    G = aG if which == "apartment" else bG
    g = _nx_graph(G)
    lengths = nx.single_source_dijkstra_path_length(g, 0)
    rng = random.Random(0)
    for _ in range(40):
        c = rng.randrange(len(G))
        assert abs(G.dist(0, c).value() - lengths[c]) < 1e-9


@pytest.mark.parametrize("which", ["apartment", "building"])
def test_dist_equals_wall_weight_sum(which, aG, bG):
    # Dijkstra distance = sum of separating-wall edge weights
    G = aG if which == "apartment" else bG
    inner = _inner(G)
    rng = random.Random(1)
    pairs = [(rng.choice(inner), rng.choice(inner)) for _ in range(60)]
    for a, b in pairs:
        assert G.dist(a, b) == G.wall_sum(a, b)


def test_non_shortest_paths_have_weight_gap(spec238):
    # every simple path between two chambers is either minimal or exceeds
    # the distance by at least min_i log q_i
    G = mt.DualGraph(CoxeterBall(spec238, 2), q=(2, 3, 5))
    adj = {c: list(G.ball.neighbors(c)) for c in range(len(G))}
    target = 2
    d = G.dist(0, target)
    gap = LOG(2)  # min over the formal weights
    paths = []

    def dfs(c, seen, w):
        if len(seen) > 8:
            return
        if c == target:
            paths.append(w)
            return
        for nxt, label in adj[c]:
            if nxt not in seen:
                dfs(nxt, seen | {nxt}, w + G.weight(label))

    dfs(0, {0}, WeightVector.zero())
    assert paths
    assert any(w == d for w in paths)
    for w in paths:
        assert w == d or w >= d + gap


def _reference_dist_from(G, C):
    """Dijkstra on WeightVector sums, keyed on value() floats: the
    engine that DualGraph.dist_from replaced, kept as an oracle."""
    best = {C: WeightVector.zero()}
    done = set()
    heap = [(0.0, C)]
    while heap:
        _f, c = heapq.heappop(heap)
        if c in done:
            continue
        done.add(c)
        for d, label in G.ball.neighbors(c):
            nd = best[c] + G.weight(label)
            if d not in best or nd < best[d]:
                best[d] = nd
                heapq.heappush(heap, (nd.value(), d))
    return best


def _seeded_q(k, seed):
    """Seeded weights: q_i = 1 (weight 0) on one edge, distinct values
    on the others."""
    rng = random.Random(seed)
    q = rng.sample((2, 3, 4, 5, 7, 9), k - 1)
    q.insert(rng.randrange(k), 1)
    return tuple(q)


def _dijkstra_hosts():
    hosts = []
    for m, radius in [((2, 3, 8), 10), ((2, 2, 2, 3), 7), ((3, 3, 4), 9)]:
        ball = CoxeterBall(validate(len(m), m), radius)
        hosts += [mt.DualGraph(ball, q=_seeded_q(len(m), seed)) for seed in (1, 2)]
    hosts.append(mt.DualGraph(rb.ball(validate(5, (2,) * 5, (3, 2, 4, 2, 3)), 3)))
    return hosts


def _sources(G):
    return [0] + random.Random(len(G)).sample(range(1, len(G)), 3)


def test_packed_dijkstra_matches_weightvector_oracle():
    for G in _dijkstra_hosts():
        g = _nx_graph(G)
        for C in _sources(G):
            table = G.dist_from(C)
            assert table == _reference_dist_from(G, C)
            lengths = nx.single_source_dijkstra_path_length(g, C)
            assert table.keys() == lengths.keys()
            assert all(abs(table[c].value() - lengths[c]) < 1e-9 for c in table)
            assert all(G.dist(C, c) == table[c] for c in range(0, len(G), 23))


def test_forced_exact_compares_keep_every_table(monkeypatch):
    hosts = _dijkstra_hosts()
    want = [[G.dist_from(C) for C in _sources(G)] for G in hosts]
    pairs = [[G.dist(C, c) for C in _sources(G) for c in range(0, len(G), 41)] for G in hosts]
    # with a margin of 1 no float gap between nonnegative keys is wide
    # enough, so every unequal relaxation takes the exact comparison
    monkeypatch.setattr(mt, "_MARGIN", 1.0)
    compares = []
    exact_lt = WeightVector.__lt__
    monkeypatch.setattr(WeightVector, "__lt__", lambda a, b: compares.append(1) or exact_lt(a, b))
    assert [[G.dist_from(C) for C in _sources(G)] for G in hosts] == want
    assert [[G.dist(C, c) for C in _sources(G) for c in range(0, len(G), 41)] for G in hosts] == pairs
    assert len(compares) > 1000


def test_words_pairs_take_the_packed_path(monkeypatch):
    # the benchmark's stored pairs on four non-right-angled tessellations:
    # no float gap between distinct distances falls inside the margin
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "words.json"
    cases = []
    for system in json.loads(path.read_text())["systems"]:
        ball = CoxeterBall(parse_chamber_string(system["chamber"]), system["radius"])
        G = mt.DualGraph(ball, q=tuple(system["q"]))
        for pair in system["pairs"]:
            C, D = (ball.index[tuple(w)] for w in pair["chambers"])
            cases.append((G, C, D, G.wall_sum(C, D)))

    def refuse(a, b):
        raise AssertionError("exact comparison of %r and %r" % (a, b))

    monkeypatch.setattr(WeightVector, "__lt__", refuse)
    assert len(cases) == 512
    for G, C, D, want in cases:
        assert G.dist(C, D) == want


def _minw_wall_sum(G, a, b):
    """The wall sum of a chamber pair by the search over reduced words
    (DualGraph._minw), whichever path G itself takes."""
    return G._minw(G.ball.system.canon(G.ball.times(G.ball.inverse(a), b)))


def _check_letter_sum_on_every_pair(G):
    """The letter sum equals the reduced-word search on the W-distance of
    every chamber pair of the ball (each distinct W-distance once)."""
    assert G.letter_sum
    n = len(G)
    words = {G.ball.times(G.ball.inverse(a), b) for a in range(n) for b in range(a, n)}
    for word in words:
        assert G.min_word_weight(word) == G._minw(G.ball.system.canon(word)).pack(G.primes)
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(n), rng.randrange(n)
        assert G.wall_sum(a, b) == _minw_wall_sum(G, a, b)
    return len(words)


@pytest.mark.parametrize("q", [(2, 2, 2, 2, 2), (3, 2, 4, 2, 3)])
def test_letter_sum_matches_minw_on_building_pairs(q):
    G = mt.DualGraph(rb.ball(validate(5, (2,) * 5, q), 3))
    assert _check_letter_sum_on_every_pair(G) > 100


@pytest.mark.parametrize("m, q, radius", [
    ((2, 4, 2, 6), (3, 2, 5, 7), 5),  # all m even: any q
    ((3, 3, 4), (2, 2, 2), 6),  # odd m, q constant on the conjugacy class
])
def test_letter_sum_matches_minw_on_thin_pairs(m, q, radius):
    G = mt.DualGraph(CoxeterBall(validate(len(m), m), radius), q=q)
    assert _check_letter_sum_on_every_pair(G) > 50


@pytest.mark.parametrize("m, q", [
    ((2, 3, 8), (2, 3, 5)),
    ((2, 2, 2, 3), (2, 3, 5, 7)),
    ((3, 3, 4), (5, 3, 2)),
    ((3, 3, 4), (2, 2, 3)),
])
def test_weights_varying_across_an_odd_vertex_take_minw(m, q):
    G = mt.DualGraph(CoxeterBall(validate(len(m), m), 2), q=q)
    assert not G.letter_sum


def test_minw_path_matches_dijkstra(aG):
    # 3;2,3,8 with q = (2, 3, 5): q differs across the m = 3 vertex
    assert not aG.letter_sum
    g = _nx_graph(aG)
    inner = _inner(aG)
    for a in inner:
        lengths = nx.single_source_dijkstra_path_length(g, a)
        for b in inner:
            got = aG.wall_sum(a, b)
            assert abs(got.value() - lengths[b]) < 1e-9
            assert got == _minw_wall_sum(aG, a, b)


def test_minw_path_finds_a_lighter_word_than_shortlex(spec238):
    # q = (2, 5, 3): s2 s3 s2 = s3 s2 s3, whose ShortLex word 2,3,2 weighs
    # 2 log 5 + log 3, while 3,2,3 weighs log 5 + 2 log 3
    G = mt.DualGraph(CoxeterBall(spec238, 3), q=(2, 5, 3))
    assert not G.letter_sum
    c = G.ball.index[(2, 3, 2)]
    assert G.wall_sum(0, c) == G.dist(0, c) == LOG(5) + LOG(3) + LOG(3)


@pytest.mark.parametrize("q, radius", [((2, 2, 2, 2, 2), 3), ((3, 2, 4, 2, 3), 2)])
def test_building_wall_sums_make_no_canon_call(monkeypatch, q, radius):
    # a building's W-distance is the labels of a normal form, already
    # ShortLex, so a wall-sum miss needs no word-problem call
    ball = rb.ball(validate(5, (2,) * 5, q), radius)
    oracle = mt.DualGraph(ball)
    n = len(ball)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    want = [_minw_wall_sum(oracle, a, b) for a, b in pairs]

    def refuse(self, word):
        raise AssertionError("canon called on %s" % (word,))

    monkeypatch.setattr(CoxeterSystem, "canon", refuse)
    G = mt.DualGraph(ball)
    assert [G.wall_sum(a, b) for a, b in pairs] == want
    assert len(G._pair_cache) == len(pairs)
    assert all(type(code) is int for code in G._pair_cache.values())


# ---------------------------------------------------------------------------
# Gromov products on chambers
# ---------------------------------------------------------------------------

def test_gromov_degenerate_cases(aG):
    assert mt.gromov(aG, 5, 5, 0) == aG.dist(5, 0)
    assert mt.gromov(aG, 5, 0, 0) == WeightVector.zero()


def test_gromov_matches_independent_dijkstra(bG):
    g = _nx_graph(bG)
    rng = random.Random(2)
    for _ in range(20):
        x, y, C = (rng.randrange(len(bG)) for _ in range(3))
        got = mt.gromov(bG, x, y, C)
        dx = nx.dijkstra_path_length(g, x, C)
        dy = nx.dijkstra_path_length(g, y, C)
        dxy = nx.dijkstra_path_length(g, x, y)
        assert abs(got.value() - (dx + dy - dxy) / 2) < 1e-9
        assert got >= WeightVector.zero()


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------

def _to_host(chart, chart_chamber):
    """The oracle map of a chart chamber to its host chamber: the chart
    word itself on a thin host, else mapped through alpha (the default
    coloring when the chart has none)."""
    w = chart.realized.ball.words[chart_chamber]
    ball = chart.graph.ball
    if not isinstance(ball, rb.BuildingBall):
        return ball.index.get(w)
    coloring = chart.coloring or rb.ApartmentColoring(system=ball.system, base=(), colors={})
    return ball.index.get(coloring.alpha(w))


def segment_chambers(chart, p, r):
    """Ordered host chambers whose interiors the geodesic segment pr
    meets, traced in the carrying apartment."""
    realized = chart.realized
    cp = gr.locate(realized, p)
    cr = gr.locate(realized, r)
    if cp is None or cr is None:
        raise mt.NoApartment("segment endpoints not inside the carrying apartment")
    length = gr.hyp_distance(p, r)
    if length < 1e-12:
        return [_to_host(chart, cp)]
    t = tuple(r[i] - gr.bform(r, p) * p[i] for i in range(3))
    s = math.sqrt(-gr.bform(t, t))
    tangent = tuple(x / s for x in t)
    crossings = gr.trace(realized, p, 0.0, length, tangent=tangent)
    seq = [_to_host(chart, cp)] + [_to_host(chart, c) for _l, c, _t in crossings]
    if any(c is None for c in seq):
        raise mt.NoApartment("segment leaves the host ball")
    return seq


def test_segment_same_chamber(aG):
    chart = mt.chart_for(aG)
    p = ORIGIN
    r = gr._normalize_point(gr.geodesic_point(p, (0.0, 1.0, 0.0), 0.01))
    assert segment_chambers(chart, p, r) == [0]


def test_segment_adjacent_chambers(aG):
    chart = mt.chart_for(aG)
    realized = chart.realized
    theta = realized.polygon.tangent_dirs[0]
    r = gr._normalize_point(
        gr.geodesic_point(ORIGIN, (0.0, math.cos(theta), math.sin(theta)),
                          1.7 * realized.polygon.inradius)
    )
    seq = segment_chambers(chart, ORIGIN, r)
    assert len(seq) == 2 and seq[0] == 0


@pytest.mark.parametrize("which", ["apartment", "building"])
def test_segment_triple_additivity(which, aG, bG):
    # discrete-geodesic property: distances add over every index triple
    G = aG if which == "apartment" else bG
    chart = mt.chart_for(G)
    inr = chart.realized.polygon.inradius
    rng = random.Random(3)
    checked = 0
    while checked < 10:
        th1, th2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        p = gr._normalize_point(
            gr.geodesic_point(ORIGIN, (0.0, math.cos(th1), math.sin(th1)),
                              rng.uniform(0, 2) * inr)
        )
        r = gr._normalize_point(
            gr.geodesic_point(ORIGIN, (0.0, math.cos(th2), math.sin(th2)),
                              rng.uniform(0, 2) * inr)
        )
        try:
            seq = segment_chambers(chart, p, r)
        except (gr.NearVertex, mt.NoApartment):
            continue
        if len(seq) < 3:
            continue
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                for k in range(j + 1, len(seq)):
                    lhs = G.wall_sum(seq[i], seq[k])
                    rhs = G.wall_sum(seq[i], seq[j]) + G.wall_sum(seq[j], seq[k])
                    assert lhs == rhs
        checked += 1


# ---------------------------------------------------------------------------
# boundary Gromov products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["apartment", "building"])
def test_line_through_interior_gives_zero(which, aG, bG):
    # the two ends of a geodesic through the base chamber's interior
    G = aG if which == "apartment" else bG
    chart = mt.chart_for(G)
    for theta in (0.35, 1.2, 2.8, 4.4):
        xi = _ray(chart, ORIGIN, theta)
        eta = _ray(chart, ORIGIN, theta + math.pi)
        got = mt.boundary_gromov(G, xi, eta, 0)
        assert got.value == WeightVector.zero()


def test_identical_directions_rejected(aG):
    chart = mt.chart_for(aG)
    xi = _ray(chart, ORIGIN, 1.0)
    with pytest.raises(ValueError):
        mt.boundary_gromov(aG, xi, _ray(chart, ORIGIN, 1.0), 0)


@pytest.fixture(scope="module")
def tangent_rays(pentagon_thick):
    # two rays from the chart origin with the same theta and base, told
    # apart only by their tangents, on the thick pentagon at R=4
    G = mt.DualGraph(rb.ball(pentagon_thick, 4))
    chart = mt.chart_for(G)
    return G, [
        _ray(chart, ORIGIN, 0.0, tangent=(0.0, math.cos(a), math.sin(a))) for a in (0.3, 2.9)
    ]


def test_tangent_rays_are_distinct_boundary_points(tangent_rays):
    G, (xi, eta) = tangent_rays
    assert xi.chamber_sequence() == [0, 1, 13, 71, 391]
    assert eta.chamber_sequence() == [0, 5, 41, 239, 1279]
    assert mt.boundary_gromov(G, xi, eta, 0).value == WeightVector.zero()
    with pytest.raises(ValueError):
        mt.boundary_gromov(G, xi, _ray(xi.chart, ORIGIN, 0.0, tangent=xi.tangent), 0)


def test_wall_side_test_follows_the_tangent(tangent_rays):
    _G, (xi, _eta) = tangent_rays
    realized = xi.chart.realized
    sysc = realized.ball.system
    crossings = gr.trace(realized, ORIGIN, 0.0, 1e9, tangent=xi.tangent, stop_at_boundary=True)
    chambers = [0] + [c for _l, c, _t in crossings]
    for s in range(1, 6):
        sides = {(s,) in sysc.inversions(realized.ball.words[c]) for c in chambers}
        assert mt._stays_off_wall(xi, (s,)) == (len(sides) == 1) == (s >= 3)


def test_boundary_gromov_stable_under_restart(aG):
    chart = mt.chart_for(aG)
    theta = 0.9
    xi = _ray(chart, ORIGIN, theta)
    eta = _ray(chart, ORIGIN, theta + math.pi - 0.4)
    v0 = mt.boundary_gromov(aG, xi, eta, 0).value
    # restart xi from a point further along the same geodesic
    base2 = gr._normalize_point(
        gr.geodesic_point(ORIGIN, (0.0, math.cos(theta), math.sin(theta)), 0.05)
    )
    xi2 = _ray(chart, base2, theta)
    assert mt.boundary_gromov(aG, xi2, eta, 0).value == v0


def _ascending_tail_scan(vals, min_tail=2):
    """Oracle: the least i0 < h - min_tail whose whole tail square is
    constant, found by checking every tail; (value, i0) or None."""
    h = len(vals)
    for i0 in range(h - min_tail):
        tail = [vals[i][j] for i in range(i0, h) for j in range(i0, h)]
        if all(v == tail[0] for v in tail):
            return tail[0], i0
    return None


def _tail(vals):
    """mt._stable_tail of a whole table: zero columns, negated wall sums."""
    h = len(vals)
    return mt._stable_tail([0] * h, [0] * h, [-v for row in vals for v in row], h)


def _expect_stable(vals):
    value, index = _tail(vals)
    return (value, index) if index < len(vals) - 2 else None


def test_stable_tail_matches_ascending_scan_on_built_tables():
    rng = random.Random(11)
    for _ in range(2000):
        h = rng.randint(3, 9)
        i_true = rng.randrange(h)
        v = rng.choice([0, 1, 2])
        # constant from i_true on; entries before it mostly, not always, differ
        vals = [
            [v if min(i, j) >= i_true else rng.choice([v, v, 1, 3]) for j in range(h)]
            for i in range(h)
        ]
        assert _expect_stable(vals) == _ascending_tail_scan(vals)
    # a constant table, one stray corner, a stray entry below the diagonal
    assert _tail([[5] * 4 for _ in range(4)]) == (5, 0)
    assert _tail([[1, 1, 1], [1, 1, 1], [1, 1, 2]]) == (2, 2)
    assert _ascending_tail_scan([[1, 1, 1], [1, 1, 1], [1, 1, 2]]) is None
    vals = [[0] * 5 for _ in range(5)]
    vals[2][1] = 7
    assert _tail(vals) == _ascending_tail_scan(vals) == (0, 2)


@pytest.mark.parametrize("which", ["apartment", "building"])
def test_boundary_gromov_matches_ascending_scan_on_rays(which, aG, bG):
    G = aG if which == "apartment" else bG
    chart = mt.chart_for(G)
    rng = random.Random(12)
    inr = chart.realized.polygon.inradius
    compared = stabilized = 0
    while compared < 24:
        th0 = rng.uniform(0, 2 * math.pi)
        base = gr._normalize_point(gr.geodesic_point(
            ORIGIN, (0.0, math.cos(th0), math.sin(th0)), rng.uniform(0, 0.5) * inr))
        xi = _ray(chart, base, rng.uniform(0, 2 * math.pi))
        eta = _ray(chart, ORIGIN, rng.uniform(0, 2 * math.pi))
        C = rng.choice(_inner(G)[:6])
        try:
            Ci, Dj = xi.chamber_sequence(), eta.chamber_sequence()
        except (gr.NearVertex, gr.LeftBall):
            continue
        h = min(len(Ci), len(Dj))
        d = partial(_minw_wall_sum, G)
        vals = [
            [(d(Ci[i], C) + d(Dj[j], C) - d(Ci[i], Dj[j])).halve() for j in range(h)]
            for i in range(h)
        ]
        want = _ascending_tail_scan(vals) if h >= 3 else None
        if want is None:
            with pytest.raises(mt.NoStabilization):
                mt.boundary_gromov(G, xi, eta, C)
        else:
            got = mt.boundary_gromov(G, xi, eta, C)
            assert (got.value, got.index, got.horizon) == (*want, h)
            stabilized += 1
        compared += 1
    assert stabilized >= 12


# ---------------------------------------------------------------------------
# Busemann cocycles
# ---------------------------------------------------------------------------

def test_busemann_same_chamber_zero(bG):
    chart = mt.chart_for(bG)
    xi = _ray(chart, ORIGIN, 0.7)
    assert mt.busemann(bG, xi, 3, 3) == WeightVector.zero()


def test_busemann_cocycle(bG):
    chart = mt.chart_for(bG)
    xi = _ray(chart, ORIGIN, 2.1)
    inner = _inner(bG)
    rng = random.Random(4)
    for _ in range(10):
        C, D, E = (rng.choice(inner) for _ in range(3))
        assert mt.busemann(bG, xi, C, E) == (
            mt.busemann(bG, xi, C, D) + mt.busemann(bG, xi, D, E)
        )


def _ascending_busemann_scan(vals, min_tail=2):
    """Oracle: the first entry of the least tail vals[i0:], i0 < h -
    min_tail, that is constant, found by checking every tail; None when
    there is none."""
    for i0 in range(len(vals) - min_tail):
        tail = vals[i0:]
        if all(v == tail[0] for v in tail):
            return tail[0]
    return None


def test_stable_suffix_matches_ascending_scan_on_sequences():
    rng = random.Random(13)
    for _ in range(2000):
        h = rng.randint(1, 9)
        i_true = rng.randrange(h)
        v = rng.choice([0, 1, 2])
        # constant from i_true on; entries before it mostly, not always, differ
        vals = [v if i >= i_true else rng.choice([v, 1, 3]) for i in range(h)]
        value, index = mt._stable_suffix(vals)
        got = value if index < h - 2 else None
        assert got == _ascending_busemann_scan(vals)
        assert vals[index:] == [value] * (h - index)
        assert index == 0 or vals[index - 1] != value
    assert mt._stable_suffix([4]) == (4, 0)
    assert mt._stable_suffix([1, 2, 2, 2]) == (2, 1)


@pytest.mark.parametrize("which", ["apartment", "building"])
def test_busemann_matches_ascending_scan_on_rays(which, aG, bG):
    G = aG if which == "apartment" else bG
    chart = mt.chart_for(G)
    rng = random.Random(14)
    inr = chart.realized.polygon.inradius
    inner = _inner(G)
    compared = stabilized = 0
    while compared < 24:
        th0 = rng.uniform(0, 2 * math.pi)
        base = gr._normalize_point(gr.geodesic_point(
            ORIGIN, (0.0, math.cos(th0), math.sin(th0)), rng.uniform(0, 0.5) * inr))
        xi = _ray(chart, base, rng.uniform(0, 2 * math.pi))
        C, D = rng.choice(inner), rng.choice(inner)
        try:
            Ci = xi.chamber_sequence()
        except (gr.NearVertex, gr.LeftBall):
            continue
        vals = [G.wall_sum(D, c) - G.wall_sum(C, c) for c in Ci]
        want = _ascending_busemann_scan(vals) if len(Ci) >= 3 else None
        if want is None:
            with pytest.raises(mt.NoStabilization):
                mt.busemann(G, xi, C, D)
        else:
            assert mt.busemann(G, xi, C, D) == want
            stabilized += 1
        compared += 1
    assert stabilized >= 12


def _edge_midpoint_rays(G):
    """Rays from the midpoint of the base chamber's edge 1 into each of
    the three chambers of its panel (base, mirror, branch), plus the
    host chamber pair (C1, C2) on that edge."""
    chart0 = mt.chart_for(G)
    realized = chart0.realized
    ball = G.ball
    mid, _along = mt._wall_frame(realized, 1)
    C1 = ball.index[()]
    C2 = ball.index[rb.normal_form(((1, 1),), G.spec)]
    C3 = ball.index[rb.normal_form(((1, 2),), G.spec)]
    inr = realized.polygon.inradius
    # start just inside each carrying chamber, aiming near its incenter
    # (slightly off-center, so the continuation avoids symmetry vertices)
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
    return (xi1, xi2, xi3), (C1, C2, C3)


def test_busemann_edge_trichotomy(bG):
    # comparing the two chambers C1, C2 on an edge along rays entering
    # each of the three panel chambers: log q, -log q, 0
    (xi1, xi2, xi3), (C1, C2, _C3) = _edge_midpoint_rays(bG)
    assert [x.chamber_sequence()[0] for x in (xi1, xi2, xi3)] == [C1, C2, _C3]
    assert mt.busemann(bG, xi1, C1, C2) == LOG(2)
    assert mt.busemann(bG, xi2, C1, C2) == -LOG(2)
    assert mt.busemann(bG, xi3, C1, C2) == WeightVector.zero()


def test_base_change_identity(bG):
    # {xi|eta}_E' = {xi|eta}_E + (B_xi(E,E') + B_eta(E,E')) / 2
    chart = mt.chart_for(bG)
    inner = _inner(bG)
    rng = random.Random(5)
    checked = 0
    while checked < 8:
        th = rng.uniform(0, 2 * math.pi)
        xi = _ray(chart, ORIGIN, th)
        eta = _ray(chart, ORIGIN, th + math.pi + rng.uniform(0.2, 0.6))
        E, Ep = rng.choice(inner), rng.choice(inner)
        try:
            lhs = mt.boundary_gromov(bG, xi, eta, Ep).value
            rhs = mt.boundary_gromov(bG, xi, eta, E).value + (
                mt.busemann(bG, xi, E, Ep) + mt.busemann(bG, eta, E, Ep)
            ).halve()
        except mt.NoStabilization:
            continue
        assert lhs == rhs
        checked += 1


# ---------------------------------------------------------------------------
# cross ratios
# ---------------------------------------------------------------------------

def _random_quadruple(G, chart, rng):
    inr = chart.realized.polygon.inradius
    rays = []
    for _ in range(4):
        th0 = rng.uniform(0, 2 * math.pi)
        d = rng.uniform(0, 0.5) * inr
        base = gr._normalize_point(
            gr.geodesic_point(ORIGIN, (0.0, math.cos(th0), math.sin(th0)), d)
        )
        rays.append(_ray(chart, base, rng.uniform(0, 2 * math.pi)))
    return rays


def test_boundary_products_read_no_cells(no_cells, no_realize, monkeypatch, pentagon_thick):
    # a fresh cache, so the chart is made under the hooks: its ball builds
    # no cells, and no ball is realized on the ray path
    monkeypatch.setattr(mt, "_REALIZED_CACHE", {})
    G = mt.DualGraph(rb.ball(pentagon_thick, 4))
    chart = mt.chart_for(G)
    rays = [_ray(chart, ORIGIN, t) for t in (0.3, 1.9, 3.4, 5.0)]
    mt.cross_ratio(G, *rays, 0)
    mt.busemann(G, _ray(chart, ORIGIN, 0.7), 0, 1)
    rep = mt.detect_skeleton_experiment(G, ("wall", 1), samples=6, seed=0)
    assert rep["samples"] + len(rep["errors"]) == 6


@pytest.mark.parametrize("k,m,radius", [(5, (2, 2, 2, 2, 2), 8), (3, (2, 3, 8), 24)])
def test_traced_rays_never_revisit_a_chamber(k, m, radius):
    # a geodesic crosses each wall at most once, so a traced ray never
    # enters a chart chamber twice, however far it runs
    chart = mt.realized_apartment(validate(k, m), radius)
    rng = random.Random(1)
    traced = 0
    for _ in range(1000):
        phi, d = rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.2)
        base = (math.cosh(d), math.sinh(d) * math.cos(phi), math.sinh(d) * math.sin(phi))
        try:
            crossings = gr.trace(
                chart, base, rng.uniform(0, 2 * math.pi), 1e9, stop_at_boundary=True
            )
        except gr.NearVertex:
            continue
        chambers = [gr.locate(chart, base)] + [c for _l, c, _t in crossings]
        assert len(set(chambers)) == len(chambers)
        traced += 1
    assert traced >= 990


@pytest.mark.parametrize("k,m,radius", [(3, (2, 3, 8), 4), (4, (2, 4, 2, 6), 3), (5, (2,) * 5, 3)])
def test_on_demand_chart_matches_a_full_ball_chart(k, m, radius):
    # seeded rays through the default chart, stepped on demand, and
    # through a full CoxeterBall of the same radius: the same chart words
    # and host chambers, or the same NearVertex or LeftBall
    spec = validate(k, m)
    G = mt.DualGraph(CoxeterBall(spec, radius))
    chart = mt.chart_for(G)
    polygon = chart.realized.polygon
    full = mt.ApartmentChart(G, mt.Apartment(CoxeterBall(spec, radius + 3), polygon))
    rng = random.Random(25 * k + radius)
    kinds = {}
    for _ in range(150):
        phi, d = rng.uniform(0, 2 * math.pi), rng.uniform(0, 12) * polygon.inradius
        base = (math.cosh(d), math.sinh(d) * math.cos(phi), math.sinh(d) * math.sin(phi))
        theta = rng.uniform(0, 2 * math.pi)
        outcomes = []
        for c in (chart, full):
            ray = _ray(c, base, theta)
            try:
                words = [c.realized.ball.words[x] for x in ray.chart_chambers()]
                outcomes.append((words, ray.chamber_sequence()))
            except (gr.NearVertex, gr.LeftBall) as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1]
        kind = outcomes[0][0] if isinstance(outcomes[0][0], str) else "ray"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["ray"] > 60 and kinds.get("LeftBall", 0) > 5


# sha256 of the cross ratios, Busemann values and host sequences of the
# benchmark's 240 stored boundary quadruples (perfbench/inputs)
STORED_BOUNDARY_SHA256 = "207403bd7be78ede604fca3da13bed74a5462c14161e1cc2ff215119516fca41"


def test_stored_boundary_quadruples_are_pinned():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "boundary.json"
    data = json.loads(path.read_text())
    ball = rb.ball(parse_chamber_string(data["spec"]), data["radius"])
    G = mt.DualGraph(ball)
    chart = mt.chart_for(G, data["chart_radius"])

    def index(word):
        return ball.index[tuple(tuple(letter) for letter in word)]

    out = []
    for quad in data["quadruples"]:
        rays = [mt.RaySpec(chart=chart, base=tuple(r[:3]), theta=r[3]) for r in quad["rays"]]
        bases = [0] + [index(w) for w in quad["bases"]]
        C, D, E = (index(w) for w in quad["busemann"])
        out.append({
            "cross": [mt.cross_ratio(G, *rays, c).to_json() for c in bases],
            "busemann": [mt.busemann(G, rays[0], a, b).to_json() for a, b in ((C, D), (D, E), (C, E))],
            "hosts": [ray.chamber_sequence() for ray in rays],
        })
    assert len(out) == 240
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == STORED_BOUNDARY_SHA256


# ---------------------------------------------------------------------------
# boundary products on shared tables
# ---------------------------------------------------------------------------

def _per_base_gromov(G, xi, eta, C):
    """Oracle: boundary_gromov with every wall sum of its table read
    afresh at each base, as before the tables were shared; (value,
    index, horizon)."""
    mt._require_distinct(xi, eta)
    Ci = xi.chamber_sequence()
    Dj = eta.chamber_sequence()
    horizon = min(len(Ci), len(Dj))
    if horizon < mt._MIN_TAIL + 1:
        raise mt.NoStabilization("ray horizon too short", (len(Ci), len(Dj)))
    code = G.wall_code
    Ci, Dj = Ci[:horizon], Dj[:horizon]
    dC = [code(c, C) for c in Ci]
    dD = [code(d, C) for d in Dj]
    vals = [[dc + dd - code(c, d) for d, dd in zip(Dj, dD)] for c, dc in zip(Ci, dC)]
    stable = _ascending_tail_scan(vals, mt._MIN_TAIL)
    if stable is None:
        raise mt.NoStabilization(
            "boundary Gromov product did not stabilize within the horizon",
            {"horizon": horizon},
        )
    twice, index = stable
    return WeightVector.unpack(twice, G.primes).halve(), index, horizon


def _per_base_cross_ratio(G, xi1, xi2, eta1, eta2, C):
    a = _per_base_gromov(G, xi1, eta1, C)[0]
    b = _per_base_gromov(G, xi2, eta2, C)[0]
    c = _per_base_gromov(G, xi1, eta2, C)[0]
    d = _per_base_gromov(G, xi2, eta1, C)[0]
    return -a - b + c + d


def _per_base_busemann(G, xi, C, D):
    Ci = xi.chamber_sequence()
    horizon = len(Ci)
    if horizon < mt._MIN_TAIL + 1:
        raise mt.NoStabilization("ray horizon too short", horizon)
    code = G.wall_code
    vals = [code(D, c) - code(C, c) for c in Ci]
    value, index = mt._stable_suffix(vals)
    if index >= horizon - mt._MIN_TAIL:
        raise mt.NoStabilization(
            "Busemann value did not stabilize",
            [WeightVector.unpack(v, G.primes) for v in vals[-3:]],
        )
    return WeightVector.unpack(value, G.primes)


def _outcome(fn, *args):
    """A product's value, index and horizon, a value, or the type,
    message and detail of the exception it raised."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "detail", None)
    if isinstance(out, mt.Stabilized):
        return out.value, out.index, out.horizon
    return out


def _check_against_per_base(G, rays, bases):
    """Every product, cross ratio and Busemann value of one quadruple at
    each base, in both ray orders and with xi1, xi2 swapped, against the
    per-base oracle; returns how many products stabilized."""
    xi1, xi2, eta1, eta2 = rays
    stable = 0
    for C, D in zip(bases, bases[1:] + bases[:1]):
        for x, y in ((xi1, eta1), (eta1, xi1), (xi2, eta2), (eta2, xi2),
                     (xi1, eta2), (eta2, xi1), (xi2, eta1), (eta1, xi2)):
            got = _outcome(mt.boundary_gromov, G, x, y, C)
            assert got == _outcome(_per_base_gromov, G, x, y, C)
            stable += isinstance(got[0], WeightVector)
        for quad in ((xi1, xi2, eta1, eta2), (xi2, xi1, eta1, eta2)):
            assert _outcome(mt.cross_ratio, G, *quad, C) == _outcome(_per_base_cross_ratio, G, *quad, C)
        for ray in rays:
            assert _outcome(mt.busemann, G, ray, C, D) == _outcome(_per_base_busemann, G, ray, C, D)
    return stable


@pytest.mark.parametrize("host", ["pentagon-R4", "q32423-R3", "238-q235-R4"])
def test_shared_products_match_the_per_base_oracle(host, pentagon_thick, spec238):
    if host == "pentagon-R4":
        G = mt.DualGraph(rb.ball(pentagon_thick, 4))
    elif host == "q32423-R3":
        G = mt.DualGraph(rb.ball(validate(5, (2,) * 5, (3, 2, 4, 2, 3)), 3))
    else:
        G = mt.DualGraph(CoxeterBall(spec238, 4), q=(2, 3, 5))
        assert not G.letter_sum  # wall sums by the reduced-word search
    chart = mt.chart_for(G)
    rng = random.Random(2701)
    inner = _inner(G)
    stable = 0
    for _ in range(10):
        rays = _random_quadruple(G, chart, rng)
        stable += _check_against_per_base(G, rays, [0] + rng.sample(inner[1:], 3))
    assert stable >= 100


def test_shared_tables_are_kept_per_graph(spec238):
    # the same rays on two graphs of one ball: each product reads its own
    # graph's wall sums, whichever graph read the rays first
    ball = CoxeterBall(spec238, 4)
    graphs = mt.DualGraph(ball, q=(2, 3, 5)), mt.DualGraph(ball, q=(7, 2, 3))
    chart = mt.chart_for(graphs[0])
    rng = random.Random(2702)
    inner = _inner(graphs[0])
    differ = 0
    for _ in range(8):
        rays = _random_quadruple(graphs[0], chart, rng)
        bases = [0] + rng.sample(inner[1:], 3)
        for G in graphs[::rng.choice((1, -1))]:
            _check_against_per_base(G, rays, bases)
        for x, y in ((0, 2), (1, 3), (0, 3), (1, 2)):
            values = [_outcome(mt.boundary_gromov, G, rays[x], rays[y], bases[1]) for G in graphs]
            differ += values[0] != values[1]
    assert differ >= 4


def test_rays_are_freed_by_refcounting_after_shared_products(bG):
    chart = mt.chart_for(bG)
    rays = [_ray(chart, ORIGIN, t) for t in (0.3, 1.9, 3.4, 5.0)]
    gc.disable()
    try:
        # both orders of every pair, so a table kept on both rays would
        # leave a cycle for gc
        for C in (0, 3):
            mt.cross_ratio(bG, *rays, C)
            mt.cross_ratio(bG, rays[2], rays[3], rays[0], rays[1], C)
        mt.busemann(bG, rays[0], 0, 3)
        assert rays[0]._columns and any(ray._tables for ray in rays)
        refs = [weakref.ref(ray) for ray in rays]
        del rays
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def test_stored_cross_ratios_at_four_bases_share_their_tables(monkeypatch):
    # 16 products per quadruple, but each pair table (at most L^2 wall
    # sums) is read once and each base column (L) once per ray and base
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "boundary.json"
    data = json.loads(path.read_text())
    ball = rb.ball(parse_chamber_string(data["spec"]), data["radius"])
    G = mt.DualGraph(ball)
    chart = mt.chart_for(G, data["chart_radius"])
    calls = {"wall_code": 0, "boundary_gromov": 0}
    wall_code, boundary_gromov = mt.DualGraph.wall_code, mt.boundary_gromov

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mt.DualGraph, "wall_code", counted("wall_code", wall_code))
    monkeypatch.setattr(mt, "boundary_gromov", counted("boundary_gromov", boundary_gromov))
    for quad in data["quadruples"][:40]:
        rays = [mt.RaySpec(chart=chart, base=tuple(r[:3]), theta=r[3]) for r in quad["rays"]]
        bases = [0] + [ball.index[tuple(tuple(x) for x in w)] for w in quad["bases"]]
        calls.update(wall_code=0, boundary_gromov=0)
        values = {mt.cross_ratio(G, *rays, C) for C in bases}
        L = max(len(ray.chamber_sequence()) for ray in rays)
        assert len(values) == 1
        assert calls["boundary_gromov"] == 16
        assert calls["wall_code"] <= 4 * L * L + 16 * L


def _alpha_sequence(ray):
    """The host sequence with every chart chamber mapped by _to_host."""
    seq = []
    for c in ray.chart_chambers():
        h = _to_host(ray.chart, c)
        if h is None:
            break
        seq.append(h)
    return seq


def test_stored_rays_step_their_host_chambers(monkeypatch):
    # the 960 stored rays' host sequences, first through alpha, then with
    # canon and alpha refusing: the default chart steps the host's table
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "boundary.json"
    data = json.loads(path.read_text())
    G = mt.DualGraph(rb.ball(parse_chamber_string(data["spec"]), data["radius"]))
    chart = mt.chart_for(G, data["chart_radius"])
    rays = [tuple(r) for quad in data["quadruples"] for r in quad["rays"]]
    want = [_alpha_sequence(_ray(chart, r[:3], r[3])) for r in rays]

    def refuse(self, word):
        raise AssertionError("called on %s" % (word,))

    monkeypatch.setattr(CoxeterSystem, "canon", refuse)
    monkeypatch.setattr(rb.ApartmentColoring, "alpha", refuse)
    assert [_ray(chart, r[:3], r[3]).chamber_sequence() for r in rays] == want
    assert len(want) == 960 and sum(map(len, want)) > 3 * 960


@pytest.mark.parametrize("k,m,radius", [(3, (2, 3, 8), 6), (4, (2, 4, 2, 6), 5), (5, (2,) * 5, 4)])
def test_thin_host_steps_match_index_lookups(k, m, radius):
    G = mt.DualGraph(CoxeterBall(validate(k, m), radius))
    chart = mt.chart_for(G)
    words = chart.realized.ball.words
    rng = random.Random(radius)
    checked = 0
    for _ in range(100):
        phi, d = rng.uniform(0, 2 * math.pi), rng.uniform(0, 1.5) * chart.realized.polygon.inradius
        base = (math.cosh(d), math.sinh(d) * math.cos(phi), math.sinh(d) * math.sin(phi))
        ray = _ray(chart, base, rng.uniform(0, 2 * math.pi))
        try:
            seq = ray.chamber_sequence()
        except gr.NearVertex:
            continue
        want = []
        for c in ray.chart_chambers():
            if words[c] not in G.ball.index:
                break
            want.append(G.ball.index[words[c]])
        assert seq == want
        checked += len(seq) > 2
    assert checked > 80


def test_colored_charts_map_through_alpha(monkeypatch, pentagon_thick):
    G = mt.DualGraph(rb.ball(pentagon_thick, 4))
    branch = mt._panel_charts(G, mt.chart_for(G), 0, 1)
    calls = []
    alpha = rb.ApartmentColoring.alpha

    def counted(self, w):
        calls.append(w)
        return alpha(self, w)

    monkeypatch.setattr(rb.ApartmentColoring, "alpha", counted)
    for chart, color in branch:
        # a ray out of the base chamber across edge 1, into the colored panel
        ray = _ray(chart, ORIGIN, 0.1)
        calls.clear()
        seq = ray.chamber_sequence()
        # the ray path steps the host table: no alpha call
        assert not calls and len(seq) > 2
        assert seq == _alpha_sequence(ray)
        assert G.ball.words[seq[1]] == ((1, color),)


@pytest.mark.parametrize("q", [(2,) * 5, (3, 2, 4, 2, 3)])
def test_panel_chart_rays_step_like_alpha(monkeypatch, q):
    # seeded rays on the default chart and on every panel chart of a few
    # chart chambers x labels 1-5; bases up to 3 inradii out, so many
    # crossings shorten the chart word
    G = mt.DualGraph(rb.ball(validate(5, (2,) * 5, q), 4))
    chart0 = mt.chart_for(G)
    realized = chart0.realized
    rng = random.Random(len(G))

    def seeded_base():
        phi, d = rng.uniform(0, 2 * math.pi), rng.uniform(0, 3) * realized.polygon.inradius
        return (math.cosh(d), math.sinh(d) * math.cos(phi), math.sinh(d) * math.sin(phi))

    charts = [chart0]
    for _ in range(6):
        cc = gr.locate(realized, seeded_base())
        for label in range(1, 6):
            charts += [chart for chart, _color in mt._panel_charts(G, chart0, cc, label)]
    rays = [
        (chart, seeded_base(), rng.uniform(0, 2 * math.pi)) for chart in charts for _ in range(20)
    ]
    want = []
    for chart, base, theta in rays:
        try:
            want.append(_alpha_sequence(_ray(chart, base, theta)))
        except gr.NearVertex:
            want.append(None)

    def refuse(self, w):
        raise AssertionError("alpha called on %s" % (w,))

    monkeypatch.setattr(rb.ApartmentColoring, "alpha", refuse)
    words = realized.ball.words
    shortening = 0
    for (chart, base, theta), seq in zip(rays, want):
        if seq is None:
            continue
        ray = _ray(chart, base, theta)
        assert ray.chamber_sequence() == seq
        chambers = ray.chart_chambers()[:len(seq)]
        shortening += sum(len(words[b]) < len(words[a]) for a, b in zip(chambers, chambers[1:]))
    assert len(charts) > 40 and sum(s is not None for s in want) > 0.9 * len(rays)
    assert shortening >= 300


def test_wall_sums_normalize_each_inverse_once(monkeypatch, pentagon_thick):
    ball = rb.ball(pentagon_thick, 3)
    n = len(ball)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    random.Random(3).shuffle(pairs)
    want = [_minw_wall_sum(mt.DualGraph(ball), a, b) for a, b in pairs]
    calls = []
    inverse_word = rb.inverse_word

    def counted(word, spec):
        calls.append(word)
        return inverse_word(word, spec)

    monkeypatch.setattr(rb, "inverse_word", counted)
    for _ in range(2):
        calls.clear()
        G = mt.DualGraph(ball)
        assert [G.wall_sum(a, b) for a, b in pairs] == want
        # one inverse per chamber and graph, kept on the graph
        assert sorted(calls) == sorted(ball.words)
        assert len(G._inverses) == n


def test_cross_ratio_all_through_interior_is_zero(bG):
    chart = mt.chart_for(bG)
    rays = [_ray(chart, ORIGIN, t) for t in (0.3, 1.1, 2.5, 4.0)]
    assert mt.cross_ratio(bG, *rays, 0) == WeightVector.zero()


def test_cross_ratio_base_independence_and_antisymmetry(bG):
    chart = mt.chart_for(bG)
    inner = _inner(bG)
    rng = random.Random(6)
    done = 0
    while done < 5:
        x1, x2, e1, e2 = _random_quadruple(bG, chart, rng)
        try:
            v = mt.cross_ratio(bG, x1, x2, e1, e2, 0)
            for C in inner[:5]:
                assert mt.cross_ratio(bG, x1, x2, e1, e2, C) == v
            assert mt.cross_ratio(bG, x1, x2, e2, e1, 0) == -v
        except (mt.NoStabilization, gr.NearVertex, gr.LeftBall):
            continue
        done += 1


# ---------------------------------------------------------------------------
# growth and the quasi-metric surrogate
# ---------------------------------------------------------------------------

def test_growth_basics(bG):
    assert mt.growth(bG, 0) == 1
    # unit weight log 2 < 1 < 2 log 2: distance <= 1 means one step
    assert mt.growth(bG, 1) == 1 + sum(bG.spec.q)
    vals = [mt.growth(bG, n * 0.5) for n in range(6)]
    assert vals == sorted(vals)


def test_growth_horizon_guard(bG):
    with pytest.raises(mt.HorizonTooSmall):
        mt.growth(bG, 10)


def _growth_per_n(G, dist, n):
    """Oracle: growth as it filtered the distances `dist` from chamber 0
    for each n, before the counts shared one sorted table."""
    within = [c for c, d in dist.items() if d.value() <= n + 1e-9]
    if not all(G.ball.is_inner[c] for c in within):
        raise mt.HorizonTooSmall("ball radius too small: boundary chambers within distance %s" % n)
    return len(within)


@pytest.mark.parametrize("which", ["apartment", "building"])
def test_growth_counter_matches_one_dijkstra_per_n(which, aG, bG):
    # the same counts and the same HorizonTooSmall, at grid points that
    # fall on distances, 1e-9 beside them, and between them
    G = aG if which == "apartment" else bG
    count, dist = mt.growth_counter(G), G.dist_from(0)
    dists = sorted({d.value() for d in dist.values()})
    grid = [i * 0.1 for i in range(60)] + [v + e for v in dists[:40] for e in (0, -1e-9, -2e-9, 1e-12)]
    outcomes = {}
    for n in grid:
        got, want = _outcome(count, n), _outcome(_growth_per_n, G, dist, n)
        assert got == want
        outcomes[type(want).__name__] = outcomes.get(type(want).__name__, 0) + 1
    assert outcomes["int"] > 30 and outcomes["tuple"] > 5


def test_tau_estimate_reports_non_converged(bG):
    est = mt.tau_estimate(bG, 3)
    assert est.converged is False
    assert len(est.values) == 3
    assert all(float(v) > 0 for _n, v in est.values)
    assert "not certified" in est.note


def quasi_dist(G, xi, eta, C, tau_hat):
    """Quasi-metric surrogate exp(-tau_hat * {xi|eta}_C) of the visual
    metric."""
    mt._require_distinct(xi, eta)
    value = mt.boundary_gromov(G, xi, eta, C).value
    return math.exp(-tau_hat * value.value())


def test_quasi_dist_basics(bG):
    chart = mt.chart_for(bG)
    xi = _ray(chart, ORIGIN, 0.4)
    eta = _ray(chart, ORIGIN, 0.4 + math.pi)
    # zero Gromov product -> surrogate distance exactly 1
    assert quasi_dist(bG, xi, eta, 0, 0.8) == 1.0
    with pytest.raises(ValueError):
        quasi_dist(bG, xi, xi, 0, 0.8)


def test_quasi_dist_base_change_ratio(bG):
    # ratio of surrogate distances under a base change follows the
    # Busemann correction exp(-tau * (B_xi + B_eta)/2)
    chart = mt.chart_for(bG)
    xi = _ray(chart, ORIGIN, 1.0)
    eta = _ray(chart, ORIGIN, 1.0 + math.pi - 0.5)
    tau = 0.73
    C, D = 0, _inner(bG)[3]
    ratio = quasi_dist(bG, xi, eta, D, tau) / quasi_dist(bG, xi, eta, C, tau)
    corr = (mt.busemann(bG, xi, C, D) + mt.busemann(bG, eta, C, D)).halve()
    assert abs(ratio - math.exp(-tau * corr.value())) < 1e-9


# ---------------------------------------------------------------------------
# detection experiments (small smoke runs; full runs are acceptance-level)
# ---------------------------------------------------------------------------

def test_detect_skeleton_generic_line_zero(bG):
    rep = mt.detect_skeleton_experiment(bG, ("generic", 0.77), samples=6, seed=1)
    assert rep["pass"]
    assert all(v.is_zero() for v in rep["observed"])


def test_detect_skeleton_wall_lattice(bG):
    rep = mt.detect_skeleton_experiment(bG, ("wall", 2), samples=12, seed=0)
    assert rep["samples"] >= 8
    for v in rep["observed"]:
        assert v.multiple_of_half_log(2) is not None
    assert any(not v.is_zero() for v in rep["observed"])


def test_detect_side_explicit_pairs(bG):
    chart0 = mt.chart_for(bG)
    realized = chart0.realized
    mid, along = mt._wall_frame(realized, 1)
    normal = realized.polygon.normals[0]
    inr = realized.polygon.inradius
    neg = tuple(-x for x in along)
    tn = math.atan2(neg[2], neg[1])
    b1 = mt._offset_point(mid, neg, 0.3 * inr, normal, 0.1 * inr)
    b2 = mt._offset_point(mid, neg, 0.3 * inr, normal, -0.1 * inr)
    x1 = _ray(chart0, b1, tn + 0.3)
    same = mt.detect_side_experiment(bG, 1, xi1=x1, xi2=_ray(chart0, b1, tn + 0.45))
    assert same["pass"] and same["records"][0]["same_side"]
    diff = mt.detect_side_experiment(bG, 1, xi1=x1, xi2=_ray(chart0, b2, tn - 0.35))
    assert diff["pass"] and not diff["records"][0]["same_side"]
    assert diff["records"][0]["distinct_values"] >= 2


def test_detect_side_wall_crossing_rejected(bG):
    chart0 = mt.chart_for(bG)
    realized = chart0.realized
    mid, along = mt._wall_frame(realized, 1)
    normal = realized.polygon.normals[0]
    inr = realized.polygon.inradius
    neg = tuple(-x for x in along)
    tn = math.atan2(neg[2], neg[1])
    b1 = mt._offset_point(mid, neg, 0.3 * inr, normal, 0.1 * inr)
    crossing = _ray(chart0, b1, tn - 0.3)  # tilts back across the wall
    with pytest.raises(mt.HypothesisFail):
        mt.detect_side_experiment(bG, 1, xi1=_ray(chart0, b1, tn + 0.3),
                                  xi2=crossing)


def test_detect_side_sampling_report(bG):
    rep = mt.detect_side_experiment(bG, 1, configs=6, seed=0)
    assert rep["pass"]
    kinds = {r["kind"] for r in rep["records"] if "kind" in r}
    assert {"same", "opposite", "branch"} <= kinds


# sha256 of the repr of every per-sample result of the seeded detection
# experiments on two R=4 buildings, labels 1-5: (q, label, skeleton, side)
DETECTION_SHA256 = [
    ((2, 2, 2, 2, 2), 1,
     "b45cd56f82e3a9b671781d206314a47586610711113e5d65157a13705d3b6d35",
     "9989405c4041fc634e16c93e50a36cf6ce219a1049697bc9dd65f0ff42bc39a8"),
    ((2, 2, 2, 2, 2), 2,
     "f7ed7f850db778900b5e1d09fe8e2a1f95179b659bd21ddf2af3363b621c0b46",
     "7e43b34a34f2429132ae6493e9eb3f09e9bdce1dbd940209125ca86e781582ea"),
    ((2, 2, 2, 2, 2), 3,
     "238fbbca51fd03544bdf36b89b52f82480965820bf09ec164915df1ed38e6a90",
     "3dd51cd14fb92b906f3d692bbe9f1a93cbf47f1d4577a6082ec87f6a38a20f76"),
    ((2, 2, 2, 2, 2), 4,
     "a6de1606a0220092807c1b89a5a5dd2b2058583cad7d77500a64d21723983019",
     "e0d001b5b9eaa514a133df41a7b4c9edc7b4ed66e29c493cebd8bf5f27be1f42"),
    ((2, 2, 2, 2, 2), 5,
     "e74a458fdb7316447179a184544277210d3239cf981e12762431d29c5559703a",
     "634a09a60a7893d0ff2248ae062ad5358fac2f0ba2d565e701e03f91ee8b3fec"),
    ((3, 2, 4, 2, 3), 1,
     "ef1168af6f352fdcc48c432cea14c5af81cf5de50c0e78e6316671ed1be9018c",
     "6c1feec08b836859d906212427d089bbee81e05b7d3d1c09e132e3dfd569ebb7"),
    ((3, 2, 4, 2, 3), 2,
     "f7ed7f850db778900b5e1d09fe8e2a1f95179b659bd21ddf2af3363b621c0b46",
     "ca11e1a393f61f2c3934646ce8d5d4d52865082dfdfad09c5f5b5de943001b78"),
    ((3, 2, 4, 2, 3), 3,
     "88984ff44324d8aa863663bfc61630e46b75fdc963aca13c5314d88772671df4",
     "7391b7ac322497ad1e069bdca80c4beae951186e1ee6f5ce8323317815444714"),
    ((3, 2, 4, 2, 3), 4,
     "a6de1606a0220092807c1b89a5a5dd2b2058583cad7d77500a64d21723983019",
     "8459933536a6c036cbdc646dcbe6af3f45b94c46af8bb818425dabe47761597a"),
    ((3, 2, 4, 2, 3), 5,
     "72bf2fcef844e94417f37679a950751cc31157c4ee0286d8f6387f09ee422d52",
     "4c78f26e58e633645a53be247c0c020881fab22adc44cc94594cae86e680dfef"),
]


@pytest.fixture(scope="module")
def detection_hosts():
    qs = {q for q, *_digests in DETECTION_SHA256}
    return {q: mt.DualGraph(rb.ball(validate(5, (2,) * 5, q), 4)) for q in qs}


@pytest.mark.parametrize("q,label,skeleton,side", DETECTION_SHA256)
def test_detection_samples_are_pinned(detection_hosts, q, label, skeleton, side):
    G = detection_hosts[q]
    rep = mt.detect_skeleton_experiment(G, ("wall", label), samples=24, seed=0)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == skeleton
    rep = mt.detect_side_experiment(G, label, configs=12, seed=0)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == side
