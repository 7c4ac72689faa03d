import gc
import hashlib
import itertools
import random
import weakref
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from hypbuild import coxeter, rabuilding as rb
from hypbuild.chamber import ALLOWED_M, ChamberError, parse_chamber_string, validate
from hypbuild.coxeter import (
    BallTooSmall,
    ChamberComplex,
    CoxeterBall,
    CoxeterSystem,
    ResourceCap,
    Tessellation,
    boundary_components,
    export_complex,
    wall_period,
    wall_type,
)


# ---------------------------------------------------------------------------
# oracle 1: brute-force dihedral group for two-generator words
# ---------------------------------------------------------------------------

def dihedral_element(word, m, which):
    """Multiply out a word in two involutions a, b with (ab)^m = 1,
    representing elements as pairs (rotation exponent mod m, flip)."""
    rot, flip = 0, 0
    for letter in word:
        # acting on the right by a (which[0]) or b (which[1]);
        # a = flip, b = rotation*flip composed in the dihedral group
        if letter == which[0]:
            gen = (0, 1)
        else:
            gen = (1, 1)
        # (r1, f1) * (r2, f2) with f acting by inversion
        r1, f1 = rot, flip
        r2, f2 = gen
        rot = (r2 + (r1 if f2 == 0 else -r1)) % m
        flip = (f1 + f2) % 2
    return rot, flip


def dihedral_length(element, m):
    """Word length of a dihedral element, by BFS over the whole group."""
    from collections import deque

    start = (0, 0)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        e = queue.popleft()
        for gen in ((0, 1), (1, 1)):
            r1, f1 = e
            r2, f2 = gen
            e2 = ((r2 + (r1 if f2 == 0 else -r1)) % m, (f1 + f2) % 2)
            if e2 not in dist:
                dist[e2] = dist[e] + 1
                queue.append(e2)
    return dist[element]


@pytest.mark.parametrize("m,pair", [(2, (1, 2)), (3, (2, 3)), (8, (3, 1))])
def test_reduce_matches_dihedral_oracle(spec238, m, pair):
    # pairs chosen so that the (2,3,8) spec gives the wanted order:
    # m(1,2)=2, m(2,3)=3, m(3,1)=8
    spec = spec238
    sysc = CoxeterSystem(spec)
    assert spec.m_between(*pair) == m
    rng = random.Random(m)
    for _ in range(200):
        word = tuple(rng.choice(pair) for _ in range(rng.randrange(0, 12)))
        red = sysc.canon(word)
        # same element in the dihedral group
        assert dihedral_element(word, m, pair) == dihedral_element(red, m, pair)
        # reduced length agrees with dihedral BFS length
        assert len(red) == dihedral_length(dihedral_element(word, m, pair), m)


def test_reduce_spec_examples():
    spec = validate(3, (3, 3, 4))  # m(1,2)=3 here
    sysc = CoxeterSystem(spec)
    assert sysc.canon((1, 1)) == ()
    assert sysc.canon((1, 2, 1, 2, 1)) == (2,)


def test_reduce_no_relation_for_nonadjacent(pentagon):
    sysc = CoxeterSystem(pentagon)
    assert pentagon.m_between(1, 3) is None
    assert sysc.canon((1, 3)) == (1, 3)
    # adjacent edges commute (m=2): ShortLex orders the letters
    assert sysc.canon((2, 1)) == (1, 2)


def test_canon_idempotent_and_inverse(spec238):
    sysc = CoxeterSystem(spec238)
    rng = random.Random(7)
    for _ in range(100):
        word = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randrange(0, 9)))
        red = sysc.canon(word)
        assert sysc.canon(red) == red
        assert sysc.canon(word + tuple(reversed(word))) == ()


def test_canon_returns_one_shared_word_up_to_its_cap(monkeypatch, spec238):
    monkeypatch.setattr(coxeter, "_WORDS", {})
    monkeypatch.setattr(coxeter, "SHARED_CAP", 5)
    a, b = CoxeterSystem(spec238), CoxeterSystem(spec238)
    words = [(1, 2), (2, 1, 2, 1, 2, 3), (1,), (1, 3, 1), (2, 3, 1, 2)]
    first = [a.canon(w) for w in words]
    assert all(b.canon(w) is out for w, out in zip(words, first))
    # the same element reached from another word is the same instance
    assert b.canon((2, 1)) is first[0] and len(coxeter._WORDS) == 5
    late = [a.canon((1, 2, 3) * n) for n in range(1, 9)]
    assert len(coxeter._WORDS) == 5
    assert [b.canon((1, 2, 3) * n) for n in range(1, 9)] == late
    assert b.canon((1, 2, 3)) is not late[0]


# ---------------------------------------------------------------------------
# oracle 3: Tits' braid-class search, for short words
# ---------------------------------------------------------------------------

def braid_moves(sysc, w):
    """Words one braid move (ab.. -> ba.., m letters each) away from w."""
    for p in range(len(w) - 1):
        a, b = w[p], w[p + 1]
        m = sysc.spec.m_between(a, b) if a != b else None
        if m is None or p + m > len(w):
            continue
        if all(w[p + t] == (a, b)[t % 2] for t in range(m)):
            yield w[:p] + tuple((b, a)[t % 2] for t in range(m)) + w[p + m :]


def braid_shortlex(sysc, word):
    """ShortLex form by Tits' solution of the word problem: a word is
    reduced iff no braid move exposes an adjacent equal pair, and the
    reduced words of an element form one braid class (Matsumoto).  The
    cost grows with the class size, so this serves short words only."""
    word = tuple(word)
    while True:
        seen = {word}
        queue = deque([word])
        shorter = None
        while queue:
            w = queue.popleft()
            pair = next((i for i in range(len(w) - 1) if w[i] == w[i + 1]), None)
            if pair is not None:
                shorter = w[:pair] + w[pair + 2 :]
                break
            for w2 in braid_moves(sysc, w):
                if w2 not in seen:
                    seen.add(w2)
                    queue.append(w2)
        if shorter is None:
            return min(seen)
        word = shorter


ORACLE_SPECS = [
    "3;2,3,8", "3;2,4,8", "3;3,3,4", "3;2,4,6",
    "4;2,2,2,3", "4;2,4,2,6", "5;2,2,2,2,2", "6;2,2,2,2,2,2",
]


@pytest.mark.parametrize("chamber", ORACLE_SPECS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canon_matches_braid_class_oracle(chamber, data):
    sysc = CoxeterSystem(parse_chamber_string(chamber))
    word = tuple(data.draw(st.lists(st.integers(1, sysc.k), max_size=12)))
    assert sysc.canon(word) == braid_shortlex(sysc, word)


@pytest.mark.parametrize("chamber", ORACLE_SPECS)
def test_long_reflection_words(chamber):
    # reflections w s w^-1 with |w| = 150, far beyond the oracle's
    # reach: t is an involution, canon is idempotent, and a reflection
    # has odd length
    sysc = CoxeterSystem(parse_chamber_string(chamber))
    rng = random.Random(chamber)
    for _ in range(3):
        w = ()
        while len(w) < 150:
            w = max(w, sysc.canon(w + (rng.randint(1, sysc.k),)), key=len)
        t = sysc.canon(w + (rng.randint(1, sysc.k),) + tuple(reversed(w)))
        assert sysc.canon(t + t) == ()
        assert sysc.canon(t) == t
        assert len(t) % 2 == 1


# ---------------------------------------------------------------------------
# oracle 2: numeric BFS in the standard geometric representation
# ---------------------------------------------------------------------------

def tits_ball_counts(spec, radius):
    """Element counts of balls in W computed independently: BFS in the
    standard geometric representation (faithful), numeric dedup."""
    import math

    k = spec.k

    def bform(i, j):
        if i == j:
            return 1.0
        a, b = min(i, j), max(i, j)
        if (b - a) == 1 or (a, b) == (1, k):
            # adjacent edges: entry -cos(pi/m)
            idx = a if (b - a) == 1 else k
            return -math.cos(math.pi / spec.m[idx - 1])
        return -1.0  # m = infinity

    mats = []
    for i in range(1, k + 1):
        rows = []
        for r in range(k):
            row = []
            for c in range(k):
                val = (1.0 if r == c else 0.0)
                if c == i - 1:
                    val -= 2.0 * bform(r + 1, i)
                row.append(val)
            rows.append(row)
        mats.append(rows)

    def matmul(A, B):
        return [
            [sum(A[r][t] * B[t][c] for t in range(k)) for c in range(k)]
            for r in range(k)
        ]

    def key(A):
        return tuple(round(x, 6) for row in A for x in row)

    ident = [[1.0 if r == c else 0.0 for c in range(k)] for r in range(k)]
    seen = {key(ident)}
    frontier = [ident]
    counts = [1]
    for _ in range(radius):
        nxt = []
        for A in frontier:
            for M in mats:
                B = matmul(A, M)
                kb = key(B)
                if kb not in seen:
                    seen.add(kb)
                    nxt.append(B)
        frontier = nxt
        counts.append(len(seen))
    return counts


@pytest.mark.parametrize("mspec,k", [((2, 3, 8), 3), ((3, 3, 4), 3), ((2, 2, 2, 2, 2), 5)])
def test_ball_counts_match_geometric_representation(mspec, k):
    spec = validate(k, mspec)
    oracle = tits_ball_counts(spec, 4)
    for n in range(5):
        assert len(CoxeterBall(spec, n)) == oracle[n]


def test_ball_small_counts(spec238):
    b0 = CoxeterBall(spec238, 0)
    assert len(b0) == 1 and len(b0.edges) == 3 and len(b0.vertices) == 3
    assert len(CoxeterBall(spec238, 1)) == 4


def test_ball_deterministic(spec238):
    a = CoxeterBall(spec238, 3)
    b = CoxeterBall(spec238, 3)
    assert a.words == b.words
    assert sorted(a.edges) == sorted(b.edges)


# ---------------------------------------------------------------------------
# oracle 3: the ball grown by canon BFS, against the root-point step
# ---------------------------------------------------------------------------

class _CanonBall(CoxeterBall):
    """The ball built the way it was before the root-point step: a BFS
    on `canon`, a second `canon` pass for `rmul`, and `canon` for the
    panel neighbours outside the ball."""

    def _build_group(self, cap):
        sys_ = self.system
        k = self.spec.k
        words = [()]
        index = {(): 0}
        frontier = [()]
        for _ in range(self.radius):
            nxt = []
            for w in frontier:
                for g in range(1, k + 1):
                    w2 = sys_.canon(w + (g,))
                    if len(w2) > len(w) and w2 not in index:
                        index[w2] = len(words)
                        words.append(w2)
                        nxt.append(w2)
                        if len(words) > cap:
                            raise ResourceCap("chamber cap %d exceeded" % cap)
            frontier = nxt
        order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
        self.words = [words[i] for i in order]
        self.index = {w: i for i, w in enumerate(self.words)}
        self.rmul = [
            [self.index.get(sys_.canon(w + (g,))) for g in range(1, k + 1)]
            for w in self.words
        ]

    def panel(self, c, label):
        w = self.words[c]
        d = self.rmul[c][label - 1]
        return (w, self.words[d] if d is not None else self.system.canon(w + (label,)))


def _random_ball_specs(count, seed=9):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(3, 5)
        m = tuple(rng.choice(ALLOWED_M) for _ in range(k))
        try:
            spec = validate(k, m)
        except ChamberError:
            continue
        out.append((spec, rng.randint(2, 5)))
    return out


BALL_ORACLE_CASES = [
    (validate(3, (2, 3, 8)), 16),
    (validate(4, (2, 2, 2, 3)), 10),
    (validate(4, (2, 4, 2, 6)), 8),
    (validate(3, (3, 3, 4)), 12),
    (validate(5, (2, 2, 2, 2, 2)), 7),
] + _random_ball_specs(16)


@pytest.mark.parametrize(
    "spec,radius", BALL_ORACLE_CASES,
    ids=["%s-R%d" % (",".join(map(str, s.m)), r) for s, r in BALL_ORACLE_CASES],
)
def test_ball_matches_canon_bfs_oracle(spec, radius):
    ball, oracle = CoxeterBall(spec, radius), _CanonBall(spec, radius)
    assert ball.words == oracle.words
    assert ball.index == oracle.index
    assert ball.rmul == oracle.rmul
    assert ball.sphere_counts == [sum(len(w) == n for w in oracle.words) for n in range(radius + 1)]
    assert ball.edges == oracle.edges
    assert ball.vertices == oracle.vertices


def test_ball_build_makes_no_canon_call(monkeypatch):
    def refuse(self, word):
        raise AssertionError("canon called on %r" % (word,))

    monkeypatch.setattr(CoxeterSystem, "canon", refuse)
    for spec, radius in BALL_ORACLE_CASES[:5]:
        assert len(CoxeterBall(spec, radius).words[-1]) == radius


def _record_tessellations(monkeypatch):
    """Every Tessellation made from now on, in order."""
    made = []
    init = Tessellation.__init__

    def record(self, spec):
        init(self, spec)
        made.append(self)

    monkeypatch.setattr(Tessellation, "__init__", record)
    return made


def test_ball_build_makes_no_cells(no_cells, monkeypatch):
    made = _record_tessellations(monkeypatch)
    for spec, radius in BALL_ORACLE_CASES[:5]:
        ball = CoxeterBall(spec, radius)
        assert len(ball.words[-1]) == radius
        # no chamber past the radius has been stepped to
        assert len(made.pop()) == len(ball)


def test_no_tessellation_outlives_construction(monkeypatch):
    made = _record_tessellations(monkeypatch)
    ball = CoxeterBall(validate(3, (2, 3, 8)), 6)
    tess = weakref.ref(made.pop())
    gc.collect()
    assert tess() is None
    # the cells are built without it
    oracle = _CanonBall(validate(3, (2, 3, 8)), 6)
    assert ball.edges == oracle.edges and ball.vertices == oracle.vertices


def test_failed_cell_build_recovers_on_next_read(monkeypatch):
    # a word problem that fails while the panel words are built leaves no
    # cell behind, and the ball builds its cells on the next read
    ball = CoxeterBall(validate(3, (2, 3, 8)), 4)
    with monkeypatch.context() as m:
        m.setattr(CoxeterSystem, "canon", lambda self, word: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            ball.edges
        with pytest.raises(ZeroDivisionError):
            ball.edge_of
    assert len(ball.edges) > 0
    assert ball.edges == CoxeterBall(validate(3, (2, 3, 8)), 4).edges


CELLS = ("edges", "edge_of", "is_inner", "vertices", "vertex_of")


MAKE_BALLS = pytest.mark.parametrize("make", [
    lambda: CoxeterBall(validate(4, (2, 4, 2, 6)), 5),
    lambda: rb.ball(validate(5, (2,) * 5, (3, 2, 4, 2, 3)), 2),
], ids=["thin", "thick"])


@pytest.mark.parametrize("first", CELLS)
@MAKE_BALLS
def test_first_cell_read_builds_the_same_cells(monkeypatch, make, first):
    eager = make()
    eager._build_cells()
    want = [getattr(eager, name) for name in CELLS]
    build, calls = ChamberComplex._build_cells, []

    def counted(self):
        calls.append(self)
        build(self)

    monkeypatch.setattr(ChamberComplex, "_build_cells", counted)
    ball = make()
    getattr(ball, first)
    assert [getattr(ball, name) for name in CELLS] == want
    assert calls == [ball]


@MAKE_BALLS
def test_adjacency_is_one_pair_per_shared_panel(monkeypatch, make):
    # adjacency walks neighbors and reads no cell; it gives each pair of
    # in-ball chambers of every edge once, as the edges list them
    def refuse(self):
        raise AssertionError("cells built")

    with monkeypatch.context() as m:
        m.setattr(ChamberComplex, "_build_cells", refuse)
        ball = make()
        pairs = list(ball.adjacency())
    from_edges = [(cs[i], cs[j], label) for (_w, label), (_l, cs) in ball.edges.items()
                  for i in range(len(cs)) for j in range(i + 1, len(cs))]
    assert all(c1 < c2 for c1, c2, _ in pairs)
    assert sorted(pairs) == sorted(from_edges)
    if isinstance(ball, CoxeterBall):
        assert pairs == from_edges


def test_ball_chamber_cap():
    spec = validate(3, (2, 3, 8))
    assert len(CoxeterBall(spec, 5, chamber_cap=37)) == 37
    with pytest.raises(ResourceCap, match="chamber cap 36 exceeded"):
        CoxeterBall(spec, 5, chamber_cap=36)


# ---------------------------------------------------------------------------
# inversions and walls
# ---------------------------------------------------------------------------

def test_inversions_basics(spec334):
    sysc = CoxeterSystem(spec334)
    assert sysc.inversions(()) == []
    assert sysc.inversions((1,)) == [(1,)]
    inv = sysc.inversions(sysc.canon((1, 2, 1)))
    assert sorted(inv) == sorted([(1,), (2,), (1, 2, 1)])


def test_inversion_count_is_length(spec238):
    sysc = CoxeterSystem(spec238)
    rng = random.Random(3)
    for _ in range(60):
        word = sysc.canon(tuple(rng.choice((1, 2, 3)) for _ in range(rng.randrange(0, 8))))
        inv = sysc.inversions(word)
        assert len(inv) == len(word)
        assert len(set(inv)) == len(word)
        for t in inv:
            assert sysc.canon(t + t) == ()  # involutions


def test_inversions_are_graph_cut_walls(spec238):
    # the walls crossed between the base chamber and w separate exactly
    # those two chambers in the dual graph: removing the wall's edges
    # disconnects them, checked on an N=5 ball for every w of length <= 2
    ball = CoxeterBall(spec238, 5)
    sysc = ball.system
    adj = {}
    for c1, c2, label in ball.adjacency():
        adj.setdefault(c1, set()).add(c2)
        adj.setdefault(c2, set()).add(c1)

    def connected(a, b, removed_pairs):
        from collections import deque

        seen = {a}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            if x == b:
                return True
            for y in adj.get(x, ()):
                if (x, y) in removed_pairs or (y, x) in removed_pairs:
                    continue
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return False

    # edge pairs grouped per wall reflection
    wall_edges = {}
    for wall, edge_list in ball.walls():
        pairs = set()
        for (c, label) in edge_list:
            key = ball.edge_of[c][label - 1]
            cs = ball.edges[key][1]
            pairs.add((cs[0], cs[1]))
        wall_edges[wall.reflection] = pairs

    targets = [w for w in ball.words if 1 <= len(w) <= 2]
    for w in targets:
        t_set = set(sysc.inversions(w))
        a, b = ball.index[()], ball.index[w]
        # a wall separates the pair in the dual graph iff it is crossed
        for refl, pairs in wall_edges.items():
            assert connected(a, b, pairs) == (refl not in t_set)


def test_every_edge_on_exactly_one_wall(spec238):
    ball = CoxeterBall(spec238, 4)
    walls = ball.walls()
    seen = set()
    for wall, edge_list in walls:
        for (c, label) in edge_list:
            key = ball.edge_of[c][label - 1]
            assert key not in seen
            seen.add(key)
    interior = {
        key for key, (label, cs) in ball.edges.items() if len(cs) == 2
    }
    assert seen == interior


# ---------------------------------------------------------------------------
# wall types
# ---------------------------------------------------------------------------

def test_boundary_components(spec238, spec334, spec248, pentagon):
    assert boundary_components(spec238) == [(1,), (2, 3)]
    assert boundary_components(spec334) == [(1, 2, 3)]
    assert sorted(boundary_components(spec248)) == [(1,), (2,), (3,)]
    assert len(boundary_components(pentagon)) == 5


def _extend_components(spec):
    """The earlier boundary_components, kept as an oracle: grow a run
    forward and backward from every label not yet seen."""
    k = spec.k
    joined = [spec.m[j - 1] == 3 for j in range(1, k + 1)]
    if all(joined):
        return [tuple(range(1, k + 1))]
    comps = []
    seen = set()
    for start in range(1, k + 1):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        cur = start
        while joined[cur - 1]:
            nxt = cur % k + 1
            if nxt in comp:
                break
            comp.append(nxt)
            seen.add(nxt)
            cur = nxt
        cur = start
        while joined[(cur - 2) % k]:
            prv = (cur - 2) % k + 1
            if prv in comp:
                break
            comp.insert(0, prv)
            seen.add(prv)
            cur = prv
        comps.append(tuple(comp))
    return comps


def test_boundary_components_match_extension_oracle():
    checked = 0
    for k in range(3, 7):
        for m in itertools.product(ALLOWED_M, repeat=k):
            try:
                spec = validate(k, m)
            except ChamberError:
                continue
            assert boundary_components(spec) == _extend_components(spec), m
            checked += 1
    assert checked == 19467


@pytest.mark.parametrize("chamber", ["3;2,3,8", "3;3,3,4", "4;2,4,2,6", "5;2,2,2,2,2"])
def test_separates_matches_inversion_membership(chamber):
    # every chamber of a radius-4 ball against all simple walls and 5k
    # random walls, each the reflection across a random edge of a random
    # chamber of the ball
    ball = CoxeterBall(parse_chamber_string(chamber), 4)
    sysc = CoxeterSystem(ball.spec)
    k = ball.spec.k
    rng = random.Random(11)
    walls = [(i,) for i in range(1, k + 1)] + [
        sysc.conjugate(rng.choice(ball.words), (rng.randrange(1, k + 1),))
        for _ in range(5 * k)
    ]
    for w in ball.words:
        inv = set(sysc.inversions(w))
        for t in walls:
            assert sysc.separates(t, w) == (t in inv), (t, w)


def test_conjugate_is_the_edge_reflection(spec238):
    sysc = CoxeterSystem(spec238)
    rng = random.Random(5)
    for _ in range(100):
        w = sysc.canon(tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 12))))
        i = rng.randrange(1, 4)
        t = sysc.conjugate(w, (i,))
        assert t == sysc.canon(w + (i,) + tuple(reversed(w)))
        assert sysc.canon(t + t) == ()
        # the wall of t is the one crossed between chambers w and w s_i
        assert sysc.separates(t, w) != sysc.separates(t, sysc.canon(w + (i,)))


def test_wall_period_patterns(spec238, spec334):
    assert wall_period((1,), 3, False) == (1, 1)
    assert wall_period((2, 3), 3, False) == (2, 3, 3, 2)
    # all-m=3 chamber: period is the plain label cycle
    assert wall_period((1, 2, 3), 3, True) == (1, 2, 3)


def test_wall_types_238(spec238):
    ball = CoxeterBall(spec238, 7)
    found = {}
    for wall, edge_list in ball.walls():
        try:
            comp = wall_type(ball, wall)
        except BallTooSmall:
            continue
        found.setdefault(comp, 0)
        found[comp] += 1
        # check the vertex indices the wall runs through
        ordered, labels = ball.wall_edge_path(wall)
        ms = set()
        for key in ordered:
            label, cs = ball.edges[key]
            c = cs[0]
            k = ball.spec.k
            for j in ((label - 2) % k + 1, label):
                vk = ball.vertex_of[c][j - 1]
                ms.add(ball.vertices[vk]["m"])
        if comp == (1,):
            assert 3 not in ms  # Type I avoids m=3 vertices
            assert labels.count(1) == len(labels)
        else:
            assert 3 in ms  # Type II meets m=3 vertices
    assert (1,) in found and (2, 3) in found


def test_wall_type_ball_too_small(spec238):
    ball = CoxeterBall(spec238, 1)
    wall = ball.wall_of_edge(0, 2)
    with pytest.raises(BallTooSmall):
        wall_type(ball, wall)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_complex_format(spec238):
    ball = CoxeterBall(spec238, 2)
    text = export_complex(ball)
    lines = text.strip().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    es = [l for l in lines if l.startswith("e ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == len(ball.vertices)
    assert len(es) == len(ball.edges)
    assert len(fs) == len(ball)
    for line in fs:
        assert len(line.split()) == 2 + ball.spec.k


# sha256 of the exchange files of two tessellation and two building
# balls: any change to the order or numbering of cells changes them
EXPORT_SHA256 = [
    ("3;2,3,8", 4, "79248e3046a586dbdf5f3b7831806ea98c123e280f2dbe60ee2c1de75543b2f8"),
    ("4;2,4,2,6", 3, "8d13a8a621b2aef720cf64ed62e965d79a812e15069399e8cccf7a7605af612e"),
    ("5;2,2,2,2,2;2,2,2,2,2", 2, "8caa7abc285528dc4a00bc21ab7f09795d38b98ee910e2821fe03cfdfadb5065"),
    ("5;2,2,2,2,2;2,3,2,2,3", 2, "fffe60d8f9eda49e845b0e1121a22a070d18f080bc641b25f68749cf2e5ef0ab"),
]


@pytest.mark.parametrize("chamber,radius,digest", EXPORT_SHA256)
def test_export_complex_bytes_pinned(chamber, radius, digest):
    spec = parse_chamber_string(chamber)
    ball = rb.ball(spec, radius) if spec.is_thick() else CoxeterBall(spec, radius)
    text = export_complex(ball)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
