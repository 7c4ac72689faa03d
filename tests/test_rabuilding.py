import random

import pytest

from hypbuild import genpoly, rabuilding as rb
from hypbuild.chamber import validate
from hypbuild.coxeter import CoxeterBall, CoxeterSystem, ResourceCap, export_complex


@pytest.fixture(scope="module")
def bb3(pentagon_thick):
    return rb.ball(pentagon_thick, 3)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def _oracle_normal_form(word, spec):
    """Independent normal form: rewrite the whole word by front-extraction
    passes until a pass no longer shortens it."""
    out = [(i, c % (spec.q[i - 1] + 1)) for (i, c) in word]
    out = [(i, c) for (i, c) in out if c]
    while True:
        prev = out
        out = _extract_pass(prev, spec)
        if len(out) == len(prev):
            return tuple(out)


def _extract_pass(letters, spec):
    """One front-extraction pass: repeatedly pull out the smallest label
    whose first letter commutes to the front, merging every same-label
    letter that can reach it."""
    k = spec.k
    rest = list(letters)
    out = []
    while rest:
        # indices whose first letter can commute to the front
        candidates = {}
        for p, (i, _c) in enumerate(rest):
            if i in candidates:
                continue
            if all(j != i and rb._cyc_adjacent(j, i, k) for (j, _d) in rest[:p]):
                candidates[i] = p
        i = min(candidates)
        c = rest.pop(candidates[i])[1]
        # merge every later same-index letter that can also reach the front
        merged = True
        while merged:
            merged = False
            for p2, (j, d) in enumerate(rest):
                if j == i and all(
                    rb._cyc_adjacent(jj, i, k) for (jj, _dd) in rest[:p2]
                ):
                    c = (c + d) % (spec.q[i - 1] + 1)
                    rest.pop(p2)
                    merged = True
                    break
        if c:
            out.append((i, c))
    return out


def _panel_by_stripping(word, label, spec):
    """The panel of `word` across `label`: strip a trailing letter of that
    label (one that commutes to the end) to reach the least member, then
    append every color to it."""
    stripped = word
    for (i, c) in reversed(word):
        if i == label:
            stripped = _oracle_normal_form(word + ((label, -c),), spec)
            break
        if not rb._cyc_adjacent(i, label, spec.k):
            break
    return sorted(
        [stripped]
        + [
            _oracle_normal_form(stripped + ((label, col),), spec)
            for col in range(1, spec.q[label - 1] + 1)
        ]
    )


@pytest.mark.parametrize("k, q", [
    (5, (2, 2, 2, 2, 2)),
    (5, (3, 2, 4, 2, 3)),
    (6, (2,) * 6),
    (7, (3,) * 7),
])
def test_normal_form_matches_oracle(k, q):
    spec = validate(k, (2,) * k, q)
    rng = random.Random(k * 100 + sum(q))
    for _ in range(1500):
        w = [
            (rng.randint(1, k), rng.randint(-3, 5))
            for _ in range(rng.randint(0, 30))
        ]
        assert rb.normal_form(w, spec) == _oracle_normal_form(w, spec), w


def test_append_letter_matches_oracle_on_ball(bb3):
    spec = bb3.spec
    for w in bb3.words:
        for letter in bb3._letters:
            assert rb.append_letter(w, letter, spec) == _oracle_normal_form(
                w + (letter,), spec
            )


def test_panel_matches_stripping(bb3):
    spec = bb3.spec
    for c, w in enumerate(bb3.words):
        for label in range(1, spec.k + 1):
            assert sorted(bb3.panel(c, label)) == _panel_by_stripping(w, label, spec)


def test_ball_steps_read_the_letter_tables():
    ball = rb.ball(validate(5, (2,) * 5, (3, 2, 4, 2, 3)), 3)
    spec = ball.spec
    assert ball.thickness == spec.q
    back_steps = 0
    for c, w in enumerate(ball.words):
        for label in range(1, spec.k + 1):
            q = ball.thickness[label - 1]
            for color in range(1, q + 1):
                d = ball.step(c, label, color)
                assert d == ball.index.get(rb.append_letter(w, (label, color), spec))
                if d is not None:
                    assert ball.step(d, label, q + 1 - color) == c
                    back_steps += 1
    assert back_steps > len(ball)
    thin = CoxeterBall(validate(5, (2,) * 5), 3)
    assert thin.thickness == (1,) * 5
    for c, row in enumerate(thin.rmul):
        assert [thin.step(c, label) for label in range(1, 6)] == row
        assert [thin.step(c, label, 1) for label in range(1, 6)] == row


def test_normal_form_labels_are_shortlex(bb3):
    # apartment_through reads its walls off these label words directly
    for w in bb3.words:
        labels = tuple(i for (i, _c) in w)
        assert bb3.system.canon(labels) == labels


def test_normal_form_rejects_bad_label(pentagon_thick):
    with pytest.raises(rb.BuildingError):
        rb.normal_form(((1, 1), (6, 1)), pentagon_thick)

def test_normal_form_examples(pentagon_thick):
    spec = pentagon_thick
    assert rb.normal_form(((1, 1), (1, 2)), spec) == ()
    assert rb.normal_form(((1, 1), (2, 2)), spec) == rb.normal_form(
        ((2, 2), (1, 1)), spec
    )
    # non-adjacent edges: no relation
    assert rb.normal_form(((1, 1), (3, 2)), spec) == ((1, 1), (3, 2))
    assert rb.normal_form(((3, 2), (1, 1)), spec) == ((3, 2), (1, 1))


def _apply_random_moves(w, rng, spec):
    """Shuffle a colored word by randomly applied defining relations."""
    w = list(w)
    for _ in range(40):
        if len(w) < 2:
            break
        p = rng.randrange(len(w) - 1)
        (a, ca), (b, cb) = w[p], w[p + 1]
        if a == b:
            c = (ca + cb) % (spec.q[a - 1] + 1)
            del w[p : p + 2]
            if c:
                w.insert(p, (a, c))
        elif rb._cyc_adjacent(a, b, spec.k):
            w[p], w[p + 1] = w[p + 1], w[p]
    return w


def test_normal_form_well_defined(pentagon_thick):
    spec = pentagon_thick
    rng = random.Random(42)
    letters = [(i, c) for i in range(1, 6) for c in (1, 2)]
    for _ in range(400):
        w = [rng.choice(letters) for _ in range(rng.randrange(0, 10))]
        n1 = rb.normal_form(w, spec)
        n2 = rb.normal_form(_apply_random_moves(w, rng, spec), spec)
        assert n1 == n2
        assert rb.normal_form(n1, spec) == n1  # idempotent


def test_inverse_word(pentagon_thick):
    spec = pentagon_thick
    rng = random.Random(9)
    letters = [(i, c) for i in range(1, 6) for c in (1, 2)]
    for _ in range(100):
        w = rb.normal_form(
            [rng.choice(letters) for _ in range(rng.randrange(0, 8))], spec
        )
        inv = rb.inverse_word(w, spec)
        assert rb.normal_form(w + inv, spec) == ()
        assert rb.normal_form(inv + w, spec) == ()


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

def test_ball_small_counts(pentagon_thick):
    assert len(rb.ball(pentagon_thick, 0)) == 1
    assert len(rb.ball(pentagon_thick, 1)) == 1 + sum(pentagon_thick.q)


def test_sphere_counts_from_coxeter(pentagon_thick, pentagon):
    # independent oracle: each W element of length n carries prod(q) = 2^n
    # chambers in the building
    bb = rb.ball(pentagon_thick, 4)
    cb = CoxeterBall(pentagon, 4)
    cox_spheres = [len([w for w in cb.words if len(w) == n]) for n in range(5)]
    for n in range(5):
        assert bb.sphere_counts[n] == cox_spheres[n] * 2**n


def test_ball_build_makes_no_cells(no_cells, pentagon_thick):
    assert len(rb.ball(pentagon_thick, 4)) == 1 + 10 + 60 + 320 + 1680
    rb.ball(validate(5, (2,) * 5, (3, 2, 4, 2, 3)), 3)


def test_sphere_counts_at_radius_6(no_cells, pentagon_thick, pentagon):
    bb = rb.ball(pentagon_thick, 6)
    cb = CoxeterBall(pentagon, 6)
    assert len(bb) == 56951
    cox_spheres = [len([w for w in cb.words if len(w) == n]) for n in range(7)]
    assert bb.sphere_counts == [cox_spheres[n] * 2**n for n in range(7)]


class _AppendBall(rb.BuildingBall):
    """The ball built the way it was before panels were stepped: a
    frontier pass of `append_letter` with each level sorted, then a
    second `append_letter` pass over every chamber and letter for
    `rmul`."""

    def _build_chambers(self, cap):
        spec, letters = self.spec, self._letters
        frontier = [()]
        seen = {(): 0}
        order = [[()]]
        for n in range(1, self.radius + 1):
            nxt = []
            for w in frontier:
                for letter in letters:
                    v = rb.append_letter(w, letter, spec)
                    if len(v) == n and v not in seen:
                        seen[v] = n
                        nxt.append(v)
                        if len(seen) > cap:
                            raise ResourceCap("building ball exceeds %d chambers" % cap)
            nxt.sort()
            order.append(nxt)
            frontier = nxt
        self.words = [w for level in order for w in level]
        index = self.index = {w: i for i, w in enumerate(self.words)}
        self.sphere_counts = [len(level) for level in order]
        self.rmul = [
            [index.get(rb.append_letter(w, letter, spec)) for letter in letters]
            for w in self.words
        ]


APPEND_ORACLE_CASES = (
    [(validate(5, (2,) * 5, (2,) * 5), r) for r in (0, 1, 3, 5)]
    + [(validate(5, (2,) * 5, (3, 2, 4, 2, 3)), r) for r in range(5)]
    + [(validate(6, (2,) * 6, (2, 3, 2, 3, 2, 3)), 3)]
)


@pytest.mark.parametrize(
    "spec,radius", APPEND_ORACLE_CASES,
    ids=["%s-R%d" % (",".join(map(str, s.q)), r) for s, r in APPEND_ORACLE_CASES],
)
def test_ball_matches_two_pass_oracle(spec, radius):
    ball, oracle = rb.ball(spec, radius), _AppendBall(spec, radius)
    assert ball.words == oracle.words
    assert ball.index == oracle.index
    assert ball.rmul == oracle.rmul
    assert ball.sphere_counts == oracle.sphere_counts
    assert ball.edges == oracle.edges
    assert ball.vertices == oracle.vertices


@pytest.mark.parametrize("q, radius", [((2,) * 5, 4), ((3, 2, 4, 2, 3), 3)])
def test_ball_build_appends_once_per_panel_member(monkeypatch, q, radius):
    calls = []

    def record(word, letter, spec):
        calls.append((word, letter))
        return append(word, letter, spec)

    append = rb.append_letter
    monkeypatch.setattr(rb, "append_letter", record)
    ball = rb.ball(validate(5, (2,) * 5, q), radius)
    # no last-level chamber is stepped, and no chamber twice by a letter
    assert max(len(w) for w, _letter in calls) == radius - 1
    assert len(set(calls)) == len(calls)
    # one append per upward entry of rmul: each panel is stepped once,
    # from its member nearest the base
    words = ball.words
    up = sum(len(words[d]) > len(w) for w, row in zip(words, ball.rmul)
             for d in row if d is not None)
    assert len(calls) == up


def test_ball_cap_raises_resource_cap(pentagon_thick):
    with pytest.raises(ResourceCap, match="building ball exceeds 70 chambers"):
        rb.ball(pentagon_thick, 2, chamber_cap=70)
    assert len(rb.ball(pentagon_thick, 2, chamber_cap=71)) == 71


def test_ball_rejects_wrong_specs(spec238, pentagon):
    with pytest.raises(rb.BuildingError):
        rb.ball(spec238, 2)  # not right-angled
    with pytest.raises(rb.BuildingError):
        rb.ball(pentagon, 2)  # thin


def test_panel_multiplicities(bb3):
    q = bb3.spec.q
    for (word, label), (_lbl, cs) in bb3.edges.items():
        assert len(cs) in (1, q[label - 1] + 1)


def test_interior_links_are_k33(bb3):
    keys = bb3.interior_vertex_keys()
    assert keys
    for key in keys:
        adj, color = bb3.vertex_link(key)
        poly = genpoly.verify(adj, color, 2)
        assert poly.params == (2, 2)
        assert len(adj) == 6  # K_{3,3}


# ---------------------------------------------------------------------------
# W-distance
# ---------------------------------------------------------------------------

def test_wdist_examples(pentagon_thick, bb3):
    spec = pentagon_thick
    g = ((1, 1), (3, 2))
    assert rb.wdist(g, g, spec) == ()
    assert rb.wdist((), ((1, 1),), spec) == (1,)
    assert rb.wdist((), ((1, 1), (3, 2)), spec) == (1, 3)


def test_wdist_is_dual_graph_distance(bb3):
    # oracle: unweighted BFS on the dual graph of the ball
    from collections import deque

    spec = bb3.spec
    rng = random.Random(5)
    inner = [i for i in range(len(bb3)) if len(bb3.words[i]) <= 1]
    for _ in range(15):
        a = rng.choice(inner)
        dist = {a: 0}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for y, _label in bb3.neighbors(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        for _ in range(10):
            b = rng.randrange(len(bb3))
            # stay within safely-exact range of the truncated ball
            if len(bb3.words[b]) > 2:
                continue
            w = rb.wdist(bb3.words[a], bb3.words[b], spec)
            assert len(w) == dist[b]


@pytest.mark.parametrize("q, radius", [((2, 2, 2, 2, 2), 3), ((3, 2, 4, 2, 3), 2)])
def test_wdist_matches_normal_form_of_the_product(q, radius):
    # oracle: the normal form of the whole word g^-1 h
    spec = validate(5, (2,) * 5, q)
    words = rb.ball(spec, radius).words
    for g in words:
        inv = rb.inverse_word(g, spec)
        for h in words:
            want = tuple(i for (i, _c) in rb.normal_form(inv + h, spec))
            assert rb.wdist(g, h, spec) == want
    with pytest.raises(rb.BuildingError):
        rb.wdist((), ((9, 1),), spec)


# ---------------------------------------------------------------------------
# apartments
# ---------------------------------------------------------------------------

def test_apartment_through_trivial(bb3):
    C = bb3.words[7]
    A = rb.apartment_through(bb3, C, C)
    assert A.alpha(()) == C
    assert A.colors == {}


def test_apartment_through_adjacent(bb3):
    spec = bb3.spec
    C = ()
    D = ((2, 2),)
    A = rb.apartment_through(bb3, C, D)
    assert A.colors == {(2,): 2}
    assert A.alpha((2,)) == D


def test_apartment_contains_both_endpoints(bb3):
    rng = random.Random(1)
    for _ in range(60):
        C = bb3.words[rng.randrange(len(bb3))]
        D = bb3.words[rng.randrange(len(bb3))]
        A = rb.apartment_through(bb3, C, D)
        delta = rb.wdist(C, D, bb3.spec)
        assert A.alpha(()) == C
        assert A.alpha(delta) == D
        assert A.position_of(C) == ()
        assert A.position_of(D) == delta


def test_apartment_through_normalizes_once(monkeypatch, bb3):
    # oracle: the colors read off the normal form of the whole word C^-1 D
    spec, system = bb3.spec, bb3.system
    rng = random.Random(3)
    pairs = [(rng.choice(bb3.words), rng.choice(bb3.words)) for _ in range(60)]
    want = []
    for C, D in pairs:
        delta = rb.normal_form(rb.inverse_word(C, spec) + D, spec)
        labels = tuple(i for (i, _c) in delta)
        want.append(dict(zip(system.inversions(labels), (c for (_i, c) in delta))))
    calls = []
    normal_form = rb.normal_form
    monkeypatch.setattr(rb, "normal_form", lambda w, s: calls.append(w) or normal_form(w, s))
    assert [rb.apartment_through(bb3, C, D).colors for C, D in pairs] == want
    # one normal form per call: that of C^-1, inside inverse_word
    assert len(calls) == len(pairs)
    with pytest.raises(rb.BuildingError):
        rb.apartment_through(bb3, (), ((9, 1),))


def test_apartment_is_distance_preserving(bb3):
    sysc = bb3.system
    rng = random.Random(2)
    for _ in range(40):
        C = bb3.words[rng.randrange(len(bb3))]
        D = bb3.words[rng.randrange(len(bb3))]
        A = rb.apartment_through(bb3, C, D)
        w1 = sysc.canon(tuple(rng.choice((1, 2, 3, 4, 5)) for _ in range(3)))
        w2 = sysc.canon(tuple(rng.choice((1, 2, 3, 4, 5)) for _ in range(3)))
        lhs = rb.wdist(A.alpha(w1), A.alpha(w2), bb3.spec)
        assert lhs == sysc.canon(tuple(reversed(w1)) + w2)


def test_uncolored_alpha_looks_up_no_wall(monkeypatch, pentagon_thick):
    # every wall of the default chart coloring has color 1, so alpha is
    # one append_letter per letter and names no wall
    system = CoxeterSystem(pentagon_thick)
    A = rb.ApartmentColoring(system=system, base=(), colors={})
    words = CoxeterBall(validate(5, (2,) * 5), 7).words
    want = []
    for w in words:
        out = ()
        for i, refl in zip(w, system.inversions(w)):
            out = rb.append_letter(out, (i, A.colors.get(refl, 1)), pentagon_thick)
        want.append(out)

    def refuse(self, w, t):
        raise AssertionError("wall looked up")

    monkeypatch.setattr(CoxeterSystem, "conjugate", refuse)
    assert [A.alpha(w) for w in words] == want


def test_apartment_serialization(bb3):
    A = rb.apartment_through(bb3, (), ((1, 2), (3, 1)))
    assert ([1], 2) in [(list(k), v) for k, v in A.colors.items()]


# ---------------------------------------------------------------------------
# retraction
# ---------------------------------------------------------------------------

def test_retraction_properties(bb3):
    spec = bb3.spec
    rng = random.Random(3)
    C = bb3.words[11]
    D0 = bb3.words[231]
    A = rb.apartment_through(bb3, C, D0)
    r = rb.retraction(bb3, A, C)
    for _ in range(100):
        E = bb3.words[rng.randrange(len(bb3))]
        img = r(E)
        dE = rb.wdist(C, E, spec)
        dI = rb.wdist(C, img, spec)
        # W-distance from the center is preserved exactly
        assert dI == dE
        # chambers on the apartment are fixed
        if A.position_of(E) is not None:
            assert img == E


def test_retraction_on_panels(bb3):
    spec = bb3.spec
    sysc = bb3.system
    C = ()
    D0 = ((1, 1), (3, 1), (5, 2))
    A = rb.apartment_through(bb3, C, D0)
    r = rb.retraction(bb3, A, C)
    for i in range(1, 6):
        in_A = A.alpha((i,))
        for c in range(1, spec.q[i - 1] + 1):
            D = rb.normal_form(((i, c),), spec)
            # the whole panel of C across edge i maps into the panel of A
            assert r(D) == (D if A.position_of(D) is not None else in_A) or (
                r(D) == in_A
            )
            assert r(D) == A.alpha((i,)) or r(D) == D


def test_retraction_requires_center_on_apartment(bb3):
    A = rb.apartment_through(bb3, (), ((1, 1),))
    off = ((2, 2), (4, 1))
    assert A.position_of(off) is None
    with pytest.raises(rb.BuildingError):
        rb.retraction(bb3, A, off)


# ---------------------------------------------------------------------------
# local verification
# ---------------------------------------------------------------------------

def test_verify_generated_ball(bb3):
    report = rb.verify_building_local(export_complex(bb3), bb3.spec)
    assert report.ok, report.violations[:5]
    assert report.checked["faces"] == len(bb3)
    assert report.checked["closed_links"] == len(bb3.interior_vertex_keys())
    assert report.caveats  # apartment-exchange axiom not checked, and said so


def test_verify_flags_thin_complex_against_thick_spec(pentagon, pentagon_thick):
    text = export_complex(CoxeterBall(pentagon, 2))
    report = rb.verify_building_local(text, pentagon_thick)
    assert not report.ok
    codes = {v[0] for v in report.violations}
    assert "EdgeMultiplicity" in codes


def test_verify_flags_corrupted_face(bb3):
    text = export_complex(bb3)
    lines = text.strip().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("f "):
            parts = line.split()
            # duplicate one edge id in place of another: labels no longer 1..k
            parts[2] = parts[3]
            lines[i] = " ".join(parts)
            break
    report = rb.verify_building_local("\n".join(lines) + "\n", bb3.spec)
    assert not report.ok
    assert any(v[0] == "FaceLabeling" for v in report.violations)


def test_parse_rejects_garbage():
    with pytest.raises(rb.BuildingError):
        rb.parse_complex("v 0 bad line\n")
