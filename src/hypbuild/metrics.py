"""Exact metric machinery on the dual graph of tessellations and buildings.

The dual graph has one vertex per chamber; chambers sharing an edge
labeled i are joined by an edge of length log q_i.  All metric values
are exact WeightVectors (integer or half-integer combinations of logs of
primes), compared exactly; floats only appear in the Dijkstra heap keys
and gap test (below), in the growth radius threshold and in reported
`value`s.  Rays are traced in floats,
but a chamber is always named by its exact word, and which side of a
wall it lies on is one word-problem query (CoxeterSystem.separates).

The host ball is a CoxeterBall (a thin apartment) or a
rabuilding.BuildingBall.  Both give the chamber interface of
coxeter.ChamberComplex (`rmul`, `step`, `append`, `thickness`,
`inverse`, `times`, `is_inner`), so no code here asks which one it has: the
detection experiments add branch rays exactly where a panel's thickness
exceeds 1.

Two independent distance engines are provided:

* ``dist``: textbook Dijkstra on the truncated dual graph; exact for
  chamber pairs of the inner ball (a minimal-weight gallery between
  chambers of word length <= N/2 stays inside the radius-N ball).  It
  runs on packed ints (WeightVector.pack): a distance is the sum of the
  label codes along a gallery, so equal codes are equal distances.  A
  float key, the running sum of log q_i, orders the heap, and a float
  gap above _MARGIN = 1e-6 of the larger key decides a relaxation; a
  closer one goes to the exact comparison.  A key sums n <= N - 1 terms
  along a simple gallery of a ball of N chambers, so its relative error
  is below (n + 2) 2^-53, under 3e-10 for any ball under chamber_cap
  (2 * 10^6), far inside the margin.  A chamber whose distance falls
  after its expansion is expanded again, and a search for one target
  stops only when the least key is past the target's by the margin, so
  the heap order never decides a distance.
* ``wall_sum``: the separating-wall decomposition — the minimum, over
  reduced words of the W-distance, of the sum of the crossed walls'
  edge weights.  This is intrinsic (needs no ball) and backs all the
  boundary machinery.  Reduced words of one element differ only by
  braid moves (Matsumoto), and a braid move at a vertex of odd m trades
  one letter for the other; so when q agrees across every vertex of odd
  m (the weights are constant on conjugacy classes of generators, as on
  every right-angled building) all reduced words have one weight, the
  letter sum of the ShortLex word.  Otherwise the minimum is searched
  over reduced words (``_minw``).

Each wall sum is cached once, packed into one int (WeightVector.pack,
one 64-bit field per prime of the weights), and computed from the
W-distance word ``ball.times(ball.inverse(C), C')``, with C^-1 kept per
chamber, so a building host's misses make no word-problem call and
normalize each C^-1 once.  A boundary Gromov table
holds 2{C_i|D_j}_C = |C_i - C| + |D_j - C| - |C_i - D_j| as such ints,
so stabilization compares ints, and only the stable value is unpacked
and halved; Busemann sequences work the same way.

Boundary points are finite-horizon ray surrogates: a RaySpec traces a
geodesic through an apartment chart and induces a chamber sequence in
the host, one step of the host ball's table per crossing, labeled by the
trace; Gromov products, Busemann cocycles and cross ratios are
stabilized limits along those sequences, and a failure to stabilize is
always surfaced, never truncated silently.  A chart is one shared
coxeter.Tessellation per (k, m) read to a word-length radius: a chamber
is stepped when a walk or a ray first reaches it, none is realized
(geomrender traces in each chamber's own frame), and no CoxeterBall is
built.  geomrender and rabuilding are imported by the functions that
trace, make charts or colour apartments, so distances alone load
neither.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .chamber import validate
from .coxeter import Tessellation
from .weights import WeightVector


class Disconnected(ValueError):
    pass


class NoStabilization(ArithmeticError):
    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class HorizonTooSmall(ValueError):
    exit_code = 3  # the CLI reports it and exits 3


class HypothesisFail(ValueError):
    pass


class NoApartment(ValueError):
    pass


# Dijkstra: a float gap above this share of the larger key decides an order
_MARGIN = 1e-6


class DualGraph:
    """Weighted dual graph of a ball.  `q` overrides the spec thickness
    for the edge weights (formal weights on a thin apartment).  Both
    engines run on ints packed over self.primes: Dijkstra sums label
    codes, with float keys only to order its heap and to decide wide
    gaps, and wall sums live in one cache (wall_code), filled by
    min_word_weight from the ball's reduced W-distance word."""

    def __init__(self, ball, q=None):
        self.ball = ball
        self.spec = ball.spec
        self.q = tuple(q) if q is not None else tuple(ball.spec.q)
        k = ball.spec.k
        if len(self.q) != k:
            raise ValueError("need one weight per edge label")
        self.weights = [WeightVector.log_int(qi) for qi in self.q]
        # the primes of the packed wall sums (WeightVector.pack)
        self.primes = tuple(sorted({p for w in self.weights for p in w.exponents()}))
        self._label_codes = [w.pack(self.primes) for w in self.weights]
        self._label_logs = [math.log(qi) for qi in self.q]
        # braid moves at a vertex of odd m trade one letter for the other,
        # so the letter sum is the same on every reduced word exactly
        # when q agrees across each such vertex (vertex j joins edges j
        # and j + 1)
        self.letter_sum = all(
            ball.spec.m[j] % 2 == 0 or self.q[j] == self.q[(j + 1) % k] for j in range(k)
        )
        self._minw_cache = {(): WeightVector.zero()}
        # (C, Cp) with C <= Cp -> its wall sum, packed (wall_code); C -> C^-1
        self._pair_cache, self._inverses = {}, {}

    def __len__(self):
        return len(self.ball)

    def weight(self, label):
        return self.weights[label - 1]

    # -- engine 1: Dijkstra on the truncated graph ----------------------

    def dist(self, C, Cp):
        code = self._dist_codes(C, Cp).get(Cp)
        if code is None:
            raise Disconnected("no path between chambers %d and %d" % (C, Cp))
        return WeightVector.unpack(code, self.primes).shared()

    def dist_from(self, C):
        """Single-source Dijkstra: every reachable chamber's exact distance."""
        primes = self.primes
        return {c: WeightVector.unpack(code, primes) for c, code in self._dist_codes(C).items()}

    def _dist_codes(self, C, target=None):
        """Exact packed distances from C (see the module docstring); with
        a target, only the target's is sure to be final."""
        codes, logs, primes = self._label_codes, self._label_logs, self.primes
        labels, rmul = self.ball.labels, self.ball.rmul  # ball.neighbors, inlined in the hot loop
        best, key = {C: 0}, {C: 0.0}
        heap = [(0.0, C, 0)]
        stop = math.inf  # past this key no chamber can beat the target's distance
        while heap:
            f, c, code = heapq.heappop(heap)
            if f > stop:
                break
            if best[c] != code:
                continue
            if c == target:
                stop = f * (1 + _MARGIN)
                continue
            for label, d in zip(labels, rmul[c]):
                if d is None:
                    continue
                nd = code + codes[label - 1]
                nf = f + logs[label - 1]
                old = best.get(d)
                if old is not None:
                    of = key[d]
                    if nd == old or nf - of > _MARGIN * nf:
                        continue
                    if of - nf <= _MARGIN * of and not (
                        WeightVector.unpack(nd, primes) < WeightVector.unpack(old, primes)
                    ):
                        continue
                best[d], key[d] = nd, nf
                heapq.heappush(heap, (nf, d, nd))
        return best

    # -- engine 2: separating-wall weight sum ---------------------------

    def wall_sum(self, C, Cp):
        """Distance as the separating-wall decomposition: each reduced
        word of the W-distance crosses every separating wall exactly once
        at one specific edge; take the lightest choice of reduced word."""
        return WeightVector.unpack(self.wall_code(C, Cp), self.primes).shared()

    def wall_code(self, C, Cp):
        """wall_sum(C, Cp) packed over self.primes, for exact sums and
        differences in ints; the one cache of wall sums."""
        key = (C, Cp) if C <= Cp else (Cp, C)
        code = self._pair_cache.get(key)
        if code is None:
            inv = self._inverses.get(key[0])
            if inv is None:
                inv = self._inverses[key[0]] = self.ball.inverse(key[0])
            code = self._pair_cache[key] = self.min_word_weight(self.ball.times(inv, key[1]))
        return code

    def min_word_weight(self, word):
        """The least weight of a reduced word for the element of `word`,
        packed over self.primes; `word` must itself be reduced and
        ShortLex, as both balls' `times(inverse(a), b)` returns.  It is
        the letter sum when the weights are constant on conjugacy classes
        of generators, else the least sum over its reduced words."""
        if not self.letter_sum:
            return self._minw(word).pack(self.primes)
        codes = self._label_codes
        return sum(codes[i - 1] for i in word)

    def _minw(self, word):
        cached = self._minw_cache.get(word)
        if cached is not None:
            return cached
        best = None
        for i in set(word):
            shorter = self.ball.system.canon(word + (i,))
            if len(shorter) < len(word):
                cand = self._minw(shorter) + self.weight(i)
                if best is None or cand < best:
                    best = cand
        self._minw_cache[word] = best
        return best


def gromov(G, x, y, C):
    """Gromov product {x|y}_C = (|x-C| + |y-C| - |x-y|) / 2, exact."""
    total = G.dist(x, C) + G.dist(y, C) - G.dist(x, y)
    return total.halve()


# ---------------------------------------------------------------------------
# apartment charts and ray surrogates
# ---------------------------------------------------------------------------

# a thin ball and its normal polygon: all that geomrender.locate and
# trace read
Apartment = namedtuple("Apartment", "ball polygon")
# a chart's thin ball: a Tessellation's words, step and word problem,
# read to a word-length radius
ChartBall = namedtuple("ChartBall", "words step system radius")

_REALIZED_CACHE = {}


def realized_apartment(spec, radius):
    """The apartment chart of the spec's Coxeter system to a word-length
    radius: its chambers are those of word length <= radius.  One
    coxeter.Tessellation and normal polygon per (k, m) serve every
    radius (geometry does not depend on thickness); the tessellation
    steps a chamber when a walk or a ray first reaches it, so chart
    chamber ids are discovery order.  No chamber is realized: rays are
    traced in chamber frames."""
    from . import geomrender as gr

    key = (spec.k, spec.m)
    if key not in _REALIZED_CACHE:
        thin = validate(spec.k, spec.m)
        _REALIZED_CACHE[key] = Tessellation(thin), gr.normal_polygon(thin)
    tess, polygon = _REALIZED_CACHE[key]
    return Apartment(ChartBall(tess.words, tess.step, tess.system, radius), polygon)


class ApartmentChart:
    """An apartment (a chart made by realized_apartment, or any thin
    ball with its polygon) laid into the host: its origin on the host
    chamber `coloring.base` and each wall colored by `coloring` (an
    rabuilding.ApartmentColoring).  With no coloring, the origin lies on
    the base chamber and every wall has color 1."""

    def __init__(self, graph, realized, coloring=None):
        self.graph = graph
        self.realized = realized
        self.coloring = coloring

    def host_of(self, chart_chamber):
        """The host chamber of a chart chamber, or None outside the host
        ball: the base's normal form times the chamber's chart word, each
        letter colored by the wall it crosses."""
        ball, w, coloring = self.graph.ball, self.realized.ball.words[chart_chamber], self.coloring
        word = coloring.base if coloring else ()
        for j, s in enumerate(w):
            word = ball.append(word, s, coloring.color(w[:j], s) if coloring else 1)
        return ball.index.get(word)


def chart_for(graph, chart_radius=None, coloring=None):
    """The host's apartment chart (realized_apartment) to word length
    `chart_radius`, by default the host ball's radius + 3, laid in by
    `coloring`."""
    radius = chart_radius if chart_radius is not None else graph.ball.radius + 3
    return ApartmentChart(graph, realized_apartment(graph.spec, radius), coloring)


@dataclass
class RaySpec:
    """A finite-horizon boundary-point surrogate: a geodesic ray traced
    through an apartment chart from `base` in direction `theta` (or along
    an explicit unit `tangent`, which then replaces theta).  The ray is
    traced once; its chart chambers are kept for the host sequence and
    for the wall-side test."""

    chart: ApartmentChart
    base: tuple
    theta: float
    tangent: tuple = None
    _chambers: list = field(default=None, repr=False)
    _labels: list = field(default=None, repr=False)
    _key: tuple = field(default=None, repr=False)
    _seq: list = field(default=None, repr=False)

    def direction_key(self):
        if self._key is None:
            key = (tuple(round(x, 9) for x in self.base), round(self.theta, 9))
            if self.tangent is not None:
                key += (tuple(round(x, 9) for x in self.tangent),)
            self._key = key
        return self._key

    def chart_chambers(self):
        """Chart chambers along the ray: start chamber, then each chamber
        entered, up to the chart boundary.  The label of each crossing is
        kept for chamber_sequence."""
        if self._chambers is None:
            from . import geomrender as gr

            realized = self.chart.realized
            crossings = gr.trace(
                realized, self.base, self.theta, 1e9,
                tangent=self.tangent, stop_at_boundary=True,
            )
            if crossings:
                # the first crossing leads back to the start across its edge
                label, first, _t = crossings[0]
                start = realized.ball.step(first, label)
            else:
                start = gr.locate(realized, self.base)
            self._chambers = [start] + [c for _lbl, c, _t in crossings]
            self._labels = [lbl for lbl, _c, _t in crossings]
        return self._chambers

    def chamber_sequence(self):
        """Host chambers along the ray, truncated at the host ball
        boundary: the start chamber's (ApartmentChart.host_of), then one
        host step per crossing.  An apartment is a coloring of its walls
        (Davis 2008), so crossing edge s through a wall of color c
        multiplies the host chamber by the letter (s, c) when the chart
        word grows, and by its inverse (s, q_s + 1 - c) when it shrinks."""
        if self._seq is None:
            chambers, chart = self.chart_chambers(), self.chart
            host, words, coloring = chart.graph.ball, chart.realized.ball.words, chart.coloring
            seq, h = [], chart.host_of(chambers[0])
            for s, prev, c in zip([None] + self._labels, [None] + chambers, chambers):
                if prev is not None:
                    w = words[prev]
                    color = coloring.color(w, s) if coloring else 1
                    if len(words[c]) < len(w):
                        color = host.thickness[s - 1] + 1 - color
                    h = host.step(h, s, color)
                if h is None:
                    break
                seq.append(h)
            self._seq = seq
        return self._seq


# ---------------------------------------------------------------------------
# stabilized boundary quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stabilized:
    value: WeightVector
    index: int
    horizon: int


_MIN_TAIL = 2


def _require_distinct(xi, eta):
    if xi.direction_key() == eta.direction_key() and xi.chart is eta.chart:
        raise ValueError("boundary points must have distinct directions")


def boundary_gromov(G, xi, eta, C):
    """Stabilized boundary Gromov product {xi|eta}_C: the double sequence
    {C_i|D_j}_C along the two ray chamber sequences, required constant
    from some index on through the traced horizon.  The table holds
    twice each product as an int, from packed wall sums (wall_code);
    only the stable value is unpacked and halved."""
    _require_distinct(xi, eta)
    Ci = xi.chamber_sequence()
    Dj = eta.chamber_sequence()
    horizon = min(len(Ci), len(Dj))
    if horizon < _MIN_TAIL + 1:
        raise NoStabilization("ray horizon too short", (len(Ci), len(Dj)))
    code = G.wall_code
    Ci, Dj = Ci[:horizon], Dj[:horizon]
    dC = [code(c, C) for c in Ci]
    dD = [code(d, C) for d in Dj]
    vals = [[dc + dd - code(c, d) for d, dd in zip(Dj, dD)] for c, dc in zip(Ci, dC)]
    twice, index = _stable_tail(vals)
    if index >= horizon - _MIN_TAIL:
        raise NoStabilization(
            "boundary Gromov product did not stabilize within the horizon",
            {"horizon": horizon},
        )
    value = WeightVector.unpack(twice, G.primes).halve().shared()
    return Stabilized(value=value, index=index, horizon=horizon)


def _stable_tail(vals):
    """The value and the least index i0 of the constant tail of a square
    table: vals[i][j] is the same for all i, j >= i0.

    The tails are scanned from the last index down, in O(h^2): tail i0 is
    constant exactly when tail i0 + 1 is and row i0 and column i0 of tail
    i0 carry its value, so the scan stops at the first failure."""
    h = len(vals)
    value = vals[h - 1][h - 1]
    index = h - 1
    for i0 in range(h - 2, -1, -1):
        row = vals[i0]
        if not all(row[j] == value and vals[j][i0] == value for j in range(i0, h)):
            break
        index = i0
    return value, index


def busemann(G, xi, C, D):
    """Stabilized Busemann cocycle B_xi(C, D): the eventual constant of
    |D - C_i| - |C - C_i| along the ray chamber sequence, computed on
    packed wall sums."""
    Ci = xi.chamber_sequence()
    horizon = len(Ci)
    if horizon < _MIN_TAIL + 1:
        raise NoStabilization("ray horizon too short", horizon)
    code = G.wall_code
    vals = [code(D, c) - code(C, c) for c in Ci]
    value, index = _stable_suffix(vals)
    if index >= horizon - _MIN_TAIL:
        raise NoStabilization(
            "Busemann value did not stabilize",
            [WeightVector.unpack(v, G.primes) for v in vals[-3:]],
        )
    return WeightVector.unpack(value, G.primes).shared()


def _stable_suffix(vals):
    """The value and the least index i0 of the constant tail of a
    sequence, scanned from the last entry down: the one-dimensional
    form of _stable_tail, in O(h)."""
    value = vals[-1]
    index = len(vals) - 1
    while index > 0 and vals[index - 1] == value:
        index -= 1
    return value, index


def cross_ratio(G, xi1, xi2, eta1, eta2, C):
    """Combinatorial cross ratio
    -{xi1|eta1}_C - {xi2|eta2}_C + {xi1|eta2}_C + {xi2|eta1}_C."""
    a = boundary_gromov(G, xi1, eta1, C).value
    b = boundary_gromov(G, xi2, eta2, C).value
    c = boundary_gromov(G, xi1, eta2, C).value
    d = boundary_gromov(G, xi2, eta1, C).value
    return (-a - b + c + d).shared()


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

def growth(G, n):
    """a(n): number of chambers within weighted distance n of the base
    chamber 0.  Raises HorizonTooSmall unless every boundary chamber of the
    ball is already farther than n (so the count is certified)."""
    within = [c for c, d in G.dist_from(0).items() if d.value() <= n + 1e-9]
    if not all(G.ball.is_inner[c] for c in within):
        raise HorizonTooSmall("ball radius too small: boundary chambers within distance %s" % n)
    return len(within)


@dataclass(frozen=True)
class TauEstimate:
    values: tuple  # (n, Fraction approximation of (1/n) log a(n))
    converged: bool  # always False: finite horizon only
    note: str


def tau_estimate(G, nmax):
    out = []
    for n in range(1, nmax + 1):
        a = growth(G, n)
        val = math.log(a) / n if a > 0 else 0.0
        out.append((n, Fraction(val).limit_denominator(10**9)))
    return TauEstimate(
        values=tuple(out),
        converged=False,
        note="finite-horizon estimate; the growth exponent is a limsup and "
        "is not certified by any finite ball",
    )


# ---------------------------------------------------------------------------
# detection experiments
# ---------------------------------------------------------------------------

def _wall_frame(realized, label):
    """Points and directions for the wall geodesic through edge `label`
    of the base chamber: a base point on the wall and the unit tangent
    along it."""
    from . import geomrender as gr

    polygon = realized.polygon
    va, vb = polygon.edge_endpoints(label)
    mid = gr._normalize_point(tuple(va[i] + vb[i] for i in range(3)))
    t = tuple(vb[i] - gr.bform(vb, mid) * mid[i] for i in range(3))
    s = math.sqrt(-gr.bform(t, t))
    return mid, tuple(x / s for x in t)


def _offset_point(p, direction, dist_along, normal, dist_off):
    """Point at arc length `dist_along` along `direction` from p, then
    pushed `dist_off` along `normal` (both tangent vectors at p are
    transported crudely by re-normalization; adequate for small offsets)."""
    from . import geomrender as gr

    x = gr.geodesic_point(p, direction, dist_along)
    x = gr._normalize_point(x)
    # transport the normal: project to the tangent space at x
    nt = tuple(normal[i] - gr.bform(normal, x) * x[i] for i in range(3))
    s = math.sqrt(-gr.bform(nt, nt))
    nt = tuple(v / s for v in nt)
    y = gr.geodesic_point(x, nt, dist_off)
    return gr._normalize_point(y)


def detect_skeleton_experiment(G, line, samples=24, seed=0):
    """Sample cross ratios of regular quadruples straddling the two ends
    of a line and report the observed value set.

    `line` is either ("wall", label) — the 1-skeleton wall through edge
    `label` of the base chamber — or ("generic", theta): the geodesic
    through the base chamber's incenter in direction theta.

    PASS when a generic line yields only zero cross ratios, and a wall
    yields values that are all integer multiples of (1/2) log q_label
    with both 0 and -(1/2) log q_label observed.
    """
    import random

    from . import geomrender as gr

    rng = random.Random(seed)
    results = []
    errors = []
    if line[0] == "wall":
        label = line[1]
        half = WeightVector.half_log_int(G.q[label - 1])
        configs = _skeleton_quadruples(G, label, samples, rng)
    else:
        configs = _generic_quadruples(G, line[1], samples, rng)
    for idx, quad in enumerate(configs):
        xi1, xi2, eta1, eta2, meta = quad
        try:
            val = cross_ratio(G, xi1, xi2, eta1, eta2, 0)
        except (NoStabilization, gr.NearVertex, gr.LeftBall) as exc:
            errors.append({"sample": idx, "error": type(exc).__name__})
            continue
        results.append({"sample": idx, "meta": meta, "value": val})
    observed = []
    for r in results:
        if r["value"] not in observed:
            observed.append(r["value"])
    if line[0] == "wall":
        multiples = [v.multiple_of_half_log(G.q[line[1] - 1]) for v in observed]
        in_lattice = all(m is not None for m in multiples)
        zero_seen = any(v.is_zero() for v in observed)
        neg_half_seen = any(v == -half for v in observed)
        verdict = in_lattice and zero_seen and neg_half_seen
    else:
        verdict = bool(results) and all(r["value"].is_zero() for r in results)
    return {
        "line": line,
        "samples": len(results),
        "errors": errors,
        "observed": observed,
        "pass": verdict,
    }


def _panel_charts(G, chart, chart_chamber, label):
    """Charts covering every host chamber of the panel across `label` of
    the given chart chamber (for a thin host, just the one chart)."""
    from . import rabuilding as rb

    ball = G.ball
    if ball.thickness[label - 1] == 1:
        return [(chart, None)]
    base_host = chart.host_of(chart_chamber)
    out = []
    for color in range(1, ball.thickness[label - 1] + 1):
        target = ball.step(base_host, label, color)
        if target is None:
            continue
        coloring = rb.apartment_through(ball, ball.words[base_host], ball.words[target])
        # re-base the coloring so the chart origin still maps to the
        # chart's base chamber
        rebased = _rebase(G, chart, coloring, chart_chamber)
        out.append((ApartmentChart(G, chart.realized, rebased), color))
    return out


def _rebase(G, chart, coloring, chart_chamber):
    """Shift an apartment coloring so that evaluating it along the chart
    words reproduces the chart's origin assignment for `chart_chamber`."""
    from . import rabuilding as rb

    # coloring is based at the host image of chart_chamber; build a new
    # coloring whose alpha over the chart origin () agrees with walking
    # backwards from chart_chamber
    sysc = G.ball.system
    w = chart.realized.ball.words[chart_chamber]
    base = coloring.alpha(sysc.canon(w[::-1]))
    new_colors = {sysc.conjugate(w, refl): col for refl, col in coloring.colors.items()}
    # walls colored on the path from the new base to the old one keep
    # their colors implicitly via apartment_through below
    through = rb.apartment_through(G.ball, base, coloring.base)
    merged = dict(through.colors)
    merged.update(new_colors)
    return rb.ApartmentColoring(system=sysc, base=base, colors=merged)


def _skeleton_quadruples(G, label, samples, rng):
    """Quadruples of regular rays straddling the wall through edge
    `label` of the base chamber, entering varying chambers on each side
    (including off-apartment chambers of a thick building)."""
    from . import geomrender as gr

    chart0 = chart_for(G)
    realized = chart0.realized
    mid, along = _wall_frame(realized, label)
    inr = realized.polygon.inradius
    quads = []
    neg = tuple(-x for x in along)
    for s in range(samples):
        off = inr * (0.08 + 0.10 * rng.random())
        tilt = 0.15 + 0.35 * rng.random()
        back = inr * (0.2 + 0.4 * rng.random())
        # side selector per ray: +1 / -1 across the wall; color choice for
        # thick hosts handled through panel charts below
        sides = [rng.choice((1, -1)) for _ in range(4)]
        use_branch = G.ball.thickness[label - 1] > 1 and s % 3 == 2
        normal = realized.polygon.normals[label - 1]
        rays = []
        for r_idx in range(4):
            toward = neg if r_idx < 2 else along
            theta_dir = math.atan2(toward[2], toward[1])
            sgn = sides[r_idx]
            base = _offset_point(mid, toward, -back, normal, sgn * off)
            tilt_theta = theta_dir + sgn * tilt * (0.7 + 0.3 * rng.random())
            chart = chart0
            if use_branch and r_idx == 0:
                cc = gr.locate(realized, base)
                branch = _panel_charts(G, chart0, cc, label)
                if len(branch) > 1:
                    chart = branch[-1][0]
            rays.append(RaySpec(chart=chart, base=base, theta=tilt_theta))
        quads.append((*rays, {"sides": sides, "branch": use_branch}))
    return quads


def _generic_quadruples(G, theta, samples, rng):
    from . import geomrender as gr

    chart = chart_for(G)
    realized = chart.realized
    inr = realized.polygon.inradius
    o = (1.0, 0.0, 0.0)
    quads = []
    for _s in range(samples):
        jitter = [0.05 * inr * rng.uniform(-1, 1) for _ in range(4)]
        dthetas = [0.25 * rng.uniform(0.3, 1.0) for _ in range(4)]
        rays = []
        for r_idx in range(4):
            sign = 1 if r_idx % 2 == 0 else -1
            direction = theta + (math.pi if r_idx >= 2 else 0.0)
            base = gr._normalize_point(
                gr.geodesic_point(o, (0.0, math.cos(theta + 1.3), math.sin(theta + 1.3)), jitter[r_idx])
            )
            rays.append(RaySpec(chart=chart, base=base, theta=direction + sign * dthetas[r_idx]))
        quads.append((rays[0], rays[1], rays[2], rays[3], {"theta": theta}))
    return quads


def _carrying_chamber(ray):
    """Host chamber whose interior carries the ray's base point."""
    from . import geomrender as gr

    cc = gr.locate(ray.chart.realized, ray.base)
    if cc is None:
        raise NoApartment("ray base not inside the carrying apartment")
    return ray.chart.host_of(cc)


def _stays_off_wall(ray, refl):
    """True when the ray's traced chart chambers all lie on one side of
    the wall of the reflection `refl` (the disjointness hypothesis,
    checked at the traced horizon)."""
    from . import geomrender as gr

    try:
        chambers = ray.chart_chambers()
    except (gr.NearVertex, gr.LeftBall):
        return False
    ball = ray.chart.realized.ball
    side = ball.system.separates(refl, ball.words[chambers[0]])
    return all(ball.system.separates(refl, ball.words[c]) == side for c in chambers[1:])


def _side_probes(G, chart0, label, off, back, tilt, mid, along, normal):
    """Probe rays toward the far end of the wall, entering distinct
    chambers of a far panel (including branch chambers of a building)."""
    from . import geomrender as gr

    realized = chart0.realized
    theta_pos = math.atan2(along[2], along[1])
    probes = []
    for sgn in (1, -1):
        base = _offset_point(mid, along, back, normal, sgn * off * 0.9)
        probes.append(RaySpec(chart=chart0, base=base, theta=theta_pos + sgn * tilt))
    if G.ball.thickness[label - 1] > 1:
        cc = gr.locate(realized, probes[0].base)
        for chart_b, _color in _panel_charts(G, chart0, cc, label)[1:]:
            probes.append(RaySpec(chart=chart_b, base=probes[0].base, theta=probes[0].theta))
    return probes


def _side_record(G, refl, xi1, xi2, probes, strict=False):
    """Evaluate one side-detection configuration: carrying chambers,
    wall-disjointness hypothesis, and the sampled cross-ratio family."""
    carrier1 = _carrying_chamber(xi1)
    carrier2 = _carrying_chamber(xi2)
    if not (_stays_off_wall(xi1, refl) and _stays_off_wall(xi2, refl)):
        if strict:
            raise HypothesisFail("a ray meets the wall within the traced horizon")
        return {"error": "HypothesisFail"}
    eta_ref = probes[0]
    values = [cross_ratio(G, xi1, xi2, eta, eta_ref, 0) for eta in probes[1:]]
    distinct = []
    for v in values:
        if v not in distinct:
            distinct.append(v)
    sampled_same = len(distinct) == 1
    combinatorial_same = carrier1 == carrier2
    return {
        "carriers": (carrier1, carrier2),
        "same_side": combinatorial_same,
        "distinct_values": len(distinct),
        "agree": sampled_same == combinatorial_same,
    }


def detect_side_experiment(G, sigma_label, xi1=None, xi2=None, configs=20, seed=0):
    """For pairs of regular rays launched beside the wall ray through
    edge `sigma_label`, compare the combinatorial same-side verdict with
    the sampled cross-ratio behaviour near the singular end.

    When `xi1` and `xi2` are supplied, only that pair is evaluated (a
    single-configuration report); otherwise `configs` configurations are
    sampled, alternating same-side, opposite-side, and (for buildings)
    branch-chamber placements.

    Combinatorial verdict: each ray is carried by one chamber of the
    panel along the shared wall edge (found by locating its base point);
    the rays are on the same side exactly when those carrying chambers
    coincide.  Sampled verdict: probes eta' entering distinct chambers
    of a far panel supply the cross-ratio family {xi1 xi2 | eta' eta_ref};
    a single constant means same side, at least two distinct constants
    means different sides.  `pass` requires agreement on >= `configs`
    configurations.  Both rays must stay off the wall through the traced
    horizon; configurations violating this are skipped and recorded.
    """
    import random

    from . import geomrender as gr

    rng = random.Random(seed)
    chart0 = chart_for(G)
    realized = chart0.realized
    sysc = realized.ball.system
    label = sigma_label
    refl = sysc.canon((label,))
    mid, along = _wall_frame(realized, label)
    normal = realized.polygon.normals[label - 1]
    inr = realized.polygon.inradius

    if xi1 is not None or xi2 is not None:
        if xi1 is None or xi2 is None:
            raise ValueError("xi1 and xi2 must be supplied together")
        off = inr * 0.12
        back = inr * 0.4
        probes = _side_probes(G, chart0, label, off, back, 0.3, mid, along, normal)
        record = _side_record(G, refl, xi1, xi2, probes, strict=True)
        return {
            "label": label,
            "configs": 1,
            "records": [record],
            "pass": record["agree"],
        }

    kinds = ["same", "opposite"]
    if G.ball.thickness[label - 1] > 1:
        kinds.append("branch")
    records = []
    agree = 0
    attempts = 0
    while agree < configs and attempts < configs * 8:
        attempts += 1
        kind = kinds[attempts % len(kinds)]
        off = inr * (0.08 + 0.08 * rng.random())
        back = inr * (0.25 + 0.35 * rng.random())
        tilt = 0.2 + 0.3 * rng.random()
        neg = tuple(-x for x in along)
        theta_neg = math.atan2(neg[2], neg[1])
        s2 = -1 if kind == "opposite" else 1
        xi = []
        for sgn, extra in ((1, 0.0), (s2, 0.12)):
            base = _offset_point(mid, neg, back, normal, sgn * off)
            xi.append(RaySpec(chart=chart0, base=base, theta=theta_neg + sgn * (tilt + extra)))
        if kind == "branch":
            # move the second ray into a different chamber of the same
            # panel: same geometry, carried by a branch chamber
            cc = gr.locate(realized, xi[1].base)
            branch = _panel_charts(G, chart0, cc, label)
            if len(branch) <= 1:
                records.append({"error": "NoBranchChart"})
                continue
            xi[1] = RaySpec(chart=branch[-1][0], base=xi[1].base, theta=xi[1].theta)
        try:
            probes = _side_probes(G, chart0, label, off, back, tilt, mid, along, normal)
            record = _side_record(G, refl, xi[0], xi[1], probes)
        except (NoStabilization, gr.NearVertex, gr.LeftBall, NoApartment) as exc:
            records.append({"error": type(exc).__name__})
            continue
        record["kind"] = kind
        records.append(record)
        if record.get("agree"):
            agree += 1
    return {
        "label": label,
        "configs": agree,
        "records": records,
        "pass": agree >= configs,
    }
