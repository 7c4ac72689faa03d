"""Checks computed apart from hypbuild.

Nothing here imports hypbuild: the benchmark compares the library's
outputs against these independent computations.

* The word problem of a polygon reflection group, decided exactly by
  root signs in a Vinberg-style linear representation whose entries lie
  in Z[sqrt 2] (Vinberg, *Discrete linear groups generated by
  reflections*, 1971).  A chamber of the Tits cone is identified by the
  image of the interior point x0 = (1, ..., 1) of the fundamental cone,
  so two words are equal in W exactly when their images of x0 agree.
* Growth series: Steinberg's formula for the thin tessellations and
  Chiswell's graph-product formula for the right-angled buildings.
* The combinatorial Gauss-Bonnet law d = n * A0 for catalog entries.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# Z[sqrt 2]: a + b*sqrt(2) as an integer pair
# ---------------------------------------------------------------------------

ZERO = (0, 0)


def _mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _sign(x):
    a, b = x
    if a >= 0 and b >= 0:
        return 0 if a == 0 and b == 0 else 1
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: the larger of a^2 and 2b^2 decides
    if a * a > 2 * b * b:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


# A_ij * A_ji = 4 cos^2(pi/m); non-adjacent edges (m = infinity) get
# (-2, -2), whose product 4 makes s_i s_j of infinite order.
_CARTAN_PAIR = {
    2: (ZERO, ZERO),
    3: ((-1, 0), (-1, 0)),
    4: ((-1, 0), (-2, 0)),
    6: ((-1, 0), (-3, 0)),
    8: ((-1, 0), (-2, -1)),
}


class RootOracle:
    """Exact word problem for the reflection group of a k-gon with
    vertex gonalities m (vertex j joins edge labels j and j+1)."""

    def __init__(self, k, m):
        self.k = k
        cartan = [[(2, 0) if i == j else (-2, 0) for j in range(k)] for i in range(k)]
        for j in range(k):
            a, b = j, (j + 1) % k
            cartan[a][b], cartan[b][a] = _CARTAN_PAIR[m[j]]
        # column i of the Cartan matrix: the vector h_i of reflection s_i
        self._cols = [[cartan[r][i] for r in range(k)] for i in range(k)]

    def reflect(self, v, s):
        """s_s(v) = v - v_s * h_s (labels are 1-based)."""
        col = self._cols[s - 1]
        c = v[s - 1]
        out = []
        for x, h in zip(v, col):
            p = _mul(c, h)
            out.append((x[0] - p[0], x[1] - p[1]))
        return out

    def origin(self):
        return [(1, 0)] * self.k

    def point(self, word):
        """Image of x0 under the element of `word` (a chamber's identity)."""
        v = self.origin()
        for s in reversed(word):
            v = self.reflect(v, s)
        return v

    def left_descents(self, v):
        return [i + 1 for i, x in enumerate(v) if _sign(x) < 0]

    def check_reduced(self, word):
        v = self.origin()
        for s in reversed(word):
            if _sign(v[s - 1]) < 0:
                return False
            v = self.reflect(v, s)
        return True

    def check_canonical(self, word):
        """True when `word` is reduced and ShortLex-least among the
        reduced words of its element; returns (ok, point)."""
        points = []
        v = self.origin()
        for s in reversed(word):
            if _sign(v[s - 1]) < 0:
                return False, None  # s is a left descent: not reduced
            points.append(v)
            v = self.reflect(v, s)
        top = v
        # read left to right: each letter must be the least left descent
        # of the remaining suffix element
        cur = top
        for pos, s in enumerate(word):
            if min(self.left_descents(cur)) != s:
                return False, top
            cur = points[len(word) - 1 - pos]
        return True, top

    def shortlex(self, word):
        """ShortLex normal form: strip the least left descent until none
        is left."""
        v = self.point(word)
        out = []
        while True:
            descents = self.left_descents(v)
            if not descents:
                return tuple(out)
            out.append(descents[0])
            v = self.reflect(v, descents[0])

    def reduced_word_count(self, word):
        """Number of reduced words of the element of `word`: the size of
        its braid class (Matsumoto), counted over the weak-order interval
        below it with N(w) = sum of N(s w) over left descents s."""
        memo = {}

        def count(v):
            key = tuple(v)
            hit = memo.get(key)
            if hit is None:
                descents = self.left_descents(v)
                hit = sum(count(self.reflect(v, s)) for s in descents) if descents else 1
                memo[key] = hit
            return hit

        return count(self.point(word))

    def min_weight(self, word, weights):
        """Least total weight sum(weights[s - 1]) over the reduced words
        of the element of `word`, by the same recursion."""
        memo = {}

        def best(v):
            key = tuple(v)
            hit = memo.get(key)
            if hit is None:
                descents = self.left_descents(v)
                hit = min(weights[s - 1] + best(self.reflect(v, s)) for s in descents) if descents else 0.0
                memo[key] = hit
            return hit

        return best(self.point(word))

    def random_reduced(self, rng, length):
        """A uniformly stepped random reduced word of the given length:
        each appended letter is drawn among the non-descents."""
        word = []
        inv = self.origin()  # image of x0 under word^{-1}
        for _ in range(length):
            choices = [i + 1 for i, x in enumerate(inv) if _sign(x) > 0]
            s = rng.choice(choices)
            word.append(s)
            inv = self.reflect(inv, s)
        return tuple(word)


# ---------------------------------------------------------------------------
# growth series
# ---------------------------------------------------------------------------

def _series_inverse(den, n):
    """Power series 1/den to degree n (den[0] == 1, integer coefficients)."""
    out = [0] * (n + 1)
    for d in range(n + 1):
        acc = 1 if d == 0 else 0
        for j in range(1, min(d, len(den) - 1) + 1):
            acc -= den[j] * out[d - j]
        out[d] = acc
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _series_mul(a, b, n):
    return (_poly_mul(a, b) + [0] * (n + 1))[: n + 1]


def _as_series(frac_terms, n):
    """Sum of polynomial/polynomial terms as a power series to degree n."""
    total = [0] * (n + 1)
    for num, den in frac_terms:
        s = _series_mul(num, _series_inverse(den, n), n)
        for d in range(n + 1):
            total[d] += s[d]
    return total


def steinberg_spheres(k, m, radius):
    """Sphere sizes |{w : l(w) = n}|, n = 0..radius, of the polygon
    reflection group, from Steinberg's formula
    1/W(t) = 1 - k t/(1+t) + sum_j t^m_j / ((1+t)(1+...+t^(m_j - 1)))."""
    terms = [([1], [1]), ([0, -k], [1, 1])]
    for mj in m:
        num = [0] * mj + [1]
        terms.append((num, _poly_mul([1, 1], [1] * mj)))
    inv_w = _as_series(terms, radius)
    return _series_inverse(inv_w, radius)


def chiswell_spheres(k, q, radius):
    """Sphere sizes of a right-angled k-gon building with thicknesses q,
    i.e. of the graph product of Z/(q_i + 1) over the k-cycle, from
    Chiswell's formula 1/W(t) = sum over cliques of prod (1/G_v(t) - 1)
    with G_v(t) = 1 + q_v t."""
    terms = [([1], [1])]
    for qi in q:
        terms.append(([0, -qi], [1, qi]))
    for j in range(k):
        a, b = q[j], q[(j + 1) % k]
        terms.append(([0, 0, a * b], _poly_mul([1, a], [1, b])))
    inv_w = _as_series(terms, radius)
    return _series_inverse(inv_w, radius)


def cumulative(spheres):
    out, acc = [], 0
    for x in spheres:
        acc += x
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Gauss-Bonnet
# ---------------------------------------------------------------------------

def chamber_area(k, m):
    """A0 / pi = k - 2 - sum 1/m_i."""
    return Fraction(k - 2) - sum(Fraction(1, mi) for mi in m)


def gauss_bonnet_ok(entry, k, m):
    """d = n * A0, with d recomputed from the JSON corner angles:
    d / pi = (l - 2) - sum(angles)."""
    corners = entry["corners"]
    d = Fraction(len(corners) - 2) - sum(Fraction(*c["angle"]) for c in corners)
    return d == Fraction(*entry["defect"]) and d == entry["n"] * chamber_area(k, m)
