"""The Coxeter tessellation of the hyperbolic plane by a chamber polygon.

Generators are the reflections s_1..s_k across the edges of the base
chamber; s_i and s_{i+1} (cyclically) satisfy (s_i s_{i+1})^m = 1 where
pi/m is the angle at the shared vertex, and non-adjacent generator pairs
have no relation (m = infinity).

The word problem is solved exactly on root coordinates.  W acts on R^k
through a Vinberg-style Cartan matrix A (A_ii = 2, A_ij <= 0, and
A_ij * A_ji = 4 cos^2(pi/m) for adjacent edges, 4 for non-adjacent
ones); s_i maps x to x - x_i * A[:, i].  Since every m lies in
{2, 3, 4, 6, 8}, the pairs (A_ij, A_ji) can be chosen in Z[sqrt 2]:

    m = 2: (0, 0)    m = 3: (-1, -1)    m = 4: (-1, -2)
    m = 6: (-1, -3)  m = 8: (-1, -(2 + sqrt 2))    m = inf: (-2, -2)

so every coordinate of a point is a + b*sqrt(2) with integers a and b,
and its sign is decided in integers (compare a^2 with 2b^2), never with
a float.  The open cone x > 0 is a fundamental chamber (Vinberg, *Discrete
linear groups generated by reflections*, 1971): for x0 = (1, ..., 1),
s is a left descent of w (l(s w) < l(w)) exactly when the s-coordinate
of w(x0) is negative.  The ShortLex normal form -- the lexicographically
least reduced word, the canonical form used for chamber indexing
throughout -- is read off by repeatedly stripping the least left
descent (Brink-Howlett, Math. Ann. 296, 1993; Casselman, *Automata to
perform basic calculations in Coxeter groups*, 1994).  A word of length
n costs O(n k) ring operations to map and as many to strip.

A walk through the tessellation can keep each element's root matrix
instead of its word: w s_g changes one column of w's matrix, O(k^2)
ring operations, and the point w s_g (x0) keys it exactly.  Its
ShortLex word then needs only the descents stripped until the point
reaches an element whose word is already known.  `Tessellation` walks
this way, and it is the one neighbour step of the thin tessellation:
`CoxeterBall` builds its chambers and its `rmul` table with it, the
catalog searches it, and the apartment charts of `metrics` step it on
demand as rays cross them.  `canon` is left for arbitrary words.

Walls are named by their reflections, and both wall facts go through the
word problem in one place each: `CoxeterSystem.conjugate` builds the
ShortLex reflection w s_i w^-1 across edge i of chamber w, and
`CoxeterSystem.separates` decides which side of a wall a chamber lies
on with one `canon` call.  `CoxeterBall` groups its edges by wall once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .weights import SHARED_CAP


class BallTooSmall(ValueError):
    pass


class ResourceCap(RuntimeError):
    exit_code = 3  # the CLI reports it and exits 3


# (A_ij, A_ji) for the vertex of gonality m between edges i and j, as
# integer pairs (a, b) = a + b*sqrt(2); A_ij * A_ji = 4 cos^2(pi/m)
_CARTAN_PAIRS = {
    2: ((0, 0), (0, 0)),
    3: ((-1, 0), (-1, 0)),
    4: ((-1, 0), (-2, 0)),
    6: ((-1, 0), (-3, 0)),
    8: ((-1, 0), (-2, -1)),
}
# non-adjacent edges: A_ij * A_ji = 4, so s_i s_j has infinite order
_FREE = (-2, 0)
# canon returns the one instance of each word held here (at most SHARED_CAP)
_WORDS = {}


def _negative(a, b):
    """True when a + b*sqrt(2) < 0 (never called on zero)."""
    if a <= 0 and b <= 0:
        return True
    if a >= 0 and b >= 0:
        return False
    # opposite signs: the term of larger absolute value decides
    return (a < 0) if a * a > 2 * b * b else (b < 0)


class CoxeterSystem:
    """The hyperbolic polygon reflection group W for a chamber spec."""

    def __init__(self, spec):
        self.spec = spec
        self.k = spec.k
        # 0-based Cartan entries; vertex j joins edges j and j+1
        cartan = {(r, s): _FREE for r in range(self.k) for s in range(self.k) if r != s}
        for j in range(self.k):
            a, b = j, (j + 1) % self.k
            cartan[(a, b)], cartan[(b, a)] = _CARTAN_PAIRS[spec.m[j]]
        # column s as its nonzero off-diagonal entries (r, a, b):
        # s maps x_r to x_r - x_s * (a + b*sqrt 2) and x_s to -x_s
        self._columns = [
            [(r, *cartan[(r, s)]) for r in range(self.k) if r != s and cartan[(r, s)] != (0, 0)]
            for s in range(self.k)
        ]
        self._canon_cache = {}

    # -- word problem ---------------------------------------------------

    def canon(self, word):
        """ShortLex canonical form of an arbitrary word (tuple of 1-based
        generator indices)."""
        word = tuple(word)
        hit = self._canon_cache.get(word)
        if hit is not None:
            return hit
        k, columns = self.k, self._columns
        xa, xb = [1] * k, [0] * k  # the point x0, as a + b*sqrt(2) per coordinate
        # map x0 to w(x0) letter by letter from the right (the reflection
        # is inlined here and in _strip: this loop is the word problem's
        # hot path), then strip the least left descent until none is left
        for s in reversed(word):
            s -= 1
            ca, cb = xa[s], xb[s]
            for r, ha, hb in columns[s]:
                if hb:
                    xa[r] -= ca * ha + 2 * cb * hb
                    xb[r] -= ca * hb + cb * ha
                else:
                    xa[r] -= ca * ha
                    if cb:
                        xb[r] -= cb * ha
            xa[s], xb[s] = -ca, -cb
        result = tuple(self._strip(xa, xb)[0])
        result = _WORDS.get(result, result)
        if len(_WORDS) < SHARED_CAP:
            _WORDS[result] = result
        self._canon_cache[word] = result
        return result

    def _strip(self, xa, xb, known=None):
        """Strip least left descents off the point (xa, xb), in place,
        until none is left or the point is a key of `known`.

        Returns the 1-based letters stripped and known's value for the
        final point (None when no descent is left).  For the point u(x0)
        the letters stripped are the first letters of ShortLex(u), since
        ShortLex(u) = s ShortLex(s u) for the least left descent s."""
        k, columns = self.k, self._columns
        out = []
        while True:
            if known is not None:
                hit = known.get((*xa, *xb))
                if hit is not None:
                    return out, hit
            for s in range(k):
                a, b = xa[s], xb[s]
                if (a < 0 if b == 0 else _negative(a, b)):
                    break
            else:
                return out, None
            out.append(s + 1)
            ca, cb = xa[s], xb[s]
            for r, ha, hb in columns[s]:
                if hb:
                    xa[r] -= ca * ha + 2 * cb * hb
                    xb[r] -= ca * hb + cb * ha
                else:
                    xa[r] -= ca * ha
                    if cb:
                        xb[r] -= cb * ha
            xa[s], xb[s] = -ca, -cb

    # -- root matrices ----------------------------------------------------

    def identity_matrix(self):
        """The root matrix of the identity and its point x0.  A root matrix
        of w holds its columns w(alpha_j), each a tuple of k integer parts
        a followed by k parts b of the coordinates a + b*sqrt(2); the point
        w(x0), their sum, has the same layout and keys w exactly, since x0
        lies inside the fundamental chamber."""
        k = self.k
        cols = tuple(tuple(int(i == j) for i in range(2 * k)) for j in range(k))
        return cols, (1,) * k + (0,) * k

    def times_generator(self, cols, point, g):
        """Root matrix and point of w s_g from those of w, in O(k^2) ring
        operations: only column g changes, to
        w s_g(alpha_g) = -w(alpha_g) - sum_{r != g} A[r, g] w(alpha_r)."""
        k = self.k
        s = g - 1
        old = cols[s]
        new = [-x for x in old]
        for r, ha, hb in self._columns[s]:
            col = cols[r]
            if hb:
                for i in range(k):
                    a, b = col[i], col[k + i]
                    new[i] -= ha * a + 2 * hb * b
                    new[k + i] -= ha * b + hb * a
            else:
                for i in range(2 * k):
                    new[i] -= ha * col[i]
        new = tuple(new)
        point = tuple(p - o + n for p, o, n in zip(point, old, new))
        return cols[:s] + (new,) + cols[s + 1:], point

    def shortlex_prefix(self, point, known):
        """Strip least left descents off `point` = u(x0) until it is a key
        of `known` (which must hold x0); returns the letters stripped and
        known's value for the point reached, so that ShortLex(u) is the
        letters followed by the ShortLex word of that known element."""
        k = self.k
        return self._strip(list(point[:k]), list(point[k:]), known=known)

    # -- reflections and walls ------------------------------------------

    def conjugate(self, w, t):
        """ShortLex word of w t w^-1 for words w and t.  With t = (i,) this
        is the reflection across edge i of chamber w, the one place a wall
        is named by its reflection."""
        w = tuple(w)
        return self.canon(w + tuple(t) + w[::-1])

    def separates(self, t, w):
        """Does the wall of the reflection t separate the base chamber from
        the ShortLex word w?  Exactly when l(t w) < l(w): the reflections
        with that property are w's inversions (Bjorner-Brenti,
        *Combinatorics of Coxeter Groups*, 2005, ch. 1)."""
        return len(self.canon(tuple(t) + w)) < len(w)

    def inversions(self, w):
        """The reflections t_j = s_{i1}..s_{ij}..s_{i1} for the canonical
        reduced word of w; these are the walls separating the base chamber
        from w * base.  len(result) == l(w), and they are distinct."""
        w = self.canon(w)
        return [self.conjugate(w[:j], (w[j],)) for j in range(len(w))]


class Tessellation:
    """The full chamber tessellation, grown on demand.  Chambers are
    integer ids in discovery order; chamber 0 is the base chamber.
    `words` holds each chamber's ShortLex word and `rmul[c][g - 1]` the
    chamber across edge g of chamber c, once stepped.  It is the chamber
    table of the catalog searches and of metrics' apartment charts.

    A chamber w is keyed by its exact point w(x0) in root coordinates.
    While w still has an unknown neighbour, its root matrix is kept; the
    neighbour across g has the matrix of w s_g and is found by a lookup
    on its point (CoxeterSystem.times_generator).  A new chamber's word is
    read by stripping least left descents off its point only until the
    point is a known chamber's (CoxeterSystem.shortlex_prefix)."""

    def __init__(self, spec):
        self.spec = spec
        self.k = spec.k
        self.system = CoxeterSystem(spec)
        cols, point = self.system.identity_matrix()
        self.words = [()]
        self.rmul = [[None] * spec.k]
        self._ids = {point: 0}  # point -> chamber id
        self._open = {0: (cols, point)}  # root matrix and point, until rmul[c] is full
        self._vcache = {}

    def __len__(self):
        return len(self.words)

    def step(self, c, g):
        """Chamber across edge labeled g (1-based)."""
        row = self.rmul[c]
        cached = row[g - 1]
        if cached is not None:
            return cached
        system = self.system
        cols, point = system.times_generator(*self._open[c], g)
        prefix, known = system.shortlex_prefix(point, self._ids)
        if prefix:
            idx = len(self.words)
            self.words.append(tuple(prefix) + self.words[known])
            self._ids[point] = idx
            self.rmul.append([None] * self.k)
            self._open[idx] = (cols, point)
        else:
            idx = known
        row[g - 1] = idx
        back = self.rmul[idx]
        back[g - 1] = c
        if None not in row:
            del self._open[c]
        if None not in back:
            del self._open[idx]
        return idx

    def vertex(self, c, j):
        """The vertex of chamber c between edges j and j+1 (cyclic):
        a record with the full cyclic chamber/edge structure."""
        rec = self._vcache.get((c, j))
        if rec is not None:
            return rec
        k = self.k
        a, b = j, j % k + 1
        m = self.spec.m_at_vertex(j)
        chams = [c]
        cur = c
        for t in range(2 * m - 1):
            g = a if t % 2 == 0 else b
            cur = self.step(cur, g)
            chams.append(cur)
        if self.step(cur, b) != c:
            raise ArithmeticError("vertex cycle failed to close")
        # labels[t] is the label of the edge between chambers t-1 and t
        labels = [b, a] * m
        # normalize: rotate to the least chamber, direction toward the
        # smaller neighbor, so the record is canonical for the vertex
        i0 = chams.index(min(chams))
        rot = chams[i0:] + chams[:i0]
        labels = labels[i0:] + labels[:i0]
        rev = [rot[0]] + list(reversed(rot[1:]))
        if rev[1] < rot[1]:
            rot = rev
            # reversed, the edge between chambers t-1 and t is the edge
            # that ended at position 1-t
            labels = [labels[(1 - t) % (2 * m)] for t in range(2 * m)]
        pairs = [(rot[t - 1], rot[t]) for t in range(2 * m)]
        edges = [(min(x, y), max(x, y), labels[t]) for t, (x, y) in enumerate(pairs)]
        rec = {
            "key": (rot[0], j),
            "j": j,
            "m": m,
            "chams": tuple(rot),
            "edges": tuple(edges),
            "pos": {e: t for t, e in enumerate(edges)},
        }
        for ch in rot:
            self._vcache[(ch, j)] = rec
        return rec

    def edge_endpoints(self, edge):
        """The two vertex records at the ends of a 1-skeleton edge."""
        lo, _hi, g = edge
        k = self.k
        j1 = g
        j2 = (g + k - 2) % k + 1
        return self.vertex(lo, j1), self.vertex(lo, j2)

    def canonical_form(self, chambers):
        """A key of a chamber set up to translation: the least, over its
        members u, of its breadth-first code from u.  The code lists, for
        each chamber in breadth-first order from u (neighbours by label),
        the position in that order of its neighbour across each label, or
        -1 for a neighbour outside the set.  Translations preserve labels,
        so translates share their codes; a code rebuilds the set from u,
        so sets sharing a code are translates.  Raises ValueError on a set
        that is not gallery-connected."""
        # each member's neighbours by label, stepped once for all starts
        rows = {c: [self.step(c, g) for g in range(1, self.k + 1)] for c in chambers}
        best = None
        for u in rows:
            order, pos, code = [u], {u: 0}, []
            for c in order:  # grows while it is read: breadth first
                for d in rows[c]:
                    if d not in rows:
                        code.append(-1)
                        continue
                    if d not in pos:
                        pos[d] = len(order)
                        order.append(d)
                    code.append(pos[d])
            if len(order) < len(rows):
                raise ValueError("chamber set is not gallery-connected")
            code = tuple(code)
            if best is None or code < best:
                best = code
        return best


@dataclass(frozen=True)
class Wall:
    """A wall: the fixed locus of a reflection, anchored at one edge."""

    reflection: tuple
    anchor_label: int


def boundary_components(spec):
    """Components of the chamber boundary after removing every vertex
    whose angle is not pi/3; each component is a maximal run of edge
    labels joined through m=3 vertices.  These components classify wall
    types.  Returns a list of label tuples in boundary order, sorted by
    least label; a single component equal to the full cycle means every
    vertex has m=3."""
    k = spec.k
    # vertex j joins edge labels j and j%k+1; split the label cycle at the
    # other vertices, starting just after the last of them
    cuts = [j for j in range(1, k + 1) if spec.m[j - 1] != 3]
    if not cuts:
        return [tuple(range(1, k + 1))]
    comps, run = [], []
    for i in range(k):
        label = (cuts[-1] + i) % k + 1
        run.append(label)
        if spec.m[label - 1] != 3:
            comps.append(tuple(run))
            run = []
    return sorted(comps, key=min)


def wall_period(component, k, full_cycle):
    """The periodic edge-label pattern along walls of a given type."""
    if full_cycle:
        return tuple(component)
    # labels i..j then mirrored back: i, i+1, .., j, j, .., i+1, i
    return tuple(component) + tuple(reversed(component))


class ChamberComplex:
    """The labeled 2-complex of a finite ball of chambers, shared by
    tessellation balls (CoxeterBall) and thick building balls
    (rabuilding.BuildingBall).

    A subclass sets `spec`, `radius`, `system`, its letters
    (`_set_letters`), and with `_grow` `words` (chamber words, index =
    position), `index` (word -> position) and `rmul` (rmul[c][n]:
    words[c] times the n-th letter, or None outside the ball).  A letter
    is (label, color), 1 <= color <= thickness[label - 1], the number of
    chambers across a panel of type label (1 on a thin ball).
    `neighbors`, `step` and `panel` read `rmul` here.  A subclass
    supplies `append(word, label, color)`, a normal form times one
    letter, `_vertex_size(j)`, the chambers around a closed vertex j,
    and `inverse(c)` and `times(inv, b)`, the W-word of inv * words[b].
    The cells (`edges`, `edge_of`, `is_inner`, `vertices`, `vertex_of`)
    are built together by `_build_cells` on the first read of any one of
    them.  Panels are read off `rmul` and, past the radius, `append`
    (`canon` on a tessellation ball, a normal-form letter on a building).
    Methods read `self.system` at call time, so a fresh CoxeterSystem
    can replace the word-problem caches between uses.
    """

    def __len__(self):
        return len(self.words)

    def __getattr__(self, name):
        # only reached when normal lookup fails: a cell not yet built
        if name not in ("edges", "edge_of", "is_inner", "vertices", "vertex_of"):
            raise AttributeError(name)
        self._build_cells()
        return self.__dict__[name]

    def _build_cells(self):
        k = self.spec.k
        n = len(self.words)
        # edges: key -> (label, [in-ball chambers of the panel]); the key
        # is (least chamber word of the panel, label)
        # set once every panel is read: a failed build leaves no cell behind
        edge_of = [[None] * k for _ in range(n)]  # edge key per (chamber, label-1)
        edges = {}
        panels = [[None] * k for _ in range(n)]  # in-ball chambers per (chamber, label-1)
        full = [0] * k  # chambers of a complete panel, per label
        for c in range(n):
            for label in range(1, k + 1):
                members = self.panel(c, label)
                key = (min(members), label)
                chambers = edges.setdefault(key, (label, []))[1]
                chambers.append(c)
                edge_of[c][label - 1] = key
                panels[c][label - 1] = chambers
                full[label - 1] = len(members)
        self.edge_of, self.edges = edge_of, edges
        # a chamber is inner when all its panels lie in the ball
        self.is_inner = [list(map(len, row)) == full for row in panels]
        # vertices: components of the around-the-vertex moves (two panels);
        # a vertex is interior when all chambers around it are in the ball
        sizes = [self._vertex_size(j) for j in range(1, k + 1)]
        vertex_of = self.vertex_of = [[None] * k for _ in range(n)]  # per (chamber, vertex j-1)
        self.vertices = {}
        for c in range(n):
            for j in range(1, k + 1):
                if vertex_of[c][j - 1] is not None:
                    continue
                a, b = j, j % k + 1  # edge labels at this vertex
                comp = []
                stack = [c]
                local = {c}
                while stack:
                    x = stack.pop()
                    comp.append(x)
                    for label in (a, b):
                        for y in panels[x][label - 1]:
                            if y not in local:
                                local.add(y)
                                stack.append(y)
                comp.sort()
                key = (comp[0], j)
                self.vertices[key] = {
                    "labels": (a, b),
                    "j": j,
                    "chambers": comp,
                    "interior": len(comp) == sizes[j - 1],
                    "m": self.spec.m_at_vertex(j),
                }
                for x in comp:
                    vertex_of[x][j - 1] = key

    def _grow(self, step, cap):
        """Grow `words` and `rmul` by levels.  `step(c, n)` steps the
        panel of chamber c and letter column n from c, the panel's member
        nearest the base: it appends the members new to `words` and fills
        every member's row of `rmul` for the panel.  When that row is
        already filled, c is not that member and `step` does nothing.
        Each chamber below the radius is stepped once per letter; the
        last level never is: a panel of its chambers either has a lower
        member or lies outside the ball.  No level is sorted: a chamber's normal form
        (ShortLex on a thin ball, the graph-product normal form of
        Hermiller-Meier, J. Algebra 171, 1995, on a building) less its
        last letter is its lex-least parent, so growth in level order,
        letters in increasing order, meets each level in lexicographic
        order.  Sets `sphere_counts`, the chambers per level, and raises
        ResourceCap past `cap` chambers."""
        words, counts = self.words, [1]
        for _ in range(self.radius):
            start = len(words)
            for c in range(start - counts[-1], start):
                for n in range(len(self.labels)):
                    step(c, n)
                    if len(words) > cap:
                        raise ResourceCap(self._cap_message % cap)
            counts.append(len(words) - start)
        self.sphere_counts = counts

    def _set_letters(self, thickness):
        self.thickness = tuple(thickness)
        self._letters = [(i, c) for i, q in enumerate(thickness, 1) for c in range(1, q + 1)]
        self.labels = [i for i, _c in self._letters]  # labels[n]: the label of rmul's column n
        # _first[i - 1]: the column of rmul of the letter (i, 1)
        self._first = [self._letters.index((i, 1)) for i in range(1, len(thickness) + 1)]

    def neighbors(self, c):
        """Yield (neighbor index, label) over in-ball panel moves."""
        for label, d in zip(self.labels, self.rmul[c]):
            if d is not None:
                yield d, label

    def step(self, c, label, color=1):
        """The chamber words[c] * (label, color), or None outside the ball."""
        return self.rmul[c][self._first[label - 1] + color - 1]

    def panel(self, c, label):
        """The words of chamber c and of every chamber across its edge
        `label`, in the ball or not."""
        w = self.words[c]
        out = [w]
        for color in range(1, self.thickness[label - 1] + 1):
            d = self.step(c, label, color)
            out.append(self.append(w, label, color) if d is None else self.words[d])
        return out

    def interior_vertex_keys(self):
        return [k for k, v in self.vertices.items() if v["interior"]]

    def adjacency(self):
        """Yield (c1, c2, label) for each dual-graph edge, c1 < c2, by c1
        then label (each chamber pair once per shared panel); reads no
        cell."""
        for c1 in range(len(self.words)):
            for c2, label in self.neighbors(c1):
                if c1 < c2:
                    yield c1, c2, label


class CoxeterBall(ChamberComplex):
    """All chambers at word length <= radius, assembled as a labeled
    2-complex with integer-indexed multiplication tables.  The ball keeps
    the `words` and `rmul` lists that `_grow` fills through the
    root-point step (`Tessellation.step`, the one the catalog uses), with
    no `canon` call, and drops the tessellation; cells are built on first
    read."""

    _cap_message = "chamber cap %d exceeded"

    def __init__(self, spec, radius, chamber_cap=2_000_000):
        self.spec = spec
        self.radius = radius
        self.system = CoxeterSystem(spec)
        self._set_letters((1,) * spec.k)
        self._build_group(chamber_cap)

    # -- group layer ----------------------------------------------------

    def _build_group(self, cap):
        tess = Tessellation(self.spec)
        self.words, self.rmul = tess.words, tess.rmul
        self._grow(lambda c, n: tess.step(c, n + 1), cap)
        self.index = {w: i for i, w in enumerate(self.words)}

    def append(self, word, label, color=1):
        """The ShortLex word of word * s_label (a thin ball's one color)."""
        return self.system.canon(word + (label,))

    def _vertex_size(self, j):
        return 2 * self.spec.m_at_vertex(j)

    def inverse(self, c):
        """A word for the inverse of chamber c: its word reversed."""
        return self.words[c][::-1]

    def times(self, inv, b):
        """The ShortLex word of inv * words[b]."""
        return self.system.canon(inv + self.words[b])

    # -- walls ----------------------------------------------------------

    def wall_of_edge(self, chamber_idx, label):
        """The Wall through edge `label` of the given chamber."""
        return Wall(self.system.conjugate(self.words[chamber_idx], (label,)), label)

    @cached_property
    def _edges_by_wall(self):
        """Edge keys of the ball grouped by wall reflection, each group in
        edge order (the reflection words do not depend on which
        CoxeterSystem computes them, so the grouping is kept)."""
        groups = {}
        for key, (label, cs) in self.edges.items():
            groups.setdefault(self.system.conjugate(self.words[cs[0]], (label,)), []).append(key)
        return groups

    def walls(self):
        """Group interior edges of the ball by their wall reflection."""
        out = []
        for _refl, keys in sorted(self._edges_by_wall.items()):
            edge_list = [(self.edges[key][1][0], key[1]) for key in keys
                         if len(self.edges[key][1]) == 2]
            if edge_list:
                out.append((self.wall_of_edge(*min(edge_list)), edge_list))
        return out

    def wall_edge_path(self, wall):
        """Edges of the wall inside the ball, ordered along the geodesic.
        Returns (ordered edge keys, ordered labels)."""
        keys = self._edges_by_wall.get(wall.reflection)
        if not keys:
            raise BallTooSmall("wall has no edges in this ball")
        # edge `label` of chamber c runs between vertex label-1 and label
        k = self.spec.k
        endpoint, incidence = {}, {}
        for key in keys:
            c, label = self.edges[key][1][0], key[1]
            endpoint[key] = (self.vertex_of[c][(label - 2) % k], self.vertex_of[c][label - 1])
            for v in endpoint[key]:
                incidence.setdefault(v, []).append(key)
        # extend a simple path in both directions from the first edge
        ordered = [keys[0]]
        used = {keys[0]}
        frontier_vertices = list(endpoint[keys[0]])
        progress = True
        while progress:
            progress = False
            for vi in (0, 1):
                v = frontier_vertices[vi]
                for key in incidence[v]:
                    if key not in used:
                        used.add(key)
                        if vi == 0:
                            ordered.insert(0, key)
                        else:
                            ordered.append(key)
                        va, vb = endpoint[key]
                        frontier_vertices[vi] = vb if va == v else va
                        progress = True
                        break
        return ordered, [key[1] for key in ordered]


def wall_type(ball, wall):
    """Classify a wall by the boundary component its edge labels follow.
    Returns the component (tuple of labels).  Raises BallTooSmall when
    less than one full period of the pattern is visible in the ball."""
    comps = boundary_components(ball.spec)
    full_cycle = all(mi == 3 for mi in ball.spec.m)
    _, labels = ball.wall_edge_path(wall)
    comp = next((c for c in comps if wall.anchor_label in c), None)
    period = wall_period(comp, ball.spec.k, full_cycle)
    if len(labels) < len(period):
        raise BallTooSmall(
            "wall shows %d edges; need %d for a full period" % (len(labels), len(period))
        )
    # the observed labels must match the period under some rotation and
    # orientation
    pl = len(period)
    for seq in (tuple(labels), tuple(reversed(labels))):
        for shift in range(pl):
            if all(seq[t] == period[(t + shift) % pl] for t in range(len(seq))):
                return comp
    raise BallTooSmall("wall labels %s do not align with period %s" % (labels, period))


def export_complex(ball):
    """Serialize the ball as a labeled 2-complex in the line-oriented
    exchange format: `v <id> <i> <j>`, `e <id> <label> <v1> <v2>`,
    `f <id> <e1> ... <ek>`."""
    vkeys = sorted(ball.vertices.keys())
    vid = {key: i for i, key in enumerate(vkeys)}
    ekeys = sorted(ball.edges.keys())
    eid = {key: i for i, key in enumerate(ekeys)}
    lines = []
    for key in vkeys:
        a, b = ball.vertices[key]["labels"]
        lines.append("v %d %d %d" % (vid[key], a, b))
    k = ball.spec.k
    for key in ekeys:
        label, cs = ball.edges[key]
        c = cs[0]
        va = ball.vertex_of[c][(label - 2) % k]
        vb = ball.vertex_of[c][label - 1]
        lines.append("e %d %d %d %d" % (eid[key], label, vid[va], vid[vb]))
    for c in range(len(ball.words)):
        es = [eid[ball.edge_of[c][g - 1]] for g in range(1, k + 1)]
        lines.append("f %d %s" % (c, " ".join(str(e) for e in es)))
    return "\n".join(lines) + "\n"
