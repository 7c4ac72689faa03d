"""Generalized m-gons: the vertex links of two-dimensional buildings.

A generalized m-gon is a bipartite graph in which (1) every two edges
lie on a circuit of combinatorial length 2m and (2) two such circuits
sharing an edge are isomorphic by a map fixing their intersection
pointwise.  verify() checks these axioms literally, by enumerating all
2m-circuits; the usual girth/diameter characterization is used only as
a fast pre-filter.

Constructors are provided for the small instances used at desk scale:
complete bipartite graphs (m=2), the projective planes over GF(2) and
GF(3) (m=3), and the symplectic quadrangle over GF(2) (m=4).  Hexagons
and octagons (m=6,8) can only be imported and verified.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field


class GenPolyError(ValueError):
    def __init__(self, code, message, witness=None):
        self.code = code
        self.message = message
        self.witness = witness
        super().__init__("%s: %s" % (code, message))


@dataclass
class GenPolygon:
    m: int
    adj: dict
    color: dict  # vertex -> 0 (point/black) or 1 (line/white)
    params: tuple | None  # (s, t) when thick, None when thin
    _cycles: list = field(default=None, repr=False, compare=False)
    _cycles_by_edge: dict = field(default=None, repr=False, compare=False)
    _dist: dict = field(default_factory=dict, repr=False, compare=False)

    def vertices(self):
        return sorted(self.adj)

    def edges(self):
        out = []
        for v, nbrs in self.adj.items():
            for w in nbrs:
                if v < w:
                    out.append((v, w))
        return sorted(out)

    def distance(self, v):
        """BFS distance map from v (cached)."""
        if v not in self._dist:
            dist = {v: 0}
            queue = deque([v])
            while queue:
                x = queue.popleft()
                for y in self.adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            self._dist[v] = dist
        return self._dist[v]

    # -- apartments -----------------------------------------------------

    def apartments(self):
        """All 2m-circuits, each as a canonical vertex tuple."""
        if self._cycles is None:
            self._cycles = _enumerate_cycles(self.adj, 2 * self.m)
            self._cycles_by_edge = {}
            for idx, cyc in enumerate(self._cycles):
                for e in _cycle_edges(cyc):
                    self._cycles_by_edge.setdefault(e, set()).add(idx)
        return self._cycles

    def cycles_through_edge(self, e):
        """The set of indices of the 2m-circuits through edge e."""
        self.apartments()
        return self._cycles_by_edge.get(tuple(sorted(e)), set())


def _cycle_edges(cycle):
    n = len(cycle)
    return {tuple(sorted((cycle[i], cycle[(i + 1) % n]))) for i in range(n)}


def _canonical_cycle(cycle):
    """Canonical representative under rotation and reflection."""
    n = len(cycle)
    best = None
    doubled = cycle + cycle
    for i in range(n):
        fwd = tuple(doubled[i : i + n])
        rev = tuple(reversed(fwd))
        rev = rev[-1:] + rev[:-1]  # start reversal at the same vertex
        for cand in (fwd, tuple(rev)):
            if best is None or cand < best:
                best = cand
    return best


def _enumerate_cycles(adj, length):
    """All simple cycles of exactly the given length, deduplicated."""
    out = set()
    vertices = sorted(adj)
    for start in vertices:
        # only cycles whose minimal vertex is `start`
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            if len(path) == length:
                if start in adj[v]:
                    out.add(_canonical_cycle(path))
                continue
            for w in adj[v]:
                if w in path or w < start:
                    continue
                stack.append((w, path + (w,)))
    return sorted(out)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify(adj, color, m, require_thick=False):
    """Verify the generalized m-gon axioms by direct enumeration.

    adj: dict vertex -> iterable of neighbours; color: vertex -> 0/1.
    Returns a GenPolygon with extracted parameters.  Raises GenPolyError
    with a witness on the first hard failure.
    """
    adj = {v: tuple(sorted(set(ns))) for v, ns in adj.items()}
    for v, ns in adj.items():
        for w in ns:
            if v not in adj.get(w, ()):
                raise GenPolyError("FormatError", "asymmetric adjacency at %r-%r" % (v, w))
    for v, ns in adj.items():
        for w in ns:
            if color[v] == color[w]:
                raise GenPolyError(
                    "NotBipartite", "edge %r-%r joins same colors" % (v, w), (v, w)
                )
    degrees = {0: set(), 1: set()}
    for v, ns in adj.items():
        degrees[color[v]].add(len(ns))
    if len(degrees[0]) > 1 or len(degrees[1]) > 1:
        raise GenPolyError(
            "AxiomFail", "degrees not constant per color: %s" % (degrees,), degrees
        )
    # order (s, t): every line (color 1) carries s+1 points, every point
    # (color 0) lies on t+1 lines
    s = degrees[1].pop() - 1 if degrees[1] else 0
    t = degrees[0].pop() - 1 if degrees[0] else 0
    thick = s >= 2 and t >= 2
    if require_thick and not thick:
        raise GenPolyError("NotThick", "parameters (%d,%d) not thick" % (s, t))
    if thick:
        if m not in (2, 3, 4, 6, 8):
            raise GenPolyError(
                "ParameterRuleFail", "thick generalized %d-gons do not exist" % m
            )
        if m % 2 == 1 and s != t:
            raise GenPolyError(
                "ParameterRuleFail", "odd m=%d needs s=t, got (%d,%d)" % (m, s, t)
            )
        if m == 8 and s == t:
            raise GenPolyError(
                "ParameterRuleFail", "m=8 needs s != t, got (%d,%d)" % (s, t)
            )

    poly = GenPolygon(m=m, adj=adj, color=dict(color), params=(s, t) if thick else None)

    # fast pre-filter: girth 2m, diameter m (definition check still runs)
    verts = poly.vertices()
    for v in verts:
        dist = poly.distance(v)
        if len(dist) != len(verts):
            raise GenPolyError("AxiomFail", "graph disconnected from %r" % (v,), v)
        if max(dist.values()) > m:
            far = max(dist, key=lambda x: (dist[x], x))
            raise GenPolyError(
                "AxiomFail", "diameter exceeds m at %r-%r" % (v, far), (v, far)
            )

    cycles = poly.apartments()
    # axiom (1): every two edges on a common 2m-circuit
    edge_cycles = poly._cycles_by_edge
    all_edges = [tuple(sorted(e)) for e in poly.edges()]
    for e in all_edges:
        if e not in edge_cycles:
            raise GenPolyError("AxiomFail", "edge %r on no 2m-circuit" % (e,), e)
    for e1, e2 in itertools.combinations(all_edges, 2):
        if edge_cycles[e1].isdisjoint(edge_cycles[e2]):
            raise GenPolyError(
                "AxiomFail", "edges %r, %r on no common circuit" % (e1, e2), (e1, e2)
            )
    # axiom (2): circuits sharing an edge glue rigidly
    for e, idxs in edge_cycles.items():
        idxs = sorted(idxs)
        for i1, i2 in itertools.combinations(idxs, 2):
            if not _rigid_gluing(cycles[i1], cycles[i2], e):
                raise GenPolyError(
                    "AxiomFail",
                    "circuits %d, %d share %r but no isomorphism fixes the intersection"
                    % (i1, i2, e),
                    (cycles[i1], cycles[i2]),
                )
    return poly


def _rigid_gluing(c1, c2, edge):
    """Is there a cycle isomorphism c1 -> c2 fixing V(c1) & V(c2)
    pointwise?  Both circuits run through the shared edge (a, b), and a
    cycle isomorphism is fixed by the image of one edge, so only the map
    that aligns the circuits along (a, b) can fix a and b; it maps every
    shared edge to itself once it fixes the shared vertices."""
    a, b = edge
    n = len(c1)
    i, j = c1.index(a), c2.index(a)
    di = 1 if c1[(i + 1) % n] == b else -1
    dj = 1 if c2[(j + 1) % n] == b else -1
    shared = set(c1).intersection(c2)
    return all(
        c2[(j + dj * t) % n] == c1[(i + di * t) % n]
        for t in range(n) if c1[(i + di * t) % n] in shared
    )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def construct(kind, *args):
    """construct('digon', s, t) | construct('projective', q) |
    construct('quadrangle', q)"""
    if kind == "digon":
        s, t = args
        if s < 1 or t < 1:
            raise GenPolyError("UnsupportedParameter", "digon needs s,t >= 1")
        adj, color = {}, {}
        points = ["p%d" % i for i in range(s + 1)]
        lines = ["l%d" % j for j in range(t + 1)]
        for p in points:
            adj[p] = tuple(lines)
            color[p] = 0
        for l in lines:
            adj[l] = tuple(points)
            color[l] = 1
        return verify(adj, color, 2)
    if kind == "projective":
        (q,) = args
        if q == 2:
            base, mod = (0, 1, 3), 7
        elif q == 3:
            base, mod = (0, 1, 3, 9), 13
        else:
            raise GenPolyError("UnsupportedParameter", "projective plane q=%r" % (q,))
        adj, color = {}, {}
        for i in range(mod):
            adj["p%d" % i] = []
            color["p%d" % i] = 0
        for j in range(mod):
            line = "l%d" % j
            color[line] = 1
            members = ["p%d" % ((b + j) % mod) for b in base]
            adj[line] = members
            for p in members:
                adj[p].append(line)
        return verify(adj, color, 3)
    if kind == "quadrangle":
        (q,) = args
        if q != 2:
            raise GenPolyError("UnsupportedParameter", "quadrangle q=%r" % (q,))
        # symplectic quadrangle on 15 points / 15 lines: points are the
        # 2-subsets of a 6-set, lines the perfect matchings
        points = list(itertools.combinations(range(6), 2))

        # enumerate partitions of {0..5} into three pairs
        def partitions(items):
            if not items:
                yield []
                return
            first = items[0]
            for other in items[1:]:
                pair = (first, other)
                rest = [x for x in items[1:] if x != other]
                for sub in partitions(rest):
                    yield [pair] + sub

        matchings = sorted(
            tuple(sorted(part)) for part in partitions(list(range(6)))
        )
        adj, color = {}, {}
        pname = {p: "p%d%d" % p for p in points}
        for p in points:
            adj[pname[p]] = []
            color[pname[p]] = 0
        for mt in matchings:
            line = "l" + "".join("%d%d" % pr for pr in mt)
            color[line] = 1
            adj[line] = [pname[pr] for pr in mt]
            for pr in mt:
                adj[pname[pr]].append(line)
        return verify(adj, color, 4)
    raise GenPolyError("UnsupportedParameter", "unknown kind %r" % (kind,))


# ---------------------------------------------------------------------------
# oppositeness
# ---------------------------------------------------------------------------

def opposite_set(poly, v):
    """All vertices at distance exactly m from v."""
    dist = poly.distance(v)
    return sorted(w for w, d in dist.items() if d == poly.m)


# ---------------------------------------------------------------------------
# apartment chains
# ---------------------------------------------------------------------------

def _intersection_path(c1, c2):
    """The shared edges of two circuits ordered as a path; returns
    (ordered vertex path, edge set) or None when no shared edges."""
    e1, e2 = _cycle_edges(c1), _cycle_edges(c2)
    shared = e1 & e2
    if not shared:
        return None
    incident = {}
    for (a, b) in shared:
        incident.setdefault(a, []).append(b)
        incident.setdefault(b, []).append(a)
    ends = sorted(v for v, ns in incident.items() if len(ns) == 1)
    if not ends:
        # the circuits coincide
        return None
    path = [ends[0]]
    prev = None
    while True:
        nxt = [w for w in incident[path[-1]] if w != prev]
        if not nxt:
            break
        prev = path[-1]
        path.append(nxt[0])
    if len(path) - 1 != len(shared):
        raise GenPolyError(
            "AxiomFail", "circuit intersection is not a path", (c1, c2)
        )
    return path, shared


def apartment_chain(poly, a, b):
    """A chain of apartments from a to b in which every consecutive
    intersection is a half apartment (a path of m edges), following the
    greedy overlap-extension argument."""
    cycles = poly.apartments()
    a = _canonical_cycle(tuple(a))
    b = _canonical_cycle(tuple(b))
    if a not in cycles or b not in cycles:
        raise GenPolyError("FormatError", "inputs are not apartments")
    return _chain_rec(poly, a, b, 0)


def _chain_rec(poly, a, b, depth):
    if depth > 40:
        raise GenPolyError("NoneFound", "apartment chain recursion blew up")
    if a == b:
        return [a]
    m = poly.m
    inter = _intersection_path(a, b)
    if inter is None:
        # no shared edges: route via an apartment containing one edge of
        # each (axiom 1 guarantees it)
        ea = min(_cycle_edges(a))
        cycles = poly.apartments()
        for eb in sorted(_cycle_edges(b)):
            ids = poly.cycles_through_edge(ea) & poly.cycles_through_edge(eb)
            ids = [i for i in ids if cycles[i] not in (a, b)]
            if ids:
                mid = cycles[min(ids)]
                left = _chain_rec(poly, a, mid, depth + 1)
                right = _chain_rec(poly, mid, b, depth + 1)
                return left + right[1:]
        raise GenPolyError("NoneFound", "no connecting apartment found")
    path, shared = inter
    if len(shared) >= m:
        return [a, b]
    # grow the overlap: extend past both endpoints of the shared segment
    v1, v2 = path[0], path[-1]
    e1 = _edge_at(a, v1, shared)
    e2 = _edge_at(b, v2, shared)
    cycles = poly.apartments()
    ids = sorted(poly.cycles_through_edge(e1) & poly.cycles_through_edge(e2))
    best = None
    for i in ids:
        mid = cycles[i]
        em = _cycle_edges(mid)
        if not shared <= em:
            continue
        oa = len(_cycle_edges(a) & em)
        ob = len(_cycle_edges(b) & em)
        if oa > len(shared) and ob > len(shared):
            best = mid
            break
    if best is None:
        raise GenPolyError("NoneFound", "no overlap-growing apartment (axiom violation)")
    left = _chain_rec(poly, a, best, depth + 1)
    right = _chain_rec(poly, best, b, depth + 1)
    return left + right[1:]


def _edge_at(cycle, v, exclude):
    """The edge of the circuit at vertex v that is not in `exclude`."""
    n = len(cycle)
    for i, x in enumerate(cycle):
        if x == v:
            for j in (i - 1, i + 1):
                e = tuple(sorted((x, cycle[j % n])))
                if e not in exclude:
                    return e
    raise GenPolyError("FormatError", "vertex %r not on circuit" % (v,))


# ---------------------------------------------------------------------------
# exchange format
# ---------------------------------------------------------------------------

def from_text(text):
    """Parse the `p/l/i` exchange format into (adj, color)."""
    adj, color = {}, {}
    incidences = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p" and len(parts) == 2:
            adj.setdefault(parts[1], [])
            color[parts[1]] = 0
        elif parts[0] == "l" and len(parts) == 2:
            adj.setdefault(parts[1], [])
            color[parts[1]] = 1
        elif parts[0] == "i" and len(parts) == 3:
            incidences.append((parts[1], parts[2]))
        else:
            raise GenPolyError("FormatError", "bad line %r" % (raw,))
    for p, l in incidences:
        if p not in adj or l not in adj:
            raise GenPolyError("FormatError", "incidence with unknown vertex %r %r" % (p, l))
        adj[p].append(l)
        adj[l].append(p)
    return adj, color
