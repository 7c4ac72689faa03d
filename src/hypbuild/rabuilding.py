"""Thick right-angled hyperbolic building balls via graph products.

Chambers of the building over a right-angled chamber spec (all vertex
gonalities m = 2, thickness q_i >= 2, k >= 5 edges) are modeled as
elements of the graph product of cyclic groups Z/(q_i + 1), one factor
per edge label, with factors of cyclically adjacent labels commuting.
A chamber is a ``colored word``: a tuple of letters ``(i, c)`` with
``i`` an edge label and ``c`` a nonzero color modulo ``q_i + 1``; the
base chamber is the empty word.

Chambers are kept in the lexicographic normal form of the graph
product (Hermiller-Meier; Anisimov-Knuth for the commutation part).
Every path that moves from a chamber to a neighbor (ball growth,
panels, apartments) takes one step, `append_letter`, which
right-multiplies a normal form by one letter.

The module provides canonical normal forms, finite balls with their
labeled cells, the W-valued distance, deterministic apartments through
any two chambers, the retraction onto an apartment centered at one of
its chambers, and a local axiom verifier for complexes in the labeled
2-complex exchange format.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .coxeter import ChamberComplex, CoxeterSystem, ResourceCap


class BuildingError(ValueError):
    def __init__(self, code, message, witness=None):
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.message = message
        self.witness = witness


def _cyc_adjacent(a, b, k):
    """Do edge labels a, b meet at a vertex of the chamber polygon?"""
    lo, hi = (a, b) if a < b else (b, a)
    return hi - lo == 1 or (lo == 1 and hi == k)


def check_right_angled(spec):
    if any(mi != 2 for mi in spec.m):
        raise BuildingError("NotRightAngled", "all vertex gonalities must be 2")
    if spec.k < 5:
        raise BuildingError("NotRightAngled", "need k >= 5 for a hyperbolic chamber")
    if any(qi < 2 for qi in spec.q):
        raise BuildingError("NotThick", "all thicknesses must be >= 2, got %s" % (spec.q,))


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def append_letter(word, letter, spec):
    """Normal form of word * letter, for a word already in normal form.

    The letters at the end of the word whose labels commute with the new
    label i form its commuting suffix.  A letter of label i just before
    that suffix absorbs the new color, and is deleted if the colors
    cancel.  Otherwise the new letter goes into the suffix before the
    first label greater than i, which keeps the word lexicographically
    least.

    Deleting the letter needs no further rewriting: every suffix letter
    commutes with it, so a merge or a reordering that the deletion
    allowed would already have been allowed across it.
    """
    i, c = letter
    c %= spec.q[i - 1] + 1
    if not c:
        return word
    k = spec.k
    p = len(word)
    while p and _cyc_adjacent(word[p - 1][0], i, k):
        p -= 1
    if p and word[p - 1][0] == i:
        c = (word[p - 1][1] + c) % (spec.q[i - 1] + 1)
        return word[: p - 1] + (((i, c),) if c else ()) + word[p:]
    while p < len(word) and word[p][0] < i:
        p += 1
    return word[:p] + ((i, c),) + word[p:]


def normal_form(word, spec):
    """Canonical normal form of a colored word.

    Colors add modulo q_i + 1 and letters of cyclically adjacent labels
    commute (m = 2).  The normal form is the shortest representative
    that is least in label order; two colored words denote the same
    chamber iff their normal forms match.  It is built by appending the
    letters one at a time with `append_letter`.
    """
    return _times((), word, spec)


def inverse_word(word, spec):
    """Normal form of the group inverse."""
    inv = tuple((i, spec.q[i - 1] + 1 - c) for (i, c) in reversed(word))
    return normal_form(inv, spec)


def _times(delta, h, spec):
    """Normal form of delta h, for delta in normal form: h's letters
    appended one at a time."""
    for letter in h:
        if not 1 <= letter[0] <= spec.k:
            raise BuildingError("FormatError", "letter label %r out of range" % (letter[0],))
        delta = append_letter(delta, letter, spec)
    return delta


def wdist(g, h, spec):
    """W-valued distance: the ShortLex reduced Coxeter word of g^{-1} h.

    Projects the normal form of g^{-1} h letterwise by (i, c) -> s_i; the
    labels of a normal form are already the ShortLex word of W, and its
    length is the gallery distance between the chambers.
    """
    return tuple(i for (i, _c) in _times(inverse_word(g, spec), h, spec))


# ---------------------------------------------------------------------------
# building balls
# ---------------------------------------------------------------------------

class BuildingBall(ChamberComplex):
    """All chambers at gallery distance <= radius from the base chamber,
    with labeled edges and vertices assembled from panels on first read.
    The panel of type i whose member nearest the base is a holds the
    chambers a (i, b), b mod q_i + 1, and a (i, b) (i, b') = a (i, b + b'):
    so one `append_letter` per other member fills every member's row."""

    _cap_message = "building ball exceeds %d chambers"

    def __init__(self, spec, radius, chamber_cap=2_000_000):
        check_right_angled(spec)
        self.spec = spec
        self.radius = radius
        self.system = CoxeterSystem(spec)
        self._set_letters(spec.q)
        self._build_chambers(chamber_cap)

    # -- chambers -------------------------------------------------------

    def _build_chambers(self, cap):
        self.words, self.index, self.rmul = [()], {(): 0}, [[None] * len(self.labels)]
        self._grow(self._step_panel, cap)

    def _step_panel(self, c, n):
        """`_grow`'s step: the panel of chamber c and letter column n."""
        if self.rmul[c][n] is not None:
            return
        label = self.labels[n]
        first, q = self._first[label - 1], self.thickness[label - 1]
        members = [c]
        for color in range(1, q + 1):
            v = append_letter(self.words[c], (label, color), self.spec)
            if v not in self.index:
                self.index[v] = len(self.words)
                self.words.append(v)
                self.rmul.append([None] * len(self.labels))
            members.append(self.index[v])
        for b, d in enumerate(members):
            self.rmul[d][first:first + q] = members[b + 1:] + members[:b]

    def append(self, word, label, color=1):
        """The normal form of word * (label, color)."""
        return append_letter(word, (label, color), self.spec)

    def inverse(self, c):
        """The normal form of chamber c's inverse."""
        return inverse_word(self.words[c], self.spec)

    def times(self, inv, b):
        """The ShortLex W-word of inv * words[b]: its normal form's labels."""
        return tuple(i for (i, _c) in _times(inv, self.words[b], self.spec))

    # -- cells ----------------------------------------------------------

    def _vertex_size(self, j):
        a, b = j, j % self.spec.k + 1
        return (self.spec.q[a - 1] + 1) * (self.spec.q[b - 1] + 1)

    def vertex_link(self, key):
        """Link graph of a vertex: nodes are incident edges (colored by
        which of the two labels they carry), adjacency via chambers."""
        info = self.vertices[key]
        a, b = info["labels"]
        adj, color = {}, {}
        for c in info["chambers"]:
            ea = ("E",) + self.edge_of[c][a - 1]
            eb = ("E",) + self.edge_of[c][b - 1]
            adj.setdefault(ea, set()).add(eb)
            adj.setdefault(eb, set()).add(ea)
            color[ea], color[eb] = 0, 1
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}, color


def ball(spec, radius, chamber_cap=2_000_000):
    return BuildingBall(spec, radius, chamber_cap=chamber_cap)


# ---------------------------------------------------------------------------
# apartments and retraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApartmentColoring:
    """A thin apartment inside the building, as a base chamber plus a
    wall-to-color map.  Walls are reflections of W relative to the base
    chamber (canonical reduced words); walls without an entry carry the
    default color 1.  The embedding alpha is W-distance preserving."""

    system: CoxeterSystem
    base: tuple
    colors: dict = field(default_factory=dict)

    def alpha(self, w):
        """Chamber of the building at apartment position w (a Coxeter
        word; any representative works).  The wall crossed by letter j is
        looked up only when some wall is colored."""
        word = self.system.canon(tuple(w))
        out = tuple(self.base)
        for j, i in enumerate(word):
            out = append_letter(out, (i, self.color(word[:j], i)), self.system.spec)
        return out

    def color(self, w, i):
        """The color of the wall across edge i of apartment position w."""
        colors = self.colors
        return colors.get(self.system.conjugate(w, (i,)), 1) if colors else 1

    def position_of(self, chamber):
        """Apartment coordinate w with alpha(w) = chamber, or None if the
        chamber does not lie on this apartment."""
        w = wdist(self.base, chamber, self.system.spec)
        return w if self.alpha(w) == tuple(chamber) else None


def apartment_through(ball, C, C_prime):
    """A deterministic apartment containing both chambers: colors are read
    off the unique normal-form gallery from C to C', default 1 elsewhere."""
    spec, system = ball.spec, ball.system
    delta = _times(inverse_word(C, spec), C_prime, spec)
    # the labels of a normal form are already the ShortLex word of W
    labels = tuple(i for (i, _c) in delta)
    colors = {refl: c for refl, (_i, c) in zip(system.inversions(labels), delta)}
    return ApartmentColoring(system=system, base=tuple(C), colors=colors)


def retraction(ball, A, C):
    """The retraction onto apartment A centered at chamber C (which must
    lie on A): maps chamber D to alpha(w_C * wdist(C, D))."""
    spec, system = ball.spec, ball.system
    w_C = A.position_of(C)
    if w_C is None:
        raise BuildingError("NotOnApartment", "center chamber not on the apartment")

    def retract(D):
        delta = wdist(C, D, spec)
        return A.alpha(system.canon(w_C + delta))

    return retract


# ---------------------------------------------------------------------------
# local building-axiom verification for imported complexes
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    ok: bool
    violations: list
    checked: dict
    caveats: tuple = (
        "only local conditions are verified: face labeling, interior edge "
        "multiplicity, interior vertex links; the global apartment-exchange "
        "axiom is not checked",
    )


def parse_complex(text):
    """Parse the labeled 2-complex exchange format (`v`, `e`, `f` lines)."""
    vertices, edges, faces = {}, {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "v":
                vertices[int(parts[1])] = (int(parts[2]), int(parts[3]))
            elif parts[0] == "e":
                edges[int(parts[1])] = (int(parts[2]), int(parts[3]), int(parts[4]))
            elif parts[0] == "f":
                faces[int(parts[1])] = tuple(int(x) for x in parts[2:])
            else:
                raise ValueError(parts[0])
        except (IndexError, ValueError) as exc:
            raise BuildingError(
                "FormatError", "bad line %d: %r (%s)" % (lineno, line, exc)
            )
    return vertices, edges, faces


def verify_building_local(text, spec):
    """Check the local building axioms of a labeled 2-complex against a
    chamber spec: every face label-isomorphic to the base chamber, every
    interior edge labeled i in exactly q_i + 1 faces, every interior
    vertex link a generalized m-gon with the spec's parameters.  Returns
    a report listing all violations."""
    from . import genpoly

    vertices, edges, faces = parse_complex(text)
    k = spec.k
    violations = []

    # (a) face labeling
    for fid, eids in sorted(faces.items()):
        if len(eids) != k or any(e not in edges for e in eids):
            violations.append(("FaceLabeling", "face %d has bad edge list" % fid, fid))
            continue
        labels = [edges[e][0] for e in eids]
        if sorted(labels) != list(range(1, k + 1)):
            violations.append(
                ("FaceLabeling", "face %d labels %s != 1..%d" % (fid, labels, k), fid)
            )
            continue
        by_label = {edges[e][0]: e for e in eids}
        for j in range(1, k + 1):
            jn = j % k + 1
            va = set(edges[by_label[j]][1:])
            vb = set(edges[by_label[jn]][1:])
            shared = va & vb
            good = len(shared) == 1 and all(
                set(vertices[v]) == {j, jn} or vertices[v] in ((j, jn), (jn, j))
                for v in shared
            )
            if not good:
                violations.append(
                    (
                        "FaceLabeling",
                        "face %d: edges %d,%d do not meet at a (%d,%d) vertex"
                        % (fid, j, jn, j, jn),
                        fid,
                    )
                )
                break

    # incidence maps
    edge_faces = {eid: [] for eid in edges}
    for fid, eids in faces.items():
        for e in eids:
            if e in edge_faces:
                edge_faces[e].append(fid)

    # (b) edge multiplicity: every panel is complete (q_i + 1 faces) or a
    # boundary stub (1 face)
    for eid, (label, _va, _vb) in sorted(edges.items()):
        mult = len(edge_faces[eid])
        want = spec.q[label - 1] + 1
        if mult not in (1, want):
            violations.append(
                (
                    "EdgeMultiplicity",
                    "edge %d (label %d) lies in %d faces, expected 1 or %d"
                    % (eid, label, mult, want),
                    eid,
                )
            )

    # (c) interior vertex links
    vertex_edges = {vid: [] for vid in vertices}
    for eid, (_label, va, vb) in edges.items():
        if va in vertex_edges:
            vertex_edges[va].append(eid)
        if vb in vertex_edges:
            vertex_edges[vb].append(eid)
    checked_links = 0
    for vid, (a, b) in sorted(vertices.items()):
        adj = {}
        color = {}
        for eid in vertex_edges[vid]:
            for fid in edge_faces[eid]:
                eids = faces[fid]
                here = [e for e in eids if vid in edges[e][1:]]
                if len(here) != 2:
                    continue
                e1, e2 = here
                adj.setdefault(e1, set()).add(e2)
                adj.setdefault(e2, set()).add(e1)
        for eid in adj:
            color[eid] = 0 if edges[eid][0] == a else 1
        if not adj:
            continue
        open_link = any(len(ns) < 2 for ns in adj.values())
        if not open_link:
            # connectivity
            start = next(iter(adj))
            seen = {start}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            open_link = len(seen) != len(adj)
        if open_link:
            continue  # boundary vertex: no closed-link requirement
        checked_links += 1
        jm = spec.m_between(a, b)
        if jm is None:
            violations.append(
                ("VertexLabels", "vertex %d labels (%d,%d) not adjacent" % (vid, a, b), vid)
            )
            continue
        try:
            poly = genpoly.verify(
                {v: tuple(ns) for v, ns in adj.items()}, color, jm
            )
        except genpoly.GenPolyError as exc:
            violations.append(
                ("VertexLink", "vertex %d link fails: %s" % (vid, exc.message), vid)
            )
            continue
        want = tuple(sorted((spec.q[a - 1], spec.q[b - 1])))
        got = tuple(sorted(poly.params)) if poly.params else None
        if got != want:
            violations.append(
                (
                    "VertexLink",
                    "vertex %d link parameters %s, expected %s" % (vid, got, want),
                    vid,
                )
            )

    return VerifyReport(
        ok=not violations,
        violations=violations,
        checked={
            "faces": len(faces),
            "edges": len(edges),
            "vertices": len(vertices),
            "closed_links": checked_links,
        },
    )
