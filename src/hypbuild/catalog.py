"""Complete enumeration of triangles and quadrilaterals in the 1-skeleton.

A triangle (quadrilateral) is a closed circle in the 1-skeleton of the
chamber tessellation with exactly three (four) corners; corner angles
lie in (0, pi) and the sides are local geodesics.  Every interior
vertex of the tessellation has total angle exactly 2*pi, so the
local-geodesic criterion ("link distance >= pi on both sides") forces
the interior angle at every non-corner boundary vertex to be exactly
pi: sides run straight along walls and their continuation through a
vertex is unique.  Consequently the combinatorial Gauss-Bonnet formula
is an exact equality on every enumerated disk,

    d(c) = (l-2)*pi - sum(corner angles) = n(c) * A0,

which both verifies each entry and caps the search: n <= d_max / A0.

Two independent engines are provided and cross-checked:

* the side-driven search: grow straight sides from a corner at each
  vertex-type orbit representative, turning by an allowed angle at each
  corner, pruning by the enclosed-chamber cap; one turn rule moves a
  side straight through a vertex, turns it at a corner and closes the
  circuit, by a last corner turn onto the start edge; and
* a brute-force enumerator of edge-connected chamber sets filtered to
  convex disks (every boundary vertex angle <= pi).

The start vertex types are ranked by gonality m, highest first, ties by
label.  A walk started at rank r turns a corner only at a vertex whose
type has rank >= r; it goes straight through any vertex, and its closing
turn at the start vertex is unchanged.  No class is lost: every circuit
has a corner of least rank, and the walk started at that corner's type
allows all of the circuit's other corners.  No class is added, as the
rule only removes walks.  Each class is then built once: a closed
circuit's chamber set is keyed by its canonical form first, and the
entry (or the verdict that the set is none) is kept under that key, as
translates share it.

The search runs on integers only: corner angles and A0 are counted in
units of pi/L with L = lcm(m), so the cap and the closing test
d = n * A0 are an integer quotient and a divisibility test, and each
entry's Gauss-Bonnet check is an integer equality.

The tessellation is grown lazily by coxeter.Tessellation, the
root-point step that thin CoxeterBalls are built with too.  A chamber w
is identified exactly by its point w(x0) in root coordinates, integer
pairs a + b*sqrt(2): the chamber across edge g is found from w's root
matrix, that of w s_g, by a lookup on its point, and a new chamber's
ShortLex word is read by stripping least left descents off its point
until it reaches a known chamber (coxeter.CoxeterSystem.times_generator
and shortlex_prefix).  No float decides whether two chambers are the
same.

Isomorphism classes are label-preserving: the symmetry group of the
labeled tessellation acts simply transitively on chambers, so a class
is keyed by the least breadth-first code of its chamber set, read off
the tessellation's neighbour table from each member in turn
(coxeter.Tessellation.canonical_form); no word problem is solved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from math import gcd, lcm

from .chamber import RationalAngle, area
from .coxeter import ResourceCap, Tessellation


class NotADisk(ValueError):
    pass


_TESS_CACHE = {}


@cache
def _angle_units(spec):
    """(L, A0): L = lcm(m), the unit of angle is pi/L, and A0 is the
    chamber's area (k - 2 - sum 1/m) * pi in that unit, an integer."""
    L = lcm(*spec.m)
    return L, (spec.k - 2) * L - sum(L // m for m in spec.m)


def tessellation(spec):
    key = (spec.k, spec.m)
    if key not in _TESS_CACHE:
        _TESS_CACHE[key] = Tessellation(spec)
    return _TESS_CACHE[key]


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """An isomorphism class of circle triangles/quadrilaterals: `key` is
    the canonical form of the enclosed labeled disk; `code` is the
    canonical cyclic boundary description, entries
    (angle_num, angle_den, m(corner), even, side_len, side_labels)."""

    shape: str
    n: int
    defect: RationalAngle
    code: tuple
    key: tuple
    rep: tuple = field(compare=False, default=())

    @property
    def corner_angles(self):
        return tuple(RationalAngle(c[0], c[1]) for c in self.code)

    @property
    def even_flags(self):
        return tuple(c[3] for c in self.code)

    @property
    def sides(self):
        return tuple(c[4] for c in self.code)

    def to_json(self):
        return {
            "shape": self.shape,
            "n": self.n,
            "defect": [self.defect.numerator, self.defect.denominator],
            "corners": [
                {
                    "angle": [c[0], c[1]],
                    "m": c[2],
                    "even": c[3],
                    "side_edges": c[4],
                    "side_labels": list(c[5]),
                }
                for c in self.code
            ],
        }


def _disk_from_chambers(T, S):
    """Validate a chamber-id set as a disk and compute its boundary
    structure.  Returns None when S is not a disk with embedded
    boundary; otherwise a dict with boundary data."""
    S = set(S)
    boundary_edges = {}
    interior_edges = set()
    for c in S:
        for g in range(1, T.k + 1):
            d = T.step(c, g)
            e = (min(c, d), max(c, d), g)
            if d in S:
                interior_edges.add(e)
            else:
                boundary_edges[e] = c
    # vertices and per-vertex disk angles
    vrecs = {}
    for c in S:
        for j in range(1, T.k + 1):
            rec = T.vertex(c, j)
            vrecs[rec["key"]] = rec
    V = len(vrecs)
    E = len(interior_edges) + len(boundary_edges)
    chi = V - E + len(S)
    if chi != 1:
        return None
    binfo = {}
    for key, rec in vrecs.items():
        members = [ch in S for ch in rec["chams"]]
        cnt = sum(members)
        if cnt == len(rec["chams"]):
            continue  # interior vertex, angle exactly 2*pi
        # the chambers of S at this vertex must form one contiguous arc
        runs = 0
        n2 = len(members)
        for t in range(n2):
            if members[t] and not members[t - 1]:
                runs += 1
        if runs != 1:
            return None
        binfo[key] = (rec, cnt)
    # every boundary vertex must lie on exactly two boundary edges
    incident = {}
    for e in boundary_edges:
        va, vb = T.edge_endpoints(e)
        for v in (va["key"], vb["key"]):
            incident.setdefault(v, []).append(e)
    if set(incident) != set(binfo) or any(
        len(es) != 2 for es in incident.values()
    ):
        return None
    return {
        "S": S,
        "boundary_edges": boundary_edges,
        "binfo": binfo,
        "incident": incident,
    }


def _boundary_walk(T, disk):
    """Cyclic vertex/edge sequence of the disk boundary, both
    orientations; returns (vseq, eseq) for one traversal."""
    boundary_edges = disk["boundary_edges"]
    incident = disk["incident"]
    e0 = min(boundary_edges)
    va, vb = T.edge_endpoints(e0)
    vseq = [va["key"], vb["key"]]
    eseq = [e0]
    while True:
        v = vseq[-1]
        nxt = [e for e in incident[v] if e != eseq[-1]]
        e = nxt[0]
        eseq.append(e)
        wa, wb = T.edge_endpoints(e)
        w = wa["key"] if wa["key"] != v else wb["key"]
        if w == vseq[0]:
            break
        vseq.append(w)
    if len(eseq) != len(boundary_edges):
        raise NotADisk("boundary is not a single circle")
    return vseq, eseq


def build_entry(T, S, shape, key=None):
    """Construct the catalog entry for a chamber set bounding a convex
    disk whose boundary is a `shape` ("triangle" or "quadrilateral");
    returns None if the set does not qualify.  Angles are counted in
    units of pi/L, as in the search, and Gauss-Bonnet d = n * A0 is
    checked on every entry.  `key` is S's canonical form, when the
    caller has it already."""
    disk = _disk_from_chambers(T, S)
    if disk is None:
        return None
    binfo = disk["binfo"]
    # convexity: every boundary vertex angle cnt*pi/m <= pi; corners
    # where < pi, kept as the angle cnt/m in lowest terms
    corners = {}
    for v, (rec, cnt) in binfo.items():
        m = rec["m"]
        if cnt > m:
            return None
        if cnt < m:
            g = gcd(cnt, m)
            corners[v] = (cnt // g, m // g, m, cnt)
    if len(corners) != {"triangle": 3, "quadrilateral": 4}[shape]:
        return None
    vseq, eseq = _boundary_walk(T, disk)
    # per-corner records in cyclic order, for both orientations
    def one_direction(vs, es):
        cp = [i for i, v in enumerate(vs) if v in corners]
        recs = []
        for idx, i in enumerate(cp):
            nxt = cp[(idx + 1) % len(cp)]
            span = (nxt - i) % len(vs)
            if span == 0:
                span = len(vs)
            labels = tuple(
                sorted({es[(i + t) % len(es)][2] for t in range(span)})
            )
            num, den, m, cnt = corners[vs[i]]
            # even = the angle is an even multiple of pi/m(v)
            recs.append((num, den, m, cnt % 2 == 0, span, labels))
        return recs

    rec_f = one_direction(vseq, eseq)
    vrev = [vseq[0]] + list(reversed(vseq[1:]))
    erev = list(reversed(eseq))
    rec_r = one_direction(vrev, erev)
    best = None
    for recs in (rec_f, rec_r):
        for s in range(len(recs)):
            cand = tuple(recs[s:] + recs[:s])
            if best is None or cand < best:
                best = cand
    # d = (l - 2) * pi - sum of the corner angles, in units of pi/L
    L, a0 = _angle_units(T.spec)
    d = (len(corners) - 2) * L - sum(
        cnt * (L // m) for _, _, m, cnt in corners.values()
    )
    n = len(S)
    if d != n * a0:
        raise ArithmeticError(
            "Gauss-Bonnet defect mismatch: d=%s, n*A0=%s"
            % (RationalAngle(d, L), RationalAngle(n * a0, L))
        )
    return CatalogEntry(
        shape=shape,
        n=n,
        defect=RationalAngle(d, L),
        code=best,
        key=T.canonical_form(S) if key is None else key,
        rep=tuple(sorted(S)),
    )


# ---------------------------------------------------------------------------
# side-driven search
# ---------------------------------------------------------------------------

def _flood_fill(T, seeds, boundary_pairs, cap):
    S = set(seeds)
    stack = list(seeds)
    while stack:
        c = stack.pop()
        for g in range(1, T.k + 1):
            d = T.step(c, g)
            if d in S:
                continue
            if (min(c, d), max(c, d)) in boundary_pairs:
                continue
            S.add(d)
            if len(S) > cap:
                return None
            stack.append(d)
    return S


def _side_search(spec, n_corners, step_cap):
    """Enumerate all classes of circle triangles (n_corners=3) or
    quadrilaterals (n_corners=4): corners at vertex-orbit
    representatives, sides forced straight, turns on the interior side,
    pruned by the exact chamber-count cap n <= d/A0.

    Angles are integers in units of pi/L, L = lcm(m), so a turn by t at
    a vertex of gonality m is t * L/m units; the area A0 is an integer
    in the same units, so the cap n <= d/A0 is the quotient d // A0."""
    L, a0 = _angle_units(spec)
    full = (n_corners - 2) * L  # the angle sum (l - 2) * pi, in units
    min_angle = L // max(spec.m)

    def n_cap_for(angle_sum, corners_left):
        d = full - angle_sum - corners_left * min_angle
        if d <= 0:
            return -1
        return d // a0

    if n_cap_for(0, n_corners) < 1:
        return {}
    T = tessellation(spec)
    shape = "triangle" if n_corners == 3 else "quadrilateral"
    results = {}
    steps = [0]

    def turns(rec, in_edge, left_ch, options):
        """Each turn by t*pi/m (t in options) at vertex record rec of a
        side that arrives along in_edge with left_ch on its interior
        side: (t, the chambers swept, out_edge, the new left chamber)."""
        p = rec["pos"].get(in_edge)
        if p is None:
            return
        chams, n2 = rec["chams"], 2 * rec["m"]
        # edge p joins chams[p - 1] and chams[p]; the sweep runs from the
        # interior one away from the other
        if chams[p] == left_ch:
            sense, first = 1, p
        elif chams[p - 1] == left_ch:
            sense, first = -1, p - 1
        else:
            return
        for t in options:
            swept = [chams[(first + sense * i) % n2] for i in range(t)]
            yield t, swept, rec["edges"][(p + sense * t) % n2], swept[-1]

    def close(interior, angle_sum):
        # the closing corner swept a chamber, so d <= 0 fails the size test
        n_target, rest = divmod(full - angle_sum, a0)
        if rest or len(interior) > n_target:
            return
        bpairs = {(e[0], e[1]) for e in all_edges}
        S = _flood_fill(T, interior, bpairs, n_target)
        if S is None or len(S) != n_target:
            return
        # translates share their verdict, so each class is built once,
        # and a set that is no entry is kept as None
        key = T.canonical_form(S)
        if key not in results:
            results[key] = build_entry(T, S, shape, key)

    def walk(head_rec, in_edge, left_ch, corners_left, interior, angle_sum,
             visited):
        steps[0] += 1
        if steps[0] > step_cap:
            raise ResourceCap("side search exceeded %d steps" % step_cap)
        key = head_rec["key"]
        m = head_rec["m"]
        if key == v0rec["key"]:
            # the circuit closes by a last corner turn onto the start edge
            if corners_left == 1:
                for t, swept, out_edge, new_left in turns(
                    head_rec, in_edge, left_ch, range(1, m)
                ):
                    if out_edge == start_edge and new_left == start_left:
                        close(interior.union(swept), angle_sum + t * (L // m))
            return
        if key in visited:
            return
        ncap = n_cap_for(angle_sum, corners_left)
        if ncap < len(interior) or ncap < 1:
            return
        if len(all_edges) >= (spec.k - 2) * ncap + 2:
            return
        visited.add(key)
        # straight (t = m) plus corner turns (t = 1..m-1) on the interior
        # side, the turns only at a vertex type ranked at or after the start
        turn_opts = [m]
        if corners_left > 1 and rank[head_rec["j"]] >= start_rank:
            turn_opts.extend(range(1, m))
        for t, swept, out_edge, new_left in turns(
            head_rec, in_edge, left_ch, turn_opts
        ):
            new_interior = interior | set(swept)
            if t < m:  # a corner
                new_angle = angle_sum + t * (L // m)
                new_corners_left = corners_left - 1
            else:
                new_angle, new_corners_left = angle_sum, corners_left
            ncap2 = n_cap_for(new_angle, new_corners_left)
            if ncap2 < len(new_interior) or ncap2 < 1:
                continue
            wa, wb = T.edge_endpoints(out_edge)
            nxt = wa if wa["key"] != key else wb
            all_edges.append(out_edge)
            walk(nxt, out_edge, new_left, new_corners_left, new_interior,
                 new_angle, visited)
            all_edges.pop()
        visited.discard(key)

    # vertex types by gonality, highest first, ties by label
    ranked = sorted(range(1, spec.k + 1), key=lambda j: (-spec.m_at_vertex(j), j))
    rank = {j: r for r, j in enumerate(ranked)}
    for start_rank, j in enumerate(ranked):
        v0rec = T.vertex(0, j)
        for start_edge, start_left in zip(v0rec["edges"][:2], v0rec["chams"]):
            wa, wb = T.edge_endpoints(start_edge)
            nxt = wa if wa["key"] != v0rec["key"] else wb
            all_edges = [start_edge]
            walk(nxt, start_edge, start_left, n_corners, set(), 0, set())
    return {key: entry for key, entry in results.items() if entry is not None}


def enumerate_triangles(spec, step_cap=30_000_000):
    """All label-preserving isomorphism classes of circle triangles in
    the 1-skeleton, complete within the exact area bound n <= d/A0."""
    return set(_side_search(spec, 3, step_cap).values())


def enumerate_quads(spec, step_cap=30_000_000):
    """All classes of circle quadrilaterals, complete within bounds."""
    return set(_side_search(spec, 4, step_cap).values())


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_catalog(spec, shape, n_max=8):
    """Independent oracle: enumerate all edge-connected chamber sets
    containing the base chamber up to size n_max, keep those bounding a
    convex disk whose boundary is a triangle/quadrilateral, and return
    the class set."""
    T = tessellation(spec)
    results = {}

    def consider(S):
        entry = build_entry(T, set(S), shape)
        if entry is not None and entry.key not in results:
            results[entry.key] = entry

    def extend(S, candidates, banned):
        consider(S)
        if len(S) == n_max:
            return
        for i, c in enumerate(candidates):
            S2 = S + (c,)
            new_banned = banned | set(candidates[:i])
            rest = candidates[i + 1:]
            fresh = [d for d in (T.step(c, g) for g in range(1, T.k + 1))
                     if d not in S2 and d not in new_banned and d not in rest]
            extend(S2, candidates[i + 1:] + tuple(fresh), new_banned | {c})

    first = tuple(T.step(0, g) for g in range(1, T.k + 1))
    extend((0,), first, {0})
    return set(results.values())


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

def _is_right_triangle(spec):
    return spec.k == 3 and 2 in spec.m


def _entry_order(entry):
    return json.dumps(entry.to_json(), sort_keys=True)


def claims_check(spec):
    """Evaluate the structural catalog claims against the enumerated
    triangle and quadrilateral classes for this chamber.  Returns a
    report dict: claim id -> {pass, witnesses}."""
    # a fixed order, so witness lists do not follow the hash seed
    triangles = sorted(enumerate_triangles(spec), key=_entry_order)
    quads = sorted(enumerate_quads(spec), key=_entry_order)
    a0 = area(spec)
    is238 = spec.k == 3 and sorted(spec.m) == [2, 3, 8]
    report = {}

    def claim(name, ok, witnesses=()):
        report[name] = {"pass": bool(ok), "witnesses": list(witnesses)}

    # shape of the triangle catalog
    if spec.k >= 4:
        claim("triangle_shapes", not triangles,
              [e.to_json() for e in triangles])
    elif all(mi >= 3 for mi in spec.m):
        only_chamber = (
            len(triangles) == 1 and next(iter(triangles)).n == 1
        )
        claim("triangle_shapes", only_chamber,
              [e.to_json() for e in triangles])
    else:
        # right triangle: every class bounds a disk with no special
        # points (checked per entry by construction: convex filtering)
        claim("triangle_shapes", True,
              [{"classes": len(triangles)}])
    # no quadrilaterals for k >= 5
    if spec.k >= 5:
        claim("quad_k5_empty", not quads, [e.to_json() for e in quads])
    # two adjacent even angles with >= 2 interior side vertices
    qualifying = []
    for e in quads:
        code = e.code
        l = len(code)
        for i in range(l):
            if code[i][3] and code[(i + 1) % l][3] and code[i][4] - 1 >= 2:
                qualifying.append(e)
                break
    claim(
        "quad_adjacent_even_long_side",
        is238 or not qualifying,
        [e.to_json() for e in qualifying],
    )
    # three even angles only over right triangles
    three_even = [e for e in quads if sum(e.even_flags) >= 3]
    claim(
        "quad_three_even",
        _is_right_triangle(spec) or not three_even,
        [e.to_json() for e in three_even],
    )
    # minimal triangle defect pi/24
    d_min_tris = [e for e in triangles if e.defect == RationalAngle(1, 24)]
    ok_min = all(is238 and e.n == 1 for e in d_min_tris)
    claim("triangle_defect_min", ok_min, [e.to_json() for e in d_min_tris])
    # quadrilateral defect >= 2*pi/24, equality only for the 2-chamber
    # gluing over the (2,3,8) chamber
    bad = [e for e in quads if e.defect < RationalAngle(2, 24)]
    at_min = [e for e in quads if e.defect == RationalAngle(2, 24)]
    ok_q = not bad and all(is238 and e.n == 2 for e in at_min)
    claim("quad_defect_min", ok_q,
          [e.to_json() for e in bad + at_min])
    # exact area law on every entry
    gb = all(e.defect == e.n * a0 for e in triangles + quads)
    claim("area_law", gb, [])
    report["summary"] = {
        "triangles": len(triangles),
        "quadrilaterals": len(quads),
        "pass": all(
            v["pass"] for k, v in report.items() if k != "summary"
        ),
    }
    return report
