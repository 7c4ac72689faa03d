"""The chamber polygon R: exact validation and derived constants.

A chamber is a hyperbolic k-gon whose vertex angles are pi/m[i] with
m[i] in {2,3,4,6,8} (the gonalities for which thick finite links can
exist), subject to a hyperbolicity constraint and, when thick, to the
parameter rules forced by the link geometry (equal thickness across
angle pi/3 vertices, unequal across pi/8 vertices).

All angle arithmetic in this module is exact: angles are rational
multiples of pi and floats are deliberately absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

ALLOWED_M = (2, 3, 4, 6, 8)


class RationalAngle(Fraction):
    """An exact angle (numerator/denominator) * pi: a Fraction, the
    coefficient of pi, that prints in terms of pi.  Arithmetic on it
    returns plain Fractions."""

    __slots__ = ()

    def radians(self):
        """Float value; for rendering only, never for comparisons."""
        return math.pi * self.numerator / self.denominator

    def __repr__(self):
        num, den = self.numerator, self.denominator
        if num == 0:
            return "0"
        if den == 1:
            return "pi" if num == 1 else "%d*pi" % num
        if num == 1:
            return "pi/%d" % den
        return "%d*pi/%d" % (num, den)

    __str__ = __repr__


class ChamberError(ValueError):
    """Raised by validate(); carries every violated rule."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join("%s: %s" % v for v in self.violations))

    def codes(self):
        return [code for code, _ in self.violations]


@dataclass(frozen=True)
class ChamberSpec:
    """The polygon R: k edges, m[i] = gonality of the vertex between
    edges i+1 and i+2 (0-based list, 1-based edge labels), q[i] =
    thickness of edge label i+1 (q=1 means thin / apartment only)."""

    k: int
    m: tuple
    q: tuple

    def angle_at_vertex(self, j):
        """Interior angle pi/m at the vertex between edges j and j+1
        (edge labels 1-based, j in 1..k)."""
        return RationalAngle(1, self.m[j - 1])

    def m_at_vertex(self, j):
        return self.m[j - 1]

    def m_between(self, a, b):
        """The order of s_a s_b: the gonality of the vertex where edges a
        and b meet (vertex j joins edges j and j + 1), None if they do
        not meet."""
        for j in (a, b):
            if j % self.k + 1 in (a, b):
                return self.m[j - 1]
        return None

    def is_thick(self):
        return all(qi >= 2 for qi in self.q)

    def __repr__(self):
        return "ChamberSpec(k=%d, m=%s, q=%s)" % (self.k, list(self.m), list(self.q))


def validate(k, m, q=None):
    """Validate raw chamber data; returns a ChamberSpec or raises
    ChamberError listing every violated rule."""
    m = tuple(int(x) for x in m)
    if q is None:
        q = tuple(1 for _ in m)
    q = tuple(int(x) for x in q)
    violations = []
    if k < 3:
        violations.append(("DegenerateK", "k=%d < 3" % k))
    if len(m) != k or len(q) != k:
        violations.append(("DegenerateK", "m/q lists must have length k"))
        raise ChamberError(violations)
    for i, mi in enumerate(m):
        if mi not in ALLOWED_M:
            violations.append(
                ("IllegalLinkGon", "m[%d]=%d not in %s" % (i, mi, list(ALLOWED_M)))
            )
    if k >= 3 and all(mi >= 2 for mi in m):
        angle_sum = sum(Fraction(1, mi) for mi in m)
        if angle_sum >= k - 2:
            violations.append(
                ("NonHyperbolic", "angle sum %s*pi >= (k-2)*pi" % angle_sum)
            )
    for i, qi in enumerate(q):
        if qi < 1:
            violations.append(("DegenerateK", "q[%d]=%d < 1" % (i, qi)))
    if all(qi >= 2 for qi in q):
        # thickness rules across each vertex: vertex j joins edges j and j+1
        for j in range(k):
            qa, qb = q[j], q[(j + 1) % k]
            if m[j] == 3 and qa != qb:
                violations.append(
                    ("ThicknessRule3", "m=3 vertex %d needs q_%d = q_%d" % (j + 1, j + 1, (j + 1) % k + 1))
                )
            if m[j] == 8 and qa == qb:
                violations.append(
                    ("ThicknessRule8", "m=8 vertex %d needs q_%d != q_%d" % (j + 1, j + 1, (j + 1) % k + 1))
                )
    if violations:
        raise ChamberError(violations)
    return ChamberSpec(k=k, m=m, q=q)


def area(spec):
    """Exact hyperbolic area A0 = (k - 2 - sum 1/m[i]) * pi."""
    return RationalAngle(spec.k - 2 - sum(Fraction(1, mi) for mi in spec.m))


def parse_chamber_string(text):
    """Parse 'k;m1,...,mk;q1,...,qk' (q part optional) into a ChamberSpec."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) not in (2, 3):
        raise ChamberError([("FormatError", "expected 'k;m1,..,mk[;q1,..,qk]'")])
    k = int(parts[0])
    m = [int(x) for x in parts[1].split(",") if x.strip()]
    q = None
    if len(parts) == 3:
        q = [int(x) for x in parts[2].split(",") if x.strip()]
    return validate(k, m, q)
