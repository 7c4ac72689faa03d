"""Exact elements of the additive group generated by {log p : p prime}.

Every metric quantity in this package (edge lengths, chamber distances,
Gromov products, Busemann values, cross ratios) is an integer or
half-integer combination of logarithms of primes.  Such a combination is
zero only when all coefficients are zero (Q-linear independence of logs
of distinct primes), so equality can be decided exactly from the
exponent vector alone.  Order is exact too: sum n_p log p has the sign
of log(prod_{n_p>0} p^n_p / prod_{n_p<0} p^-n_p), so two integer
products decide it.  Floats only appear in value(), which reports and
heuristics read and no comparison here does.  Outside this module, one
float decides an order: metrics.DualGraph's Dijkstra compares float
sums of log q_i when their gap is far wider than their proven rounding
error, and sends every closer pair to the exact comparison.

A WeightVector computes its hash on first use: most values are
intermediate sums that are compared, never hashed.  shared() returns
the one instance of a value held in a module-level table of at most
SHARED_CAP entries (past the cap a value is its own instance), so
results that are kept, such as distances and cross ratios, do not each
carry a copy.  pack() and unpack() encode a value as one integer over a
fixed list of primes, one signed 64-bit field per prime, so that sums
and differences of values are sums and differences of ints.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _factorize(n):
    """Prime factorization of a positive integer as a dict prime -> exponent."""
    if n <= 0:
        raise ValueError("can only factorize positive integers, got %r" % (n,))
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sign(a, b):
    """Sign of sum_p (a_p - b_p) log p for exponent maps a and b, decided
    in integers: the product of p^d over the positive differences d
    against the product of p^-d over the negative ones."""
    up = down = 1
    for p in a.keys() | b.keys():
        d = a.get(p, 0) - b.get(p, 0)
        if d > 0:
            up *= p ** d
        elif d < 0:
            down *= p ** -d
    return (up > down) - (up < down)


# the shared-instance table (WeightVector.shared) holds at most this many values
SHARED_CAP = 4096
_SHARED = {}

# pack(): one field of _FIELD_BITS bits per prime.  A packed field holds
# |n| < 2**_PACK_BITS, so a sum or difference of up to four packed values
# still fits the signed field and unpacks exactly.
_FIELD_BITS = 64
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_FIELD_SIGN = 1 << (_FIELD_BITS - 1)
_PACK_BITS = _FIELD_BITS - 3


class WeightVector:
    """value = 1/2 * sum over primes of halves[p] * log p.

    Exponents are stored in half-units, so integer multiples of log p
    have even entries and the spec's half-unit flag is simply "some
    entry is odd".  Instances are immutable and hashable.
    """

    __slots__ = ("_halves", "_hash")

    def __init__(self, halves=None):
        items = {}
        if halves:
            for p, n in halves.items():
                if n:
                    items[p] = n
        self._halves = items
        self._hash = None

    @classmethod
    def _of(cls, items):
        """Wrap an exponent map that has no zero entry, without copying."""
        out = object.__new__(cls)
        out._halves = items
        out._hash = None
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero():
        return WeightVector()

    @staticmethod
    def log_int(q):
        """log q for a positive integer q (log 1 = 0)."""
        return WeightVector({p: 2 * e for p, e in _factorize(q).items()})

    @staticmethod
    def half_log_int(q):
        return WeightVector({p: e for p, e in _factorize(q).items()})

    # -- structure ------------------------------------------------------

    @property
    def half_unit(self):
        """True when the value is a half-integer (not integer) combination."""
        return any(n % 2 for n in self._halves.values())

    def exponents(self):
        """Exponent map prime -> Fraction (integer-unit scale)."""
        return {p: Fraction(n, 2) for p, n in self._halves.items()}

    def is_zero(self):
        return not self._halves

    def multiple_of_half_log(self, q):
        """Is this an integer multiple of (1/2) log q?  Returns the
        multiple as an int, or None."""
        base = _factorize(q)
        if not self._halves:
            return 0
        ratios = set()
        if set(self._halves) != set(base):
            return None
        for p, e in base.items():
            n = self._halves[p]
            if n % e:
                return None
            ratios.add(n // e)
        if len(ratios) != 1:
            return None
        return ratios.pop()

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        out = dict(self._halves)
        for p, n in other._halves.items():
            n += out.get(p, 0)
            if n:
                out[p] = n
            else:
                del out[p]
        return WeightVector._of(out)

    def __sub__(self, other):
        out = dict(self._halves)
        for p, n in other._halves.items():
            n = out.get(p, 0) - n
            if n:
                out[p] = n
            else:
                del out[p]
        return WeightVector._of(out)

    def __neg__(self):
        return WeightVector._of({p: -n for p, n in self._halves.items()})

    def halve(self):
        """Exact multiplication by 1/2; requires all entries even."""
        if self.half_unit:
            raise ValueError("halving %r would leave half-unit scale" % (self,))
        return WeightVector({p: n // 2 for p, n in self._halves.items()})

    def scale(self, k):
        """Multiply by an integer k."""
        return WeightVector({p: k * n for p, n in self._halves.items()})

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        return self._halves == other._halves

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._halves.items()))
        return h

    def __lt__(self, other):
        return _sign(self._halves, other._halves) < 0

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return other < self

    def __ge__(self, other):
        return other <= self

    # -- shared instances and packed codes ------------------------------

    def shared(self):
        """The one instance of this value in the shared table, or this
        value itself once the table holds SHARED_CAP values."""
        hit = _SHARED.get(self)
        if hit is not None:
            return hit
        if len(_SHARED) < SHARED_CAP:
            _SHARED[self] = self
        return self

    def pack(self, primes):
        """This value as one int: the half-exponent of primes[i] in the
        signed field i.  Raises OverflowError for a field that does not
        fit and ValueError for a prime not in `primes`."""
        if not self._halves.keys() <= set(primes):
            raise ValueError("%r has a prime outside %s" % (self, list(primes)))
        code = 0
        for i, p in enumerate(primes):
            n = self._halves.get(p, 0)
            if abs(n) >> _PACK_BITS:
                raise OverflowError("exponent %d of %d does not fit a packed field" % (n, p))
            code += n << (_FIELD_BITS * i)
        return code

    @staticmethod
    def unpack(code, primes):
        """The value of a packed int over `primes`: the inverse of pack(),
        also for sums and differences of a few packed values."""
        items = {}
        for p in primes:
            n = code & _FIELD_MASK
            if n & _FIELD_SIGN:
                n -= 1 << _FIELD_BITS
            if n:
                items[p] = n
            code = (code - n) >> _FIELD_BITS
        if code:
            raise OverflowError("packed value has fields beyond %s" % (list(primes),))
        return WeightVector._of(items)

    # -- numerics -------------------------------------------------------

    def value(self):
        return 0.5 * sum(n * math.log(p) for p, n in self._halves.items())

    # -- presentation ---------------------------------------------------

    def __repr__(self):
        if not self._halves:
            return "0"
        parts = []
        for p in sorted(self._halves):
            n = self._halves[p]
            coeff = Fraction(n, 2)
            if coeff == 1:
                parts.append("log %d" % p)
            else:
                parts.append("%s*log %d" % (coeff, p))
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        """Stable serialization: {prime: exponent-as-string} in integer units."""
        return {str(p): str(Fraction(n, 2)) for p, n in sorted(self._halves.items())}
