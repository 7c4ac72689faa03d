import decimal
import math
import random

import pytest
from hypothesis import given, strategies as st

from hypbuild import weights
from hypbuild.weights import WeightVector


def test_log_int_basics():
    assert WeightVector.log_int(1).is_zero()
    assert WeightVector.log_int(4) == WeightVector.log_int(2) + WeightVector.log_int(2)
    assert WeightVector.log_int(6) == WeightVector.log_int(2) + WeightVector.log_int(3)
    assert abs(WeightVector.log_int(12).value() - math.log(12)) < 1e-12


def test_half_unit_flag():
    assert not WeightVector.log_int(2).half_unit
    assert WeightVector.half_log_int(2).half_unit
    assert not WeightVector.half_log_int(4).half_unit  # = log 2


def test_exact_equality_and_zero():
    a = WeightVector.log_int(8)
    b = WeightVector.log_int(2).scale(3)
    assert a == b
    assert (a - b).is_zero()
    assert a - b == WeightVector.zero()


def test_ordering_with_near_values():
    # log 8 vs log 9 - tiny difference handled numerically
    assert WeightVector.log_int(8) < WeightVector.log_int(9)
    # 2^13 = 8192 vs 3^8 * ... make a small but nonzero combination
    x = WeightVector.log_int(2).scale(19)  # 19 log 2 = 13.1697...
    y = WeightVector.log_int(3).scale(12)  # 12 log 3 = 13.1833...
    assert x < y


def test_halve_and_scale():
    g = WeightVector.log_int(4).halve()
    assert g == WeightVector.log_int(2)
    h = WeightVector.log_int(2) + WeightVector.log_int(3)
    assert h.scale(2).halve() == h


def test_multiple_of_half_log():
    half = WeightVector.half_log_int(2)
    assert WeightVector.zero().multiple_of_half_log(2) == 0
    assert half.multiple_of_half_log(2) == 1
    assert (-half).multiple_of_half_log(2) == -1
    assert WeightVector.log_int(2).multiple_of_half_log(2) == 2
    assert WeightVector.log_int(3).multiple_of_half_log(2) is None
    assert (WeightVector.log_int(2) + WeightVector.log_int(3)).multiple_of_half_log(2) is None


small_ints = st.integers(min_value=1, max_value=60)


@given(small_ints, small_ints, small_ints)
def test_additivity_matches_floats(a, b, c):
    va, vb, vc = (WeightVector.log_int(x) for x in (a, b, c))
    total = va + vb - vc
    assert abs(total.value() - (math.log(a) + math.log(b) - math.log(c))) < 1e-9
    # exactness: log a + log b = log(ab)
    assert va + vb == WeightVector.log_int(a * b)


@given(small_ints, small_ints)
def test_ordering_agrees_with_floats(a, b):
    va, vb = WeightVector.log_int(a), WeightVector.log_int(b)
    assert (va < vb) == (a < b)
    assert (va == vb) == (a == b)


def test_json_stable():
    v = WeightVector.half_log_int(2) - WeightVector.log_int(3)
    assert v.to_json() == {"2": "1/2", "3": "-1"}


# -- exact order against an 80-digit decimal oracle ----------------------

_CTX = decimal.Context(prec=80)
_PRIMES = (2, 3, 5, 7, 11, 13)


def _decimal_value(halves):
    total = sum((_CTX.multiply(decimal.Decimal(n), _CTX.ln(p)) for p, n in halves.items()),
                decimal.Decimal(0))
    return _CTX.divide(total, 2)


signed_vectors = st.dictionaries(st.sampled_from(_PRIMES), st.integers(-60, 60), max_size=6)


def is_nonnegative(v):
    """The sign test of one value, read off the exact integer products."""
    return weights._sign(v._halves, {}) >= 0


@given(signed_vectors, signed_vectors)
def test_order_matches_decimal_logs(a, b):
    va, vb = WeightVector(a), WeightVector(b)
    da, db = _decimal_value(a), _decimal_value(b)
    assert (va < vb) == (da < db)
    assert (va <= vb) == (da <= db)
    assert (va > vb) == (da > db)
    assert is_nonnegative(va - vb) == (da >= db)


def _convergents(x, bound):
    """Continued-fraction convergents p/q of x with q <= bound."""
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        a = int(x)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        if k1 > bound:
            return
        yield h1, k1
        x = _CTX.divide(1, x - a)


def test_order_on_continued_fraction_near_ties():
    two, three = WeightVector.log_int(2), WeightVector.log_int(3)
    x = _CTX.divide(_CTX.ln(3), _CTX.ln(2))
    pairs = list(_convergents(x, 200_000))
    assert (301994, 190537) in pairs
    for a, b in pairs:
        gap = _CTX.subtract(_CTX.multiply(a, _CTX.ln(2)), _CTX.multiply(b, _CTX.ln(3)))
        assert (two.scale(a) < three.scale(b)) == (gap < 0)
        assert (three.scale(b) < two.scale(a)) == (gap > 0)
        assert is_nonnegative(two.scale(a) - three.scale(b)) == (gap > 0)
    # the closest pair: 301994 log 2 - 190537 log 3 = 6.45e-8, on values
    # near 2.1e5
    assert two.scale(301994) > three.scale(190537)


# -- packed codes, shared instances, lazy hashes --------------------------

def test_pack_round_trip_on_signed_vectors():
    rng = random.Random(21)
    for _ in range(500):
        primes = tuple(sorted(rng.sample(_PRIMES, rng.randint(1, len(_PRIMES)))))
        vectors = []
        for _ in range(3):
            bound = rng.choice((3, 1000, 2**60))
            vectors.append(WeightVector({p: rng.randint(-bound, bound) for p in primes if rng.random() < 0.8}))
        a, b, c = vectors
        codes = [v.pack(primes) for v in vectors]
        for v, code in zip(vectors, codes):
            assert WeightVector.unpack(code, primes) == v
        # sums and differences of up to four packed values unpack exactly
        assert WeightVector.unpack(codes[0] + codes[1] - codes[2], primes) == a + b - c
        assert WeightVector.unpack(-codes[0] - codes[1] - codes[2] + codes[0], primes) == -b - c
        assert (codes[0] + codes[1] == codes[2]) == (a + b == c)


def test_pack_refuses_fields_that_do_not_fit():
    primes = (2, 3, 5)
    WeightVector({3: 2**61 - 1, 5: -(2**61 - 1)}).pack(primes)
    for n in (2**61, -(2**61), 2**64 + 1, -(2**70)):
        with pytest.raises(OverflowError):
            WeightVector({3: n}).pack(primes)
    with pytest.raises(ValueError):
        WeightVector.log_int(7).pack(primes)
    # a code with a field beyond the primes is not read as a smaller value
    with pytest.raises(OverflowError):
        WeightVector.unpack(1 << (64 * len(primes)), primes)


def test_shared_returns_one_instance_up_to_its_cap(monkeypatch):
    monkeypatch.setattr(weights, "_SHARED", {})
    monkeypatch.setattr(weights, "SHARED_CAP", 5)
    a = WeightVector.log_int(6)
    b = WeightVector.log_int(2) + WeightVector.log_int(3)
    assert a is not b and a.shared() is a and b.shared() is a
    for n in range(7, 40):
        WeightVector.log_int(n).shared()
    assert len(weights._SHARED) == 5
    late = WeightVector.log_int(97)
    assert late.shared() is late and len(weights._SHARED) == 5
    assert WeightVector.log_int(6).shared() is a


def test_hash_is_computed_on_first_use():
    a = WeightVector.log_int(12) - WeightVector.log_int(3)
    assert a._hash is None
    assert hash(a) == hash(WeightVector.log_int(4)) == hash(a)
    assert {a: 1}[WeightVector.log_int(2).scale(2)] == 1
    # sums that cancel drop their zero entries
    assert (a - WeightVector.log_int(4))._halves == {}
    assert (a + WeightVector.log_int(3) - WeightVector.log_int(3))._halves == a._halves
