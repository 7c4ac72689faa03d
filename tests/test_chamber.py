import math
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from hypbuild.chamber import (
    ChamberError,
    RationalAngle,
    area,
    parse_chamber_string,
    validate,
)

# Areas of the six thick-realizable right triangles, frozen from the
# Gauss-Bonnet formula A0 = (k-2-sum 1/m) * pi evaluated by hand.
RIGHT_TRIANGLE_AREAS = {
    (2, 8, 8): Fraction(1, 4),
    (2, 6, 6): Fraction(1, 6),
    (2, 6, 8): Fraction(5, 24),
    (2, 4, 6): Fraction(1, 12),
    (2, 4, 8): Fraction(1, 8),
    (2, 3, 8): Fraction(1, 24),
}


def test_right_triangle_area_table():
    for m, frac in RIGHT_TRIANGLE_AREAS.items():
        spec = validate(3, m)
        assert area(spec) == frac


def test_area_pentagon_and_334():
    assert area(validate(5, (2, 2, 2, 2, 2))) == Fraction(1, 2)
    assert area(validate(3, (3, 3, 4))) == Fraction(1, 12)


def test_area_positive_for_all_valid_specs():
    for m in RIGHT_TRIANGLE_AREAS:
        assert area(validate(3, m)) > 0


def test_euclidean_triangle_rejected():
    with pytest.raises(ChamberError) as err:
        validate(3, (3, 3, 3))
    assert "NonHyperbolic" in err.value.codes()


def test_illegal_gonality_rejected_even_when_thin():
    with pytest.raises(ChamberError) as err:
        validate(3, (2, 5, 8))
    assert "IllegalLinkGon" in err.value.codes()


def test_degenerate_k():
    with pytest.raises(ChamberError) as err:
        validate(2, (2, 2))
    assert "DegenerateK" in err.value.codes()


def test_thickness_rule_m8():
    # equal thickness across an m=8 vertex is illegal in a thick building
    with pytest.raises(ChamberError) as err:
        validate(3, (2, 8, 8), (3, 2, 2))
    assert "ThicknessRule8" in err.value.codes()


def test_thickness_rule_m3():
    with pytest.raises(ChamberError) as err:
        validate(3, (3, 3, 4), (2, 3, 2))
    assert "ThicknessRule3" in err.value.codes()


def test_thickness_rules_skipped_when_thin():
    # q=1 entries disable the thickness rules (apartment-only use)
    validate(3, (2, 8, 8), (1, 1, 1))
    validate(3, (3, 3, 4), (1, 1, 1))


def test_multiple_violations_reported_together():
    with pytest.raises(ChamberError) as err:
        validate(3, (5, 2, 2))
    codes = err.value.codes()
    assert "IllegalLinkGon" in codes and "NonHyperbolic" in codes


def test_validate_idempotent():
    spec = validate(3, (2, 3, 8))
    again = validate(spec.k, spec.m, spec.q)
    assert again == spec


def test_parse_chamber_string():
    spec = parse_chamber_string("3;2,3,8;1,1,1")
    assert spec.m == (2, 3, 8)
    assert parse_chamber_string("5;2,2,2,2,2").q == (1, 1, 1, 1, 1)


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=48
)


@given(rationals)
def test_rational_angle_is_its_fraction(a):
    ra = RationalAngle(a.numerator, a.denominator)
    assert ra == a and hash(ra) == hash(a)
    assert RationalAngle(3 * a.numerator, 3 * a.denominator) == ra
    assert ra.denominator > 0
    assert gcd(abs(ra.numerator), ra.denominator) == 1
    assert ra.radians() == math.pi * a.numerator / a.denominator
    # the pi form reads back as the coefficient of pi
    assert Fraction(str(ra).replace("*pi", "").replace("pi", "1")) == a


def test_rational_angle_prints_in_pi():
    cases = {(0, 1): "0", (1, 1): "pi", (2, 1): "2*pi", (1, 24): "pi/24",
             (5, 24): "5*pi/24", (-1, 24): "-1*pi/24", (-2, 1): "-2*pi",
             (10, -48): "-5*pi/24"}
    for (num, den), text in cases.items():
        assert str(RationalAngle(num, den)) == repr(RationalAngle(num, den)) == text
