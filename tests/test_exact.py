"""Deformed-route arithmetic, rational literals, and limit evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gtrep import (
    PoleError,
    format_rational,
    parse_rational,
    rf_limit_at,
)
from gtrep.exact import LaurentSum, LinearForm

T = LinearForm(0, 1)


def lin(a, b=1):
    return LinearForm(a, b)


def total(*terms):
    acc = LaurentSum()
    for x in terms:
        acc = acc + x
    return acc


def shape(m):
    return (m.c, m.v, m.f)


class TestLimits:
    def test_removable_singularity(self):
        # 2t(3 + t) / (t(1 + t)) -> 6
        f = 2 * T * lin(3) / (T * lin(1))
        assert rf_limit_at(f) == 6

    def test_true_pole_raises(self):
        with pytest.raises(PoleError) as e:
            rf_limit_at(1 / (T * lin(2)))
        assert e.value.witness == "1/2*t^-1 + -1/4 + O(t)"

    def test_common_factor_cancels(self):
        f = (T + T) / T
        assert shape(f) == (2, 0, {})
        assert rf_limit_at(f) == 2

    def test_plain_point_is_evaluation(self):
        assert rf_limit_at(lin(3) * lin(1) / lin(2)) == Fraction(3, 2)
        assert rf_limit_at(lin(5)) == 5

    def test_value_at_pole_raises(self):
        # the order-2 parts cancel and an order-1 pole survives:
        # 1/(t^2 (1+t)) - 1/t^2 = -1/(t (1+t))
        s = total(1 / (T * T * lin(1)), -(1 / (T * T)))
        assert (s.lo, s.c) == (-2, (0, -1, 1))
        with pytest.raises(PoleError):
            rf_limit_at(s)

    def test_order_one_poles_cancel_across_terms(self):
        # 1/t - 1/(t(1+t)) = 1/(1+t)
        s = total(1 / T, -(1 / (T * lin(1))))
        assert rf_limit_at(s) == 1

    def test_order_two_poles_cancel_across_terms(self):
        # 1/(t(1-t))^2 = t^-2 + 2 t^-1 + 3 + O(t)
        sq = 1 / (T * lin(1, -1) * T * lin(1, -1))
        assert str(total(sq)) == "1*t^-2 + 2*t^-1 + 3 + O(t)"
        assert rf_limit_at(total(sq, -(1 / (T * T)), -2 / T)) == 3

    def test_positive_powers_are_dropped(self):
        s = total(T * lin(1), 7)
        assert (s.lo, s.c) == (0, (7,))


class TestRationalFunctionArithmetic:
    """Rational functions of t as the deformed route builds them:
    products and quotients of linear forms, in factored form."""

    def test_sum_over_distinct_poles(self):
        # poles away from t = 0 leave the limit a plain sum of values
        assert rf_limit_at(total(1 / (T - 1), 1 / (T + 1))) == 0

    def test_self_division_is_one(self):
        assert shape(T / T) == (1, 0, {})
        assert shape(lin(2) / lin(2)) == (1, 0, {})

    def test_product_cancels(self):
        f = (T * lin(1)) * (1 / T)
        assert shape(f) == (1, 0, {1: 1})

    def test_zero_denominator_rejected(self):
        zero = lin(2) - lin(2)
        assert not zero
        with pytest.raises(ZeroDivisionError):
            lin(1) / zero
        with pytest.raises(ZeroDivisionError):
            (T * T) / (zero * T)
        assert not (zero * lin(3))

    def test_scalar_mixing(self):
        f = 2 * T + 1
        assert (f.a, f.b) == (1, 2)
        g = 1 - T
        assert (g.a, g.b) == (1, -1)
        assert shape(3 * (T * g)) == (3, 1, {-1: 1})

    def test_sums_outside_the_accumulator_raise(self):
        m = T * lin(1)
        s = total(m)
        for bad in (lambda: m + m, lambda: lin(1) + m, lambda: m - 1,
                    lambda: s * m, lambda: s + s, lambda: m * s,
                    lambda: s / 2):
            with pytest.raises(TypeError):
                bad()


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).filter(lambda x: x != 0)

linear_factors = st.lists(
    st.tuples(small_fracs, st.fractions(min_value=-3, max_value=3,
                                        max_denominator=4), st.booleans()),
    min_size=1, max_size=6)


@given(small_fracs, small_fracs, small_fracs)
def test_chain_product_telescopes(p, q, r):
    # (p/q)*(q/r) == p/r with the symbols replaced by shifted variables
    a = (T + p) / (T + q)
    b = (T + q) / (T + r)
    assert shape(a * b) == shape((T + p) / (T + r))


@given(linear_factors)
def test_limit_agrees_with_substitution(factors):
    # products and quotients of a + b*t with a != 0 have no pole at 0
    f, want = lin(1, 0), Fraction(1)
    for a, b, divide in factors:
        if divide:
            f, want = f / lin(a, b), want / a
        else:
            f, want = f * lin(a, b), want * a
    assert rf_limit_at(f) == want


class TestParseFormat:
    def test_parse_accepts_both_shapes(self):
        assert parse_rational("-3/2") == Fraction(-3, 2)
        assert parse_rational("5") == Fraction(5)

    def test_format_drops_unit_denominator(self):
        assert format_rational(Fraction(-3, 2)) == "-3/2"
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(4, 2)) == "2"

    def test_rejects_garbage(self):
        for bad in ("", "1/0", "x", "1.5", "1/2/3"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_rational(bad)

    @given(st.fractions(max_denominator=100))
    def test_roundtrip(self, x):
        assert parse_rational(format_rational(x)) == x
