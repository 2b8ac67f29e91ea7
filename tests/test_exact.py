"""Deformed-route arithmetic, rational literals, and limit evaluation."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from gtrep import (
    PoleError,
    format_rational,
    parse_rational,
    rf_limit_at,
)
from gtrep.exact import LaurentSum
from gtrep.sorep import DEFORMED, PLAIN

# factors (A, b) stand for A/2 + b*t
T = (0, 1)


def lin(a, b=1):
    # the factor a + b*t
    return (2 * a, b)


def ratio(num, den=(), c=1):
    return DEFORMED.value(list(num), list(den), c)


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
        f = ratio([T, lin(3)], [T, lin(1)], 2)
        assert rf_limit_at(f) == 6

    def test_true_pole_raises(self):
        with pytest.raises(PoleError) as e:
            rf_limit_at(ratio([], [T, lin(2)]))
        assert e.value.witness == "1/2*t^-1 + -1/4 + O(t)"

    def test_common_factor_cancels(self):
        f = ratio([lin(0, 2)], [T])
        assert shape(f) == (2, 0, {})
        assert rf_limit_at(f) == 2

    def test_plain_point_is_evaluation(self):
        assert rf_limit_at(ratio([lin(3), lin(1)], [lin(2)])) == Fraction(3, 2)
        assert rf_limit_at(ratio([lin(5)])) == 5

    def test_value_at_pole_raises(self):
        # the order-2 parts cancel and an order-1 pole survives:
        # 1/(t^2 (1+t)) - 1/t^2 = -1/(t (1+t))
        s = total(ratio([], [T, T, lin(1)]), ratio([], [T, T], -1))
        assert (s.lo, s.c) == (-2, (0, -1, 1))
        with pytest.raises(PoleError):
            rf_limit_at(s)

    def test_order_one_poles_cancel_across_terms(self):
        # 1/t - 1/(t(1+t)) = 1/(1+t)
        s = total(ratio([], [T]), ratio([], [T, lin(1)], -1))
        assert rf_limit_at(s) == 1

    def test_order_two_poles_cancel_across_terms(self):
        # 1/(t(1-t))^2 = t^-2 + 2 t^-1 + 3 + O(t)
        sq = ratio([], [T, lin(1, -1), T, lin(1, -1)])
        assert str(total(sq)) == "1*t^-2 + 2*t^-1 + 3 + O(t)"
        assert rf_limit_at(total(sq, ratio([], [T, T], -1),
                                 ratio([], [T], -2))) == 3

    def test_positive_powers_are_dropped(self):
        s = total(ratio([T, lin(1)]), 7)
        assert (s.lo, s.c) == (0, (7,))


class TestRationalFunctionArithmetic:
    """Rational functions of t as the deformed route builds them:
    ratios of products of linear factors, in factored form."""

    def test_sum_over_distinct_poles(self):
        # poles away from t = 0 leave the limit a plain sum of values
        assert rf_limit_at(total(ratio([], [lin(-1)]),
                                 ratio([], [lin(1)]))) == 0

    def test_self_division_is_one(self):
        assert shape(ratio([T], [T])) == (1, 0, {})
        assert shape(ratio([lin(2)], [lin(2)])) == (1, 0, {})

    def test_product_cancels(self):
        f = ratio([T, lin(1)]) * ratio([], [T])
        assert shape(f) == (1, 0, {1: 1})

    def test_zero_denominator_rejected(self):
        zero = lin(0, 0)
        assert not ratio([zero])
        with pytest.raises(ZeroDivisionError):
            ratio([lin(1)], [zero])
        with pytest.raises(ZeroDivisionError):
            ratio([T, T], [zero, T])
        assert not (ratio([zero]) * ratio([lin(3)]))

    def test_scalar_mixing(self):
        g = ratio([lin(1, -1)])
        assert shape(g) == (1, 0, {-1: 1})
        assert shape(3 * (ratio([T]) * g)) == (3, 1, {-1: 1})

    def test_sums_outside_the_accumulator_raise(self):
        m = ratio([T, lin(1)])
        s = total(m)
        for bad in (lambda: m + m, lambda: ratio([lin(1)]) + m,
                    lambda: m - 1, lambda: s * m, lambda: s + s,
                    lambda: m * s, lambda: s / 2):
            with pytest.raises(TypeError):
                bad()


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).filter(lambda x: x != 0)


@given(small_fracs, small_fracs, small_fracs)
def test_chain_product_telescopes(p, q, r):
    # (p/q)*(q/r) == p/r with the symbols replaced by shifted variables
    a = ratio([lin(p)], [lin(q)])
    b = ratio([lin(q)], [lin(r)])
    assert shape(a * b) == shape(ratio([lin(p)], [lin(r)]))


# factors (A, b) as the builders make them: doubled ints, small drifts
factor_lists = st.lists(st.tuples(st.integers(-6, 6), st.integers(-2, 2)),
                        max_size=5)


@given(factor_lists, factor_lists, st.integers(-3, 3))
def test_limit_agrees_with_substitution(num, den, c):
    # with every A nonzero there is no pole at t = 0, and the deformed
    # term's limit is the plain value
    assume(all(a for a, _ in num + den))
    assert rf_limit_at(DEFORMED.value(num, den, c)) == PLAIN.value(num, den, c)


@given(factor_lists, factor_lists, st.integers(-3, 3))
def test_zero_denominators_raise_on_each_route(num, den, c):
    # plain: any factor that vanishes at t = 0; deformed: only an exactly
    # zero factor (0, 0)
    plain_zero = any(a == 0 for a, _ in den)
    deformed_zero = any(f == (0, 0) for f in den)
    for ctx, zero in ((PLAIN, plain_zero), (DEFORMED, deformed_zero)):
        try:
            ctx.value(num, den, c)
            raised = False
        except ZeroDivisionError:
            raised = True
        assert raised == zero


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
