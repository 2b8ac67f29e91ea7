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
from gtrep.exact import F0, F1, LaurentSum, factor_laurent
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


def laurent(f):
    return (f.lo, f.c)


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
        assert laurent(f) == (0, (2,))
        assert rf_limit_at(f) == 2

    def test_plain_point_is_evaluation(self):
        assert rf_limit_at(ratio([lin(3), lin(1)], [lin(2)])) == Fraction(3, 2)
        assert rf_limit_at(ratio([lin(5)])) == 5

    def test_value_at_pole_raises(self):
        # the order-2 parts cancel and an order-1 pole survives:
        # 1/(t^2 (1+t)) - 1/t^2 = -1/(t (1+t))
        s = total(ratio([], [T, T, lin(1)]), ratio([], [T, T], -1))
        assert laurent(s) == (-2, (0, -1, 1))
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
        # t(1 + t) vanishes at t = 0: the empty sum
        assert laurent(ratio([T, lin(1)])) == (0, (0,))
        s = total(ratio([T, lin(1)]), ratio([lin(7)]))
        assert laurent(s) == (0, (7,))


class TestRationalFunctionArithmetic:
    """Rational functions of t as the deformed route builds them: one
    ratio of products of linear factors per composite path, expanded to
    t^0."""

    def test_sum_over_distinct_poles(self):
        # poles away from t = 0 leave the limit a plain sum of values
        assert rf_limit_at(total(ratio([], [lin(-1)]),
                                 ratio([], [lin(1)]))) == 0

    def test_self_division_is_one(self):
        assert laurent(ratio([T], [T])) == (0, (1,))
        assert laurent(ratio([lin(2)], [lin(2)])) == (0, (1,))

    def test_product_cancels(self):
        # the steps t(1 + t) and 1/t of a path, their factor lists joined:
        # the zero factors cancel and the constant is left
        (num1, den1), (num2, den2) = ([T, lin(1)], []), ([], [T])
        assert laurent(ratio(num1 + num2, den1 + den2)) == (0, (1,))

    def test_zero_denominator_rejected(self):
        zero = lin(0, 0)
        assert laurent(ratio([zero])) == (0, (0,))
        with pytest.raises(ZeroDivisionError):
            ratio([lin(1)], [zero])
        with pytest.raises(ZeroDivisionError):
            ratio([T, T], [zero, T])
        assert laurent(ratio([zero, lin(3)])) == (0, (0,))

    def test_sums_outside_the_accumulator_raise(self):
        s = total(ratio([T, lin(1)], [T]))
        assert laurent(s + s) == (0, (2,))
        for bad in (lambda: s + 1, lambda: 1 + s, lambda: s + F1,
                    lambda: s - 1, lambda: s * s, lambda: 2 * s,
                    lambda: s / 2, lambda: -s):
            with pytest.raises(TypeError):
                bad()


def poly(factors):
    # (number of zero factors, coefficients of the product of the factors
    # A/2 + b*t with those zero factors t divided out)
    v, p = 0, [F1]
    for a, b in factors:
        f = [Fraction(a, 2), Fraction(b)] if a else [Fraction(b)]
        v += not a
        q = [F0] * (len(p) + len(f) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(f):
                q[i + j] += x * y
        p = q
    return v, p


def series(num, den, c, n):
    # reference: c * prod(num) / prod(den) as (v, its first n coefficients
    # from t^v), by long division of the factor polynomials
    vt, top = poly(num)
    vb, bot = poly(den)
    top = [c * x for x in top] + [F0] * n
    out = []
    for i in range(n):
        acc = top[i] - sum(out[j] * bot[i - j]
                           for j in range(max(0, i - len(bot) + 1), i))
        out.append(acc / bot[0])
    return vt - vb, out


def truncated_product(f, g):
    # the product of two (v, coefficients) series, to t^0, as
    # {power: coefficient} with zeros dropped
    v = f[0] + g[0]
    out = {}
    for i, x in enumerate(f[1]):
        for j, y in enumerate(g[1]):
            p = v + i + j
            if p <= 0 and x * y:
                out[p] = out.get(p, F0) + x * y
    return {p: x for p, x in out.items() if x}


# factors (A, b) as the builders make them: doubled ints, small drifts
factor_lists = st.lists(st.tuples(st.integers(-6, 6), st.integers(-2, 2)),
                        max_size=5)


@given(factor_lists, factor_lists, st.integers(-3, 3),
       factor_lists, factor_lists, st.integers(-3, 3))
def test_path_ratio_is_product_of_step_series(num1, den1, c1,
                                              num2, den2, c2):
    # one ratio over the joined factor lists expands to the truncated
    # product of the two steps' series
    assume((0, 0) not in den1 + den2)
    f = factor_laurent(num1 + num2, den1 + den2, c1 * c2)
    got = {p: x for p, x in enumerate(f.c, f.lo) if x}
    # each step's series needs as many terms as the path's pole order
    n = 1 + sum(1 for a, _ in den1 + den2 if a == 0)
    want = truncated_product(series(num1, den1, c1, n),
                             series(num2, den2, c2, n))
    assert got == want


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
            with pytest.raises(ValueError):
                parse_rational(bad)

    @given(st.fractions(max_denominator=100))
    def test_roundtrip(self, x):
        assert parse_rational(format_rational(x)) == x
