"""Exact scalar arithmetic for the representation builders.

Matrix entries are fractions.Fraction. Patterns, their l-values and the
record's weights are ints; Rep.decode reads a weight back as Fractions.

The type B builder writes each coefficient term as c times a ratio of
products of factors (A, b), each standing for A/2 + b*t with int A and b:
A is a doubled pattern value, b its drift when every pattern entry is
shifted by a formal t. factor_value evaluates such a ratio at t = 0 as
one Fraction. The deformed route needs only the limit at t = 0 of sums of
such ratios: factor_laurent expands one ratio exactly to t^0 (a
LaurentSum), and the per-target sums add those expansions. rf_limit_at
reads off the t^0 coefficient; a surviving negative power raises
PoleError, which is exactly the "no finite limit" case.
"""
from __future__ import annotations

import re
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class PoleError(ArithmeticError):
    """No finite value at the requested point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def parse_rational(s):
    """Parse "p/q" (q omitted when 1) into a Fraction."""
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ValueError("bad rational literal: %r" % (s,))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("bad rational literal: %r (zero denominator)"
                         % (s,)) from None


def format_rational(x):
    """Inverse of parse_rational; Fraction prints reduced, /1 omitted."""
    return str(Fraction(x))


def factor_value(num, den, c=1):
    """c * prod(num) / prod(den) at t = 0, where a factor (A, b) stands for
    A/2 + b*t: the products run on the A's as ints and one Fraction is
    made at the end. A zero A in den raises ZeroDivisionError."""
    p = c
    for a, _ in num:
        p *= a
    q = 1
    for a, _ in den:
        q *= a
    e = len(den) - len(num)  # every factor carries a 1/2
    if e >= 0:
        return Fraction(p * 2 ** e, q)
    return Fraction(p, q * 2 ** -e)


def factor_laurent(num, den, c=1):
    """The same ratio as factor_value, expanded in t to t^0 as a LaurentSum.
    A factor with A != 0 is A/2 * (1 + (2b/A)*t), one with A == 0 is b*t;
    the latter fix the pole order v. A term with v > 0 vanishes at t = 0,
    one with v = 0 is its constant, and only for v < 0 are the unit
    factors expanded, to exactly their first -v terms past the constant.
    A factor (0, 0) in den raises ZeroDivisionError; one in num makes the
    empty sum."""
    p, q, v = c, 1, 0
    for a, b in num:
        if a:
            p *= a
            q *= 2
        else:
            p *= b
            v += 1
    for a, b in den:
        if a:
            p *= 2
            q *= a
        elif b:
            q *= b
            v -= 1
        else:
            raise ZeroDivisionError("division by an exactly zero factor")
    if v > 0 or not p:
        return LaurentSum()
    c0 = Fraction(p, q)
    if v == 0:
        return LaurentSum(0, (c0,))
    s = [c0] + [F0] * -v
    n = len(s)
    for a, b in num:
        if a and b:
            beta = Fraction(2 * b, a)
            for i in range(n - 1, 0, -1):
                s[i] += beta * s[i - 1]
    for a, b in den:
        if a and b:
            beta = Fraction(2 * b, a)
            for i in range(1, n):
                s[i] -= beta * s[i - 1]
    return LaurentSum(v, s)


class LaurentSum:
    """A sum of terms in t, kept as its coefficients of t^lo ... t^0.

    Each term is expanded exactly to t^0 (factor_laurent), so the pole part
    and the constant term are exact; higher powers cannot reach the limit
    at t = 0 and are not kept. Only another LaurentSum can be added; any
    other arithmetic raises TypeError."""

    __slots__ = ("lo", "c")

    def __init__(self, lo=0, coeffs=(F0,)):
        self.lo = lo
        self.c = tuple(coeffs)

    def __add__(self, other):
        if not isinstance(other, LaurentSum):
            return NotImplemented
        lo = min(self.lo, other.lo)
        c = [F0] * (self.lo - lo) + list(self.c)
        for i, x in enumerate(other.c, other.lo - lo):
            c[i] += x
        return LaurentSum(lo, c)

    def __str__(self):
        parts = []
        for p, x in enumerate(self.c, self.lo):
            if x:
                parts.append(format_rational(x) if p == 0
                             else "%s*t^%d" % (format_rational(x), p))
        return " + ".join(parts + ["O(t)"])


def rf_limit_at(f):
    """Exact limit at t = 0 of a LaurentSum. A surviving negative power
    is a genuine pole and raises PoleError with the expansion as witness.
    """
    if any(f.c[:-1]):
        raise PoleError("pole at t = 0", witness=str(f))
    return f.c[-1]
