"""Pattern bases for the two chains, and the representation record.

Type A patterns are triangular arrays whose entries all differ by
integers; each is stored as one shared rational base (the entries' class
mod 1) and int offsets from it, so comparison, hashing, shifting and the
interleaving test run on ints. Type B patterns carry one sigma bit per
level, a primed row per level and an unprimed row per level (top row
fixed to the highest weight), all entries non-positive members of one
parity class, stored doubled, as ints; so is each weight (PatternA.weight,
PatternB.weight). JSON values and Rep.decode give Fractions back.

Each enumerator descends its chain top level first and emits the basis
in canonical order as it goes; its docstring states the order.

A type B basis pattern also keeps the parity class, non-positivity and
the sigma bound; the composite raising steps pass through arrays that
only interleave (PatternB.interleaves), the conditions stable under its
deformation.

Rep is the one record both builders return: the algebra, the basis, its
index, the weight of each basis vector and the generator matrices, with
the one rule that reads a slot that is not stored from its mirror.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .exact import F0, format_rational
from .linalg import Operator, pos


class DimensionCapError(Exception):
    """Enumeration would exceed the configured cap."""


def check_weight_gl(entries):
    """Validate a gl highest weight: non-increasing, integral differences."""
    w = tuple(Fraction(x) for x in entries)
    if not w:
        raise ValueError("empty weight")
    for a, b in zip(w, w[1:]):
        if a < b:
            raise ValueError("weight entries must be non-increasing")
        if (a - b).denominator != 1:
            raise ValueError("consecutive differences must be integers")
    return w


def _doubled(x):
    x = Fraction(x)
    if x.denominator not in (1, 2):
        raise ValueError("not a half-integer: %s" % (x,))
    return x.numerator * (2 // x.denominator)


def check_weight_so(entries):
    """Validate an odd-orthogonal highest weight in the non-positive
    convention: 0 >= w_1 >= ... >= w_n, all integer or all half-odd."""
    d = [_doubled(x) for x in entries]
    if not d:
        raise ValueError("empty weight")
    if any(x % 2 != d[0] % 2 for x in d):
        raise ValueError("mixed parity classes in weight")
    if d[0] > 0:
        raise ValueError("weight entries must be non-positive")
    for a, b in zip(d, d[1:]):
        if a < b:
            raise ValueError("weight entries must be non-increasing")
    return tuple(Fraction(x, 2) for x in d)


# ---------------------------------------------------------------- type A


def _offsets(row, base):
    # entries of one class mod 1 as int offsets from base
    out = []
    for x in row:
        d = Fraction(x) - base
        if d.denominator != 1:
            raise ValueError("pattern entries must differ by integers")
        out.append(d.numerator)
    return tuple(out)


class PatternA:
    """Triangular array; rows[k-1] is row k (length k), rows[n-1] on top.

    Every entry lies in one class mod 1, so the pattern stores that class
    as base (a Fraction in [0, 1)) and rows as int offsets from it; entry
    (k, i) is base + rows[k-1][i-1]. The constructor takes entry values and
    raises ValueError when two of them differ by a non-integer."""

    __slots__ = ("base", "rows")

    def __init__(self, rows):
        rows = [tuple(Fraction(x) for x in r) for r in rows]
        self.base = rows[-1][0] % 1 if rows and rows[-1] else Fraction(0)
        self.rows = tuple(_offsets(r, self.base) for r in rows)

    @staticmethod
    def _from_offsets(base, rows):
        # tuples of int offsets from base
        pat = object.__new__(PatternA)
        pat.base, pat.rows = base, rows
        return pat

    @property
    def n(self):
        return len(self.rows)

    def weight(self):
        # int offsets from base: differences of the offset row sums
        sums = [0, *map(sum, self.rows)]
        return tuple(b - a for a, b in zip(sums, sums[1:]))

    def shifted(self, k, i, sign):
        rows = list(self.rows)
        row = list(rows[k - 1])
        row[i - 1] += sign
        rows[k - 1] = tuple(row)
        return PatternA._from_offsets(self.base, tuple(rows))

    def interleaves(self):
        for hi, lo in zip(self.rows[1:], self.rows):
            for i, x in enumerate(lo):
                if hi[i] < x or x < hi[i + 1]:
                    return False
        return True

    @staticmethod
    def highest(lam):
        # the column-constant pattern carries the highest weight
        return PatternA([lam[:k] for k in range(1, len(lam) + 1)])

    def __eq__(self, other):
        return (isinstance(other, PatternA)
                and (self.rows, self.base) == (other.rows, other.base))

    def __hash__(self):
        return hash(self.rows)

    def _values(self):
        return [[format_rational(self.base + d) for d in r]
                for r in self.rows]

    def __repr__(self):
        return "PatternA(%s)" % (self._values(),)

    def to_json(self):
        return {"rows": self._values()}


def enumerate_patterns_a(lam, cap=None):
    """All valid type A patterns for the given top row, in canonical
    order: ascending in rows n-1 down to 1, read left to right (the top
    row is the same for all). The descent emits them in that order, since
    each row's candidates come out ascending and the rows below follow."""
    lam = check_weight_gl(lam)
    base = lam[0] % 1
    out = []

    def descend(rows_acc, upper):
        if len(upper) == 1:
            out.append(PatternA._from_offsets(base, tuple(reversed(rows_acc))))
            if cap is not None and len(out) > cap:
                raise DimensionCapError("pattern count exceeds cap %d" % cap)
            return
        # choose the row below `upper`: upper[i] >= v[i] >= upper[i + 1]
        for row in itertools.product(*(range(lo, hi + 1) for hi, lo
                                       in zip(upper, upper[1:]))):
            descend(rows_acc + [row], row)

    top = _offsets(lam, base)
    descend([top], top)
    return tuple(out)


# ---------------------------------------------------------------- type B


def _values(rows):
    # doubled ints back to rational literals, as format_rational prints them
    return [["%d" % (d // 2) if d % 2 == 0 else "%d/2" % d for d in r]
            for r in rows]


class PatternB:
    """sigma bits, unprimed rows (rows[n-1] = highest weight) and primed
    rows. The constructor takes entry values; rows and primed store each
    entry doubled, as an int, and JSON and repr read them back as
    rationals. Construction performs no validity checks."""

    __slots__ = ("sigma", "rows", "primed")

    def __init__(self, sigma, rows, primed):
        self.sigma = tuple(int(s) for s in sigma)
        self.rows = tuple(tuple(_doubled(x) for x in r) for r in rows)
        self.primed = tuple(tuple(_doubled(x) for x in r) for r in primed)

    @staticmethod
    def _from_doubled(sigma, rows, primed):
        # tuples of ints, already doubled
        pat = object.__new__(PatternB)
        pat.sigma, pat.rows, pat.primed = sigma, rows, primed
        return pat

    @staticmethod
    def highest(lam):
        # all sigma 0, every stored row a truncation of the highest weight
        n = len(lam)
        rows = [lam[:k] for k in range(1, n + 1)]
        return PatternB([0] * n, rows, rows)

    @property
    def n(self):
        return len(self.sigma)

    def doubled_weight(self, k):
        # twice the F(k,k) eigenvalue, an int
        d = 2 * self.sigma[k - 1] + 2 * sum(self.primed[k - 1])
        d -= sum(self.rows[k - 1])
        if k >= 2:
            d -= sum(self.rows[k - 2])
        return d

    def weight(self):
        # doubled, as ints
        return tuple(self.doubled_weight(k) for k in range(1, self.n + 1))

    def shifted(self, moves):
        """Apply moves: ("u",k,i,s) unprimed, ("p",k,i,s) primed,
        ("sig",k) sigma flip. Returns a raw array, validity not judged."""
        sigma = list(self.sigma)
        rows = [list(r) for r in self.rows]
        primed = [list(r) for r in self.primed]
        for mv in moves:
            if mv[0] == "sig":
                sigma[mv[1] - 1] ^= 1
            else:
                _, k, i, s = mv
                (rows if mv[0] == "u" else primed)[k - 1][i - 1] += 2 * s
        return PatternB._from_doubled(tuple(sigma),
                                      tuple(map(tuple, rows)),
                                      tuple(map(tuple, primed)))

    def interleaves(self):
        n = self.n
        for k in range(1, n + 1):
            pr = self.primed[k - 1]
            ur = self.rows[k - 1]
            for i in range(k):
                if pr[i] < ur[i]:
                    return False
                if i + 1 < k and ur[i] < pr[i + 1]:
                    return False
            if k >= 2:
                below = self.rows[k - 2]
                for i in range(k - 1):
                    if pr[i] < below[i]:
                        return False
                    if below[i] < pr[i + 1]:
                        return False
        return True

    def __eq__(self, other):
        return (isinstance(other, PatternB) and self.sigma == other.sigma
                and self.rows == other.rows and self.primed == other.primed)

    def __hash__(self):
        return hash((self.sigma, self.rows, self.primed))

    def __repr__(self):
        return "PatternB(sigma=%s, rows=%s, primed=%s)" % (
            self.sigma, _values(self.rows), _values(self.primed))

    def to_json(self):
        return {
            "sigma": list(self.sigma),
            "rows": _values(self.rows),
            "primed_rows": _values(self.primed),
        }


def enumerate_patterns_b(lam, cap=None):
    """All valid B patterns for the highest weight, in canonical order:
    ascending in, for k = n down to 1, sigma_k, primed row k, then
    unprimed row k-1, read left to right. The descent emits them in that
    order, choosing at level k sigma_k, then the primed row, then the row
    below, each from candidates that come out ascending."""
    top = tuple(_doubled(x) for x in check_weight_so(lam))
    n = len(top)
    par = top[0] % 2
    zero_max = 0 if par == 0 else -1  # doubled value of the class maximum
    out = []

    def choose_row(lo_bounds, hi_bounds):
        # all rows (tuples of doubled ints) with lo[i] <= v[i] <= hi[i],
        # stepping by 2; interleaving within the row is implied by bounds
        return list(itertools.product(*(range(lo, hi + 1, 2) for lo, hi
                                        in zip(lo_bounds, hi_bounds))))

    def descend(k, urow_d, sig_acc, urows_acc, prows_acc):
        # urow_d: doubled entries of unprimed row k
        if k == 0:
            out.append(PatternB._from_doubled(tuple(reversed(sig_acc)),
                                              tuple(reversed(urows_acc)),
                                              tuple(reversed(prows_acc))))
            if cap is not None and len(out) > cap:
                raise DimensionCapError("pattern count exceeds cap %d" % cap)
            return
        # primed row k: lo = urow[i], hi = urow[i-1] (class max for i = 1)
        prows = choose_row(urow_d, (zero_max,) + urow_d[:-1])
        for sig in (0, 1):
            for prow in prows:
                # in the integer class sigma_k = 1 needs primed entry
                # (k,1) <= -1, doubled -2
                if sig and par == 0 and prow[0] > -2:
                    continue
                # unprimed row k-1: between-level bounds from primed row k
                # (the empty row when k = 1)
                for urow2 in choose_row(prow[1:], prow[:-1]):
                    descend(k - 1, urow2, sig_acc + [sig],
                            urows_acc + ([urow2] if k >= 2 else []),
                            prows_acc + [prow])

    descend(n, top, [], [top], [])
    return tuple(out)


def stored_slot(gens, i, j):
    """(op, sign) with the generator at slot (i, j) equal to sign * op, op
    held by gens: the slot's own operator when gens holds it, otherwise
    its mirror's, since F(i,j) = -F(-j,-i) in o(2n+1)."""
    op = gens.get((i, j))
    if op is None:
        return gens[(-j, -i)], -1
    return op, 1


class Rep:
    """A module over a pattern basis: the highest weight, the algebra ("A"
    for gl(n), "B" for o(2n+1), read off the pattern class), the basis in
    canonical order with its index, the weight of each basis vector and
    the stored generator matrices by slot. The type A builder stores
    every E(i,j), 1 <= i,j <= n. The type B builder stores F(i,j),
    -n <= i,j <= n, for i + j <= 0 only, F(i,-i) as the zero operator;
    stored and gen read the other slots. A weight is an int tuple in the
    patterns' own encoding (their weight method): entry k is base +
    w[k-1] / den, with base and den the patterns' shared base and 1 for
    type A, 0 and 2 for type B. Both encodings keep the order of weights,
    and decode gives the Fractions back."""

    __slots__ = ("lam", "n", "algebra", "dim", "patterns", "index",
                 "weights", "base", "den", "gens")

    def __init__(self, lam, patterns):
        self.lam = lam
        self.n = len(lam)
        self.algebra = "A" if isinstance(patterns[0], PatternA) else "B"
        self.patterns = patterns
        self.dim = len(patterns)
        self.index = {p: i for i, p in enumerate(patterns)}
        self.weights = tuple(p.weight() for p in patterns)
        self.base, self.den = ((patterns[0].base, 1) if self.algebra == "A"
                               else (F0, 2))
        self.gens = {}

    def decode(self, w):
        """The weight ints w as Fractions: the one weight decoder."""
        return tuple(self.base + Fraction(x, self.den) for x in w)

    def slots(self):
        """Every generator slot (i, j) in sorted order, stored or not:
        1 <= i,j <= n for type A, -n <= i,j <= n for type B."""
        idx = range(1 if self.algebra == "A" else -self.n, self.n + 1)
        return itertools.product(idx, idx)

    def stored(self, i, j):
        """(op, sign) with the generator at (i, j) equal to sign * op, op a
        stored matrix (stored_slot): a type B F(i,j) with i + j > 0 is
        -F(-j,-i)."""
        return stored_slot(self.gens, i, j)

    def gen(self, i, j):
        """The generator at slot (i, j): a stored matrix itself, otherwise
        a new Operator on each call, with one negated object per value
        object of the stored mirror (Operator.__neg__)."""
        op, sign = stored_slot(self.gens, i, j)
        return op if sign == 1 else -op

    def diagonal(self, k):
        """E(k,k) or F(k,k), built from the weights: entry k of each basis
        vector's weight on the diagonal, zeros absent, each distinct int
        decoded once, so equal values are one object."""
        col = [w[k - 1] for w in self.weights]
        value = {x: self.decode((x,))[0] for x in set(col)}
        return Operator(self.dim, {pos(c, c, self.dim): value[x]
                                   for c, x in enumerate(col) if value[x]})

    def highest_index(self):
        return self.index[type(self.patterns[0]).highest(self.lam)]
