"""Pattern bases for the two chains, and the representation record.

Type A patterns are triangular arrays whose entries all differ by
integers; each is stored as one shared rational base (the entries' class
mod 1) and int offsets from it, so comparison, hashing, shifting and the
interleaving test run on ints. Type B patterns carry one sigma bit per
level, a primed row per level and an unprimed row per level (top row
fixed to the highest weight), all entries non-positive members of one
parity class, stored doubled, as ints. Weights and JSON values are
Fractions; the builders read the ints directly.

Validity comes in two strengths. PatternB.full_valid is basis membership:
parity class, non-positivity, both interleaving chains and the sigma
bound. PatternB.generic_valid keeps only the interleaving chains;
composite operators pass through such arrays while their coefficients are
regularized, and the interleaving conditions are the ones stable under
that deformation.

Rep is the one record both builders return: the basis, its index, the
weight of each basis vector and the generator matrices. canonical_slots
names the slots of a record that carry the module.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .exact import format_rational, parse_rational


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

    def key(self):
        # top row constant across the basis, excluded; all patterns of a
        # module share the base, so the offsets sort as the entries do
        out = []
        for k in range(self.n - 1, 0, -1):
            out.extend(self.rows[k - 1])
        return tuple(out)

    def weight(self):
        # row k sums k entries, so each difference of row sums is one base
        # plus an integer
        out = []
        prev = 0
        for r in self.rows:
            s = sum(r)
            out.append(self.base + (s - prev))
            prev = s
        return tuple(out)

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

    @staticmethod
    def from_json(obj):
        return PatternA([[parse_rational(x) for x in r] for r in obj["rows"]])


def enumerate_patterns_a(lam, cap=None):
    """All valid type A patterns for the given top row, canonical order."""
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
    out.sort(key=PatternA.key)
    return tuple(out)


# ---------------------------------------------------------------- type B


def _values(rows):
    # doubled ints back to rational literals, as format_rational prints them
    return [["%d" % (d // 2) if d % 2 == 0 else "%d/2" % d for d in r]
            for r in rows]


class PatternB:
    """sigma bits, unprimed rows (rows[n-1] = highest weight) and primed
    rows. The constructor takes entry values; rows and primed store each
    entry doubled, as an int, and every value read back is a Fraction.
    Construction performs no validity checks."""

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

    def key(self):
        # the canonical order, on the stored ints: for k = n down to 1,
        # sigma_k, primed row k, then unprimed row k-1
        out = []
        for k in range(self.n, 0, -1):
            out.append(self.sigma[k - 1])
            out.extend(self.primed[k - 1])
            if k >= 2:
                out.extend(self.rows[k - 2])
        return tuple(out)

    def doubled_weight(self, k):
        # twice the F(k,k) eigenvalue, an int
        d = 2 * self.sigma[k - 1] + 2 * sum(self.primed[k - 1])
        d -= sum(self.rows[k - 1])
        if k >= 2:
            d -= sum(self.rows[k - 2])
        return d

    def weight(self):
        return tuple(Fraction(self.doubled_weight(k), 2)
                     for k in range(1, self.n + 1))

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

    def full_valid(self):
        if not self.interleaves():
            return False
        par = self.rows[self.n - 1][0] % 2
        zero_max = 0 if par == 0 else -1
        for rr in (self.rows, self.primed):
            for r in rr:
                for d in r:
                    if d % 2 != par or d > zero_max:
                        return False
        if par == 0:
            for k in range(1, self.n + 1):
                if self.sigma[k - 1] == 1 and self.primed[k - 1][0] > -2:
                    return False
        return True

    # generic validity for composite intermediates
    generic_valid = interleaves

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

    @staticmethod
    def from_json(obj):
        return PatternB(obj["sigma"],
                        [[parse_rational(x) for x in r] for r in obj["rows"]],
                        [[parse_rational(x) for x in r]
                         for r in obj["primed_rows"]])


def enumerate_patterns_b(lam, cap=None):
    """All valid B patterns for the highest weight, canonical order."""
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
        for prow in choose_row(urow_d, (zero_max,) + urow_d[:-1]):
            sig_opts = [0]
            if par == 1 or prow[0] <= -2:
                sig_opts.append(1)
            # unprimed row k-1: between-level bounds from primed row k (the
            # empty row when k = 1)
            rows_below = choose_row(prow[1:], prow[:-1])
            for sig in sig_opts:
                for urow2 in rows_below:
                    descend(k - 1, urow2, sig_acc + [sig],
                            urows_acc + ([urow2] if k >= 2 else []),
                            prows_acc + [prow])

    descend(n, top, [], [top], [])
    out.sort(key=PatternB.key)
    return tuple(out)


class Rep:
    """A module over a pattern basis: the highest weight, the basis in
    canonical order with its index, the weight of each basis vector (a
    tuple of Fractions) and the generator matrices by slot. The type A
    builder fills gens with E(i,j), 1 <= i,j <= n; the type B builder
    with F(i,j), -n <= i,j <= n."""

    __slots__ = ("lam", "n", "dim", "patterns", "index", "weights", "gens")

    def __init__(self, lam, patterns):
        self.lam = lam
        self.n = len(lam)
        self.patterns = patterns
        self.dim = len(patterns)
        self.index = {p: i for i, p in enumerate(patterns)}
        self.weights = tuple(p.weight() for p in patterns)
        self.gens = {}

    def gen(self, i, j):
        return self.gens[(i, j)]

    def highest_index(self):
        return self.index[type(self.patterns[0]).highest(self.lam)]


def canonical_slots(gens):
    """The slots of gens (a Rep's generators by slot) that carry the
    module, in sorted order: every slot but an F(i,j) whose mirror
    F(-j,-i) is a slot too and sorts before it. For type B that keeps
    i + j <= 0, since F(-j,-i) = -F(i,j); for type A no mirror is a slot,
    so every slot is kept."""
    return [(i, j) for (i, j) in sorted(gens)
            if not (-j, -i) < (i, j) or (-j, -i) not in gens]
