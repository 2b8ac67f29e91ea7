"""Irreducible o(2n+1) modules on decorated double-row pattern bases.

Every coefficient is a ratio of products of l-value and weight
differences. Each term is written once as factor lists (A, b), meaning
A/2 + b*t, with A read from the doubled pattern ints and b the drift
under the deformation below, and DeformContext.value evaluates it. The
term functions return plain tuples (target, num, den, c), one for each
raw target that passes the caller's validity test. A raw target whose
moved entries pass one of their interleaving neighbours fails either
test, so it is never built.

The diagonal and lowering generators evaluate directly. The raising
generators come from a two-step composite; each path through it is one
ratio, the factor lists of its two steps joined. A path can hit a
removable pole; a column with such a path is recomputed with every
pattern entry shifted by a formal parameter (the top row included, which
amounts to working in a nearby generic module) and the limit taken at
zero. A pole surviving the limit is a construction failure, never
silently dropped.

The lowering and raising steps of level k are evaluated once per
level-k slice of the basis, not once per column. The slice of a pattern
is sigma[k-1], sigma[k-2], primed[k-1], primed[k-2], rows[k-1],
rows[k-2] and rows[k-3] (the entries of levels k, k-1 and k-2 that
exist). A level-k move writes only sigma[k-1], sigma[k-2], primed[k-1],
primed[k-2] and rows[k-2]. Every coefficient factor, every interleaving
or class bound on a moved entry and the plain/deformed routing read
nothing outside the slice, and the rest of a basis pattern is valid
already. So two basis patterns with equal slices have the same column,
shifted onto each pattern.

Index convention: generator slots are pairs (i, j) with -n <= i, j <= n;
F(-j,-i) = -F(i,j), so F(i,-i) = 0. A build stores the slots with
i + j <= 0 only.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul

from .exact import (F0, F1, LaurentSum, PoleError, factor_laurent,
                    factor_value, rf_limit_at)
from .linalg import BracketTable, Operator, close, int_form, pos, rowcol, rref
from .patterns import PatternB, Rep, check_weight_so, enumerate_patterns_b


class ConstructionError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DeformContext:
    """Evaluates coefficient terms, each given as c * prod(num) / prod(den)
    over factors (A, b) = A/2 + b*t (see exact.py): plain, as one Fraction
    at t = 0; deformed, as one LaurentSum in t, every pattern entry shifted
    by t."""

    __slots__ = ("deformed",)

    def __init__(self, deformed=False):
        self.deformed = deformed

    def value(self, num, den, c=1):
        if self.deformed:
            return factor_laurent(num, den, c)
        return factor_value(num, den, c)


PLAIN = DeformContext(False)
DEFORMED = DeformContext(True)

# Pattern data as factors (A, b): A doubled, b the drift under the shift.
# An l-value l_{ki} = entry - i + 1/2 moves by t; l_{k0} = -1/2 is fixed.
# The F(k,k) eigenvalue of an array, read on a term's target with
# PatternB.doubled_weight, moves by t along with the entries.
MINUS_HALF = (-1, 0)


def _lu(pat, k, i):
    # doubled l_{ki}, i >= 1; drift 1
    return pat.rows[k - 1][i - 1] - 2 * i + 1


def _lp(pat, k, i):
    # doubled primed l-value; drift 1
    return pat.primed[k - 1][i - 1] - 2 * i + 1


def mid_row_prefactor(pat, k, i):
    """Prefactor over the level k-1 l-values as (num, den); slot i = 0
    uses the fixed -1/2. Denominators here are the only coefficient
    factors that can vanish, and only via the +1/2 pairing in the integer
    class."""
    li, bi = MINUS_HALF if i == 0 else (_lu(pat, k - 1, i), 1)
    den = []
    for a in range(1, k):
        la = _lu(pat, k - 1, a)
        if a != i:
            den.append((li - la, bi - 1))
        den.append((li + la, bi + 1))
    return [], den


def prime_shift_weight(pat, k, i, x):
    """Interpolation-style weight attached to raising primed slot i of
    level k, evaluated at the factor x, as (num, den)."""
    xa, xb = x
    lpi = _lp(pat, k, i)
    num, den = [], []
    for a in range(1, k + 1):
        if a == i:
            continue
        la = _lp(pat, k, a)
        num.append((xa + la + 2, xb + 1))  # x + l_a + 1
        num.append((xa - la, xb - 1))      # x - l_a
        den.append((la - lpi, 0))
    return num, den


def prime_drop_weight(pat, k, i):
    """Coefficient attached to lowering primed slot i of level k, as
    (num, den)."""
    lpi = _lp(pat, k, i)
    sig = pat.sigma[k - 1]
    # l'_i * (1 - 2 sigma - 2 l'_i)
    num = [(lpi, 1), (2 - 4 * sig - 2 * lpi, -2)]
    for a in range(1, k + 1):
        num.append((_lu(pat, k, a) - lpi, 0))
    for a in range(1, k):
        num.append((_lu(pat, k - 1, a) - lpi, 0))
    den = [(_lp(pat, k, a) - lpi, 0) for a in range(1, k + 1) if a != i]
    return num, den


def _primed_rises(pat, k, j):
    """Whether primed entry (k, j) can rise by one and stay at or below its
    upper neighbours, entry j-1 of the unprimed rows k and k-1 (slot 1 has
    none). Only a precondition of interleaving."""
    if j == 1:
        return True
    p = pat.primed[k - 1][j - 1] + 2
    return p <= pat.rows[k - 1][j - 2] and p <= pat.rows[k - 2][j - 2]


def _sig_case_terms(pat, k, valid):
    """The sigma-flip branch: (target, num, den, c) for each raw target
    that passes valid, before the shared prefactor and denominators."""
    sk = pat.sigma[k - 1]
    skm = pat.sigma[k - 2] if k >= 2 else 0
    base = [("sig", k)] + ([("sig", k - 1)] if k >= 2 else [])
    # primed raises (level, slot) of each branch, and its sign
    if (sk, skm) == (0, 0):
        raises, sign = [()], (-1) ** k
    elif (sk, skm) == (1, 0):
        raises, sign = [((k, j),) for j in range(1, k + 1)], 1
    elif (sk, skm) == (0, 1):
        raises, sign = [((k - 1, m),) for m in range(1, k)], -1
    else:
        raises = [((k, j), (k - 1, m))
                  for j in range(1, k + 1) for m in range(1, k)]
        sign = (-1) ** (k - 1)
    out = []
    for moves in raises:
        if not all(_primed_rises(pat, kk, j) for kk, j in moves):
            continue
        tgt = pat.shifted(base + [("p", kk, j, +1) for kk, j in moves])
        if not valid(tgt):
            continue
        num, den = [], []
        for kk, j in moves:
            n2, d2 = prime_shift_weight(pat, kk, j, MINUS_HALF)
            num += n2
            den += d2
        out.append((tgt, num, den, sign))
    return out


def lower_step_terms(pat, k, valid, u=None):
    """Expansion of the mixed lowering generator at level k.

    With u None this is the plain generator F(k-1,-k); with a parameter u
    each term gains the resolvent denominator evaluated on its target (all
    targets sit one eigenvalue step above the source, so the three
    denominator shapes match the source-side normal forms). Returns
    (target, num, den, c) for each raw target that passes valid; the
    factor lists of the others are never built.
    """
    u2 = None if u is None else 2 * u
    terms = []
    for tgt, num, den, c in _sig_case_terms(pat, k, valid):
        den += mid_row_prefactor(pat, k, 0)[1]
        if u2 is not None:
            # u + w_k - 3/2
            den.append((u2 + tgt.doubled_weight(k) - 3, 1))
        terms.append((tgt, num, den, c))
    if k == 1:
        return terms  # the sigma branch is the whole level 1 step
    # doubled entries: primed rows k and k-1, unprimed rows k, k-1, k-2
    pk, pm = pat.primed[k - 1], pat.primed[k - 2]
    rk, rm = pat.rows[k - 1], pat.rows[k - 2]
    rl = pat.rows[k - 3] if k >= 3 else ()
    for i in range(1, k):
        li = _lu(pat, k - 1, i)
        # unprimed entry (k-1, i) drops, staying at or above primed entry
        # i+1 of levels k and k-1
        low = rm[i - 1] - 2
        if low >= pk[i] and (i == k - 1 or low >= pm[i]):
            tgt = pat.shifted([("u", k - 1, i, -1)])
            if valid(tgt):
                num, den = mid_row_prefactor(pat, k, i)
                den.append((li - 1, 1))  # l_i - 1/2
                if u2 is not None:
                    # u - l_i + w_k - 1
                    den.append((u2 - li + tgt.doubled_weight(k) - 2, 0))
                terms.append((tgt, num, den, -1))

        # primed (k, j), unprimed (k-1, i) and primed (k-1, m) rise
        # together: each stays at or below its upper neighbours, counting
        # the ones that rise with it
        up = rm[i - 1] + 2
        for j in range(1, k + 1):
            p = pk[j - 1] + 2
            if j >= 2 and (p > rk[j - 2]
                           or p > rm[j - 2] + (2 if j - 1 == i else 0)):
                continue
            if up > pk[i - 1] + (2 if j == i else 0):
                continue
            for m in range(1, k):
                q = pm[m - 1] + 2
                if m >= 2 and (q > rm[m - 2] + (2 if m - 1 == i else 0)
                               or q > rl[m - 2]):
                    continue
                if up > pm[i - 1] + (2 if m == i else 0):
                    continue
                tgt = pat.shifted([("p", k, j, +1), ("u", k - 1, i, +1),
                                   ("p", k - 1, m, +1)])
                if not valid(tgt):
                    continue
                num, den = mid_row_prefactor(pat, k, i)
                for n2, d2 in (prime_shift_weight(pat, k, j, (li, 1)),
                               prime_shift_weight(pat, k - 1, m, (li, 1))):
                    num += n2
                    den += d2
                den.append((li + 1, 1))  # l_i + 1/2
                if u2 is not None:
                    # u + l_i + w_k - 1
                    den.append((u2 + li + tgt.doubled_weight(k) - 2, 2))
                terms.append((tgt, num, den, 1))
    return terms


def prime_drop_terms(pat, k, valid):
    """Expansion of the primed-entry lowering step at level k, as
    (target, num, den, c) for each raw target that passes valid."""
    terms = []
    pk, rk = pat.primed[k - 1], pat.rows[k - 1]
    for i in range(1, k + 1):
        # primed entry (k, i) drops, staying at or above entry i of the
        # unprimed rows k and k-1
        low = pk[i - 1] - 2
        if low < rk[i - 1] or (i < k and low < pat.rows[k - 2][i - 1]):
            continue
        tgt = pat.shifted([("p", k, i, -1)])
        if valid(tgt):
            num, den = prime_drop_weight(pat, k, i)
            # w_k - l'_i + 1
            num.append((tgt.doubled_weight(k) - _lp(pat, k, i) + 2, 0))
            terms.append((tgt, num, den, 1))
    return terms


def _slice_columns(basis, k, column, trace=None):
    """A level-k step generator, evaluated once per level-k slice (see the
    module docstring).

    column(c, pat, notes) gives column c (source pat) as {target: value}.
    It is called for the lowest column of each slice only; every later
    column with that slice takes the same values at the same moved
    entries, set into its own pattern, so equal-slice columns share their
    value objects. Zero values are dropped, and the entries are packed
    into the Operator once every column is set. When trace is a list,
    notes is one too, and each (k, c, target index, text) the column
    appends to it is emitted again for every column of the slice, under
    that column's own indices."""
    dim = basis.dim
    ent = {}
    index, patterns = basis.index, basis.patterns
    lo = max(k - 2, 0)

    def moved(pat):
        # the entries a level-k move can write
        return pat.sigma[lo:k], pat.primed[lo:k], pat.rows[lo:k - 1]

    def target(pat, m):
        # the basis index of pat with its moved entries replaced by m
        s, p, r = m
        return index[PatternB._from_doubled(
            pat.sigma[:lo] + s + pat.sigma[k:],
            pat.rows[:lo] + r + pat.rows[k - 1:],
            pat.primed[:lo] + p + pat.primed[k:])]

    done = {}
    for c, pat in enumerate(patterns):
        key = (pat.sigma[lo:k], pat.primed[lo:k],
               pat.rows[max(k - 3, 0):k])
        if key not in done:
            notes = None if trace is None else []
            col = column(c, pat, notes)
            done[key] = (
                [(moved(t), v) for t, v in col.items() if v],
                [(moved(patterns[r]), text) for _, _, r, text in notes or ()])
        values, texts = done[key]
        for m, v in values:
            ent[pos(target(pat, m), c, dim)] = v
        if trace is not None:
            trace.extend((k, c, target(pat, m), text) for m, text in texts)
    return Operator(dim, ent)


def _single_step(basis, k, term_fn):
    """Evaluate a one-step generator in plain arithmetic. There is no
    deformed route here: no tested module meets a zero denominator in these
    coefficients, so one is a construction failure naming its location."""
    # targets are tested by basis membership, which the index lookup needs
    # anyway
    member = basis.index.__contains__

    def column(c, pat, notes):
        col = {}
        for tgt, num, den, coef in term_fn(pat, k, member):
            try:
                v = PLAIN.value(num, den, coef)
            except ZeroDivisionError:
                raise ConstructionError(
                    "zero denominator at level %d column %d target %d"
                    % (k, c, basis.index[tgt]))
            col[tgt] = col.get(tgt, F0) + v
        return col
    return _slice_columns(basis, k, column)


def build_f_lower(basis, k):
    return _single_step(basis, k, lower_step_terms)


def build_phi_minus(basis, k):
    return _single_step(basis, k, prime_drop_terms)


def raise_column_terms(basis, k, pat, ctx):
    """All composite paths from one source pattern: returns {target: value}
    in ctx arithmetic, a LaurentSum per target when deformed. Each path is
    one ratio, the two steps' factor lists joined and their constants
    multiplied, so only a complete path can divide by zero. Intermediates
    pass the interleaving-only filter; final targets must be basis
    members."""
    acc = {}
    zero = LaurentSum() if ctx.deformed else F0
    value = ctx.value
    mid_valid, tgt_valid = PatternB.interleaves, basis.index.__contains__

    def add(tgt, v):
        if v:
            acc[tgt] = acc.get(tgt, zero) + v

    # first composite term: primed drop, then parametric step at u = 2
    for mid, num, den, c in prime_drop_terms(pat, k, mid_valid):
        for tgt, n2, d2, c2 in lower_step_terms(mid, k, tgt_valid, 2):
            add(tgt, value(num + n2, den + d2, c * c2))
    # second composite term: parametric step at u = 0, then primed drop
    for mid, num, den, c in lower_step_terms(pat, k, mid_valid, 0):
        for tgt, n2, d2, c2 in prime_drop_terms(mid, k, tgt_valid):
            add(tgt, value(num + n2, den + d2, -c * c2))
    return acc


def deformed_column(basis, k, c, pat, trace=None):
    """Column c (source pat) of the raising generator at level k on the
    deformed route, as {target: value}: each target's Laurent sum over all
    composite paths, reduced to its t^0 coefficient after cancellation
    between paths (per-path limits alone would miss pole pairs that cancel
    in the sum). A pole surviving the sum is a ConstructionError."""
    col = {}
    for tgt, v in raise_column_terms(basis, k, pat, DEFORMED).items():
        if trace is not None:
            trace.append((k, c, basis.index[tgt], str(v)))
        try:
            lim = rf_limit_at(v)
        except PoleError as e:
            raise ConstructionError(
                "raising generator pole at level %d column %d" % (k, c),
                witness=e.witness)
        if lim:
            col[tgt] = lim
    return col


def build_f_raise(basis, k, trace=None):
    """The raising generator at level k from the two-step composite: plain
    rational arithmetic per slice, and a path that divides by zero sends
    the slice through deformed_column."""
    def column(c, pat, notes):
        try:
            return raise_column_terms(basis, k, pat, PLAIN)
        except ZeroDivisionError:
            return deformed_column(basis, k, c, pat, notes)
    return _slice_columns(basis, k, column, trace)


# ------------------------------------------------------------- closure


def defining_operators(n):
    """All F(i,j) in the defining (2n+1)-dim module, basis ordered
    -n..-1, 0, 1..n."""
    dim = 2 * n + 1

    def at(i):
        return i + n

    ops = {}
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            # the two entries cancel on F(i,-i)
            p, mirror = pos(at(i), at(j), dim), pos(at(-j), at(-i), dim)
            ops[(i, j)] = Operator(dim, {p: F1, mirror: -F1}
                                   if p != mirror else {})
    return ops


def structure_table(n):
    """The o(2n+1) bracket table (linalg.BracketTable) over the slots
    -n..n, read off the defining module, a new one per call. The
    canonical slots are F(p,q) with p + q < 0: F(p,-p) = 0, and every
    other slot is its mirror negated, F(p,q) = -F(-q,-p). A canonical
    slot's coefficient is read at its own position. Only the entries
    asked for are computed."""
    slot_at = {pos(p + n, q + n, 2 * n + 1): (p, q)
               for p in range(-n, n + 1) for q in range(-n, n + 1)
               if p + q < 0}
    return BracketTable(defining_operators(n), slot_at)


def close_generators(n, seeds, dim):
    """Extend the seed slots F(k,k), F(k-1,-k), F(k-1,k) to every stored
    slot F(i,j), i + j <= 0, by linalg.close over one new
    structure_table(n), bracketing by the level-k seeds F(k-1,-k),
    F(k-1,k): 2n(n-1) products. The table's canonical slots are the
    stored slots with i + j < 0, where each seed lands with its sign,
    since F(i,j) = -F(-j,-i); F(i,-i) is stored as the zero operator."""
    by = [s for k in range(1, n + 1) for s in ((k - 1, -k), (k - 1, k))]
    known = {(i, -i): Operator(dim) for i in range(-n, n + 1)}
    known.update(close(structure_table(n), seeds, by, dim))
    return known


def build_so(lam, cap=None, trace=None):
    """The generator matrices over the pattern basis: rep.gens holds the
    slots F(i,j) with i + j <= 0, and rep.gen reads every one of the
    (2n+1)^2 slots (see close_generators)."""
    lam = check_weight_so(lam)
    n = len(lam)
    rep = Rep(lam, enumerate_patterns_b(lam, cap))
    seeds = {}
    for k in range(1, n + 1):
        seeds[(k, k)] = rep.diagonal(k)
        seeds[(k - 1, -k)] = build_f_lower(rep, k)
        seeds[(k - 1, k)] = build_f_raise(rep, k, trace=trace)
    rep.gens = close_generators(n, seeds, rep.dim)
    if any(lam):
        _check_span_rank(rep)
    return rep


def _check_span_rank(rep):
    """The built generators must span o(2n+1), of dimension n(2n+1).
    The basis is a weight basis: every entry (row, col) of a stored slot
    F(i,j), i != -j, joins basis vectors whose weights differ by the
    slot's root e_i - e_j (e_{-k} = -e_k, e_0 = 0), or a
    ConstructionError names the slot, row and col. Distinct stored slots
    have distinct roots, so their supports are disjoint, and the span's
    rank is the number of nonzero off-diagonal slots plus the rank of
    the diagonal slots F(-k,-k), taken on one diagonal entry per
    distinct weight: a restriction never raises a rank."""
    n, dim, dw = rep.n, rep.dim, rep.weights  # doubled
    # each weight as one int code in a radix above every coordinate of a
    # weight difference minus a root, so that a difference's code is a
    # root's only at that root; unit[k] is the code of e_k, doubled as
    # the weights are, and unit[-k], read from the list's end, -unit[k]
    radix = 4 * max(map(abs, itertools.chain.from_iterable(dw))) + 1
    place = [radix ** k for k in range(n)]
    code = [sum(map(mul, w, place)) for w in dw]
    unit = [0, *(2 * x for x in place), *(-2 * x for x in reversed(place))]
    got, diag = 0, []
    for (i, j), op in sorted(rep.gens.items()):
        if i == -j:
            continue
        root = unit[i] - unit[j]
        for r, c in map(rowcol, op.keys(), itertools.repeat(dim)):
            if code[r] - code[c] != root:
                raise ConstructionError(
                    "an entry of F(%d,%d) does not shift weight by its root"
                    % (i, j), witness=((i, j), r, c))
        if i == j:
            diag.append(op)
        elif op:
            got += 1
    # rank D = rank D D^T over Q, D the diagonal slots' int forms on one
    # diagonal entry per distinct weight: n rows of n Gram entries
    cols = {x: pos(c, c, dim) for c, x in enumerate(code)}.values()
    ints = []
    for op in diag:
        _, positions, nums = int_form(op)
        at = dict(zip(positions, nums))
        ints.append([at.get(p, 0) for p in cols])
    got += len(rref([{b: Fraction(g) for b, y in enumerate(ints)
                      if (g := sum(map(mul, x, y)))} for x in ints]))
    want = n * (2 * n + 1)
    if got != want:
        raise ConstructionError("generator span has rank %d, expected %d"
                                % (got, want))
