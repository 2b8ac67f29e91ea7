"""Irreducible gl(n) modules on triangular pattern bases.

Generator matrices come from the closed product formulas for the simple
generators; the remaining E(i,j) are filled in by commutators. The module
also holds what the oracles read: the bracket table, the generators'
integer table, the column determinant of u + row-shifted generators
(Capelli type) and the contravariant form.
"""
from __future__ import annotations

import bisect
import functools
from fractions import Fraction
from math import lcm

from .exact import F1
# nullspace is unused here, but bench/tracer.py wraps glrep.nullspace by name
from .linalg import (RANK_PRIME, BracketTable, Operator, int_form,
                     int_product_sum, nullspace, rref)
from .patterns import (Rep, canonical_slots, check_weight_gl,
                       enumerate_patterns_a)


class InconsistencyError(Exception):
    """A linear condition that must have a solution does not."""


def _lvals(row):
    # l_{ki} = entry - i + 1 as offsets from the pattern base; the base
    # cancels in every difference the formulas take
    return [x - i for i, x in enumerate(row)]


def _prod_diff(li, ls):
    p = 1
    for x in ls:
        p *= li - x
    return p


def build_gl(lam, cap=None):
    """Construct all n^2 generator matrices over the pattern basis."""
    lam = check_weight_gl(lam)
    n = len(lam)
    rep = Rep(lam, enumerate_patterns_a(lam, cap))
    dim, index, gens = rep.dim, rep.index, rep.gens

    for k in range(1, n + 1):
        op = Operator(dim)
        for c, w in enumerate(rep.weights):
            if w[k - 1]:
                op.ent[(c, c)] = w[k - 1]
        gens[(k, k)] = op

    for k in range(1, n):
        up = Operator(dim)
        down = Operator(dim)
        for c, pat in enumerate(rep.patterns):
            # l-value differences are integers: one Fraction per entry
            lk = _lvals(pat.rows[k - 1])
            above = _lvals(pat.rows[k])
            below = _lvals(pat.rows[k - 2]) if k >= 2 else []
            for i, li in enumerate(lk):
                den = _prod_diff(li, lk[:i] + lk[i + 1:])
                # a shifted array is a basis member iff it interleaves
                r = index.get(pat.shifted(k, i + 1, +1))
                if r is not None:
                    up.add_to(r, c, Fraction(-_prod_diff(li, above), den))
                r = index.get(pat.shifted(k, i + 1, -1))
                if r is not None:
                    down.add_to(r, c, Fraction(_prod_diff(li, below), den))
        gens[(k, k + 1)] = up
        gens[(k + 1, k)] = down

    # non-simple generators by bracketing outward
    for d in range(2, n):
        for i in range(1, n - d + 1):
            j = i + d
            gens[(i, j)] = gens[(i, i + 1)].commutator(gens[(i + 1, j)])
            gens[(j, i)] = gens[(j, i + 1)].commutator(gens[(i + 1, i)])

    return rep


@functools.cache
def gl_structure_table(n):
    """The gl(n) bracket table (linalg.BracketTable) over the elementary
    matrices, one per n: E(p,q) is the single entry 1 at (p-1,q-1), so
    every position is read as its own slot. Only the entries asked for
    are computed."""
    units = {(i, j): Operator(n, {(i - 1, j - 1): F1})
             for i in range(1, n + 1) for j in range(1, n + 1)}
    return BracketTable(units, {(i - 1, j - 1): (i, j) for i, j in units})


def int_forms(rep):
    """The int form (linalg.int_form) of every canonical slot
    (patterns.canonical_slots), by slot: every generator of type A, and
    of type B the slots with i + j <= 0, the only ones the Casimir
    reads."""
    return {slot: int_form(rep.gens[slot])
            for slot in canonical_slots(rep.gens)}


def capelli_ints(rep, u, factors):
    """The column determinant sum_sigma sgn(sigma) prod_j
    (u + E - j + 1)_{sigma(j), j}, factors multiplied left to right, as
    an int form, from factors = int_forms(rep), which any number of values
    of u can share. Only the diagonal factors depend on u: each gets the
    shift u - j + 1 added to its diagonal.

    Expanded over row subsets: for a set S of m rows, D_S is the signed
    sum of the products of the first m factor columns whose rows are S, and
    D_S = sum_{r in S} (-1)^{#{s in S : s > r}} D_{S - r} (factor r, m),
    at most n 2^(n-1) products instead of n!(n-1). The identity holds for
    any matrices, so the result relies on no relation among the generators."""
    n = rep.n
    u = Fraction(u)
    fac = dict(factors)
    for j in range(1, n + 1):
        shift = u - j + 1
        if shift:
            den, nums = factors[(j, j)]
            d = lcm(den, shift.denominator)
            nums = {k: v * (d // den) for k, v in nums.items()}
            s = shift.numerator * (d // shift.denominator)
            for c in range(rep.dim):
                nums[(c, c)] = nums.get((c, c), 0) + s
            fac[(j, j)] = d, {k: v for k, v in nums.items() if v}
    # only the nonzero D_S are kept, and each is carried to the sets one
    # row larger
    rows = range(1, n + 1)
    dets = {(r,): fac[(r, 1)] for r in rows if fac[(r, 1)][1]}
    for m in range(2, n + 1):
        terms = {}
        for sub, d in dets.items():
            for r in rows:
                f = fac[(r, m)]
                if f[1] and r not in sub:
                    # r has len(sub) - t larger rows beside it in the set
                    t = bisect.bisect(sub, r)
                    terms.setdefault(sub[:t] + (r,) + sub[t:], []).append(
                        ((-1) ** (len(sub) - t), d, f))
        dets = {}
        for sub, ts in terms.items():
            d = int_product_sum(ts)
            if d[1]:
                dets[sub] = d
    return dets.get(tuple(rows), (1, {}))


def contravariant_gram(rep, forms=None):
    """The symmetric form G with <highest, highest> = 1 making E(i,j) and
    E(j,i) mutually adjoint. On the Gelfand–Tsetlin basis it is diagonal
    (Molev, Yangians and Classical Lie Algebras), and it is read off
    forms = int_forms(rep) (made here when not given) as such.

    Diagonal-generator adjointness forces the form to vanish across
    distinct weights. The equation <E(k,k+1) a, b> = <a, E(k+1,k) b>,
    with a of weight mu, involves only the blocks mu and mu + alpha_k.
    So the blocks are taken in decreasing lexicographic order of weight,
    which refines dominance, each with the blocks above it known:

    (a) uniqueness. A block's equations fix the form exactly on the
        block times the span of the images E(k+1,k) b of the blocks one
        simple root above, so the form is unique exactly when those
        images span the block. Lowering spans each weight space of an
        irreducible module, so a correct module always passes. The rank
        is taken mod a fixed prime, which never exceeds the rank over Q,
        and exactly only when it falls short;
    (b) values. Once (a) holds each basis vector a has some b above it
        with dn(a,b) = E(k+1,k)[a,b] != 0, and G_a is read off the first
        one's equation: G_a = up(b,a) G_b / dn(a,b), up = E(k,k+1). Each
        G_a must be nonzero;
    (c) postcondition. Every E(i,j) must be adjoint to E(j,i) under G:
        E(i,j)[b,a] G_b = G_a E(j,i)[a,b], both sides zero together,
        compared on the table's ints and G's numerators and denominators.

    A G that passes (c) solves every equation, so by (a) it is the form."""
    if forms is None:
        forms = int_forms(rep)
    blocks = {}
    for c, w in enumerate(rep.weights):
        blocks.setdefault(w, []).append(c)
    simple = []
    for k in range(1, rep.n):
        uden, up = forms[(k, k + 1)]
        dden, dn = forms[(k + 1, k)]
        cols = {}  # E(k+1,k) by source column: [(target row, numerator)]
        for (r, c), v in dn.items():
            cols.setdefault(c, []).append((r, v))
        simple.append((k, uden, up, dden, cols))
    gram = {rep.highest_index(): F1}
    # the top block is the highest vector alone
    for mu in sorted(blocks, reverse=True)[1:]:
        block = blocks[mu]
        pos = {a: t for t, a in enumerate(block)}
        rows = []  # each image E(k+1,k) b on the block, as int numerators
        for k, uden, up, dden, cols in simple:
            above = blocks.get(mu[:k - 1] + (mu[k - 1] + 1, mu[k] - 1)
                               + mu[k + 1:])
            if above is None:
                continue
            for b in above:
                row = {}
                for a, v in cols.get(b, ()):
                    t = pos.get(a)
                    if t is not None:
                        row[t] = v
                        if a not in gram:
                            gram[a] = Fraction(up.get((b, a), 0) * dden,
                                               uden * v) * gram[b]
                if row:
                    rows.append(row)
        where = "(%s)" % ",".join(str(x) for x in mu)
        if not _spans(rows, len(block)):
            raise InconsistencyError("form is not determined at weight %s"
                                     % where)
        if not all(gram[a] for a in block):
            raise InconsistencyError("form is degenerate at weight %s"
                                     % where)
    # E(i,j)^T G = G E(j,i) holds iff its transpose, E(j,i)^T G =
    # G E(i,j), does; the first failing pair in sorted order has i <= j
    for (i, j) in sorted(forms):
        if i <= j and not _adjoint(forms[(i, j)], forms[(j, i)], gram):
            raise InconsistencyError("adjointness fails for (%d,%d)"
                                     % (i, j))
    return Operator(rep.dim, {(a, a): g for a, g in gram.items()})


def _adjoint(form, tform, gram):
    # int forms E and T with E^T G = G T for the diagonal G of gram:
    # E[b,a] G_b = G_a T[a,b] at every position, both sides zero together
    (den, nums), (tden, tnums) = form, tform
    if len(nums) != len(tnums):
        return False
    for (b, a), v in nums.items():
        w = tnums.get((a, b))
        gb, ga = gram[b], gram[a]
        if w is None or (v * gb.numerator * ga.denominator * tden
                         != w * ga.numerator * gb.denominator * den):
            return False
    return True


def _spans(rows, size):
    # sparse int rows span a space of dimension size: their rank mod
    # RANK_PRIME never exceeds the rank over Q, so the exact rref runs
    # only when it falls short
    if len(rref(rows, modulus=RANK_PRIME)) == size:
        return True
    return len(rref([{t: Fraction(v) for t, v in row.items()}
                     for row in rows])) == size
