"""Irreducible gl(n) modules on triangular pattern bases.

Generator matrices come from the closed product formulas for the simple
generators; the remaining E(i,j) are filled in by commutators. The module
also exposes the polynomial lowering/raising elements z, the column
determinant of u + row-shifted generators (Capelli type), highest vectors
for the subalgebra chain, and the contravariant form.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .exact import F1
from .linalg import Operator, nullspace, restricted_rows
from .patterns import PatternA, Rep, check_weight_gl, enumerate_patterns_a


class InconsistencyError(Exception):
    """A linear condition that must have a solution does not."""


def mu_vector_index(rep, mu):
    """Index of the weight vector with middle row mu and the rows below
    frozen to truncations of mu; None when no such basis vector."""
    mu = tuple(Fraction(x) for x in mu)
    rows = [mu[:k] for k in range(1, rep.n)] + [rep.lam]
    try:
        pat = PatternA(rows)
    except ValueError:
        return None  # mu is off the class of lam mod 1
    return rep.index.get(pat)


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


def _scaled_chain_sum(rep, chains, hsource):
    """Sum over chains of (matrix product) x (diagonal complement product).

    chains: list of (product Operator, complement index tuple). The factor
    prod_{t in complement} (h_i - h_t) is evaluated on the source column,
    which makes each summand polynomial: the omitted factors are exactly
    the ones the series would have divided by.
    """
    total = Operator(rep.dim)
    for prod, comp in chains:
        for (r, c), v in prod.ent.items():
            # h_a is the eigenvalue of E_aa - a + 1 on column c
            w = rep.weights[c]
            hs = w[hsource - 1] - hsource + 1
            scale = F1
            for t in comp:
                scale *= hs - (w[t - 1] - t + 1)
            if scale:
                total.add_to(r, c, v * scale)
    return total


def z_raise(rep, i):
    """The normalized raising element for the middle row slot i (< n)."""
    n = rep.n
    if not 1 <= i < n:
        raise ValueError("slot out of range")
    pool = tuple(range(1, i))
    chains = []
    for r in range(len(pool) + 1):
        for sub in itertools.combinations(pool, r):
            path = (i,) + tuple(sorted(sub, reverse=True)) + (n,)
            prod = rep.gen(path[0], path[1])
            for a, b in zip(path[1:], path[2:]):
                prod = prod @ rep.gen(a, b)
            comp = tuple(t for t in pool if t not in sub)
            chains.append((prod, comp))
    return _scaled_chain_sum(rep, chains, i)


def z_lower(rep, i):
    """The normalized lowering element for the middle row slot i (< n)."""
    n = rep.n
    if not 1 <= i < n:
        raise ValueError("slot out of range")
    pool = tuple(range(i + 1, n))
    chains = []
    for r in range(len(pool) + 1):
        for sub in itertools.combinations(pool, r):
            # written product is E(i1,i) E(i2,i1) ... E(n,is), i1<...<is;
            # assemble right to left so the last factor acts first
            seq = []
            prev = i
            for t in sorted(sub):
                seq.append((t, prev))
                prev = t
            seq.append((n, prev))
            prod = rep.gen(*seq[-1])
            for a, b in reversed(seq[:-1]):
                prod = rep.gen(a, b) @ prod
            comp = tuple(t for t in pool if t not in sub)
            chains.append((prod, comp))
    return _scaled_chain_sum(rep, chains, i)


def capelli_det(rep, u):
    """Column determinant sum_sigma sgn(sigma) prod_j (u + E - j + 1)_{sigma(j), j},
    factors multiplied left to right (rightmost acts first)."""
    n = rep.n
    u = Fraction(u)
    dim = rep.dim
    fac = {}
    for r in range(1, n + 1):
        for j in range(1, n + 1):
            m = rep.gen(r, j).copy()
            if r == j:
                shift = u - j + 1
                if shift:
                    for c in range(dim):
                        m.add_to(c, c, shift)
            fac[(r, j)] = m
    total = Operator(dim)
    for perm in itertools.permutations(range(1, n + 1)):
        sgn = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sgn = -sgn
        prod = fac[(perm[0], 1)]
        for j in range(2, n + 1):
            prod = prod @ fac[(perm[j - 1], j)]
            if not prod:
                break
        if prod:
            total = total + (prod if sgn > 0 else -prod)
    return total


def g_highest_vectors(rep, mu):
    """Basis of {v : E(k,k+1) v = 0 for k <= n-2, E(k,k) v = mu_k v}."""
    mu = tuple(Fraction(x) for x in mu)
    n = rep.n
    cols = [c for c in range(rep.dim) if rep.weights[c][:n - 1] == mu]
    ops = [rep.gen(k, k + 1) for k in range(1, n - 1)]
    basis = nullspace(restricted_rows(ops, cols), len(cols))
    out = []
    for vec in basis:
        out.append({cols[t]: v for t, v in vec.items()})
    return out


def contravariant_gram(rep):
    """The symmetric form with <highest, highest> = 1 making E(i,j) and
    E(j,i) mutually adjoint. Diagonal-generator adjointness already forces
    the form to vanish across distinct weights, so unknowns live on
    same-weight pairs only; the rest is a small exact solve."""
    dim = rep.dim
    pairs = []
    pairpos = {}
    for a in range(dim):
        for b in range(a, dim):
            if rep.weights[a] == rep.weights[b]:
                pairpos[(a, b)] = len(pairs)
                pairs.append((a, b))

    def var(a, b):
        return pairpos.get((a, b) if a <= b else (b, a))

    eqs = {}
    for k in range(1, rep.n):
        up = rep.gen(k, k + 1)
        dn = rep.gen(k + 1, k)
        # <up eta, zeta> = <eta, dn zeta> for all basis eta=a, zeta=b
        for (r, a), v in up.ent.items():
            for b in range(dim):
                p = var(r, b)
                if p is not None:
                    row = eqs.setdefault((k, a, b), {})
                    row[p] = row.get(p, Fraction(0)) + v
        for (r, b), v in dn.ent.items():
            for a in range(dim):
                p = var(a, r)
                if p is not None:
                    row = eqs.setdefault((k, a, b), {})
                    row[p] = row.get(p, Fraction(0)) - v
    rows = []
    for key in sorted(eqs):
        row = {p: v for p, v in eqs[key].items() if v}
        if row:
            rows.append(row)
    sols = nullspace(rows, len(pairs))
    if len(sols) != 1:
        raise InconsistencyError("form solution space has dimension %d"
                                 % len(sols))
    sol = sols[0]
    h = rep.highest_index()
    norm = sol.get(pairpos[(h, h)], Fraction(0))
    if not norm:
        raise InconsistencyError("form degenerates on the highest vector")
    gram = Operator(dim)
    for (a, b), p in pairpos.items():
        v = sol.get(p, Fraction(0)) / norm
        if v:
            gram.ent[(a, b)] = v
            if a != b:
                gram.ent[(b, a)] = v
    # adjointness for every generator pair is a hard postcondition
    for i in range(1, rep.n + 1):
        for j in range(1, rep.n + 1):
            left = rep.gen(i, j).transpose() @ gram
            right = gram @ rep.gen(j, i)
            if left != right:
                raise InconsistencyError("adjointness fails for (%d,%d)"
                                         % (i, j))
    return gram
