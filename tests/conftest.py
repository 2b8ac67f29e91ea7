"""Shared corpus, cached builds and reference implementations for the
test suite."""

import itertools
from fractions import Fraction

from gtrep import (InconsistencyError, Operator, build_gl, build_so,
                   check_weight_gl, check_weight_so, nullspace)
from gtrep.sorep import deformed_column

# small integral and half-integral weights at desk scale, covering ranks
# 1-4 (unitary side) and 1-3 (orthogonal side), both parity classes
A_CORPUS = [
    (3,),
    (1, 0), (2, 0), (1, 1),
    (2, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0),
    (3, 1, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0),
]

B_CORPUS = [
    ("0",), ("-1",), ("-1/2",),
    ("0", "0"), ("0", "-1"), ("-1/2", "-1/2"), ("-1", "-1"),
    ("0", "-2"), ("-1", "-2"), ("-1/2", "-3/2"),
    ("0", "0", "-1"), ("-1/2", "-1/2", "-1/2"), ("0", "-1", "-1"),
]

_reps = {}


def gl_rep(lam):
    key = ("A", lam)
    if key not in _reps:
        _reps[key] = build_gl(check_weight_gl(lam))
    return _reps[key]


def so_rep(w):
    key = ("B", w)
    if key not in _reps:
        _reps[key] = build_so(check_weight_so(w))
    return _reps[key]


def fresh_so_rep(w):
    # for tests that mutate generator matrices
    return build_so(check_weight_so(w))


def fresh_gl_rep(lam):
    return build_gl(check_weight_gl(lam))


def deformed_raise(basis, k):
    # the raising generator at level k with every column on the deformed
    # route: the reference the plain route must agree with
    op = Operator(basis.dim)
    for c, pat in enumerate(basis.patterns):
        for tgt, v in deformed_column(basis, k, c, pat).items():
            op.add_to(basis.index[tgt], c, v)
    return op


def perm_capelli(rep, u):
    # the column determinant as a sum over all n! permutations: the
    # reference the row-subset expansion of capelli_det must agree with
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


def global_gram(rep):
    # the contravariant form from one nullspace over every same-weight
    # pair: the reference the block-by-block solve of contravariant_gram
    # must agree with
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
    for i in range(1, rep.n + 1):
        for j in range(1, rep.n + 1):
            if rep.gen(i, j).transpose() @ gram != gram @ rep.gen(j, i):
                raise InconsistencyError("adjointness fails for (%d,%d)"
                                         % (i, j))
    return gram
