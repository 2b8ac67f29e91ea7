"""Shared corpus, cached builds and reference implementations for the
test suite."""

import csv
import io
import itertools
import json
from fractions import Fraction

from gtrep import (F0, F1, InconsistencyError, Operator, PatternA, PatternB,
                   build_gl, build_so, check_weight_gl, check_weight_so,
                   defining_operators, gl_structure_table, nullspace, pos,
                   rowcol, rref)
from gtrep.checks import _dominants
from gtrep.exact import format_rational
from gtrep.glrep import capelli_ints, int_forms
from gtrep.linalg import int_form_operator
from gtrep.sorep import (MINUS_HALF, PLAIN, ConstructionError, _lp, _lu,
                         deformed_column, mid_row_prefactor,
                         prime_drop_weight, prime_shift_weight,
                         raise_column_terms, structure_table)

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

# integral gl weights and the common shift c that takes them off the
# integers
SHIFTED = [((2, 1, 0), Fraction(-3, 2)), ((1, 0), Fraction(-2, 3))]
SHIFT_IDS = ["(1/2,-1/2,-3/2)", "(1/3,-2/3)"]

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


def all_slots(algebra, n):
    # every generator slot in sorted order, stored or not: E(i,j),
    # 1 <= i,j <= n, or F(i,j), -n <= i,j <= n
    idx = range(1, n + 1) if algebra == "A" else range(-n, n + 1)
    return [(i, j) for i in idx for j in idx]


def accumulate(ent, r, c, v, dim):
    # entry (r, c) of a {position: value} dict plus v, an entry that sums
    # to zero dropped (the Operator constructor takes no zero value)
    p = pos(r, c, dim)
    nv = ent.get(p, F0) + v
    if nv:
        ent[p] = nv
    else:
        ent.pop(p, None)


def edited(op, changes):
    # op with the entries at the positions of changes, a {position:
    # value} dict, set to their values, a value of 0 deleting the entry:
    # a fresh Operator through the dict constructor, since an Operator is
    # never changed in place
    ent = dict(op.items())
    for p, v in changes.items():
        if v:
            ent[p] = v
        else:
            ent.pop(p, None)
    return Operator(op.dim, ent)


def all_gens(algebra, rep):
    # every slot's generator read through rep.gen, by slot in sorted order
    return {s: rep.gen(*s) for s in all_slots(algebra, rep.n)}


def deformed_raise(basis, k):
    # the raising generator at level k with every column on the deformed
    # route: the reference the plain route must agree with
    ent = {}
    for c, pat in enumerate(basis.patterns):
        for tgt, v in deformed_column(basis, k, c, pat).items():
            accumulate(ent, basis.index[tgt], c, v, basis.dim)
    return Operator(basis.dim, ent)


def ref_single_step(basis, k, term_fn, *args):
    # a one-step generator with every column's terms generated from its
    # own pattern: the reference the once-per-slice evaluation must match
    ent = {}
    member = basis.index.__contains__
    for c, pat in enumerate(basis.patterns):
        for tgt, num, den, coef in term_fn(pat, k, member, *args):
            r = basis.index[tgt]
            try:
                v = PLAIN.value(num, den, coef)
            except ZeroDivisionError:
                raise ConstructionError(
                    "zero denominator at level %d column %d target %d"
                    % (k, c, r))
            if v:
                accumulate(ent, r, c, v, basis.dim)
    return Operator(basis.dim, ent)


def ref_build_f_raise(basis, k, trace=None):
    # the raising generator column by column, each routed on its own
    ent = {}
    for c, pat in enumerate(basis.patterns):
        try:
            col = raise_column_terms(basis, k, pat, PLAIN)
        except ZeroDivisionError:
            col = deformed_column(basis, k, c, pat, trace)
        for tgt, v in col.items():
            accumulate(ent, basis.index[tgt], c, v, basis.dim)
    return Operator(basis.dim, ent)


def scalar_op(dim, s):
    # s times the identity
    if not s:
        return Operator(dim)
    return Operator(dim, {pos(i, i, dim): F1 * s for i in range(dim)})


def transpose(op):
    out = {}
    for p, v in op.items():
        r, c = rowcol(p, op.dim)
        out[pos(c, r, op.dim)] = v
    return Operator(op.dim, out)


def capelli_det(rep, u):
    # the column determinant (glrep.capelli_ints) as an Operator
    return int_form_operator(rep.dim, capelli_ints(rep, u, int_forms(rep)))


def perm_capelli(rep, u):
    # the column determinant as a sum over all n! permutations: the
    # reference the row-subset expansion of capelli_ints must agree with
    n = rep.n
    u = Fraction(u)
    dim = rep.dim
    fac = {}
    for r in range(1, n + 1):
        for j in range(1, n + 1):
            m = dict(rep.gen(r, j).items())
            if r == j:
                shift = u - j + 1
                if shift:
                    for c in range(dim):
                        accumulate(m, c, c, shift, dim)
            fac[(r, j)] = Operator(dim, m)
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
        for key, v in up.items():
            r, a = rowcol(key, dim)
            for b in range(dim):
                p = var(r, b)
                if p is not None:
                    row = eqs.setdefault((k, a, b), {})
                    row[p] = row.get(p, Fraction(0)) + v
        for key, v in dn.items():
            r, b = rowcol(key, dim)
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
    ent = {}
    for (a, b), p in pairpos.items():
        v = sol.get(p, Fraction(0)) / norm
        if v:
            ent[pos(a, b, dim)] = v
            if a != b:
                ent[pos(b, a, dim)] = v
    gram = Operator(dim, ent)
    for i in range(1, rep.n + 1):
        for j in range(1, rep.n + 1):
            if transpose(rep.gen(i, j)) @ gram != gram @ rep.gen(j, i):
                raise InconsistencyError("adjointness fails for (%d,%d)"
                                         % (i, j))
    return gram


def block_gram(rep):
    # the contravariant form solved for every symmetric unknown of each
    # weight block, the blocks from the top weight down: the reference
    # the diagonal read-off of contravariant_gram must agree with
    n, dim = rep.n, rep.dim
    blocks = {}
    for c, w in enumerate(rep.weights):
        blocks.setdefault(w, []).append(c)
    simple = []
    for k in range(1, n):
        # each generator as {source column: [(target row, value)]}
        up, dn = {}, {}
        for p, v in rep.gen(k, k + 1).items():
            r, c = rowcol(p, dim)
            up.setdefault(c, []).append((r, v))
        for p, v in rep.gen(k + 1, k).items():
            r, c = rowcol(p, dim)
            dn.setdefault(c, []).append((r, v))
        simple.append((k, up, dn))
    h = rep.highest_index()
    form = {h: {h: Fraction(1)}}  # solved blocks, row -> {column: value}
    for mu in sorted(blocks, reverse=True)[1:]:
        unknown = {}
        for t, a in enumerate(blocks[mu]):
            for b in blocks[mu][t:]:
                unknown[(a, b)] = len(unknown)
        const = len(unknown)  # the column of the known terms
        rows = []
        for k, up, dn in simple:
            above = blocks.get(mu[:k - 1] + (mu[k - 1] + 1, mu[k] - 1)
                               + mu[k + 1:])
            if above is None:
                continue
            for a in blocks[mu]:
                # <E(k,k+1) a, .> from the solved block above
                image = {}
                for r, v in up.get(a, ()):
                    for b, g in form.get(r, {}).items():
                        image[b] = image.get(b, Fraction(0)) + v * g
                for b in above:
                    row = {}
                    for r, v in dn.get(b, ()):
                        p = unknown.get((a, r) if a <= r else (r, a))
                        if p is not None:
                            row[p] = row.get(p, Fraction(0)) - v
                    row[const] = image.get(b, Fraction(0))
                    row = {p: v for p, v in row.items() if v}
                    if row:
                        rows.append(row)
        piv = rref(rows)
        where = "(%s)" % ",".join(str(x) for x in mu)
        if const in piv:
            raise InconsistencyError("form equations are inconsistent at "
                                     "weight %s" % where)
        if len(piv) != const:
            raise InconsistencyError("form is not determined at weight %s: "
                                     "rank %d of %d" % (where, len(piv), const))
        for (a, b), p in unknown.items():
            v = -piv[p].get(const, Fraction(0))
            if v:
                form.setdefault(a, {})[b] = v
                form.setdefault(b, {})[a] = v
    gram = Operator(dim, {pos(a, b, dim): v for a, row in form.items()
                          for b, v in row.items()})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if transpose(rep.gen(i, j)) @ gram != gram @ rep.gen(j, i):
                raise InconsistencyError("adjointness fails for (%d,%d)"
                                         % (i, j))
    return gram


def all_raising(rep, k):
    # every raising slot F(i,j), -k < i < j < k, of o(2k-1): the
    # reference for the simple ones checks._raising gives
    return [rep.gen(i, j)
            for i in range(-(k - 1), k) for j in range(i + 1, k)]


def restricted_rows(ops, cols):
    """The rows of every operator in ops restricted to the columns cols,
    each as a sparse row {position in cols: value}: the system whose
    nullspace(rows, len(cols)) is the common kernel on those columns."""
    at = {c: t for t, c in enumerate(cols)}
    rows = []
    for op in ops:
        byrow = {}
        for p, v in op.items():
            r, c = rowcol(p, op.dim)
            t = at.get(c)
            if t is not None:
                byrow.setdefault(r, {})[t] = v
        rows.extend(byrow.values())
    return rows


def pairwise_structure_witness(rep):
    # every unordered pair of distinct canonical slots bracketed once,
    # after the type B canonical-form comparison of every slot read
    # through rep.gen: the reference the Chevalley-Serre oracle must agree
    # with, pass or fail
    if rep.algebra == "A":
        keys = sorted(rep.gens)

        def expected(ab, cd):
            (a, b), (c, d) = ab, cd
            out = Operator(rep.dim)
            if b == c:
                out = out + rep.gens[(a, d)]
            if d == a:
                out = out - rep.gens[(c, b)]
            return out
    else:
        zero = Operator(rep.dim)
        table = structure_table(rep.n)
        for slot in all_slots("B", rep.n):
            cs, sgn = table.canonical(slot)
            want = zero if cs is None else rep.gen(*cs).scale(sgn)
            if rep.gen(*slot) != want:
                return ("antisymmetry", slot)
        keys = [s for s in sorted(rep.gens) if table.canonical(s)[0] == s]

        def expected(ab, cd):
            out = Operator(rep.dim)
            for slot, coef in table[(ab, cd)].items():
                out = out + rep.gens[slot].scale(coef)
            return out
    for idx, ab in enumerate(keys):
        for cd in keys[idx + 1:]:
            if rep.gens[ab].commutator(rep.gens[cd]) != expected(ab, cd):
                return (ab, cd)
    return None


def closure_steps(algebra, n):
    """The bracket table of a build of rank n and the plan its closure
    takes, from the seeds' canonical slots by the simple E(k,k+1),
    E(k+1,k) (type A) or the level-k F(k-1,-k), F(k-1,k) (type B)."""
    if algebra == "A":
        table = gl_structure_table(n)
        by = [s for k in range(1, n) for s in ((k, k + 1), (k + 1, k))]
    else:
        table = structure_table(n)
        by = [s for k in range(1, n + 1) for s in ((k - 1, -k), (k - 1, k))]
    seeds = by + [(k, k) for k in range(1, n + 1)]
    return table, table.plan({table.canonical(s)[0] for s in seeds}, by)


def count_calls(monkeypatch, owner, name):
    """A list that gains one entry per call of owner.name from now on."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def ref_plan(table, reached, by):
    # the full-rescan breadth-first search over a bracket table: each
    # layer brackets every slot reached so far, in the order reached
    # (reached itself sorted first), with every slot of by in order,
    # taking a target at its first +-1 single-slot entry
    reached = sorted(reached)
    todo = set(table.slot_at.values()) - set(reached)
    plan = []
    while todo:
        layer = []
        for x in reached:
            for y in by:
                terms = table[(x, y)]
                if len(terms) == 1:
                    (target, c), = terms.items()
                    if target in todo and c in (1, -1):
                        todo.discard(target)
                        layer.append(target)
                        plan.append((x, y, target))
        if not layer:
            raise ValueError("slots %s are not reached" % sorted(todo))
        reached += layer
    return plan


# every dominant o(2n+1) weight of rank 1-4 with entries from 0 down to
# -3 or from -1/2 down to -7/2: 69 per parity class
B_WEIGHT_GRID = [
    w for half in (0, 1) for n in range(1, 5)
    for w in itertools.combinations_with_replacement(
        [Fraction(-2 * k - half, 2) for k in range(4)], n)]


def ref_casimir_walk(lam):
    # the sum of all (2n+1)^2 products F(i,j)F(j,i) on the highest vector
    # of o(2n+1) weight lam, through the bracket table alone: F(i,i)F(i,i)
    # and F(-i,-i)F(-i,-i) give 2 lam_i^2, and each pair i < j gives
    # [F(i,j), F(j,i)], the raising factor killing the highest vector.
    # casimir_highest_value("B", lam), over the canonical slots, is half
    # of it
    lam = tuple(Fraction(x) for x in lam)
    n = len(lam)

    def eig(p):
        if p > 0:
            return lam[p - 1]
        if p < 0:
            return -lam[-p - 1]
        return Fraction(0)

    total = sum(2 * lam[k] * lam[k] for k in range(n))
    table = structure_table(n)
    for i in range(-n, n + 1):
        for j in range(i + 1, n + 1):
            for (p, q), coef in table[((i, j), (j, i))].items():
                # only Cartan slots appear in these brackets
                assert p == q, (p, q)
                total += coef * eig(p)
    return total


def defining_intertwiner(rep):
    # the monomial S with S F(i,j) = D(i,j) S on the vector module of
    # o(2n+1), D = defining_operators(n): its weights are those of the
    # defining basis -n..n, each once, so basis vector c goes to the
    # defining vector pi(c) of its weight, scaled by s_c. s is 1 on the
    # highest vector, and each other scale is read off one entry from a
    # vector already scaled, s_r = D[pi r, pi c] s_c / F[r, c]. Returns
    # (S, D); the caller compares every slot
    n = rep.n
    target = defining_operators(n)
    # the weight of defining vector p: +e_p, -e_-p or 0, at position p + n
    at = {tuple(Fraction((k == p) - (k == -p)) for k in range(1, n + 1)):
          p + n for p in range(-n, n + 1)}
    pi = [at[rep.decode(w)] for w in rep.weights]
    dim = 2 * n + 1
    h = rep.highest_index()
    scale = {h: Fraction(1)}
    todo = [h]
    while todo:
        c = todo.pop()
        for slot in all_slots("B", n):
            for p, v in sorted(rep.gen(*slot).items()):
                r, cc = rowcol(p, dim)
                if cc == c and r not in scale:
                    scale[r] = (target[slot].get(pos(pi[r], pi[c], dim), 0)
                                * scale[c] / v)
                    todo.append(r)
    s = Operator(dim, {pos(pi[c], c, dim): v for c, v in scale.items()})
    return s, target


def single_entry_mutants(rep, slot, deleted=False):
    # every stored entry of the slot doubled (and, when deleted is set,
    # each one deleted), and one entry added where the slot has none (1/3
    # at the first free diagonal or first-row position): each as a fresh
    # Operator
    op = rep.gens[slot]
    for key, v in sorted(op.items()):
        yield edited(op, {key: 2 * v})
        if deleted:
            yield edited(op, {key: 0})
    stored = set(op.keys())
    free = next((k for k in [pos(c, c, rep.dim) for c in range(rep.dim)]
                 + [pos(0, c, rep.dim) for c in range(rep.dim)]
                 if k not in stored), None)
    if free is not None:
        yield edited(op, {free: Fraction(1, 3)})


# ------------------------------------------------ gl(n) series operators


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


def _scaled_chain_sum(rep, chains, hsource):
    """Sum over chains of (matrix product) x (diagonal complement product).

    chains: list of (product Operator, complement index tuple). The factor
    prod_{t in complement} (h_i - h_t) is evaluated on the source column,
    which makes each summand polynomial: the omitted factors are exactly
    the ones the series would have divided by.
    """
    total = {}
    for prod, comp in chains:
        for p, v in prod.items():
            r, c = rowcol(p, rep.dim)
            # h_a is the eigenvalue of E_aa - a + 1 on column c
            w = rep.decode(rep.weights[c])
            hs = w[hsource - 1] - hsource + 1
            scale = F1
            for t in comp:
                scale *= hs - (w[t - 1] - t + 1)
            if scale:
                accumulate(total, r, c, v * scale, rep.dim)
    return Operator(rep.dim, total)


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


def g_highest_vectors(rep, mu):
    """Basis of {v : E(k,k+1) v = 0 for k <= n-2, E(k,k) v = mu_k v}."""
    mu = tuple(Fraction(x) for x in mu)
    n = rep.n
    cols = [c for c in range(rep.dim)
            if rep.decode(rep.weights[c][:n - 1]) == mu]
    ops = [rep.gen(k, k + 1) for k in range(1, n - 1)]
    basis = nullspace(restricted_rows(ops, cols), len(cols))
    out = []
    for vec in basis:
        out.append({cols[t]: v for t, v in vec.items()})
    return out


# ------------------------------------------------------ Freudenthal


def ref_freudenthal(top, roots, rho, signed):
    # the recursion walking every root string from each dominant weight:
    # the reference the memoised root-line sums of _freudenthal must match
    dominants = _dominants(top, signed)
    dset = set(dominants)
    bound = max(abs(x) for x in top)
    nlam = sum((a + b) ** 2 for a, b in zip(top, rho))
    order = sorted(dominants,
                   key=lambda m: (-sum((a + b) ** 2 for a, b in zip(m, rho)), m))
    mult = {}
    for mu in order:
        if mu == top:
            mult[mu] = 1
            continue
        den = nlam - sum((a + b) ** 2 for a, b in zip(mu, rho))
        num = Fraction(0)
        for al in roots:
            t = 1
            while True:
                nu = tuple(m + t * a for m, a in zip(mu, al))
                if max(abs(x) for x in nu) > bound:
                    break
                d = tuple(sorted((abs(x) if signed else x for x in nu),
                                 reverse=True))
                m = mult.get(d, 0) if d in dset else 0
                if m:
                    num += m * sum(x * y for x, y in zip(nu, al))
                t += 1
        val = 2 * num / den
        if val.denominator != 1 or val < 0:
            raise ValueError("Freudenthal recursion gave %s at %s" % (val, mu))
        if val:
            mult[mu] = int(val)
    return mult


# ------------------------------------------------------ basis membership


def full_valid(pat):
    # type B basis membership by its definition: both interleaving
    # chains, every entry in the top row's parity class and at most the
    # class maximum (0, or -1/2 doubled to -1), and in the integer class
    # sigma_k = 1 only with primed entry (k,1) <= -1
    if not pat.interleaves():
        return False
    par = pat.rows[pat.n - 1][0] % 2
    zero_max = 0 if par == 0 else -1
    for rr in (pat.rows, pat.primed):
        for r in rr:
            for d in r:
                if d % 2 != par or d > zero_max:
                    return False
    if par == 0:
        for k in range(1, pat.n + 1):
            if pat.sigma[k - 1] == 1 and pat.primed[k - 1][0] > -2:
                return False
    return True


# ------------------------------------------------------ canonical order


def canonical_key(p):
    # the basis order by its definition, on the stored ints (doubled for
    # type B, offsets from the shared base for type A): type B reads, for
    # k = n down to 1, sigma_k, primed row k, then unprimed row k-1; type
    # A reads rows n-1 down to 1, the top row being the same for all
    out = []
    if isinstance(p, PatternB):
        for k in range(p.n, 0, -1):
            out.append(p.sigma[k - 1])
            out.extend(p.primed[k - 1])
            if k >= 2:
                out.extend(p.rows[k - 2])
    else:
        for k in range(p.n - 1, 0, -1):
            out.extend(p.rows[k - 1])
    return tuple(out)


# ----------------------------------------------- output by json and csv


def ref_pattern_json(p):
    # a basis pattern's JSON value, every entry through format_rational
    if isinstance(p, PatternB):
        def vals(rows):
            return [[format_rational(Fraction(d, 2)) for d in r]
                    for r in rows]
        return {"sigma": list(p.sigma), "rows": vals(p.rows),
                "primed_rows": vals(p.primed)}
    return {"rows": [[format_rational(p.base + d) for d in r]
                     for r in p.rows]}


def _ref_header(algebra, lam, patterns):
    return {"algebra": {"type": algebra, "rank": len(lam)},
            "highest_weight": [format_rational(x) for x in lam],
            "dimension": len(patterns),
            "basis": [ref_pattern_json(p) for p in patterns]}


def ref_patterns_json(algebra, lam, patterns):
    # `gtrep patterns` output by json.dumps: the reference the template
    # writer must match byte for byte
    return json.dumps(_ref_header(algebra, lam, patterns), indent=2) + "\n"


def ref_rep_json(algebra, lam, rep):
    # `gtrep build` JSON output as a dict tree through json.dumps, every
    # slot read through rep.gen
    letter = "E" if algebra == "A" else "F"
    doc = _ref_header(algebra, lam, rep.patterns)
    doc["operators"] = {
        "%s(%d,%d)" % (letter, i, j): {
            "dim": rep.dim,
            "entries": [[*rowcol(p, rep.dim), format_rational(v)]
                        for p, v in sorted(rep.gen(i, j).items())]}
        for i, j in all_slots(algebra, rep.n)}
    return json.dumps(doc, indent=2) + "\n"


def ref_rep_csv(algebra, rep):
    # `gtrep build --format csv` output through csv.writer, every slot
    # read through rep.gen
    letter = "E" if algebra == "A" else "F"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["generator", "row", "col", "value"])
    for i, j in all_slots(algebra, rep.n):
        name = "%s(%d,%d)" % (letter, i, j)
        for p, v in sorted(rep.gen(i, j).items()):
            w.writerow([name, *rowcol(p, rep.dim), format_rational(v)])
    return buf.getvalue()


# ------------------------------------- type B terms, built then filtered


def ref_sig_case_terms(pat, k, valid):
    # every raw target of the sigma-flip branch is built, then tested
    sk = pat.sigma[k - 1]
    skm = pat.sigma[k - 2] if k >= 2 else 0
    base = [("sig", k)] + ([("sig", k - 1)] if k >= 2 else [])
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


def ref_lower_step_terms(pat, k, valid, u=None):
    # the reference lower_step_terms must match term for term, in order
    u2 = None if u is None else 2 * u
    terms = []
    for tgt, num, den, c in ref_sig_case_terms(pat, k, valid):
        den += mid_row_prefactor(pat, k, 0)[1]
        if u2 is not None:
            den.append((u2 + tgt.doubled_weight(k) - 3, 1))
        terms.append((tgt, num, den, c))
    for i in range(1, k):
        li = _lu(pat, k - 1, i)
        tgt = pat.shifted([("u", k - 1, i, -1)])
        if valid(tgt):
            num, den = mid_row_prefactor(pat, k, i)
            den.append((li - 1, 1))
            if u2 is not None:
                den.append((u2 - li + tgt.doubled_weight(k) - 2, 0))
            terms.append((tgt, num, den, -1))
        for j in range(1, k + 1):
            for m in range(1, k):
                tgt = pat.shifted([("p", k, j, +1), ("u", k - 1, i, +1),
                                   ("p", k - 1, m, +1)])
                if not valid(tgt):
                    continue
                num, den = mid_row_prefactor(pat, k, i)
                for n2, d2 in (prime_shift_weight(pat, k, j, (li, 1)),
                               prime_shift_weight(pat, k - 1, m, (li, 1))):
                    num += n2
                    den += d2
                den.append((li + 1, 1))
                if u2 is not None:
                    den.append((u2 + li + tgt.doubled_weight(k) - 2, 2))
                terms.append((tgt, num, den, 1))
    return terms


def ref_prime_drop_terms(pat, k, valid):
    terms = []
    for i in range(1, k + 1):
        tgt = pat.shifted([("p", k, i, -1)])
        if valid(tgt):
            num, den = prime_drop_weight(pat, k, i)
            num.append((tgt.doubled_weight(k) - _lp(pat, k, i) + 2, 0))
            terms.append((tgt, num, den, 1))
    return terms
