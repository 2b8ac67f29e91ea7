"""Independent consistency oracles for built representations.

Every reference value here is recomputed from scratch (elementary
matrices, closed-form dimension products and Casimir values, the
Freudenthal recursion, brute-force interval counts), so agreement with
the constructed matrices is evidence rather than circular bookkeeping.
"""

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import NamedTuple

# rank_of is unused here, but bench/tracer.py wraps checks.rank_of by name
from .linalg import (Operator, int_product_sum, nullspace, pos, rank_of,
                     rowcol)
from .glrep import (InconsistencyError, capelli_ints, contravariant_gram,
                    gl_structure_table, int_forms)
from .patterns import _doubled
from .sorep import build_phi_minus, structure_table


class NonScalarError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class VerificationReport:
    """Ordered list of named pass/fail results with optional witnesses."""

    def __init__(self):
        self.checks = []

    def add(self, name, ok, witness=None):
        self.checks.append({"name": name, "pass": bool(ok),
                            "witness": None if witness is None else str(witness)})

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def passed(self):
        return all(c["pass"] for c in self.checks)

    def summary(self):
        return "pass" if self.passed else "fail"

    def to_json(self):
        return {"checks": list(self.checks), "summary": self.summary()}


# ------------------------------------------- structure constants


class Presentation(NamedTuple):
    """The Chevalley–Serre data of gl(n) (type A) or o(2n+1) (type B),
    read off the bracket table of the defining module: table, the
    table itself; cartan, the slots F(k,k) or E(k,k); pairs, the
    Chevalley pairs (e_k, f_k) = (F(k-1,k), F(k,k-1)); cartan_matrix,
    a[i][j] = 2 alpha_j(h_i) / alpha_i(h_i) with h_i = [e_i, f_i] (the
    ratio does not depend on how e_i and f_i are scaled); plan, the
    table's plan (BracketTable.plan) from the Cartan and Chevalley slots
    by the Chevalley slots: one step (x, y, target) per remaining
    canonical slot, whose table entry [x, y] is +-target alone."""

    table: dict
    cartan: list
    pairs: list
    cartan_matrix: list
    plan: list


@functools.cache
def presentation(algebra_type, n):
    """The Presentation of gl(n) or o(2n+1), computed once per (type, n)."""
    cartan = [(k, k) for k in range(1, n + 1)]
    if algebra_type == "A":
        table = gl_structure_table(n)
        first = 2
    else:
        table = structure_table(n)
        first = 1
    pairs = [((k - 1, k), (k, k - 1)) for k in range(first, n + 1)]
    canon = table.canonical

    def root(h_terms, e):
        # alpha(h): the coefficient of e in [h, e], h a sum of slots
        cs, sgn = canon(e)
        return sum(c * table[(h, e)].get(cs, 0) * sgn
                   for h, c in h_terms.items())

    matrix = []
    for e, f in pairs:
        h = table[(e, f)]
        matrix.append([int(Fraction(2 * root(h, ej), root(h, e)))
                       for ej, _ in pairs])
    simple = [s for pair in pairs for s in pair]
    plan = table.plan({canon(s)[0] for s in cartan + simple}, simple)
    return Presentation(table, cartan, pairs, matrix, plan)


def _is_multiple(got, c, want):
    # Operators: got == c * want for an int c != 0 (a bracket-table
    # coefficient), compared pair by pair in position order, on numerators
    # and denominators, without building c * want
    if len(got) != len(want):
        return False
    for (p, g), (k, v) in zip(got.items(), want.items()):
        if p != k or (g.numerator * v.denominator
                      != c * v.numerator * g.denominator):
            return False
    return True


def _structure_witness(rep):
    """First failing relation of the Chevalley–Serre presentation, or
    None. By Serre's theorem the Chevalley images that satisfy these
    relations extend to a homomorphism from the algebra (for gl(n), with
    the trace element central), and the remaining checks show that every
    built slot is that homomorphism's value, so every bracket of the
    table holds. In order, each witness naming the relation that failed:

      ("antisymmetry", slot)  type B: a stored F(i,-i) is not 0;
      ("cartan", h, h')       two Cartan slots do not commute;
      ("root", h, x)          [h, x] is not the table's multiple of x,
                              for x every e_j and f_j;
      ("chevalley", e, f)     [e_i, f_j] is not the table's value:
                              0 for i != j, h_i for i = j;
      ("serre", x, y)         ad(x)^(1 - a_ij) y is not 0, for (x, y) =
                              (e_i, e_j) and (f_i, f_j), i != j;
      ("closure", x, y)       the plan's target slot is not the table's
                              +-[x, y].

    Every slot is read through rep.gen, so a type B slot F(i,j) with
    i + j > 0 is -F(-j,-i) by construction; each one read is made once
    per call. That is O(n^2) commutators instead of one per pair of
    slots."""
    p = presentation(rep.algebra, rep.n)
    for slot in sorted(rep.gens):
        if p.table.canonical(slot)[0] is None and rep.gens[slot]:
            return ("antisymmetry", slot)
    made = {}

    def gen(slot):
        op = made.get(slot)
        if op is None:
            op = made[slot] = rep.gen(*slot)
        return op

    def holds(x, y):
        # [x, y] against the table, without building the expected sum
        # when it is one slot or none
        got = gen(x).commutator(gen(y))
        terms = p.table[(x, y)]
        if len(terms) == 1:
            (slot, c), = terms.items()
            return _is_multiple(got, c, gen(slot))
        want = Operator(rep.dim)
        for slot, c in sorted(terms.items()):
            want = want + gen(slot).scale(c)
        return got == want

    for idx, h in enumerate(p.cartan):
        for h2 in p.cartan[idx + 1:]:
            if not holds(h, h2):
                return ("cartan", h, h2)
    for h in p.cartan:
        for pair in p.pairs:
            for x in pair:
                if not holds(h, x):
                    return ("root", h, x)
    for e, _ in p.pairs:
        for _, f in p.pairs:
            if not holds(e, f):
                return ("chevalley", e, f)
    for i, row in enumerate(p.cartan_matrix):
        for j, a in enumerate(row):
            # [x_i, x_j] = 0 is checked once, for i < j
            if i == j or (not a and i > j):
                continue
            for x, y in zip(p.pairs[i], p.pairs[j]):
                acc = gen(y)
                for _ in range(1 - a):
                    if not acc:
                        break
                    acc = gen(x).commutator(acc)
                if acc:
                    return ("serre", x, y)
    for x, y, _ in p.plan:
        if not holds(x, y):
            return ("closure", x, y)
    return None


def check_structure_constants(rep):
    """One report line; its witness is _structure_witness's, if any."""
    report = VerificationReport()
    w = _structure_witness(rep)
    report.add("all generator commutators match the bracket table",
               w is None, w)
    return report


# ------------------------------------ root data and Weyl dimension


def _reflect(w):
    # type B weights to the dominant side and back: w -> (-w_n, ..., -w_1)
    return tuple(-x for x in reversed(w))


@functools.cache
def _positive_roots(algebra_type, n):
    """The positive roots of gl(n) (type A) or o(2n+1) (type B), once
    per (type, n): (roots, supports, rho2). roots are int tuples, e_i -
    e_j (i < j), for type B also e_i + e_j and e_i; supports has one
    (i, j, s) per root, the root being e_i + s e_j (for e_i, j = i and
    s = 0); rho2 is 2 rho, the sum of the roots."""
    signed = algebra_type == "B"
    supports = [(i, j, s) for i in range(n) for j in range(i + 1, n)
                for s in ((-1, 1) if signed else (-1,))]
    if signed:
        supports += [(i, i, 0) for i in range(n)]
    roots = [tuple(int(k == i) + s * (k == j) for k in range(n))
             for i, j, s in supports]
    rho2 = tuple(sum(al[i] for al in roots) for i in range(n))
    return tuple(roots), tuple(supports), rho2


def _root_datum(algebra_type, lam):
    """The input of the Weyl and Freudenthal oracles for gl(n) (type A)
    or o(2n+1) (type B), on the dominant side (entries non-increasing):
    (top, roots, rho, signed). top is lam there; roots are the positive
    roots (_positive_roots); rho is half their sum; signed says the Weyl
    group changes signs as well as permuting entries (type B). Without
    sign changes every root sums to 0, so every weight keeps the entry
    sum of top."""
    lam = tuple(map(Fraction, lam))
    signed = algebra_type == "B"
    roots, _, rho2 = _positive_roots(algebra_type, len(lam))
    rho = tuple(Fraction(x, 2) for x in rho2)
    return _reflect(lam) if signed else lam, roots, rho, signed


def _dot(x, y):
    # y a root: at most two nonzero entries
    return sum(a * b for a, b in zip(x, y) if b)


def weyl_dim(algebra_type, lam):
    """Weyl's product over the positive roots of (top + rho, alpha) /
    (rho, alpha), on ints (_weyl_dim), lam scaled by the lcm d of 2 and
    its denominators (d = 2 on integral and half-integral weights)."""
    d = lcm(2, *(Fraction(x).denominator for x in lam))
    return _weyl_dim(algebra_type, [int(Fraction(x) * d) for x in lam], d)


def _weyl_dim(algebra_type, lam, d):
    """weyl_dim of lam / d, lam ints and d even: top + rho and rho scaled
    by d, the factors' products divided once, exactly, at the end."""
    top = _reflect(lam) if algebra_type == "B" else lam
    _, supports, rho2 = _positive_roots(algebra_type, len(lam))
    h = d // 2
    shifted = [x + h * r for x, r in zip(top, rho2)]
    rho = [h * r for r in rho2]
    num = den = 1
    for i, j, s in supports:
        num *= shifted[i] + s * shifted[j]
        den *= rho[i] + s * rho[j]
    q, rem = divmod(num, den)
    if rem or q <= 0:
        raise ValueError("dimension formula gave %s for %s"
                         % (Fraction(num, den), _over(lam, d)))
    return q


def _over(t, d):
    # the ints t over d, as Fractions, for a message's text
    return tuple(Fraction(x, d) for x in t)


# ----------------------------------------------------- branching


def branching_multiplicity(lam, mu):
    """Number of interleaving tuples between lam (rank n) and mu (rank n-1),
    counted per coordinate; 0 on parity mismatch or any empty interval."""
    return _interval_count(tuple(map(_doubled, lam)),
                           tuple(map(_doubled, mu)))


def _interval_count(lam, mu):
    # branching_multiplicity on lam and mu doubled, as ints
    if any((x - lam[0]) % 2 for x in mu):
        return 0
    count = 1
    for i in range(len(lam)):
        lo = lam[i]
        hi = -lam[0] if i == 0 else lam[i - 1]
        if i < len(mu):
            lo = max(lo, mu[i])
        if i == 0 and mu:
            hi = min(hi, -mu[0])
        elif i >= 1 and i - 1 < len(mu):
            hi = min(hi, mu[i - 1])
        span = hi - lo
        if span < 0:
            return 0
        if span % 2:
            raise ValueError("interval %s to %s is not integral; %s and %s "
                             "mix parity" % (*_over((lo, hi), 2),
                                             _over(lam, 2), _over(mu, 2)))
        count *= span // 2 + 1
    return count


def _raising(rep, k):
    """The simple raising operators F(m-1,m), m = 1..k-1, of o(2k-1). A
    vector is highest for o(2k-1) when all of them annihilate it: every
    positive root vector is an iterated bracket of simple ones
    (Humphreys, Introduction to Lie Algebras and Representation Theory),
    so their common kernel is that of all (k-1)(2k-1) raising slots."""
    return [rep.gen(m - 1, m) for m in range(1, k)]


def _highest_vectors(rep, k):
    """{weight: basis of the common kernel of _raising(rep, k) on that
    weight space}, weights sorted, each vector {basis index: value}. A
    raising entry joins weights w and w + alpha, so on a graded module
    these are the o(2k-1) highest vectors, each one the vector that one
    elimination over every column gives (reduced echelon form is unique)."""
    spaces = {}  # weight -> its basis indices, ascending
    for c, w in enumerate(rep.weights):
        spaces.setdefault(w, []).append(c)
    order = sorted(spaces)
    space, place = [0] * rep.dim, [0] * rep.dim  # of each basis index
    for s, w in enumerate(order):
        for t, c in enumerate(spaces[w]):
            space[c], place[c] = s, t
    filed = [[] for _ in order]  # per space: m, row, place, value, ...
    for m, op in enumerate(_raising(rep, k)):
        for p, v in op.items():
            r, c = rowcol(p, rep.dim)
            filed[space[c]] += m, r, place[c], v
    out = {}
    for w, entries in zip(order, filed):
        rows = {}  # one space's rows at a time, from its filed entries
        e = iter(entries)
        for m, r, t, v in zip(e, e, e, e):
            rows.setdefault((m, r), {})[t] = v
        out[w] = [{spaces[w][t]: x for t, x in v.items()}
                  for v in nullspace(rows.values(), len(spaces[w]))]
    return out


def check_branching(rep):
    """Exact highest-vector counts of the rank n-1 subalgebra per weight,
    against the interval counts, plus the global dimension identity. A
    count at a weight whose interval count is 0 (on a faulty module, a
    weight that need not be dominant for o(2n-1)) fails the first line
    and stays out of the dimension sum."""
    report = VerificationReport()
    n = rep.n
    lam = tuple(map(_doubled, rep.lam))
    witness = None
    counts = {}
    # the weights (doubled ints) ascend, so each o(2n-1) weight w[:n-1] is
    # one run of them, and the runs ascend
    for mu, run in itertools.groupby(_highest_vectors(rep, n).items(),
                                     lambda wv: wv[0][:n - 1]):
        got = sum(len(vs) for _, vs in run)
        want = _interval_count(lam, mu)
        if got and want:
            counts[mu] = got
        if got != want and witness is None:
            witness = (rep.decode(mu), got, want)
    report.add("subalgebra highest-vector counts match the interval counts",
               witness is None, witness)
    total = sum(c * _weyl_dim("B", mu, 2) for mu, c in counts.items())
    report.add("branching dimensions sum to the module dimension",
               total == rep.dim, None if total == rep.dim else (total, rep.dim))
    return report


# ------------------------------------------------------- Casimir


def casimir_scalar(rep, forms=None):
    """Sum of the products gen(i,j)gen(j,i) over the stored slots, on one
    int accumulator over forms = int_forms(rep) (made here when not
    given); raises unless exactly scalar, with the smallest off-scalar
    position and the remainder's value there as witness. gen(j,i) is
    stored along with gen(i,j). For type B the mirror F(-j,-i)F(-i,-j)
    of each product equals it, since F(i,j) = -F(-j,-i) holds by
    construction (Rep.gen), so this is half the sum over all slots."""
    if forms is None:
        forms = int_forms(rep)
    dim = rep.dim
    form = int_product_sum(dim, [(1, forms[(i, j)], forms[(j, i)])
                                 for (i, j) in sorted(rep.gens)])
    den, positions, ints = form
    t = next((v for p, v in zip(positions, ints) if p == pos(0, 0, dim)), 0)
    if not _is_scalar(form, dim, Fraction(t, den)):
        nums = dict(zip(positions, ints))
        diagonal = {pos(c, c, dim) for c in range(dim)}

        def rem(p):
            # the numerator of the sum minus its (0, 0) entry times 1
            return nums.get(p, 0) - t * (p in diagonal)
        # the smallest position is the smallest (row, col)
        key = min(p for p in set(nums) | diagonal if rem(p))
        raise NonScalarError("Casimir sum is not scalar",
                             witness=(*rowcol(key, dim),
                                      Fraction(rem(key), den)))
    return Fraction(t, den)


def casimir_highest_value(algebra_type, lam):
    """The value casimir_scalar must take on V(lam): (top, top + 2 rho),
    with top and rho from _root_datum, never touching the built
    matrices."""
    top, _, rho, _ = _root_datum(algebra_type, lam)
    return sum(a * (a + 2 * r) for a, r in zip(top, rho))


# -------------------------------------------------- Freudenthal


def _dominants(top, signed):
    """The dominant weights below top: non-increasing, in the class of
    top mod 1, partial sums bounded by those of top, and (without sign
    changes) the same entry sum, so no entry is below the last of top;
    with sign changes no entry is below 0 or 1/2, by class."""
    n = len(top)
    bounds = list(itertools.accumulate(top))
    total = bounds[-1]
    floor_v = top[0] % 1 if signed else top[-1]
    out = []

    def rec(prefix, psum):
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        # v runs down from the largest value the bounds allow, and stops
        # once the entries left cannot make up the fixed total
        left = n - 1 - i
        v = min(prefix[-1] if prefix else top[0], bounds[i] - psum)
        if not signed:
            v = min(v, total - psum - left * floor_v)
        while v >= floor_v and (signed or total - psum - v <= left * v):
            rec(prefix + [v], psum + v)
            v -= 1

    rec([], Fraction(0))
    return out


def _orbit(mu, signed):
    """The Weyl group orbit of mu, each member once: the distinct
    permutations of mu, each entry also negated when signed and nonzero.
    The first entry is each distinct value (and its negative) once, and
    the rest is the orbit of the remaining entries."""
    if not mu:
        yield ()
        return
    for x in sorted(set(mu)):
        rest = list(mu)
        rest.remove(x)
        for tail in _orbit(rest, signed):
            yield (x,) + tail
            if signed and x:
                yield (-x,) + tail


def _freudenthal(top, roots, rho, signed):
    # multiplicities of the dominant weights, highest first
    dominants = _dominants(top, signed)
    bound = max(abs(x) for x in top)
    nlam = sum((a + b) ** 2 for a, b in zip(top, rho))
    order = sorted(dominants,
                   key=lambda m: (-sum((a + b) ** 2 for a, b in zip(m, rho)), m))
    mult = {}
    # S(nu, al) = sum over t >= 1 of m(nu + t al)(nu + t al, al), the root
    # string cut at its first weight past the bound; it only reads weights
    # above nu, whose multiplicities are final once nu is reached, so each
    # (weight, root) pair is summed once per call
    sums = {}

    def line_sum(nu, al):
        # walk up the string to the bound or a known sum, then fill back
        chain = []
        while (nu, al) not in sums:
            up = tuple(x + a for x, a in zip(nu, al))
            if max(abs(x) for x in up) > bound:
                sums[nu, al] = 0
                break
            chain.append((nu, up))
            nu = up
        s = sums[nu, al]
        for low, up in reversed(chain):
            d = tuple(sorted((abs(x) if signed else x for x in up),
                             reverse=True))
            m = mult.get(d, 0)
            if m:
                s += m * _dot(up, al)
            sums[low, al] = s
        return s

    for mu in order:
        if mu == top:
            mult[mu] = 1
            continue
        den = nlam - sum((a + b) ** 2 for a, b in zip(mu, rho))
        num = sum(line_sum(mu, al) for al in roots)
        val = 2 * num / den
        if val.denominator != 1 or val < 0:
            raise ValueError("Freudenthal recursion gave %s at %s" % (val, mu))
        if val:
            mult[mu] = int(val)
    return mult


def freudenthal_multiplicities(algebra_type, lam):
    """Exact weight multiplicities by the recursion over positive roots;
    independent of the pattern enumeration."""
    top, roots, rho, signed = _root_datum(algebra_type, lam)
    back = _reflect if signed else tuple
    mult = _freudenthal(top, roots, rho, signed)
    return {back(w): m for mu, m in mult.items() for w in _orbit(mu, signed)}


# ------------------------------------- quadratic lowering identity


def _phi_witness(rep):
    """First level whose quadratic expression in built generators differs
    from the formula-built primed-lowering operator on that level's
    highest subspace, with a kernel vector as witness; None when all
    agree."""
    for k in range(1, rep.n + 1):
        f0k = rep.gen(0, k)
        quad = Operator(rep.dim) - (f0k @ f0k).scale(Fraction(1, 2))
        for i in range(1, k):
            quad = quad + rep.gen(-k, i) @ rep.gen(i, k)
        diff = quad - build_phi_minus(rep, k)
        if not diff:
            continue
        for v in itertools.chain(*_highest_vectors(rep, k).values()):
            if diff.apply(v):
                return (k, sorted(v))
    return None


# ------------------------------------------------- report driver


def _is_scalar(form, dim, s):
    # the int form (den, positions, ints) is s times the dim x dim
    # identity: every diagonal entry is s * den, zeros absent
    den, positions, nums = form
    t = s * den
    if t.denominator != 1:
        return False
    t = int(t)
    if not t:
        return not nums
    return (nums.count(t) == len(nums) == dim
            and list(positions) == [pos(c, c, dim) for c in range(dim)])


def run_verification(rep, level="fast"):
    """Every check of level "fast" or "full" on rep, for rep.algebra."""
    report = VerificationReport()
    report.extend(check_structure_constants(rep))
    dim = weyl_dim(rep.algebra, rep.lam)
    report.add("basis size equals the Weyl dimension formula",
               rep.dim == dim, None if rep.dim == dim else (rep.dim, dim))

    witness = None
    for k in range(1, rep.n + 1):
        if rep.gen(k, k) != rep.diagonal(k):
            witness = ("diagonal", k)
            break
    if witness is None:
        h = rep.highest_index()
        # a type B F(i,j), i < j, that is not stored is -F(-j,-i), also
        # raising, stored and sorted before it: the stored slots give the
        # first failing slot of them all
        for (i, j) in sorted(rep.gens):
            if i < j and rep.gens[(i, j)].column(h):
                witness = ("highest not annihilated", (i, j))
                break
    report.add("basis vectors are weight vectors and the top one is highest",
               witness is None, witness)

    if level == "full":
        if rep.algebra == "B":
            report.extend(check_branching(rep))
        want = casimir_highest_value(rep.algebra, rep.lam)
        # one int table for the Casimir, Capelli and form checks, made at
        # its first use and dropped after its last
        forms = int_forms(rep)
        try:
            val = casimir_scalar(rep, forms)
            report.add("Casimir sum is the scalar dictated by the top weight",
                       val == want, None if val == want else (val, want))
        except NonScalarError as e:
            report.add("Casimir sum is the scalar dictated by the top weight",
                       False, e.witness)
        if rep.algebra == "B":
            del forms
        hist = Counter(rep.weights)
        # the recursion's weights in the record's encoding (Rep.decode)
        freud = {tuple(int((x - rep.base) * rep.den) for x in w_): m for w_, m
                 in freudenthal_multiplicities(rep.algebra, rep.lam).items()}
        diff = sorted(set(hist.items()) ^ set(freud.items()))[:3]
        report.add("weight histogram matches the Freudenthal recursion",
                   not diff, [(rep.decode(w_), m) for w_, m in diff] or None)
        if rep.algebra == "A":
            cwit = None
            ls = [Fraction(x) - i for i, x in enumerate(rep.lam)]
            for u in (Fraction(0), Fraction(1), Fraction(-1), Fraction(7)):
                scal = Fraction(1)
                for l in ls:
                    scal *= u + l
                if not _is_scalar(capelli_ints(rep, u, forms), rep.dim,
                                  scal):
                    cwit = ("u", u)
                    break
            report.add("determinant central element acts by the "
                       "expected scalar", cwit is None, cwit)
            try:
                g = contravariant_gram(rep, forms)
                ok = all(g.values()) and set(g.keys()) == {
                    pos(c, c, rep.dim) for c in range(rep.dim)}
                report.add("contravariant form is diagonal and nondegenerate",
                           ok, None)
            except InconsistencyError as e:
                report.add("contravariant form is diagonal and nondegenerate",
                           False, str(e))
            del forms
        else:
            pw = _phi_witness(rep)
            report.add("quadratic form of the primed-lowering operator "
                       "matches its definition", pw is None, pw)
    return report
