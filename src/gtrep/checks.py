"""Independent consistency oracles for built representations.

Every reference value here is recomputed from scratch (elementary
matrices, closed-form dimension products and Casimir values, the
Freudenthal recursion, brute-force interval counts), so agreement with
the constructed matrices is evidence rather than circular bookkeeping.
"""

import functools
import itertools
from fractions import Fraction
from math import lcm
from typing import NamedTuple

# rank_of is unused here, but bench/tracer.py wraps checks.rank_of by name
from .linalg import (Operator, int_product_sum, nullspace, rank_of,
                     restricted_rows)
from .glrep import (InconsistencyError, capelli_ints, contravariant_gram,
                    gl_structure_table, int_forms)
from .patterns import canonical_slots
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
    ratio does not depend on how e_i and f_i are scaled); plan, one step
    (x, y, target) per remaining canonical slot, whose table entry
    [x, y] is +-target alone, with x reached before (by an earlier step
    or as a Cartan or Chevalley slot) and y a Chevalley slot."""

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
    slots = set(table.slot_at.values())
    canon = table.canonical
    simple = [s for pair in pairs for s in pair]

    def root(h_terms, e):
        # alpha(h): the coefficient of e in [h, e], h a sum of slots
        cs, sgn = canon(e)
        return sum(c * table[(h, e)].get(cs, 0) * sgn
                   for h, c in h_terms.items())

    matrix = []
    for e, f in pairs:
        h = table[(e, f)]
        matrix.append([int(2 * root(h, ej) / root(h, e)) for ej, _ in pairs])
    # breadth first: each layer brackets the slots reached so far with
    # the Chevalley slots
    reached = sorted({canon(s)[0] for s in cartan + simple})
    todo = slots - set(reached)
    plan = []
    while todo:
        layer = []
        for x in reached:
            for y in simple:
                terms = table[(x, y)]
                if len(terms) == 1:
                    (target, c), = terms.items()
                    if target in todo and c in (1, -1):
                        todo.discard(target)
                        layer.append(target)
                        plan.append((x, y, target))
        if not layer:
            raise ValueError("slots %s are not reached from the Chevalley "
                             "generators" % sorted(todo))
        reached += layer
    return Presentation(table, cartan, pairs, matrix, plan)


def _is_multiple(got, c, want):
    # entry dicts: got == c * want for an integer c != 0, compared on
    # numerators and denominators without building c * want. c is a sign
    # or a bracket-table coefficient, an entry of a commutator of the
    # integer defining matrices, and is made an int once
    c = int(c)
    if len(got) != len(want):
        return False
    for k, v in want.items():
        g = got.get(k)
        if g is None or (g.numerator * v.denominator
                         != c * v.numerator * g.denominator):
            return False
    return True


def _structure_witness(rep, algebra_type):
    """First failing relation of the Chevalley–Serre presentation, or
    None. By Serre's theorem the Chevalley images that satisfy these
    relations extend to a homomorphism from the algebra (for gl(n), with
    the trace element central), and the remaining checks show that every
    built slot is that homomorphism's value, so every bracket of the
    table holds. In order, each witness naming the relation that failed:

      ("antisymmetry", slot)  type B: slot differs from its canonical
                              form, F(i,j) = -F(-j,-i), F(i,-i) = 0;
      ("cartan", h, h')       two Cartan slots do not commute;
      ("root", h, x)          [h, x] is not the table's multiple of x,
                              for x every e_j and f_j;
      ("chevalley", e, f)     [e_i, f_j] is not the table's value:
                              0 for i != j, h_i for i = j;
      ("serre", x, y)         ad(x)^(1 - a_ij) y is not 0, for (x, y) =
                              (e_i, e_j) and (f_i, f_j), i != j;
      ("closure", x, y)       the plan's target slot is not the table's
                              +-[x, y].

    That is O(n^2) commutators instead of one per pair of slots."""
    gens = rep.gens
    p = presentation(algebra_type, rep.n)
    for slot in sorted(gens):
        cs, sgn = p.table.canonical(slot)
        if cs == slot:
            continue
        if not (_is_multiple(gens[slot].ent, sgn, gens[cs].ent)
                if cs is not None else not gens[slot]):
            return ("antisymmetry", slot)

    def holds(x, y):
        # [x, y] against the table, without building the expected sum
        # when it is one slot or none
        got = gens[x].commutator(gens[y]).ent
        terms = p.table[(x, y)]
        if len(terms) == 1:
            (slot, c), = terms.items()
            return _is_multiple(got, c, gens[slot].ent)
        want = Operator(rep.dim)
        for slot, c in sorted(terms.items()):
            want = want + gens[slot].scale(c)
        return got == want.ent

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
                acc = gens[y]
                for _ in range(1 - a):
                    if not acc:
                        break
                    acc = gens[x].commutator(acc)
                if acc:
                    return ("serre", x, y)
    for x, y, _ in p.plan:
        if not holds(x, y):
            return ("closure", x, y)
    return None


def check_structure_constants(rep, algebra_type):
    """One report line; its witness is _structure_witness's, if any."""
    report = VerificationReport()
    w = _structure_witness(rep, algebra_type)
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
    lam = _as_fracs(lam)
    signed = algebra_type == "B"
    roots, _, rho2 = _positive_roots(algebra_type, len(lam))
    rho = tuple(Fraction(x, 2) for x in rho2)
    return _reflect(lam) if signed else lam, roots, rho, signed


def _dot(x, y):
    # y a root: at most two nonzero entries
    return sum(a * b for a, b in zip(x, y) if b)


def weyl_dim(algebra_type, lam):
    """Weyl's product over the positive roots of (top + rho, alpha) /
    (rho, alpha), on ints: top + rho and rho are scaled by the lcm d of
    2 and the denominators of top (d = 2 on integral and half-integral
    weights), and the product of the factors' numerators is divided
    once by the product of their denominators."""
    lam = _as_fracs(lam)
    top = _reflect(lam) if algebra_type == "B" else lam
    _, supports, rho2 = _positive_roots(algebra_type, len(lam))
    d = lcm(2, *(x.denominator for x in top))
    h = d // 2
    shifted = [x.numerator * (d // x.denominator) + h * r
               for x, r in zip(top, rho2)]
    rho = [h * r for r in rho2]
    num = den = 1
    for i, j, s in supports:
        num *= shifted[i] + s * shifted[j]
        den *= rho[i] + s * rho[j]
    q, rem = divmod(num, den)
    if rem or q <= 0:
        raise ValueError("dimension formula gave %s for %s"
                         % (Fraction(num, den), lam))
    return q


# ----------------------------------------------------- branching


def _as_fracs(t):
    return tuple(Fraction(x) for x in t)


def branching_multiplicity(lam, mu):
    """Number of interleaving tuples between lam (rank n) and mu (rank n-1),
    counted per coordinate; 0 on parity mismatch or any empty interval."""
    lam = _as_fracs(lam)
    mu = _as_fracs(mu)
    n = len(lam)
    cls = (2 * lam[0]) % 2
    if any((2 * x) % 2 != cls for x in mu):
        return 0
    count = 1
    for i in range(n):
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
        if span.denominator != 1:
            raise ValueError("interval %s to %s is not integral; %s and %s "
                             "mix parity" % (lo, hi, lam, mu))
        count *= int(span) + 1
    return count


def _raising(rep, k):
    """The simple raising operators F(m-1,m), m = 1..k-1, of o(2k-1). A
    vector is highest for o(2k-1) when all of them annihilate it: every
    positive root vector is an iterated bracket of simple ones
    (Humphreys, Introduction to Lie Algebras and Representation Theory),
    so their common kernel is that of all (k-1)(2k-1) raising slots."""
    return [rep.gens[(m - 1, m)] for m in range(1, k)]


def check_branching(rep):
    """Exact highest-vector counts of the rank n-1 subalgebra per weight,
    against the interval counts, plus the global dimension identity. A
    count at a weight whose interval count is 0 (on a faulty module, a
    weight that need not be dominant for o(2n-1)) fails the first line
    and stays out of the dimension sum."""
    report = VerificationReport()
    n = rep.n
    groups = {}
    for c, w in enumerate(rep.weights):
        groups.setdefault(w[:n - 1], []).append(c)
    raising = _raising(rep, n)
    witness = None
    counts = {}
    for mu in sorted(groups):
        cols = groups[mu]
        got = len(nullspace(restricted_rows(raising, cols), len(cols)))
        want = branching_multiplicity(rep.lam, mu)
        if got and want:
            counts[mu] = got
        if got != want and witness is None:
            witness = (mu, got, want)
    report.add("subalgebra highest-vector counts match the interval counts",
               witness is None, witness)
    total = sum(c * weyl_dim("B", mu) for mu, c in counts.items())
    report.add("branching dimensions sum to the module dimension",
               total == rep.dim, None if total == rep.dim else (total, rep.dim))
    return report


# ------------------------------------------------------- Casimir


def casimir_scalar(rep, forms=None):
    """Sum of the products gen(i,j)gen(j,i) over the canonical slots
    (patterns.canonical_slots), on one int accumulator over forms =
    int_forms(rep) (made here when not given); raises unless exactly
    scalar, with the smallest off-scalar position and the remainder's
    value there as witness. gen(j,i) is canonical along with gen(i,j).
    For type B the mirror F(-j,-i)F(-i,-j) of each product equals it
    once antisymmetry holds, which the structure oracle checks first, so
    this is half the sum over all slots."""
    if forms is None:
        forms = int_forms(rep)
    den, nums = int_product_sum([(1, forms[(i, j)], forms[(j, i)])
                                 for (i, j) in canonical_slots(rep.gens)])
    t = nums.get((0, 0), 0)
    if not _is_scalar((den, nums), rep.dim, Fraction(t, den)):
        def rem(k):
            # the numerator of the sum minus its (0, 0) entry times 1
            return nums.get(k, 0) - t * (k[0] == k[1])
        key = min(k for k in set(nums) | {(c, c) for c in range(rep.dim)}
                  if rem(k))
        raise NonScalarError("Casimir sum is not scalar",
                             witness=(*key, Fraction(rem(key), den)))
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


def _joint_kernel(rep, k):
    # the o(2k-1) highest vectors: the common kernel of F(m-1,m), m < k
    return nullspace(restricted_rows(_raising(rep, k), range(rep.dim)),
                     rep.dim)


def _phi_witness(rep):
    """First level whose quadratic expression in built generators differs
    from the formula-built primed-lowering operator on that level's
    highest subspace, with a kernel vector as witness; None when all
    agree."""
    for k in range(1, rep.n + 1):
        quad = Operator(rep.dim) - (rep.gens[(0, k)]
                                    @ rep.gens[(0, k)]).scale(Fraction(1, 2))
        for i in range(1, k):
            quad = quad + rep.gens[(-k, i)] @ rep.gens[(i, k)]
        diff = quad - build_phi_minus(rep, k)
        if not diff:
            continue
        for v in _joint_kernel(rep, k):
            if diff.apply(v):
                return (k, sorted(v))
    return None


# ------------------------------------------------- report driver


def _is_scalar(form, dim, s):
    # the int form (den, {(row, col): int}) is s times the dim x dim
    # identity: every diagonal entry is s * den, zeros absent
    den, nums = form
    t = s * den
    return t.denominator == 1 and nums == (
        {(c, c): int(t) for c in range(dim)} if t else {})


def run_verification(rep, algebra_type, level="fast"):
    report = VerificationReport()
    report.extend(check_structure_constants(rep, algebra_type))
    dim = weyl_dim(algebra_type, rep.lam)
    report.add("basis size equals the Weyl dimension formula",
               rep.dim == dim, None if rep.dim == dim else (rep.dim, dim))

    witness = None
    for k in range(1, rep.n + 1):
        diag = rep.gens[(k, k)]
        want = {(c, c): w[k - 1] for c, w in enumerate(rep.weights)
                if w[k - 1]}
        if diag.ent != want:
            witness = ("diagonal", k)
            break
    if witness is None:
        h = rep.highest_index()
        for (i, j) in sorted(rep.gens):
            if i < j and rep.gens[(i, j)].column(h):
                witness = ("highest not annihilated", (i, j))
                break
    report.add("basis vectors are weight vectors and the top one is highest",
               witness is None, witness)

    if level == "full":
        if algebra_type == "B":
            report.extend(check_branching(rep))
        want = casimir_highest_value(algebra_type, rep.lam)
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
        if algebra_type == "B":
            del forms
        hist = {}
        for w_ in rep.weights:
            hist[w_] = hist.get(w_, 0) + 1
        freud = freudenthal_multiplicities(algebra_type, rep.lam)
        report.add("weight histogram matches the Freudenthal recursion",
                   hist == freud,
                   None if hist == freud else sorted(
                       set(hist.items()) ^ set(freud.items()))[:3])
        if algebra_type == "A":
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
                ok = all(r == c and v for (r, c), v in g.ent.items()) \
                    and len(g.ent) == rep.dim
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
