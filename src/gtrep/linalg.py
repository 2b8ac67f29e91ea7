"""Sparse matrices over the rationals, plus the small eliminations the
verification layer needs. Stored entries are Fraction in every build
(deformed columns are reduced to their limits before they are stored).

Products run on integers, through one integer form of a matrix: a pair
(den, {(row, col): int}) whose entries are the matrix's entries times
den, zeros absent. int_form scales an Operator by the common denominator
of its entries. int_product_sum sums signed products of integer forms on
one int accumulator over the lcm of the terms' denominators and returns
an integer form again; nothing in it is reduced, so a chain of products
(a column determinant's row-subset expansion) stays on ints from operand
to result. int_form_operator turns an integer form back into an
Operator with one reduced Fraction per distinct value; product_sum is
int_product_sum between the two. Entries that cancel to zero are not
stored. Integer forms are made for one call or one verification run and
never kept on an Operator, so an entry changed in place is always seen.
Negation negates each distinct entry object once."""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

F0 = Fraction(0)
F1 = Fraction(1)


class Operator:
    """dim x dim matrix stored as {(row, col): value}, zero entries absent."""

    __slots__ = ("dim", "ent")

    def __init__(self, dim, ent=None):
        self.dim = dim
        self.ent = {} if ent is None else ent

    def add_to(self, r, c, v):
        # accumulate one entry, dropping exact zeros
        key = (r, c)
        nv = self.ent.get(key, F0) + v
        if nv:
            self.ent[key] = nv
        else:
            self.ent.pop(key, None)

    def __bool__(self):
        return bool(self.ent)

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.dim == other.dim and self.ent == other.ent

    def __neg__(self):
        # each distinct entry object is negated once, keyed by id: self
        # holds the objects, so their ids stay fixed meanwhile
        neg = {}
        out = {}
        for k, v in self.ent.items():
            m = neg.get(id(v))
            if m is None:
                m = neg[id(v)] = -v
            out[k] = m
        return Operator(self.dim, out)

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        out = dict(self.ent)
        for k, v in other.ent.items():
            nv = out.get(k, F0) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return Operator(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if not s:
            return Operator(self.dim)
        return Operator(self.dim, {k: v * s for k, v in self.ent.items()})

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return product_sum(self.dim, [(1, self, other)])

    def commutator(self, other):
        return product_sum(self.dim, [(1, self, other), (-1, other, self)])

    def apply(self, vec):
        # vec: {index: value} -> {index: value}
        out = {}
        for (r, c), v in self.ent.items():
            if c in vec:
                nv = out.get(r, F0) + v * vec[c]
                if nv:
                    out[r] = nv
                else:
                    out.pop(r, None)
        return out

    def column(self, c):
        return {r: v for (r, cc), v in self.ent.items() if cc == c}

    def __repr__(self):
        return "Operator(dim=%d, nnz=%d)" % (self.dim, len(self.ent))


def int_form(op):
    """op as (den, {(row, col): int numerator over den}), den the lcm of
    its entries' denominators (1 for the zero operator)."""
    den = lcm(*(v.denominator for v in op.ent.values()))
    return den, {k: v.numerator * (den // v.denominator)
                 for k, v in op.ent.items()}


def int_product_sum(terms):
    """sum of s * (a @ b) over the (int s, int form a, int form b) in
    terms, as an int form over the lcm of the terms' denominators.
    Terms with a zero operand are skipped; entries that cancel to zero
    are dropped."""
    parts = [(s, da * db, na, nb)
             for s, (da, na), (db, nb) in terms if na and nb]
    den = lcm(*(d for _, d, _, _ in parts))
    acc = {}
    for s, d, na, nb in parts:
        _accumulate(acc, na, nb, s * (den // d))
    if 0 in acc.values():
        # in place: a filtered copy would hold the accumulator twice
        for k in [k for k, v in acc.items() if not v]:
            del acc[k]
    return den, acc


def int_form_operator(dim, form):
    """The Operator of an int form; equal entries share one Fraction."""
    den, nums = form
    vals = {}  # int numerator over den -> its one Fraction
    ent = {}
    for k, v in nums.items():
        f = vals.get(v)
        if f is None:
            f = vals[v] = Fraction(v, den)
        ent[k] = f
    return Operator(dim, ent)


def product_sum(dim, terms):
    """sum of s * (a @ b) over the (int s, Operator a, Operator b) in
    terms: int_product_sum on the operands' int forms, each operand
    scaled once however often it occurs. Equal entries of the result
    share one Fraction."""
    forms = {}  # by id: the operands are alive for the whole call
    for _, a, b in terms:
        for op in (a, b):
            if id(op) not in forms:
                forms[id(op)] = int_form(op)
    return int_form_operator(dim, int_product_sum(
        [(s, forms[id(a)], forms[id(b)]) for s, a, b in terms]))


def _accumulate(acc, a, b, mult):
    # acc += mult * (a @ b) on int numerator dicts, grouping a by column
    bycol = {}
    for (r, k), v in a.items():
        bycol.setdefault(k, []).append((r, v * mult))
    get = acc.get
    for (k, c), bv in b.items():
        for r, av in bycol.get(k, ()):
            key = (r, c)
            acc[key] = get(key, 0) + av * bv


class BracketTable(Mapping):
    """[X(a), X(b)] as {slot: coefficient}, keyed by (a, b) for every key
    of defs, the defining matrices X, each entry read off them when first
    asked for and then kept. slot_at maps a matrix position to the slot
    whose coefficient is read there: the defining matrices of those slots
    have disjoint supports and entry 1 at their own position, and every
    other defining matrix is one of them negated, or 0. The commutators
    are taken with product_sum; Operator.commutator is left to brackets
    of module generators."""

    def __init__(self, defs, slot_at):
        self.defs = defs
        self.slot_at = slot_at
        self.known = {}

    def canonical(self, key):
        """(slot, sign) with X(key) = sign * X(slot), or (None, 0) when
        X(key) = 0."""
        for pos, v in self.defs[key].ent.items():
            slot = self.slot_at.get(pos)
            if slot is not None:
                return slot, int(v)
        return None, 0

    def __getitem__(self, key):
        terms = self.known.get(key)
        if terms is None:
            x, y = self.defs[key[0]], self.defs[key[1]]
            comm = product_sum(x.dim, [(1, x, y), (-1, y, x)])
            terms = {}
            for pos, v in comm.ent.items():
                slot = self.slot_at.get(pos)
                if slot is not None:
                    terms[slot] = v
            self.known[key] = terms
        return terms

    def __iter__(self):
        return ((a, b) for a in self.defs for b in self.defs)

    def __len__(self):
        return len(self.defs) ** 2


# a fixed prime, 2^61 - 1, for ranks taken mod p before any exact rref
RANK_PRIME = (1 << 61) - 1


def rref(rows, modulus=None):
    """Reduced echelon form of sparse rows (dicts col->Fraction), or of
    rows of ints over GF(modulus) when a prime modulus is given.

    Returns {pivot_col: row_dict} with each pivot row monic and fully
    reduced. Deterministic for a fixed input order.
    """
    if modulus is not None:
        return _rref_mod(rows, modulus)
    piv = {}
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            if c in piv:
                f = r[c]
                for cc, vv in piv[c].items():
                    nv = r.get(cc, F0) - f * vv
                    if nv:
                        r[cc] = nv
                    else:
                        r.pop(cc, None)
            else:
                inv = 1 / r[c]
                piv[c] = {cc: vv * inv for cc, vv in r.items()}
                break
    # back substitution
    for c in sorted(piv, reverse=True):
        pr = piv[c]
        for c2 in piv:
            if c2 >= c:
                continue
            row2 = piv[c2]
            if c not in row2:
                continue
            f = row2[c]
            for cc, vv in pr.items():
                nv = row2.get(cc, F0) - f * vv
                if nv:
                    row2[cc] = nv
                else:
                    row2.pop(cc, None)
    return piv


def _rref_mod(rows, p):
    # rref over GF(p): entries are ints in [1, p), zeros absent
    piv = {}
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = min(r)
            if c in piv:
                _subtract_mod(r, r[c], piv[c], p)
            else:
                inv = pow(r[c], -1, p)
                piv[c] = {cc: vv * inv % p for cc, vv in r.items()}
                break
    for c in sorted(piv, reverse=True):
        for c2, row2 in piv.items():
            if c2 < c and c in row2:
                _subtract_mod(row2, row2[c], piv[c], p)
    return piv


def _subtract_mod(r, f, pr, p):
    # r -= f * pr over GF(p), in place
    for cc, vv in pr.items():
        nv = (r.get(cc, 0) - f * vv) % p
        if nv:
            r[cc] = nv
        else:
            r.pop(cc, None)


def rank_of(rows):
    return len(rref(rows))


def restricted_rows(ops, cols):
    """The rows of every operator in ops restricted to the columns cols,
    each as a sparse row {position in cols: value}: the system whose
    nullspace(rows, len(cols)) is the common kernel on those columns."""
    pos = {c: t for t, c in enumerate(cols)}
    rows = []
    for op in ops:
        byrow = {}
        for (r, c), v in op.ent.items():
            t = pos.get(c)
            if t is not None:
                byrow.setdefault(r, {})[t] = v
        rows.extend(byrow.values())
    return rows


def nullspace(rows, ncols):
    """Deterministic basis of the kernel of the stacked row system."""
    piv = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in piv:
            continue
        v = {fc: F1}
        for c, row in piv.items():
            if fc in row:
                v[c] = -row[fc]
        basis.append(v)
    return basis
