"""Sparse matrices over the rationals, plus the small eliminations the
verification layer needs. Stored entries are Fraction in every build
(deformed columns are reduced to their limits before they are stored).

An entry of a dim x dim matrix sits at one int, its row-major position
pos(row, col, dim) = row * dim + col, read back by rowcol, so increasing
positions are in (row, col) order. An Operator holds its entries packed:
an array('q') of strictly increasing positions and a list of the value
objects in the same order. It is made from a {position: value} dict
with no zero value, which it packs, and is never changed after that.
Readers iterate (position, value) pairs in order (items); a single
lookup (get) bisects. Only this module reads the encoding or the
layout; every other module goes through pos, rowcol and those readers.

Products run on integers, through one integer form of a matrix: a
triple (den, positions, ints) whose ints are the matrix's entries times
den, at the positions of the same packed layout, zeros absent. int_form
scales an Operator by the common denominator of its entries and shares
its positions. int_product_sum sums signed products of integer forms on
one int accumulator over the lcm of the terms' denominators and returns
an integer form again; nothing in it is reduced, so a chain of products
(a column determinant's row-subset expansion) stays on ints from operand
to result. int_form_operator turns an integer form back into an
Operator with one reduced Fraction per distinct value; product_sum is
int_product_sum between the two. Entries that cancel to zero are not
stored. Integer forms are made for one call or one verification run
and never kept on an Operator. Negation negates each distinct entry
object once. close, the one code that brackets module generators in a
build, takes its brackets on integer forms too."""
from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from operator import neg

from .exact import F0, F1


def pos(r, c, dim):
    """The position of entry (r, c) of a dim x dim matrix."""
    return r * dim + c


def rowcol(p, dim):
    """The (row, col) of position p of a dim x dim matrix."""
    return divmod(p, dim)


def _pack(ent):
    # the positions of a {position: value} dict in increasing order, as
    # an array('q'), and the values in that order
    keys = sorted(ent)
    return array("q", keys), list(map(ent.__getitem__, keys))


def _distinct(vals):
    # {id: object} of the distinct objects of vals, which the caller holds
    return dict(zip(map(id, vals), vals))


class Operator:
    """dim x dim matrix of the entries of a {pos(row, col, dim): value}
    dict with no zero value, packed (see the module docstring)."""

    __slots__ = ("dim", "_pos", "_val")

    def __init__(self, dim, ent=None):
        self.dim = dim
        self._pos, self._val = _pack(ent or {})

    @classmethod
    def _packed(cls, dim, positions, values):
        # an Operator over increasing positions and their nonzero values
        op = cls.__new__(cls)
        op.dim, op._pos, op._val = dim, positions, values
        return op

    def items(self):
        """The (position, value) pairs, in increasing position order."""
        return zip(self._pos, self._val)

    def keys(self):
        """The positions of the entries, increasing."""
        return iter(self._pos)

    def values(self):
        """The value objects, in position order."""
        return iter(self._val)

    def get(self, p, default=None):
        """The value at position p, or default when none is stored."""
        i = bisect_left(self._pos, p)
        if i < len(self._pos) and self._pos[i] == p:
            return self._val[i]
        return default

    def __len__(self):
        return len(self._val)

    def __bool__(self):
        return bool(self._val)

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return (self.dim == other.dim and self._pos == other._pos
                and self._val == other._val)

    def map_values(self, f):
        """The Operator with f(v) at every entry of value v, over the same
        positions. f is called once per distinct value object (keyed by
        id: self holds the objects, so their ids stay fixed meanwhile),
        so entries sharing an object share its image; f(v) must be
        nonzero."""
        vals = self._val
        made = {i: f(v) for i, v in _distinct(vals).items()}
        return Operator._packed(self.dim, self._pos,
                                list(map(made.__getitem__, map(id, vals))))

    def __neg__(self):
        return self.map_values(neg)

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        out = dict(self.items())
        for p, v in other.items():
            nv = out.get(p, F0) + v
            if nv:
                out[p] = nv
            else:
                out.pop(p, None)
        return Operator(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if not s:
            return Operator(self.dim)
        return self.map_values(lambda v: v * s)

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return product_sum(self.dim, [(1, self, other)])

    def commutator(self, other):
        return product_sum(self.dim, [(1, self, other), (-1, other, self)])

    def apply(self, vec):
        # vec: {index: value} -> {index: value}
        out = {}
        for p, v in self.items():
            r, c = rowcol(p, self.dim)
            if c in vec:
                nv = out.get(r, F0) + v * vec[c]
                if nv:
                    out[r] = nv
                else:
                    out.pop(r, None)
        return out

    def column(self, c):
        dim = self.dim
        return {p // dim: v for p, v in self.items() if p % dim == c}

    def __repr__(self):
        return "Operator(dim=%d, nnz=%d)" % (self.dim, len(self))


def int_form(op):
    """op as (den, positions, ints): den the lcm of its entries'
    denominators (1 for the zero operator), op's own positions, and each
    entry times den, one int per distinct value object."""
    vals = op._val
    objs = _distinct(vals)
    den = lcm(*{v.denominator for v in objs.values()})
    nums = {i: v.numerator * (den // v.denominator) for i, v in objs.items()}
    return den, op._pos, list(map(nums.__getitem__, map(id, vals)))


def packed_form(den, nums):
    """The int form (den, positions, ints) of nums, a {position: int}
    dict, whose zero entries are dropped in place first."""
    if 0 in nums.values():
        # in place: a filtered copy would hold the accumulator twice
        for p in [p for p, v in nums.items() if not v]:
            del nums[p]
    return (den, *_pack(nums))


def int_product_sum(dim, terms):
    """sum of s * (a @ b) over the (int s, int form a, int form b) in
    terms, dim x dim matrices, as an int form over the lcm of the terms'
    denominators. Terms with a zero operand are skipped; entries that
    cancel to zero are dropped."""
    parts = [(s, da * db, (pa, na), (pb, nb))
             for s, (da, pa, na), (db, pb, nb) in terms if na and nb]
    den = lcm(*(d for _, d, _, _ in parts))
    acc = {}
    for s, d, a, b in parts:
        _accumulate(acc, a, b, s * (den // d), dim)
    return packed_form(den, acc)


def int_form_operator(dim, form):
    """The Operator of an int form; equal entries share one Fraction."""
    den, positions, nums = form
    # int numerator over den -> its one Fraction
    vals = {v: Fraction(v, den) for v in set(nums)}
    return Operator._packed(dim, positions, list(map(vals.__getitem__, nums)))


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
        dim, [(s, forms[id(a)], forms[id(b)]) for s, a, b in terms]))


def _accumulate(acc, a, b, mult, dim):
    # acc += mult * (a @ b) on the (positions, ints) of two int forms,
    # grouping a by column: the product of entry (r, k) of a, at
    # position p, and entry (k, c) of b lands on (r, c), at p + c - k
    bycol = {}
    for p, v in zip(*a):
        bycol.setdefault(p % dim, []).append((p, v * mult))
    get = acc.get
    for p, bv in zip(*b):
        k, c = rowcol(p, dim)
        shift = c - k
        for ap, av in bycol.get(k, ()):
            key = ap + shift
            acc[key] = get(key, 0) + av * bv


class BracketTable(Mapping):
    """[X(a), X(b)] as {slot: coefficient}, keyed by (a, b) for every key
    of defs, the defining matrices X, each entry read off them when first
    asked for and then kept. slot_at maps a matrix position (pos) to the
    slot whose coefficient is read there: the defining matrices of those
    slots have disjoint supports and entry 1 at their own position, and
    every other defining matrix is one of them negated, or 0. So every
    defining entry is +-1, and each commutator is taken on those entries
    as ints, grouped by column and by row, and gives int coefficients;
    close brackets the module generators. An entry whose two defining
    matrices have no column of one meeting a row of the other is 0,
    answered without a product and not kept."""

    def __init__(self, defs, slot_at):
        self.defs = defs
        self.slot_at = slot_at
        self.known = {}
        # each defining matrix's entries as {col: [(row, int)]} and
        # {row: [(col, int)]}
        self.bycol, self.byrow = {}, {}
        for key, x in defs.items():
            bycol, byrow = self.bycol[key], self.byrow[key] = {}, {}
            for p, v in x.items():
                r, c = rowcol(p, x.dim)
                bycol.setdefault(c, []).append((r, int(v)))
                byrow.setdefault(r, []).append((c, int(v)))

    def canonical(self, key):
        """(slot, sign) with X(key) = sign * X(slot), or (None, 0) when
        X(key) = 0."""
        for p, v in self.defs[key].items():
            slot = self.slot_at.get(p)
            if slot is not None:
                return slot, int(v)
        return None, 0

    def __getitem__(self, key):
        terms = self.known.get(key)
        if terms is None:
            a, b = key
            if (self.bycol[a].keys().isdisjoint(self.byrow[b])
                    and self.bycol[b].keys().isdisjoint(self.byrow[a])):
                return {}  # XY = YX = 0
            acc = {}  # XY - YX at each slot's own position
            dim = self.defs[a].dim
            for x, y, s in ((a, b, 1), (b, a, -1)):
                rows = self.byrow[y]
                for k, left in self.bycol[x].items():
                    for c, w in rows.get(k, ()):
                        for r, v in left:
                            slot = self.slot_at.get(pos(r, c, dim))
                            if slot is not None:
                                acc[slot] = acc.get(slot, 0) + s * v * w
            terms = self.known[key] = {t: v for t, v in acc.items() if v}
        return terms

    def plan(self, reached, by):
        """One step (x, y, target) per slot of slot_at not in reached,
        whose entry [X(x), X(y)] is +-X(target) alone, found breadth
        first: the first layer brackets the slots of reached, sorted, and
        each later one the slots the layer before took, in the order it
        took them, each with every slot of by in order; a target is
        taken at its first such entry. A layer's brackets need not be
        read again later: what they reach is taken already. Raises
        ValueError when a slot is never reached."""
        layer = sorted(reached)
        todo = set(self.slot_at.values()).difference(layer)
        steps = []
        while todo:
            took = []
            for x in layer:
                for y in by:
                    terms = self[(x, y)]
                    if len(terms) == 1:
                        (target, c), = terms.items()
                        if target in todo and c in (1, -1):
                            todo.discard(target)
                            took.append(target)
                            steps.append((x, y, target))
            if not took:
                raise ValueError("slots %s are not reached by brackets "
                                 "with %s" % (sorted(todo), list(by)))
            layer = took
        return steps

    def __iter__(self):
        return ((a, b) for a in self.defs for b in self.defs)

    def __len__(self):
        return len(self.defs) ** 2


def close(table, seeds, by, dim):
    """Every slot of table as a dim x dim Operator, {slot: Operator},
    from seeds, {slot: Operator} on the module. Each seed is stored at its
    canonical slot (table.canonical), its sign carried. Each step (x, y,
    target) of table.plan from those slots by the slots of by stores
    X(target) = c [X(x), X(y)]: c is the table's +-1 times the sign of
    y's canonical slot, at which X(y) is read. A step is int_product_sum on
    the int forms of the two stored operands, made for that step alone,
    and every value stored, in a seed or a step, is the closure's one
    object of that value."""
    values = {}  # denominator -> {numerator: its one Fraction}

    def one(f):
        return values.setdefault(f.denominator, {}).setdefault(f.numerator, f)

    def bracket(c, x, y):
        a, b = int_form(known[x]), int_form(known[y])
        den, positions, nums = int_product_sum(dim, [(c, a, b), (-c, b, a)])
        made = {v: one(Fraction(v, den)) for v in set(nums)}
        return Operator._packed(dim, positions, list(map(made.__getitem__,
                                                         nums)))

    known = {}
    for slot, op in seeds.items():
        cs, sign = table.canonical(slot)
        known[cs] = op.map_values(lambda v: one(v if sign == 1 else -v))
    for x, y, target in table.plan(known, by):
        cy, sign = table.canonical(y)
        known[target] = bracket(table[(x, y)][target] * sign, x, cy)
    return known


# a fixed prime, 2^61 - 1, for ranks taken mod p before any exact rref
RANK_PRIME = (1 << 61) - 1


def rref(rows, modulus=None):
    """Reduced echelon form of sparse rows (dicts col->Fraction), or an
    echelon form of rows of ints over GF(modulus) when a prime modulus is
    given.

    Returns {pivot_col: row_dict} with each pivot row monic; over the
    rationals each is also fully reduced, over GF(modulus) it is not
    back-reduced, which leaves the rank (the number of pivots) the same.
    Deterministic for a fixed input order.
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
    # forward elimination over GF(p): entries are ints in [1, p), zeros
    # absent
    piv = {}
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = min(r)
            if c in piv:
                f = r[c]
                for cc, vv in piv[c].items():
                    nv = (r.get(cc, 0) - f * vv) % p
                    if nv:
                        r[cc] = nv
                    else:
                        r.pop(cc, None)
            else:
                inv = pow(r[c], -1, p)
                piv[c] = {cc: vv * inv % p for cc, vv in r.items()}
                break
    return piv


def rank_of(rows):
    return len(rref(rows))


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
