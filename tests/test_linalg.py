"""Sparse operator arithmetic against a dense Fraction reference."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gtrep import F1, Operator, gl_structure_table, pos, rowcol
from gtrep.linalg import (RANK_PRIME, close, int_form, int_form_operator,
                          int_product_sum, product_sum, rref)

# mixed denominators and both signs, so sums of products cancel often
values = st.sampled_from([Fraction(v) for v in
                          ("1", "-1", "1/2", "-1/2", "2/3", "-3/4", "5/6",
                           "-7")])


def entry_dicts(dim, min_size=0):
    # {position: value} dicts of a dim x dim matrix, zeros absent
    cells = st.integers(0, dim * dim - 1)
    return st.dictionaries(cells, values, min_size=min_size,
                           max_size=dim * dim)


def operators(dim):
    return entry_dicts(dim).map(lambda ent: Operator(dim, ent))


operator_pairs = st.integers(1, 4).flatmap(
    lambda d: st.tuples(operators(d), operators(d)))


def dense(op):
    # the reference reads entries in pair order only, never by lookup
    out = [[Fraction(0)] * op.dim for _ in range(op.dim)]
    for p, v in op.items():
        r, c = rowcol(p, op.dim)
        out[r][c] = v
    return out


def naive_product(a, b):
    n = a.dim
    x, y = dense(a), dense(b)
    out = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            for k in range(n):
                out[r][c] += x[r][k] * y[k][c]
    return out


def naive_sum(x, y, sign=1):
    return [[p + sign * q for p, q in zip(rx, ry)] for rx, ry in zip(x, y)]


def sparse(rows):
    return {pos(r, c, len(rows)): v for r, row in enumerate(rows)
            for c, v in enumerate(row) if v}


def assert_matches(op, rows):
    # op holds exactly the nonzero entries of rows, in increasing
    # position order, every value a Fraction
    want = sparse(rows)
    assert list(op.items()) == sorted(want.items())
    assert len(op) == len(want) and bool(op) == bool(want)
    assert all(type(v) is Fraction for v in op.values())


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.just(d), entry_dicts(d))))
def test_constructor_round_trip(case):
    # the pairs of Operator(dim, d) are the entries of d in increasing
    # position order, and they make the same Operator again
    dim, ent = case
    op = Operator(dim, ent)
    want = sorted(ent.items())
    assert list(op.items()) == want
    assert list(op.keys()) == [p for p, _ in want]
    assert list(op.values()) == [v for _, v in want]
    assert all(op.values())
    assert all(a < b for a, b in zip(op.keys(), itertools.islice(
        op.keys(), 1, None)))
    assert Operator(dim, dict(op.items())) == op
    assert dense(op) == [[ent.get(pos(r, c, dim), Fraction(0))
                          for c in range(dim)] for r in range(dim)]
    # each value object is the dict's own
    for p, v in op.items():
        assert v is ent[p]


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(entry_dicts(d, min_size=1), st.just(d))))
def test_lookup_at_first_last_and_missing_positions(case):
    ent, dim = case
    op = Operator(dim, ent)
    first, last = min(ent), max(ent)
    assert op.get(first) is ent[first]
    assert op.get(last) is ent[last]
    for p in range(dim * dim):
        if p in ent:
            assert op.get(p) is ent[p]
        else:
            assert op.get(p) is None and op.get(p, 0) == 0
    # before the first and after the last position of the whole matrix
    assert op.get(-1) is None and op.get(dim * dim) is None


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_empty_operator(dim):
    for op in (Operator(dim), Operator(dim, {}),
               Operator(dim, {pos(0, 0, dim): F1}) - Operator(
                   dim, {pos(0, 0, dim): F1})):
        assert not op and len(op) == 0
        assert list(op.items()) == [] and list(op.keys()) == []
        assert list(op.values()) == []
        assert op.get(0) is None and op.get(dim * dim - 1, 7) == 7
        assert op == Operator(dim) and op != Operator(dim + 1)
        assert -op == op and op + op == op and op - op == op
        assert op.scale(3) == op and op.scale(0) == op
        assert op @ op == op and op.commutator(op) == op
        assert op.apply({0: F1}) == {} and op.column(0) == {}
        assert dense(op) == [[Fraction(0)] * dim for _ in range(dim)]


@settings(deadline=None)
@given(operator_pairs)
def test_product_matches_reference(pair):
    a, b = pair
    assert_matches(a @ b, naive_product(a, b))


@settings(deadline=None)
@given(operator_pairs)
def test_commutator_matches_reference(pair):
    a, b = pair
    assert_matches(a.commutator(b),
                   naive_sum(naive_product(a, b), naive_product(b, a), -1))


@settings(deadline=None)
@given(operator_pairs)
def test_sum_matches_reference(pair):
    a, b = pair
    assert_matches(a + b, naive_sum(dense(a), dense(b)))


@settings(deadline=None)
@given(operator_pairs)
def test_difference_matches_reference(pair):
    a, b = pair
    assert_matches(a - b, naive_sum(dense(a), dense(b), -1))
    assert_matches(a - a, naive_sum(dense(a), dense(a), -1))


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(operators))
def test_negation_matches_reference(op):
    assert_matches(-op, [[-v for v in row] for row in dense(op)])


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(operators),
       st.one_of(values, st.just(Fraction(0)), st.just(3)))
def test_scale_matches_reference(op, s):
    assert_matches(op.scale(s), [[v * s for v in row] for row in dense(op)])


vectors = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        operators(d), st.dictionaries(st.integers(0, d - 1), values)))


@settings(deadline=None)
@given(vectors)
def test_apply_matches_reference(case):
    op, vec = case
    x = dense(op)
    want = {}
    for r in range(op.dim):
        v = sum((x[r][c] * w for c, w in vec.items()), Fraction(0))
        if v:
            want[r] = v
    assert op.apply(vec) == want


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(operators))
def test_column_matches_reference(op):
    x = dense(op)
    for c in range(op.dim):
        assert op.column(c) == {r: x[r][c] for r in range(op.dim)
                                if x[r][c]}


@pytest.mark.parametrize("dim", [1, 2, 3, 1386, 4992])
def test_pos_and_rowcol_round_trip_at_rows_and_columns_0_and_dim_1(dim):
    # the first and last row and column: the keys stay in
    # range(dim * dim), and each one maps back to its cell
    edges = sorted({0, dim - 1})
    for r, c in itertools.product(edges, repeat=2):
        p = pos(r, c, dim)
        assert type(p) is int and 0 <= p < dim * dim
        assert rowcol(p, dim) == (r, c)
    assert pos(0, 0, dim) == 0 and pos(dim - 1, dim - 1, dim) == dim * dim - 1


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_keys_are_row_major(dim):
    # every key of range(dim * dim) is one cell, and sorted keys are the
    # cells in (row, col) order, which the writers' output order relies on
    cells = list(itertools.product(range(dim), repeat=2))
    assert [rowcol(p, dim) for p in range(dim * dim)] == cells
    assert [pos(r, c, dim) for r, c in cells] == list(range(dim * dim))


def test_cancelling_products_are_not_stored():
    a = Operator(2, {pos(0, 0, 2): Fraction(1, 2),
                     pos(0, 1, 2): Fraction(1, 3)})
    b = Operator(2, {pos(0, 0, 2): Fraction(2, 3),
                     pos(1, 0, 2): Fraction(-1)})
    assert list((a @ b).items()) == []
    assert list(a.commutator(a).items()) == []
    assert Operator(2) @ a == Operator(2)


def _objects(op):
    return {id(v) for v in op.values()}


@settings(deadline=None)
@given(operator_pairs)
def test_equal_product_entries_are_one_object(pair):
    a, b = pair
    for op in (a @ b, a.commutator(b)):
        assert len(_objects(op)) == len(set(op.values()))


@settings(deadline=None)
@given(operator_pairs)
def test_negation_negates_each_source_object_once(pair):
    a, _ = pair
    # two keys on one object and a third on an equal but distinct object
    half = Fraction(1, 2)
    shared = Operator(3, {pos(0, 0, 3): half, pos(1, 1, 3): half,
                          pos(2, 2, 3): Fraction(2, 4)})
    for op in (a, shared, a @ a):
        neg = -op
        assert dict(neg.items()) == {k: -v for k, v in op.items()}
        assert len(_objects(neg)) == len(_objects(op))
        for k, v in op.items():
            for k2, v2 in op.items():
                assert (v is v2) == (neg.get(k) is neg.get(k2))


# ------------------------------------------------ the integer form


def _as_fractions(form):
    # the {position: Fraction} of an int form, its positions increasing
    den, positions, nums = form
    assert len(positions) == len(nums)
    assert list(positions) == sorted(set(positions))
    return {k: Fraction(v, den) for k, v in zip(positions, nums)}


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(operators))
def test_int_form_scales_by_the_common_denominator(op):
    den, positions, nums = int_form(op)
    assert all(type(v) is int and v for v in nums)
    assert all(den % v.denominator == 0 for v in op.values())
    assert _as_fractions((den, positions, nums)) == dict(op.items())
    assert int_form_operator(op.dim, (den, positions, nums)) == op


# each term is (sign, a, b); a term may be followed by its own negation,
# so whole products cancel, and either operand may be zero
signed_terms = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(st.sampled_from([1, -1, 2]),
                           st.one_of(operators(d), st.just(Operator(d))),
                           operators(d), st.booleans()),
                 max_size=4)))


@settings(deadline=None)
@given(signed_terms)
def test_int_product_sum_matches_reference(case):
    dim, drawn = case
    terms = []
    for s, a, b, cancel in drawn:
        terms.append((s, a, b))
        if cancel:
            terms.append((-s, a, b))
    want = [[Fraction(0)] * dim for _ in range(dim)]
    for s, a, b in terms:
        prod = naive_product(a, b)
        want = naive_sum(want, prod, s)
    form = int_product_sum(dim, [(s, int_form(a), int_form(b))
                                 for s, a, b in terms])
    assert all(type(v) is int and v for v in form[2])
    assert _as_fractions(form) == sparse(want)
    op = product_sum(dim, terms)
    assert_matches(op, want)
    assert len(_objects(op)) == len(set(op.values()))


def test_int_product_sum_of_nothing_or_zero_operands_is_zero():
    a = int_form(Operator(2, {pos(0, 1, 2): Fraction(1, 2)}))
    zero = int_form(Operator(2))
    assert _as_fractions(zero) == {} and zero[0] == 1
    assert _as_fractions(int_product_sum(2, [])) == {}
    assert int_product_sum(2, [])[0] == 1
    got = int_product_sum(2, [(1, zero, a), (1, a, zero)])
    assert _as_fractions(got) == {} and got[0] == 1
    # a product that cancels entry by entry leaves nothing stored
    b = int_form(Operator(2, {pos(1, 0, 2): Fraction(2, 3)}))
    got = int_product_sum(2, [(1, a, b), (-1, a, b)])
    assert list(got[1]) == [] and got[2] == []


# sparse int rows of at most 6 columns, entries in [-9, 9], zeros absent:
# every minor is below 10^9 by Hadamard's bound, so none is a nonzero
# multiple of RANK_PRIME and the rank mod p is the rank over Q
int_rows = st.lists(st.dictionaries(
    st.integers(0, 5), st.integers(-9, 9).filter(bool), max_size=6),
    max_size=7)


@settings(deadline=None)
@given(int_rows)
def test_rank_mod_p_matches_exact_rank(rows):
    piv = rref(rows, modulus=RANK_PRIME)
    assert len(piv) == len(rref([{c: Fraction(v) for c, v in r.items()}
                                 for r in rows]))
    # an echelon form: each pivot row monic, starting at its pivot column
    for c, row in piv.items():
        assert min(row) == c and row[c] == 1
        assert all(0 < v < RANK_PRIME for v in row.values())


def test_rank_mod_p_drops_a_row_that_p_divides():
    # p divides every entry of the first row, which vanishes mod p
    p = RANK_PRIME
    rows = [{0: p, 1: 2 * p}, {1: 3}]
    assert len(rref(rows, modulus=p)) == 1
    assert len(rref([{c: Fraction(v) for c, v in r.items()}
                      for r in rows])) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_close_rebuilds_the_elementary_matrices_from_their_seeds(n):
    # the diagonal and simple E(i,j) of gl(n) as seeds, bracketed by the
    # simple ones, give back every E(i,j), all of their entries one object
    table = gl_structure_table(n)
    simple = [s for k in range(1, n) for s in ((k, k + 1), (k + 1, k))]
    seeds = {s: table.defs[s]
             for s in [(k, k) for k in range(1, n + 1)] + simple}
    got = close(table, seeds, simple, n)
    assert got == table.defs
    assert len({id(v) for op in got.values() for v in op.values()}) == 1
