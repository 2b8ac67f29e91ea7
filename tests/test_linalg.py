"""Sparse operator arithmetic against a dense Fraction reference."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gtrep import Operator, pos, rowcol
from gtrep.linalg import (int_form, int_form_operator, int_product_sum,
                          product_sum)

# mixed denominators and both signs, so sums of products cancel often
values = st.sampled_from([Fraction(v) for v in
                          ("1", "-1", "1/2", "-1/2", "2/3", "-3/4", "5/6",
                           "-7")])


def operators(dim):
    cells = st.integers(0, dim * dim - 1)
    return st.dictionaries(cells, values, max_size=dim * dim).map(
        lambda ent: Operator(dim, ent))


operator_pairs = st.integers(1, 4).flatmap(
    lambda d: st.tuples(operators(d), operators(d)))


def dense(op):
    return [[op.ent.get(pos(r, c, op.dim), Fraction(0))
             for c in range(op.dim)] for r in range(op.dim)]


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
    assert op.ent == sparse(rows)
    assert all(type(v) is Fraction for v in op.ent.values())


@given(operator_pairs)
def test_product_matches_reference(pair):
    a, b = pair
    assert_matches(a @ b, naive_product(a, b))


@given(operator_pairs)
def test_commutator_matches_reference(pair):
    a, b = pair
    assert_matches(a.commutator(b),
                   naive_sum(naive_product(a, b), naive_product(b, a), -1))


@given(operator_pairs)
def test_sum_matches_reference(pair):
    a, b = pair
    assert_matches(a + b, naive_sum(dense(a), dense(b)))


# an operator and cells to add to it, each (row, col, value)
additions = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        operators(d),
        st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                           values))))


@given(additions)
def test_add_to_matches_reference(case):
    op, adds = case
    before = Operator(op.dim, dict(op.ent))
    want = dense(op)
    for r, c, v in adds:
        op.add_to(r, c, v)
        want[r][c] += v
        assert_matches(op, want)
    # undoing every addition cancels to the drawn entries, zeros dropped
    for r, c, v in reversed(adds):
        op.add_to(r, c, -v)
    assert op == before


vectors = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        operators(d), st.dictionaries(st.integers(0, d - 1), values)))


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
    assert (a @ b).ent == {}
    assert a.commutator(a).ent == {}
    assert Operator(2) @ a == Operator(2)


def _objects(op):
    return {id(v) for v in op.ent.values()}


@given(operator_pairs)
def test_equal_product_entries_are_one_object(pair):
    a, b = pair
    for op in (a @ b, a.commutator(b)):
        assert len(_objects(op)) == len(set(op.ent.values()))


@given(operator_pairs)
def test_negation_negates_each_source_object_once(pair):
    a, _ = pair
    # two keys on one object and a third on an equal but distinct object
    half = Fraction(1, 2)
    shared = Operator(3, {pos(0, 0, 3): half, pos(1, 1, 3): half,
                          pos(2, 2, 3): Fraction(2, 4)})
    for op in (a, shared, a @ a):
        neg = -op
        assert neg.ent == {k: -v for k, v in op.ent.items()}
        assert len(_objects(neg)) == len(_objects(op))
        for k, v in op.ent.items():
            for k2, v2 in op.ent.items():
                assert (v is v2) == (neg.ent[k] is neg.ent[k2])


# ------------------------------------------------ the integer form


def _as_fractions(form):
    den, nums = form
    return {k: Fraction(v, den) for k, v in nums.items()}


@given(st.integers(1, 4).flatmap(operators))
def test_int_form_scales_by_the_common_denominator(op):
    den, nums = int_form(op)
    assert all(type(v) is int and v for v in nums.values())
    assert all(den % v.denominator == 0 for v in op.ent.values())
    assert _as_fractions((den, nums)) == op.ent
    assert int_form_operator(op.dim, (den, nums)) == op


# each term is (sign, a, b); a term may be followed by its own negation,
# so whole products cancel, and either operand may be zero
signed_terms = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(st.sampled_from([1, -1, 2]),
                           st.one_of(operators(d), st.just(Operator(d))),
                           operators(d), st.booleans()),
                 max_size=4)))


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
    assert all(type(v) is int and v for v in form[1].values())
    assert _as_fractions(form) == sparse(want)
    op = product_sum(dim, terms)
    assert_matches(op, want)
    assert len(_objects(op)) == len(set(op.ent.values()))


def test_int_product_sum_of_nothing_or_zero_operands_is_zero():
    a = int_form(Operator(2, {pos(0, 1, 2): Fraction(1, 2)}))
    zero = int_form(Operator(2))
    assert zero == (1, {})
    assert int_product_sum(2, []) == (1, {})
    assert int_product_sum(2, [(1, zero, a), (1, a, zero)]) == (1, {})
    # a product that cancels entry by entry leaves nothing stored
    b = int_form(Operator(2, {pos(1, 0, 2): Fraction(2, 3)}))
    assert int_product_sum(2, [(1, a, b), (-1, a, b)])[1] == {}
