"""Odd orthogonal generator matrices: coefficients, limits, closure."""

from fractions import Fraction

import pytest

from conftest import (A_CORPUS, B_CORPUS, all_gens, all_slots, closure_steps,
                      count_calls, deformed_raise, edited, fresh_so_rep,
                      full_valid, gl_rep, ref_build_f_raise,
                      ref_lower_step_terms, ref_plan, ref_prime_drop_terms,
                      ref_sig_case_terms, ref_single_step, so_rep)
from gtrep import (
    Operator,
    PatternB,
    Rep,
    check_weight_so,
    defining_operators,
    enumerate_patterns_b,
    pos,
    rowcol,
    structure_table,
)
from gtrep import linalg, sorep
from gtrep.linalg import BracketTable
from gtrep.sorep import (
    DEFORMED,
    PLAIN,
    ConstructionError,
    build_f_lower,
    build_f_raise,
    build_phi_minus,
    close_generators,
    _single_step,
    _sig_case_terms,
    lower_step_terms,
    mid_row_prefactor,
    prime_drop_terms,
    prime_drop_weight,
    prime_shift_weight,
    raise_column_terms,
)


def seeds(n):
    # the seed slots of a type B closure: F(k,k), F(k-1,-k), F(k-1,k)
    return [s for k in range(1, n + 1)
            for s in ((k, k), (k - 1, -k), (k - 1, k))]


def hand_bracket(n, a, b, c, d):
    # [F(a,b), F(c,d)] in o(2n+1) as {canonical slot: coefficient}, by the
    # rule F(a,b) = E(a,b) - E(-b,-a) applied to products of matrix units
    raw = []
    if b == c:
        raw.append(((a, d), 1))
    if d == a:
        raw.append(((c, b), -1))
    if b == -d:
        raw.append(((c, -a), 1))
    if a == -c:
        raw.append(((-d, b), 1))
    out = {}
    canon = structure_table(n).canonical
    for slot, coef in raw:
        cs, sgn = canon(slot)
        if cs is None:
            continue
        out[cs] = out.get(cs, 0) + sgn * coef
    return {s: Fraction(v) for s, v in out.items() if v}

def basis_of(w):
    lam = check_weight_so(w)
    return Rep(lam, enumerate_patterns_b(lam))


class TestCoefficients:
    # rank 2 array whose level 1 row is (-1), so the level 1 content is -3/2
    pat2 = PatternB([0, 0], [(-1,), (0, -1)], [(-1,), (0, -1)])

    def test_mid_row_prefactor_inner_slot(self):
        got = PLAIN.value(*mid_row_prefactor(self.pat2, 2, 1))
        assert got == Fraction(-1, 3)

    def test_mid_row_prefactor_zero_slot(self):
        got = PLAIN.value(*mid_row_prefactor(self.pat2, 2, 0))
        assert got == Fraction(-1, 2)

    def test_mid_row_prefactor_deformed_zero_slot(self):
        # level 1 row (0,) puts the content at -1/2, colliding with the
        # fixed slot; only the deformed value is finite
        pat = PatternB([0, 0], [(0,), (0, 0)], [(0,), (0, 0)])
        got = DEFORMED.value(*mid_row_prefactor(pat, 2, 0))
        # 1/(t(1-t)) = t^-1 + 1 + O(t)
        assert (got.lo, got.c) == (-1, (1, 1))

    def test_prime_shift_rank_one_is_unity(self):
        pat = PatternB([0], [(-1,)], [(-1,)])
        # x = 7 as the factor (14, 0)
        assert PLAIN.value(*prime_shift_weight(pat, 1, 1, (14, 0))) == 1

    def test_prime_shift_rank_two_values(self):
        # primed contents (-1/2, -5/2); x = -3/2 as the factor (-3, 0)
        x = (-3, 0)
        w1 = PLAIN.value(*prime_shift_weight(self.pat2, 2, 1, x))
        w2 = PLAIN.value(*prime_shift_weight(self.pat2, 2, 2, x))
        assert (w1, w2) == (Fraction(3, 2), Fraction(1, 2))

    def test_prime_drop_cases(self):
        spinor = PatternB([0], [("-1/2",)], [("-1/2",)])
        assert PLAIN.value(*prime_drop_weight(spinor, 1, 1)) == 0
        mid = PatternB([0], [(-1,)], [(0,)])
        assert PLAIN.value(*prime_drop_weight(mid, 1, 1)) == 1
        top = PatternB([1], [(-1,)], [(-1,)])
        assert PLAIN.value(*prime_drop_weight(top, 1, 1)) == 0


class TestVectorModule:
    def test_diagonal_eigenvalues(self):
        b = basis_of(("-1",))
        assert dict(b.diagonal(1).items()) == {
            pos(0, 0, 3): Fraction(-1), pos(1, 1, 3): Fraction(1)}

    def test_primed_drop_matrix(self):
        b = basis_of(("-1",))
        assert dict(build_phi_minus(b, 1).items()) == {
            pos(0, 1, 3): Fraction(1, 2)}

    def test_parametric_drop_matrix(self):
        b = basis_of(("-1",))
        got = ref_single_step(b, 1, lower_step_terms, Fraction(2))
        assert dict(got.items()) == {pos(2, 0, 3): Fraction(-2),
                                 pos(1, 2, 3): Fraction(2, 3)}

    def test_single_step_zero_denominator_is_construction_error(self):
        # t/t is 0/0 in plain arithmetic; one-step generators never take
        # the deformed route, so this is a hard failure with a location
        b = basis_of(("-1",))

        def ratio(pat, k, valid):
            t = (0, 1)  # the factor t, zero at t = 0
            return [(pat, [t], [t], 1)]
        with pytest.raises(ConstructionError,
                           match="level 1 column 0 target 0"):
            _single_step(b, 1, ratio)

    def test_mixed_lowering_matrix(self):
        b = basis_of(("-1",))
        assert dict(build_f_lower(b, 1).items()) == {
            pos(2, 0, 3): Fraction(-1), pos(1, 2, 3): Fraction(1)}

    def test_raising_matrix(self):
        b = basis_of(("-1",))
        assert dict(build_f_raise(b, 1).items()) == {
            pos(2, 1, 3): Fraction(-1), pos(0, 2, 3): Fraction(1)}


class TestSpinorModule:
    def test_raising_sends_primed_to_plain(self):
        b = basis_of(("-1/2",))
        assert dict(build_f_raise(b, 1).items()) == {
            pos(0, 1, 2): Fraction(1, 2)}

    def test_primed_drop_vanishes(self):
        b = basis_of(("-1/2",))
        assert not build_phi_minus(b, 1)

    def test_diagonal(self):
        b = basis_of(("-1/2",))
        assert dict(b.diagonal(1).items()) == {
            pos(0, 0, 2): Fraction(-1, 2), pos(1, 1, 2): Fraction(1, 2)}


class TestBrackets:
    def test_raise_lower_bracket_gives_diagonal(self):
        r = so_rep(("-1",))
        got = r.gen(0, 1).commutator(r.gen(0, -1))
        want = Operator(r.dim)
        for slot, coef in structure_table(1)[((0, 1), (0, -1))].items():
            want = want + r.gen(*slot).scale(coef)
        assert got == want

    def test_table_antisymmetry(self):
        tab = structure_table(2)
        for a in range(-2, 3):
            for b in range(-2, 3):
                lhs = tab[((a, b), (b, a))]
                rhs = tab[((b, a), (a, b))]
                assert lhs == {s: -v for s, v in rhs.items()}

    def test_table_validates_against_elementary_matrices(self):
        # the table read off the defining module is the hand rule, and it
        # rebuilds every commutator of the defining matrices
        for n in (1, 2, 3):
            defs = defining_operators(n)
            tab = structure_table(n)
            assert set(tab) == {(ab, cd) for ab in defs for cd in defs}
            for (ab, cd), terms in tab.items():
                assert terms == hand_bracket(n, *ab, *cd), (n, ab, cd)
                want = Operator(2 * n + 1)
                for slot, coef in terms.items():
                    want = want + defs[slot].scale(coef)
                assert defs[ab].commutator(defs[cd]) == want, (n, ab, cd)

    def test_table_entries_are_computed_on_demand(self):
        # a new table per call
        tab = structure_table(3)
        assert len(tab) == 7 ** 4 and not tab.known
        key = ((0, 1), (1, 2))
        assert tab[key] == hand_bracket(3, 0, 1, 1, 2)
        assert list(tab.known) == [key]
        assert dict(tab) == dict(structure_table(3))
        # the zero entries answered without a product are not kept
        nonzero = {k for k, terms in tab.items() if terms}
        assert {k for k, terms in tab.known.items() if terms} == nonzero
        assert len(nonzero) <= len(tab.known) < len(tab)

    def test_disjoint_supports_answer_zero_and_are_not_kept(self):
        # F(-3,-2) has rows {-3, 2} and columns {-2, 3}, F(0,1) rows
        # {-1, 0} and columns {0, 1}: both products are 0
        tab = structure_table(3)
        assert tab[((-3, -2), (0, 1))] == {} == hand_bracket(3, -3, -2, 0, 1)
        assert not tab.known
        # a bracket whose supports meet is kept, 0 or not: column 0 of
        # F(0,1) meets its own row 0
        keys = [((0, 1), (1, 2)), ((0, 1), (0, 1))]
        for key in keys:
            assert tab[key] == hand_bracket(3, *key[0], *key[1])
        assert list(tab.known) == keys and tab.known[keys[1]] == {}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_table_coefficient_is_plus_or_minus_one(self, n):
        # close_generators stores each commutator, or its negation, unscaled
        for terms in structure_table(n).values():
            assert set(terms.values()) <= {1, -1}

    @pytest.mark.parametrize("n", [2, 3])
    def test_plan_never_steps_on_a_coefficient_other_than_one(
            self, n, monkeypatch):
        # a fresh table over the same defining matrices and canonical
        # slots, with the entry of the real plan's first step replaced:
        # the plan goes round it, and the closure still rebuilds the
        # defining module
        real, plan = closure_steps("B", n)
        x, y, target = plan[0]
        tab = BracketTable(real.defs, real.slot_at)
        tab.known[(x, y)] = {target: 2}
        monkeypatch.setattr(sorep, "structure_table", lambda n: tab)
        plan = tab.plan({tab.canonical(s)[0] for s in seeds(n)},
                        [s for s in seeds(n) if s[0] != s[1]])
        assert (x, y, target) not in plan
        assert target in [t for _, _, t in plan]
        defs = defining_operators(n)
        got = close_generators(n, {s: defs[s] for s in seeds(n)}, 2 * n + 1)
        assert got == {s: op for s, op in defs.items() if sum(s) <= 0}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closure_plan_reaches_every_stored_slot_once(self, n):
        # from the seeds' canonical slots, through +-1 single-slot
        # brackets with the non-Cartan seeds, each remaining canonical
        # slot i + j < 0 once: the full-rescan search's plan
        by = [s for s in seeds(n) if s[0] != s[1]]
        tab, plan = closure_steps("B", n)
        seeds_at = {tab.canonical(s)[0] for s in seeds(n)}
        targets = [t for _, _, t in plan]
        assert len(set(targets)) == len(targets) == 2 * n * (n - 1)
        assert seeds_at.isdisjoint(targets)
        assert seeds_at | set(targets) == {
            (i, j) for i in range(-n, n + 1) for j in range(-n, n + 1)
            if i + j < 0}
        reached = set(seeds_at)
        for x, y, target in plan:
            assert x in reached and y in by
            assert tab[(x, y)] in ({target: 1}, {target: -1})
            reached.add(target)
        assert plan == ref_plan(tab, seeds_at, by)

    def test_plan_raises_on_an_unreached_slot(self):
        # Cartan slots bracket to 0 with each other
        tab = structure_table(2)
        with pytest.raises(ValueError, match="not reached"):
            tab.plan({(-1, -1), (-2, -2)}, [(1, 1), (2, 2)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closure_runs_one_commutator_per_missing_slot(self, n,
                                                          monkeypatch):
        # seeded from the defining module, the closure's bracket plan must
        # rebuild every stored slot of it, i + j <= 0, with 2n(n-1)
        # products of linalg.close and no Operator.commutator
        defs = defining_operators(n)
        products = count_calls(monkeypatch, linalg, "int_product_sum")
        commutators = count_calls(monkeypatch, Operator, "commutator")
        got = close_generators(n, {s: defs[s] for s in seeds(n)}, 2 * n + 1)
        assert len(products) == 2 * n * (n - 1) and not commutators
        assert got == {s: op for s, op in defs.items() if sum(s) <= 0}

    @pytest.mark.parametrize("w", [("-1", "-1", "-2"),
                                   ("-1/2", "-3/2", "-5/2")])
    def test_closure_keeps_one_object_per_value(self, w):
        # every value the closure stores, in the seeds and the bracketed
        # slots, is the build's one object of it
        r = so_rep(w)
        stored = [v for op in r.gens.values() for v in op.values()]
        assert len({id(v) for v in stored}) == len(set(stored))

    @pytest.mark.parametrize("w", [("-1", "-1", "-2"),
                                   ("-1/2", "-3/2", "-5/2")] + B_CORPUS
                             + A_CORPUS)
    def test_shared_values_keep_the_bracket_plan(self, w):
        # each bracketed slot, its values taken from the shared objects,
        # is still the table's +-Operator.commutator of the step that
        # made it; a type A module (int weight entries) closes too
        r = so_rep(w) if isinstance(w[0], str) else gl_rep(w)
        tab, plan = closure_steps(r.algebra, r.n)
        for x, y, target in plan:
            # [X(x), X(y)] = coef * X(target), target a canonical slot
            ((cs, coef),) = tab[(x, y)].items()
            assert cs == target
            got = r.gen(*x).commutator(r.gen(*y))
            assert r.gens[target] == got.scale(coef), target

    @pytest.mark.parametrize("w", [("-1", "-1", "-2"),
                                   ("-1/2", "-3/2", "-5/2")] + B_CORPUS
                             + A_CORPUS)
    def test_mirror_slots_are_negated_entry_by_entry(self, w):
        # every slot read through gen, stored or not, and through the slot
        # iterator and the stored-or-mirror lookup the writers read; a
        # type A module (int weight entries) stores every slot
        r = so_rep(w) if isinstance(w[0], str) else gl_rep(w)
        assert list(r.slots()) == all_slots(r.algebra, r.n)
        for i, j in r.slots():
            op, sign = r.stored(i, j)
            assert r.gens[(i, j) if sign == 1 else (-j, -i)] is op
            assert r.gen(i, j) == (op if sign == 1 else -op), (i, j)
            if r.algebra == "A":
                assert sign == 1
                continue
            op, mirror = r.gen(i, j), r.gen(-j, -i)
            assert dict(op.items()) == {k: -v for k, v in mirror.items()}, (
                i, j)
            assert list(op.keys()) == list(mirror.keys())

    def test_closure_shares_values_across_seeds(self):
        # equal seed values held by distinct objects end as one object,
        # and a seed stored at its mirror slot takes the objects of the
        # negated values
        n = 2
        defs = defining_operators(n)
        got = close_generators(n, {s: Operator(defs[s].dim, {
            p: Fraction(v.numerator, v.denominator)
            for p, v in defs[s].items()}) for s in seeds(n)}, 2 * n + 1)
        assert got == {s: op for s, op in defs.items() if sum(s) <= 0}
        stored = {id(v): v for op in got.values() for v in op.values()}
        assert sorted(stored.values()) == [-1, 1]

    @pytest.mark.parametrize("w", [("-1",), ("0", "-1"), ("-1/2", "-1/2")])
    def test_all_commutators_close(self, w):
        r = so_rep(w)
        tab = structure_table(r.n)
        gens = all_gens("B", r)
        for ab in gens:
            for cd in gens:
                got = gens[ab].commutator(gens[cd])
                want = Operator(r.dim)
                for slot, coef in tab[(ab, cd)].items():
                    want = want + gens[slot].scale(coef)
                assert got == want, (w, ab, cd)


class TestStorageRule:
    """A type B build stores F(i,j) for i + j <= 0 only, F(i,-i) as the
    zero operator, and reads every other slot as -F(-j,-i)."""

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_stored_slots_are_exactly_those_with_i_plus_j_at_most_zero(
            self, w):
        r = so_rep(w)
        assert sorted(r.gens) == [s for s in all_slots("B", r.n)
                                  if sum(s) <= 0]
        assert all(not r.gens[(i, -i)] for i in range(-r.n, r.n + 1))

    def test_a_read_mirror_negates_each_value_object_once(self):
        r = so_rep(("-1", "-1", "-2"))
        for (i, j), op in r.gens.items():
            got = r.gen(-j, -i)
            assert got is not op or i + j == 0
            ids = {id(v) for v in op.values()}
            assert len({id(v) for v in got.values()}) == len(ids)


class TestDeformationAgreement:
    @pytest.mark.parametrize("w", B_CORPUS)
    def test_uniform_limit_matches_fast_path(self, w):
        b = basis_of(w)
        for k in range(1, b.n + 1):
            fast = build_f_raise(b, k)
            slow = deformed_raise(b, k)
            assert fast == slow, (w, k)


# integer-class weights: in B (-1,-1,-2), 43 raising columns have a first
# step that divides by zero, but none of those steps reaches a basis member
INTEGER_CLASS = [w for w in B_CORPUS if "/" not in "".join(w)]


class TestRouting:
    @pytest.mark.parametrize("w", INTEGER_CLASS + [("-1", "-1", "-2")])
    def test_no_complete_path_divides_by_zero(self, w):
        # a column takes the deformed route only when a complete path
        # divides by zero, and none does here: the trace stays empty
        trace = []
        sorep.build_so(w, trace=trace)
        assert trace == []


# the spinor-type modules of the build-deformed benchmark workload
BENCH_SPINOR = [("-1/2", "-3/2", "-5/2"), ("-1/2", "-1/2", "-1/2", "-3/2")]


def level_slice(pat, k):
    # what a level-k column reads: sigma and primed rows of levels k and
    # k-1, unprimed rows of levels k, k-1 and k-2 (level j at index j-1)
    up = [j for j in (k, k - 1) if j >= 1]
    rows = [j for j in (k, k - 1, k - 2) if j >= 1]
    return (tuple(pat.sigma[j - 1] for j in up),
            tuple(pat.primed[j - 1] for j in up),
            tuple(pat.rows[j - 1] for j in rows))


def moved_entries(pat, k):
    # what a level-k move may write: sigma and primed rows of levels k and
    # k-1, the unprimed row of level k-1
    up = [j for j in (k, k - 1) if j >= 1]
    return (tuple(pat.sigma[j - 1] for j in up),
            tuple(pat.primed[j - 1] for j in up),
            tuple(pat.rows[j - 1] for j in up[1:]))


def kept_entries(pat, k):
    # everything else
    lo = max(k - 2, 0)
    return (pat.sigma[:lo], pat.sigma[k:], pat.primed[:lo],
            pat.primed[k:], pat.rows[:lo], pat.rows[k - 1:])


def local_column(basis, k, pat):
    # the lowering column and the raising route and column of one source,
    # keyed by each target's moved entries; every target keeps the rest
    # of the source
    def keyed(col):
        for tgt in col:
            assert kept_entries(tgt, k) == kept_entries(pat, k)
        return {moved_entries(tgt, k): v for tgt, v in col.items()}

    lower = {}
    for tgt, num, den, c in lower_step_terms(pat, k,
                                             basis.index.__contains__):
        lower[tgt] = lower.get(tgt, 0) + PLAIN.value(num, den, c)
    try:
        route = "plain"
        col = raise_column_terms(basis, k, pat, PLAIN)
    except ZeroDivisionError:
        route = "deformed"
        col = {tgt: str(v) for tgt, v
               in raise_column_terms(basis, k, pat, DEFORMED).items()}
    return keyed(lower), route, keyed(col)


class TestSliceColumns:
    """The lowering and raising generators are evaluated once per level-k
    slice and shifted onto every column that shares it."""

    @pytest.mark.parametrize("w", B_CORPUS + BENCH_SPINOR)
    def test_matches_the_per_column_loops(self, w):
        b = basis_of(w)
        for k in range(1, b.n + 1):
            assert build_f_lower(b, k) == ref_single_step(
                b, k, lower_step_terms), (w, k)
            assert build_phi_minus(b, k) == ref_single_step(
                b, k, prime_drop_terms), (w, k)
            got, want = [], []
            assert build_f_raise(b, k, got) == ref_build_f_raise(
                b, k, want), (w, k)
            assert got == want, (w, k)

    @pytest.mark.parametrize("w", B_CORPUS + [("-1", "-1", "-2"),
                                              BENCH_SPINOR[0]])
    def test_equal_slices_give_the_same_column_shifted(self, w):
        # the premise, column by column: two basis patterns with equal
        # level-k slices take the same route and have equal values at
        # equal moved entries, with the rest of each target its source's
        b = basis_of(w)
        for k in range(1, b.n + 1):
            first = {}
            for pat in b.patterns:
                col = local_column(b, k, pat)
                assert first.setdefault(level_slice(pat, k), col) == col, \
                    (w, k, pat)

    def test_zero_denominator_on_a_shared_slice_names_its_lowest_column(
            self):
        b = basis_of(("0", "-1", "-1"))
        k = 2
        cols = {}
        for c, pat in enumerate(b.patterns):
            cols.setdefault(level_slice(pat, k), []).append(c)
        # a slice of several columns, the lowest of them not column 0
        low = next(cs for cs in cols.values() if len(cs) > 1 and cs[0])
        bad = level_slice(b.patterns[low[0]], k)

        def ratio(pat, k, valid):
            t = (0, 1)  # t/t, 0/0 in plain arithmetic
            return [(pat, [t], [t], 1)] if level_slice(pat, k) == bad else []
        msg = "level 2 column %d target %d$" % (low[0], low[0])
        with pytest.raises(ConstructionError, match=msg):
            _single_step(b, k, ratio)
        with pytest.raises(ConstructionError, match=msg):
            ref_single_step(b, k, ratio)

    @pytest.mark.parametrize("build", [build_f_lower, build_f_raise])
    def test_equal_slice_columns_share_value_objects(self, build):
        b = basis_of(BENCH_SPINOR[0])
        for k in range(1, b.n + 1):
            ids = {}
            for p, v in build(b, k).items():
                ids.setdefault(rowcol(p, b.dim)[1], []).append(id(v))
            first, shared = {}, 0
            for c, pat in enumerate(b.patterns):
                col = sorted(ids.get(c, ()))
                key = level_slice(pat, k)
                if key in first:
                    assert col == first[key], (k, c)
                    shared += bool(col)
                else:
                    first[key] = col
            assert shared, k

    def test_equal_diagonal_entries_are_one_object(self):
        b = basis_of(BENCH_SPINOR[0])
        for k in range(1, b.n + 1):
            vals = list(b.diagonal(k).values())
            assert len({id(v) for v in vals}) == len(set(vals)), k


class TestDefiningModule:
    def test_rank_one_matrices(self):
        ops = defining_operators(1)
        assert dict(ops[(1, 1)].items()) == {pos(0, 0, 3): Fraction(-1),
                                         pos(2, 2, 3): Fraction(1)}
        assert dict(ops[(0, 1)].items()) == {pos(0, 1, 3): Fraction(-1),
                                         pos(1, 2, 3): Fraction(1)}
        assert not ops[(0, 0)]
        assert not ops[(1, -1)]

    def test_skew_pairing(self):
        ops = defining_operators(2)
        for i in range(-2, 3):
            for j in range(-2, 3):
                assert ops[(i, j)] == -ops[(-j, -i)]


class TestWholeModules:
    def test_trivial_module(self):
        r = so_rep(("0", "0"))
        assert r.dim == 1
        assert all(not op for op in r.gens.values())

    def test_generator_count(self):
        # all 25 slots read through gen; 15 of them are stored
        r = so_rep(("0", "-1"))
        slots = all_slots("B", 2)
        assert len(slots) == 25 and len(r.gens) == 15
        assert all(r.gen(*s).dim == r.dim for s in slots)

    def test_span_rank_is_algebra_dimension(self):
        from gtrep import rank_of
        r = so_rep(("0", "-1"))
        rows = [dict(r.gens[slot].items()) for slot in sorted(r.gens)]
        rows = [row for row in rows if row]
        assert rank_of(rows) == r.n * (2 * r.n + 1)

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_top_basis_vector_carries_the_label(self, w):
        r = so_rep(w)
        assert r.dim == len(r.patterns)
        assert r.decode(r.weights[r.highest_index()]) == r.lam


def _term_sources(rep):
    # every basis pattern, then every interleaving intermediate the
    # raising composite passes through
    sources = list(rep.patterns)
    seen = set(sources)
    for pat in rep.patterns:
        for k in range(1, rep.n + 1):
            for terms in (ref_prime_drop_terms(pat, k, PatternB.interleaves),
                          ref_lower_step_terms(pat, k, PatternB.interleaves,
                                               0)):
                for mid, _, _, _ in terms:
                    if mid not in seen:
                        seen.add(mid)
                        sources.append(mid)
    return sources


@pytest.mark.parametrize("w", B_CORPUS)
def test_term_functions_match_build_then_filter(w):
    # the in-bounds enumeration drops only targets the validity test would
    # drop: same terms, same order, under both tests
    rep = so_rep(w)
    for pat in _term_sources(rep):
        for k in range(1, rep.n + 1):
            for valid in (PatternB.interleaves, full_valid):
                assert (_sig_case_terms(pat, k, valid)
                        == ref_sig_case_terms(pat, k, valid))
                assert (prime_drop_terms(pat, k, valid)
                        == ref_prime_drop_terms(pat, k, valid))
                for u in (None, 0, 2):
                    assert (lower_step_terms(pat, k, valid, u)
                            == ref_lower_step_terms(pat, k, valid, u))


@pytest.mark.parametrize("w", B_CORPUS)
def test_term_functions_build_only_interleaving_targets(w, monkeypatch):
    # from an interleaving source, a raw target that would fail the
    # interleaving test is never built
    rep = so_rep(w)
    sources = _term_sources(rep)
    built = []
    real = PatternB.shifted

    def shifted(self, moves):
        built.append(real(self, moves))
        return built[-1]
    monkeypatch.setattr(PatternB, "shifted", shifted)
    for pat in sources:
        for k in range(1, rep.n + 1):
            prime_drop_terms(pat, k, full_valid)
            lower_step_terms(pat, k, full_valid)
    assert built and all(t.interleaves() for t in built)


@pytest.mark.parametrize("w", B_CORPUS)
def test_basis_membership_agrees_with_full_valid(w):
    # the builders test final targets by basis membership: on every raw
    # target the term functions build from a basis pattern or an
    # intermediate, it gives the same answer as full_valid
    rep = so_rep(w)
    built = []

    def record(tgt):
        built.append(tgt)
        return False
    for pat in _term_sources(rep):
        for k in range(1, rep.n + 1):
            prime_drop_terms(pat, k, record)
            for u in (None, 0, 2):
                lower_step_terms(pat, k, record, u)
    assert built
    for tgt in built:
        assert (tgt in rep.index) == full_valid(tgt), tgt


class TestSpanRank:
    @pytest.mark.parametrize("w", [("-1/2",) * 4, ("0",) * 11 + ("-1",)])
    def test_the_diagonal_rank_is_taken_on_n_by_n_gram_rows(
            self, w, monkeypatch):
        # the n diagonal slots over one entry per distinct weight (16 and
        # 25 of them here) reach one exact rref as their Gram matrix: n
        # rows of at most n entries
        r = so_rep(w)
        calls = []
        real = sorep.rref

        def rref(rows, modulus=None):
            calls.append((len(rows), max(map(len, rows)), modulus))
            return real(rows, modulus)
        monkeypatch.setattr(sorep, "rref", rref)
        sorep._check_span_rank(r)
        ((rows, width, modulus),) = calls
        assert rows == r.n and width <= r.n and modulus is None

    def test_a_diagonal_slot_scaled_by_a_third_passes(self):
        # each diagonal slot is scaled to ints by its own denominator
        r = fresh_so_rep(("-1/2", "-3/2"))
        r.gens[(-1, -1)] = r.gens[(-1, -1)].scale(Fraction(1, 3))
        assert 6 in {v.denominator for v in r.gens[(-1, -1)].values()}
        sorep._check_span_rank(r)

    # the type B modules of the benchmark workloads, a spinor module and
    # the rank-12 vector module
    BENCH_B = [("-2", "-2", "-3"), ("-1/2", "-3/2", "-5/2"),
               ("-1/2", "-1/2", "-1/2", "-3/2"), ("-1", "-1", "-2")]
    MORE_B = [("-1/2",) * 4, ("0",) * 11 + ("-1",)]

    @pytest.mark.parametrize("w", [w for w in B_CORPUS + BENCH_B
                                   if any(map(Fraction, w))] + MORE_B)
    def test_built_modules_pass(self, w):
        sorep._check_span_rank(so_rep(w))

    def test_an_entry_off_its_root_raises_with_its_witness(self):
        # one entry at (0, 0) of F(-2,-1), whose root is e_{-2} - e_{-1}:
        # the slot's rank and the span's stay as they were
        r = fresh_so_rep(("0", "-1"))
        assert len(r.gens[(-2, -1)]) == 2
        r.gens[(-2, -1)] = edited(r.gens[(-2, -1)],
                                  {pos(0, 0, r.dim): Fraction(1)})
        with pytest.raises(ConstructionError,
                           match=r"entry of F\(-2,-1\) does not shift") as e:
            sorep._check_span_rank(r)
        assert e.value.witness == ((-2, -1), 0, 0)

    def test_an_emptied_off_diagonal_slot_lowers_the_rank(self):
        r = fresh_so_rep(("0", "-1"))
        r.gens[(-2, 1)] = Operator(r.dim)
        with pytest.raises(ConstructionError,
                           match="generator span has rank 9, expected 10"):
            sorep._check_span_rank(r)

    def test_rank_deficient_generators_raise(self):
        # F(-1,-1) a copy of F(-2,-2): both shift by the zero root, and the
        # diagonal block drops to rank 1
        r = fresh_so_rep(("0", "-1"))
        sorep._check_span_rank(r)
        r.gens[(-1, -1)] = Operator(r.dim, dict(r.gens[(-2, -2)].items()))
        with pytest.raises(ConstructionError,
                           match="generator span has rank 9, expected 10"):
            sorep._check_span_rank(r)
