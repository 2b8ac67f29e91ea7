"""Odd orthogonal generator matrices: coefficients, limits, closure."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (B_CORPUS, deformed_raise, fresh_so_rep,
                      ref_build_f_raise, ref_lower_step_terms,
                      ref_prime_drop_terms, ref_sig_case_terms,
                      ref_single_step, so_rep)
from gtrep import (
    Operator,
    PatternB,
    Rep,
    check_weight_so,
    defining_operators,
    enumerate_patterns_b,
    structure_table,
)
from gtrep import sorep
from gtrep.sorep import (
    DEFORMED,
    PLAIN,
    ConstructionError,
    _canon_slot,
    build_f_diag,
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
    span_rank,
)


def hand_bracket(a, b, c, d):
    # [F(a,b), F(c,d)] as {canonical slot: coefficient}, by the rule
    # F(a,b) = E(a,b) - E(-b,-a) applied to products of matrix units
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
    for slot, coef in raw:
        cs, sgn = _canon_slot(*slot)
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
        assert dict(build_f_diag(b, 1).ent) == {
            (0, 0): Fraction(-1), (1, 1): Fraction(1)}

    def test_primed_drop_matrix(self):
        b = basis_of(("-1",))
        assert dict(build_phi_minus(b, 1).ent) == {(0, 1): Fraction(1, 2)}

    def test_parametric_drop_matrix(self):
        b = basis_of(("-1",))
        got = ref_single_step(b, 1, lower_step_terms, Fraction(2))
        assert dict(got.ent) == {(2, 0): Fraction(-2), (1, 2): Fraction(2, 3)}

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
        assert dict(build_f_lower(b, 1).ent) == {
            (2, 0): Fraction(-1), (1, 2): Fraction(1)}

    def test_raising_matrix(self):
        b = basis_of(("-1",))
        assert dict(build_f_raise(b, 1).ent) == {
            (2, 1): Fraction(-1), (0, 2): Fraction(1)}


class TestSpinorModule:
    def test_raising_sends_primed_to_plain(self):
        b = basis_of(("-1/2",))
        assert dict(build_f_raise(b, 1).ent) == {(0, 1): Fraction(1, 2)}

    def test_primed_drop_vanishes(self):
        b = basis_of(("-1/2",))
        assert not build_phi_minus(b, 1)

    def test_diagonal(self):
        b = basis_of(("-1/2",))
        assert dict(build_f_diag(b, 1).ent) == {
            (0, 0): Fraction(-1, 2), (1, 1): Fraction(1, 2)}


class TestBrackets:
    def test_raise_lower_bracket_gives_diagonal(self):
        r = so_rep(("-1",))
        got = r.gens[(0, 1)].commutator(r.gens[(0, -1)])
        want = Operator(r.dim)
        for slot, coef in structure_table(1)[((0, 1), (0, -1))].items():
            want = want + r.gens[slot].scale(coef)
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
                assert terms == hand_bracket(*ab, *cd), (n, ab, cd)
                want = Operator(2 * n + 1)
                for slot, coef in terms.items():
                    want = want + defs[slot].scale(coef)
                assert defs[ab].commutator(defs[cd]) == want, (n, ab, cd)

    def test_table_entries_are_computed_on_demand(self):
        # a fresh table, past the per-n cache
        tab = structure_table.__wrapped__(3)
        assert len(tab) == 7 ** 4 and not tab.known
        key = ((0, 1), (1, 2))
        assert tab[key] == hand_bracket(0, 1, 1, 2)
        assert list(tab.known) == [key]
        assert dict(tab) == dict(structure_table(3))
        assert len(tab.known) == len(tab)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_table_coefficient_is_plus_or_minus_one(self, n):
        # close_generators stores each commutator, or its negation, unscaled
        for terms in structure_table(n).values():
            assert set(terms.values()) <= {1, -1}

    def test_closure_rejects_a_coefficient_other_than_one(self, monkeypatch):
        tab = dict(structure_table(2))
        tab[((0, 1), (1, 2))] = {(0, 2): Fraction(2)}
        monkeypatch.setattr(sorep, "structure_table", lambda n: tab)
        defs = defining_operators(2)
        seeds = {s: defs[s] for k in (1, 2)
                 for s in ((k, k), (k - 1, -k), (k - 1, k))}
        with pytest.raises(ConstructionError, match=r"is not \+-F\(0, 2\)"):
            close_generators(2, seeds, 5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closure_runs_one_commutator_per_missing_slot(self, n,
                                                          monkeypatch):
        # seeded from the defining module, the fixed bracket plan must
        # rebuild every slot of it with 2n(n-1) commutators
        defs = defining_operators(n)
        seeds = {}
        for k in range(1, n + 1):
            for slot in ((k, k), (k - 1, -k), (k - 1, k)):
                seeds[slot] = defs[slot]
        structure_table(n)
        calls = []
        commutator = Operator.commutator

        def counted(a, b):
            calls.append(1)
            return commutator(a, b)

        monkeypatch.setattr(Operator, "commutator", counted)
        got = close_generators(n, seeds, 2 * n + 1)
        assert len(calls) == 2 * n * (n - 1)
        assert got == defs

    @pytest.mark.parametrize("w", [("-1", "-1", "-2"),
                                   ("-1/2", "-3/2", "-5/2")])
    def test_closure_keeps_one_object_per_value(self, w):
        # every value the closure stores, in the seeds, the bracketed
        # slots and their mirrors, is the build's one object of it
        r = so_rep(w)
        stored = [v for op in r.gens.values() for v in op.ent.values()]
        assert len({id(v) for v in stored}) == len(set(stored))

    @pytest.mark.parametrize("w", [("-1", "-1", "-2"),
                                   ("-1/2", "-3/2", "-5/2")])
    def test_shared_values_keep_the_bracket_plan(self, w):
        # each bracketed slot, its values taken from the shared objects,
        # is still the bracket of the plan that made it
        r = so_rep(w)
        n, tab = r.n, structure_table(r.n)
        seeds = {s for k in range(1, n + 1)
                 for s in ((k, k), (k - 1, -k), (k - 1, k))}
        plan = [((0, k - 1), (k - 1, k), (0, k)) for k in range(2, n + 1)]
        plan += [((0, k - 1), (k - 1, -k), (0, -k)) for k in range(2, n + 1)]
        plan += [((i, 0), (0, j), (i, j)) for i in range(-n, n + 1)
                 for j in range(-n, n + 1) if i and j
                 and _canon_slot(i, j)[0] == (i, j) and (i, j) not in seeds]
        for ab, cd, target in plan:
            # [F(ab), F(cd)] = coef * F(cs), cs the canonical slot
            ((cs, coef),) = tab[(ab, cd)].items()
            got = r.gens[ab].commutator(r.gens[cd])
            assert got == r.gens[cs].scale(coef), target

    @pytest.mark.parametrize("w", [("-1", "-1", "-2"),
                                   ("-1/2", "-3/2", "-5/2")])
    def test_mirror_slots_are_negated_entry_by_entry(self, w):
        r = so_rep(w)
        for (i, j), op in r.gens.items():
            mirror = r.gens[(-j, -i)].ent
            assert mirror == {k: -v for k, v in op.ent.items()}
            assert list(mirror) == list(op.ent)

    def test_closure_shares_values_across_seeds(self):
        # equal seed values held by distinct objects end as one object,
        # and each mirror value is that of its negation
        n = 2
        defs = defining_operators(n)
        seeds = {}
        for k in range(1, n + 1):
            for slot in ((k, k), (k - 1, -k), (k - 1, k)):
                seeds[slot] = Operator(defs[slot].dim, {
                    pos: Fraction(v.numerator, v.denominator)
                    for pos, v in defs[slot].ent.items()})
        got = close_generators(n, seeds, 2 * n + 1)
        assert got == defs
        stored = {id(v): v for op in got.values() for v in op.ent.values()}
        assert sorted(stored.values()) == [-1, 1]

    @pytest.mark.parametrize("w", [("-1",), ("0", "-1"), ("-1/2", "-1/2")])
    def test_all_commutators_close(self, w):
        r = so_rep(w)
        tab = structure_table(r.n)
        for ab in r.gens:
            for cd in r.gens:
                got = r.gens[ab].commutator(r.gens[cd])
                want = Operator(r.dim)
                for slot, coef in tab[(ab, cd)].items():
                    want = want + r.gens[slot].scale(coef)
                assert got == want, (w, ab, cd)


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
            for (r, c), v in build(b, k).ent.items():
                ids.setdefault(c, []).append(id(v))
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
            vals = list(build_f_diag(b, k).ent.values())
            assert len({id(v) for v in vals}) == len(set(vals)), k


class TestDefiningModule:
    def test_rank_one_matrices(self):
        ops = defining_operators(1)
        assert dict(ops[(1, 1)].ent) == {(0, 0): Fraction(-1), (2, 2): Fraction(1)}
        assert dict(ops[(0, 1)].ent) == {(0, 1): Fraction(-1), (1, 2): Fraction(1)}
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
        r = so_rep(("0", "-1"))
        assert set(r.gens) == {(i, j) for i in (-2, -1, 0, 1, 2)
                               for j in (-2, -1, 0, 1, 2)}

    def test_span_rank_is_algebra_dimension(self):
        from gtrep import rank_of
        r = so_rep(("0", "-1"))
        rows = [{a * r.dim + b: v for (a, b), v in r.gens[slot].ent.items()}
                for slot in sorted(r.gens)]
        rows = [row for row in rows if row]
        assert rank_of(rows) == r.n * (2 * r.n + 1)

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_top_basis_vector_carries_the_label(self, w):
        r = so_rep(w)
        assert r.dim == len(r.patterns)
        assert r.weights[r.highest_index()] == r.lam


def _term_sources(rep):
    # every basis pattern, then every interleaving intermediate the
    # raising composite passes through
    sources = list(rep.patterns)
    seen = set(sources)
    for pat in rep.patterns:
        for k in range(1, rep.n + 1):
            for terms in (ref_prime_drop_terms(pat, k, PatternB.generic_valid),
                          ref_lower_step_terms(pat, k, PatternB.generic_valid,
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
            for valid in (PatternB.generic_valid, PatternB.full_valid):
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
            prime_drop_terms(pat, k, PatternB.full_valid)
            lower_step_terms(pat, k, PatternB.full_valid)
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
        assert (tgt in rep.index) == tgt.full_valid(), tgt


class TestSpanRank:
    def _count_exact(self, monkeypatch):
        calls = []
        real = sorep.rref

        def rref(rows, modulus=None):
            if modulus is None:
                calls.append(len(rows))
            return real(rows, modulus)
        monkeypatch.setattr(sorep, "rref", rref)
        return calls

    def test_full_rank_mod_p_skips_the_exact_rref(self, monkeypatch):
        calls = self._count_exact(monkeypatch)
        rows = [{0: Fraction(1, 2), 3: Fraction(2)}, {3: Fraction(-1, 3)}]
        assert span_rank(rows) == 2 and calls == []

    def test_numerators_vanishing_mod_p_fall_back_to_exact(self,
                                                           monkeypatch):
        calls = self._count_exact(monkeypatch)
        p = sorep.SPAN_PRIME
        r1 = {0: Fraction(p), 1: Fraction(p, 3)}
        r2 = {1: Fraction(2 * p, 7), 2: Fraction(p)}
        r3 = {0: Fraction(p), 1: Fraction(p, 3) + Fraction(2 * p, 7),
              2: Fraction(p)}
        assert span_rank([r1, r2]) == 2
        assert span_rank([r1, r2, r3]) == 2
        assert calls == [2, 3]

    # the type B modules of the benchmark workloads
    BENCH_B = [("-2", "-2", "-3"), ("-1/2", "-3/2", "-5/2"),
               ("-1/2", "-1/2", "-1/2", "-3/2"), ("-1", "-1", "-2")]

    def _record_rows(self, monkeypatch):
        # (modulus, row count, entry count) of every rref call
        calls = []
        real = sorep.rref

        def rref(rows, modulus=None):
            calls.append((modulus, len(rows), sum(map(len, rows))))
            return real(rows, modulus)
        monkeypatch.setattr(sorep, "rref", rref)
        return calls

    @pytest.mark.parametrize("w", [w for w in B_CORPUS + BENCH_B
                                   if any(map(Fraction, w))])
    def test_built_modules_pass(self, w):
        sorep._check_span_rank(so_rep(w))

    @pytest.mark.parametrize("w", BENCH_B)
    def test_ranked_rows_hold_far_fewer_entries_than_the_slots(
            self, w, monkeypatch):
        r = so_rep(w)
        calls = self._record_rows(monkeypatch)
        sorep._check_span_rank(r)
        slots = {_canon_slot(*s)[0] for s in r.gens} - {None}
        nnz = sum(len(r.gens[s].ent) for s in slots)
        want = r.n * (2 * r.n + 1)
        # every call is mod p on one row per slot, the last one full rank,
        # and no call ranks the full rows: at most a third of their entries
        # (288 of 3,872 at dim 128, 46 of 70,932 at dim 1386)
        assert calls and all(m == sorep.SPAN_PRIME and rows == want
                             for m, rows, _ in calls)
        assert max(e for _, _, e in calls) * 3 < nnz

    def test_slots_agreeing_on_their_leading_positions_pass(self,
                                                             monkeypatch):
        # the first two slots of o(3) agree on their first two stored
        # positions and differ at the third, so the positions grow until
        # they cover every entry and the full rows decide
        calls = self._record_rows(monkeypatch)
        one, two = Fraction(1), Fraction(2)
        a = Operator(3, {(0, 0): one, (0, 1): -one, (1, 2): one})
        b = Operator(3, {(0, 0): one, (0, 1): -one, (1, 2): two})
        c = Operator(3, {(2, 2): Fraction(1, 3)})
        slots = sorted({_canon_slot(i, j)[0] for i in range(-1, 2)
                        for j in range(-1, 2)} - {None})
        rep = SimpleNamespace(n=1, dim=3, gens=dict(zip(slots, (a, b, c))))
        sorep._check_span_rank(rep)
        assert [e for _, _, e in calls] == [3, 5, 7]

    def test_diagonal_slots_agreeing_on_their_leading_positions(
            self, monkeypatch):
        # two diagonal slots equal on their first half and apart on the
        # second, as F(k,k) are on the first patterns' shared weights:
        # the first m positions would need every entry, but positions
        # spread over each slot tell them apart at m = 2, mod p
        calls = self._record_rows(monkeypatch)
        a = Operator(8, {(c, c): Fraction(1 + (c >= 4)) for c in range(8)})
        b = Operator(8, {(c, c): Fraction(1 + 2 * (c >= 4))
                         for c in range(8)})
        c = Operator(8, {(0, 1): Fraction(1, 3)})
        slots = sorted({_canon_slot(i, j)[0] for i in range(-1, 2)
                        for j in range(-1, 2)} - {None})
        rep = SimpleNamespace(n=1, dim=8, gens=dict(zip(slots, (a, b, c))))
        sorep._check_span_rank(rep)
        assert calls == [(sorep.SPAN_PRIME, 3, 3), (sorep.SPAN_PRIME, 3, 5)]

    def test_rank_deficient_generators_raise(self):
        r = fresh_so_rep(("0", "-1"))
        slots = sorted({_canon_slot(*s)[0] for s in r.gens} - {None})
        sorep._check_span_rank(r)
        r.gens[slots[1]] = Operator(r.dim, dict(r.gens[slots[0]].ent))
        with pytest.raises(ConstructionError,
                           match="generator span has rank 9, expected 10"):
            sorep._check_span_rank(r)
