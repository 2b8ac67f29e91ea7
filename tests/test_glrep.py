"""Generator matrices for gl(n): hand values, central element, form."""

from fractions import Fraction

import pytest

from conftest import (A_CORPUS, SHIFT_IDS, SHIFTED, block_gram, capelli_det,
                      fresh_gl_rep, g_highest_vectors, gl_rep, global_gram,
                      mu_vector_index, perm_capelli, scalar_op, transpose,
                      z_lower, z_raise)
from gtrep import (
    InconsistencyError,
    Operator,
    PatternA,
    build_gl,
    contravariant_gram,
    gl_structure_table,
    run_verification,
    weyl_dim,
)
from gtrep.glrep import _spans
from gtrep.linalg import RANK_PRIME


def shifted_rep(lam, c):
    return build_gl(tuple(x + c for x in lam))


class TestDefiningSize:
    def test_two_dim_matrices_by_hand(self):
        r = gl_rep((1, 0))
        assert dict(r.gen(1, 2).ent) == {(1, 0): Fraction(1)}
        assert dict(r.gen(2, 1).ent) == {(0, 1): Fraction(1)}
        assert dict(r.gen(1, 1).ent) == {(1, 1): Fraction(1)}
        assert dict(r.gen(2, 2).ent) == {(0, 0): Fraction(1)}

    def test_cartan_commutator(self):
        r = gl_rep((1, 0))
        c = r.gen(1, 2).commutator(r.gen(2, 1))
        assert c == r.gen(1, 1) - r.gen(2, 2)


class TestBracketTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_is_the_matrix_unit_rule(self, n):
        # [E(a,b), E(c,d)] = delta_bc E(a,d) - delta_da E(c,b), and the
        # table rebuilds every commutator of the elementary matrices
        units = {(i, j): Operator(n, {(i - 1, j - 1): Fraction(1)})
                 for i in range(1, n + 1) for j in range(1, n + 1)}
        tab = gl_structure_table(n)
        assert set(tab) == {(ab, cd) for ab in units for cd in units}
        for ((a, b), (c, d)), terms in tab.items():
            want = {}
            if b == c:
                want[(a, d)] = want.get((a, d), 0) + 1
            if d == a:
                want[(c, b)] = want.get((c, b), 0) - 1
            assert terms == {s: v for s, v in want.items() if v}
            got = Operator(n)
            for slot, coef in terms.items():
                got = got + units[slot].scale(coef)
            assert units[(a, b)].commutator(units[(c, d)]) == got


class TestWeights:
    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_diagonal_generators_are_diagonal(self, lam):
        r = gl_rep(lam)
        for k in range(1, r.n + 1):
            for (a, b) in r.gen(k, k).ent:
                assert a == b

    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_trace_generator_is_scalar(self, lam):
        r = gl_rep(lam)
        tot = Operator(r.dim)
        for k in range(1, r.n + 1):
            tot = tot + r.gen(k, k)
        s = sum(lam)
        want = scalar_op(r.dim, Fraction(s))
        assert tot == want

    def test_highest_index_weight(self):
        r = gl_rep((2, 1, 0))
        h = r.highest_index()
        assert r.weights[h] == (2, 1, 0)


class TestCentralElement:
    def test_t_at_zero_defining(self):
        r = gl_rep((1, 0))
        # content values 1, -1 so the product at u=0 is -1
        assert capelli_det(r, Fraction(0)) == scalar_op(2, Fraction(-1))

    def test_t_at_one_adjointish(self):
        r = gl_rep((2, 1, 0))
        assert capelli_det(r, Fraction(1)) == scalar_op(8, Fraction(-3))

    @pytest.mark.parametrize("u", [0, 1, -1, 7])
    def test_scalar_value_formula(self, u):
        r = gl_rep((1, 1, 0))
        ls = [Fraction(x) - i for i, x in enumerate(r.lam)]
        want = Fraction(1)
        for l in ls:
            want *= u + l
        assert capelli_det(r, Fraction(u)) == scalar_op(r.dim, want)


class TestOraclesAgainstReferences:
    @pytest.mark.parametrize("u", [0, 1, -1, 7])
    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_capelli_is_the_permutation_sum(self, lam, u):
        r = gl_rep(lam)
        assert capelli_det(r, u) == perm_capelli(r, u)

    @pytest.mark.parametrize("u", [0, 1, -1, 7])
    def test_capelli_is_the_permutation_sum_off_a_module(self, u):
        # the row-subset expansion is an identity for any matrices, so it
        # agrees with the reference even where the result is not central
        r = fresh_gl_rep((3, 1, 0, 0))
        op = r.gen(3, 1)
        key = min(op.ent)
        op.ent[key] *= 3
        got = capelli_det(r, u)
        assert got == perm_capelli(r, u)
        want = Fraction(1)
        for i, x in enumerate(r.lam):
            want *= u + x - i
        assert got != scalar_op(r.dim, want)

    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_form_is_the_global_solve(self, lam):
        r = gl_rep(lam)
        assert contravariant_gram(r) == global_gram(r)


def simple_mutants():
    # one entry of each simple generator doubled, one generator at a time
    for lam in [(2, 1, 0), (3, 1, 0, 0)]:
        for k in range(1, len(lam)):
            for slot in ((k, k + 1), (k + 1, k)):
                yield lam, slot


@pytest.mark.parametrize("lam, slot", list(simple_mutants()))
class TestOraclesCatchACorruptedEntry:
    def mutant(self, lam, slot):
        r = fresh_gl_rep(lam)
        op = r.gen(*slot)
        key = min(op.ent)
        op.ent[key] *= 2
        return r

    def test_form_raises(self, lam, slot):
        with pytest.raises(InconsistencyError):
            contravariant_gram(self.mutant(lam, slot))

    def test_report_flags_both_oracles(self, lam, slot):
        report = run_verification(self.mutant(lam, slot), "A", level="full")
        checks = {c["name"]: c for c in report.checks}
        det = checks["determinant central element acts by the expected "
                     "scalar"]
        assert not det["pass"] and det["witness"].startswith("('u', ")
        assert not checks["contravariant form is diagonal and "
                          "nondegenerate"]["pass"]
        assert report.summary() == "fail"


class TestSeriesOperators:
    def test_raise_moves_one_box(self):
        r = gl_rep((2, 1, 0))
        src = mu_vector_index(r, (1, 0))
        tgt = mu_vector_index(r, (2, 0))
        vec = z_raise(r, 1).column(src)
        # -(m_1 - l_1)(m_1 - l_2)(m_1 - l_3) at m_1 = 1, l = (2, 0, -2)
        assert vec == {tgt: Fraction(3)}

    def test_raise_annihilates_at_wall(self):
        r = gl_rep((2, 1, 0))
        src = mu_vector_index(r, (2, 1))
        assert z_raise(r, 1).column(src) == {}

    def test_lower_inverts_direction(self):
        r = gl_rep((2, 1, 0))
        src = mu_vector_index(r, (2, 1))
        vec = z_lower(r, 2).column(src)
        tgt = mu_vector_index(r, (2, 0))
        assert set(vec) == {tgt} and vec[tgt] != 0

    def test_mu_vector_index_absent(self):
        r = gl_rep((2, 1, 0))
        assert mu_vector_index(r, (2, 2)) is None
        assert mu_vector_index(r, (3, 0)) is None

    def test_mu_off_the_class_of_lam(self):
        r = gl_rep((1, 0))
        assert mu_vector_index(r, (Fraction(1, 2),)) is None
        r = shifted_rep((1, 0), Fraction(-1, 2))
        assert mu_vector_index(r, (0,)) is None
        assert mu_vector_index(r, (Fraction(1, 2),)) == r.highest_index()


class TestHighestVectorsUnderSubalgebra:
    def test_counts_for_eight_dim_module(self):
        r = gl_rep((2, 1, 0))
        for mu in [(2, 1), (2, 0), (1, 1), (1, 0)]:
            assert len(g_highest_vectors(r, mu)) == 1
        assert len(g_highest_vectors(r, (0, 0))) == 0

    def test_vectors_killed_by_raising(self):
        r = gl_rep((2, 1, 0))
        up = r.gen(1, 2)
        for mu in [(2, 0), (1, 1)]:
            for v in g_highest_vectors(r, mu):
                assert up.apply(v) == {}


class TestContravariantForm:
    def test_adjointness_postcondition_names_the_pair(self):
        # the blocks are solved from the simple generators alone, so a
        # corrupted E(1,3) passes the solve and fails the postcondition
        r = fresh_gl_rep((2, 1, 0))
        r.gens[(1, 3)] = r.gens[(1, 3)].scale(2)
        with pytest.raises(InconsistencyError,
                           match=r"^adjointness fails for \(1,3\)$"):
            contravariant_gram(r)

    @pytest.mark.parametrize("lam", A_CORPUS + [(5, 3, 1, 0)])
    def test_read_off_is_the_block_solve(self, lam):
        r = gl_rep(lam)
        assert contravariant_gram(r) == block_gram(r)

    def test_unspanned_block_is_not_determined(self):
        # without E(2,1) the block below the top is not spanned, so every
        # symmetric form on it satisfies its equations
        r = fresh_gl_rep((1, 0))
        r.gens[(2, 1)] = Operator(2)
        with pytest.raises(InconsistencyError,
                           match=r"^form is not determined at weight \(0,1\)$"):
            contravariant_gram(r)

    def test_zero_value_is_degenerate(self):
        r = fresh_gl_rep((1, 0))
        r.gens[(1, 2)] = Operator(2)
        with pytest.raises(InconsistencyError,
                           match=r"^form is degenerate at weight \(0,1\)$"):
            contravariant_gram(r)

    def test_span_falls_back_to_the_exact_rank(self):
        p = RANK_PRIME
        assert _spans([{0: 1}, {1: 3}], 2)
        # numerators that vanish mod p: the exact rank decides
        assert _spans([{0: p, 1: 2 * p}, {1: p}], 2)
        assert not _spans([{0: p, 1: 2 * p}, {0: 3, 1: 6}], 2)
        assert not _spans([], 1)

    def test_defining_gram_is_identity(self):
        r = gl_rep((1, 0))
        assert contravariant_gram(r) == scalar_op(2, 1)

    def test_adjoint_like_gram_values(self):
        r = gl_rep((2, 1, 0))
        g = contravariant_gram(r)
        diag = [g.ent.get((i, i)) for i in range(r.dim)]
        assert diag == [Fraction(x) for x in (9, 9, 6, 4, 2, 1, 1, 1)]

    @pytest.mark.parametrize("lam", [(1, 0), (2, 0), (2, 1, 0), (1, 1, 0)])
    def test_adjointness_relations(self, lam):
        r = gl_rep(lam)
        g = contravariant_gram(r)
        for i in range(1, r.n + 1):
            for j in range(1, r.n + 1):
                assert transpose(r.gen(i, j)) @ g == g @ r.gen(j, i)


@pytest.mark.parametrize("lam, c", SHIFTED, ids=SHIFT_IDS)
class TestNonIntegralWeights:
    """gl(n) weights off the integers: adding c to every entry of lam
    gives the same matrices with each E(k,k) moved by c times the
    identity, over a basis of the same size and order."""

    def test_shift_moves_only_the_diagonal(self, lam, c):
        base = gl_rep(lam)
        r = shifted_rep(lam, c)
        assert r.dim == base.dim == weyl_dim("A", r.lam)
        assert len(set(r.patterns)) == r.dim
        shift = scalar_op(r.dim, c)
        for (i, j), op in base.gens.items():
            want = op + shift if i == j else op
            assert r.gen(i, j) == want, (i, j)

    def test_form_is_the_global_solve(self, lam, c):
        r = shifted_rep(lam, c)
        assert contravariant_gram(r) == global_gram(r)

    def test_full_verification_passes(self, lam, c):
        report = run_verification(shifted_rep(lam, c), "A", level="full")
        assert report.passed

    def test_patterns_round_trip_through_json(self, lam, c):
        for p in shifted_rep(lam, c).patterns:
            assert PatternA.from_json(p.to_json()) == p
