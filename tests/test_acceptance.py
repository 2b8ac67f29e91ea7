"""End-to-end acceptance: exact identities on the full test corpus."""

import json
from fractions import Fraction

import pytest

from conftest import (A_CORPUS, B_CORPUS, capelli_det, defining_intertwiner,
                      deformed_raise, gl_rep, mu_vector_index, scalar_op,
                      so_rep, transpose, z_raise)
from gtrep import (
    Operator,
    Rep,
    casimir_scalar,
    check_branching,
    check_weight_so,
    contravariant_gram,
    enumerate_patterns_b,
    freudenthal_multiplicities,
    structure_table,
    weyl_dim,
)
from gtrep.cli import main
from gtrep.sorep import build_f_raise, build_phi_minus


class TestSpinorHandValues:
    """The rank 1 spinor module, checked entry by entry."""

    def test_raising_sends_primed_vector_to_half_plain(self):
        r = so_rep(("-1/2",))
        # basis order: plain vector first, primed second
        assert r.gens[(0, 1)].column(1) == {0: Fraction(1, 2)}

    def test_raising_kills_plain_vector(self):
        r = so_rep(("-1/2",))
        assert r.gens[(0, 1)].column(0) == {}

    def test_primed_lowering_operator_vanishes_identically(self):
        lam = check_weight_so(("-1/2",))
        basis = Rep(lam, enumerate_patterns_b(lam))
        assert build_phi_minus(basis, 1) == Operator(2)


class TestStructureConstants:
    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_gl_commutators_exact(self, lam):
        r = gl_rep(lam)
        n = r.n
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(1, n + 1):
                    for d in range(1, n + 1):
                        got = r.gen(a, b).commutator(r.gen(c, d))
                        want = Operator(r.dim)
                        if b == c:
                            want = want + r.gen(a, d)
                        if d == a:
                            want = want - r.gen(c, b)
                        assert got == want, (lam, (a, b), (c, d))

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_so_commutators_exact(self, w):
        r = so_rep(w)
        tab = structure_table(r.n)
        for ab in sorted(r.gens):
            for cd in sorted(r.gens):
                got = r.gens[ab].commutator(r.gens[cd])
                want = Operator(r.dim)
                for slot, coef in tab[(ab, cd)].items():
                    want = want + r.gens[slot].scale(coef)
                assert got == want, (w, ab, cd)


class TestDimensions:
    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_gl_basis_size_is_the_dimension_formula(self, lam):
        assert gl_rep(lam).dim == weyl_dim("A", lam)

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_so_basis_size_is_the_dimension_formula(self, w):
        r = so_rep(w)
        assert r.dim == weyl_dim("B", r.lam)

    def test_named_small_cases(self):
        assert so_rep(("-1",)).dim == 3
        assert so_rep(("-1/2",)).dim == 2
        assert so_rep(("0", "-1")).dim == 5
        assert so_rep(("-1/2", "-1/2")).dim == 4
        assert gl_rep((2, 1, 0)).dim == 8


class TestBranching:
    @pytest.mark.parametrize("w", [w for w in B_CORPUS if len(w) >= 2])
    def test_restriction_counts_and_dimension_identity(self, w):
        report = check_branching(so_rep(w))
        assert report.passed, report.summary()


class TestCentralElementPolynomial:
    @pytest.mark.parametrize("lam", A_CORPUS)
    @pytest.mark.parametrize("u", [0, 1, -1, 7])
    def test_acts_by_the_content_product(self, lam, u):
        r = gl_rep(lam)
        want = Fraction(1)
        for j, x in enumerate(r.lam, start=1):
            want *= u + Fraction(x) - j + 1
        assert capelli_det(r, Fraction(u)) == scalar_op(r.dim, want)


class TestSeriesRaisingIdentity:
    def test_one_box_moves_with_the_predicted_coefficient(self):
        r = gl_rep((2, 1, 0))
        ls = [Fraction(x) - j for j, x in enumerate(r.lam)]
        admissible = [(2, 1), (2, 0), (1, 1), (1, 0)]
        for mu in admissible:
            src = mu_vector_index(r, mu)
            assert src is not None
            for i in (1, 2):
                mi = Fraction(mu[i - 1]) - i + 1
                coef = Fraction(-1)
                for l in ls:
                    coef *= mi - l
                shifted = list(mu)
                shifted[i - 1] += 1
                tgt = mu_vector_index(r, tuple(shifted))
                got = z_raise(r, i).column(src)
                if tgt is None:
                    assert coef == 0, (mu, i)
                    assert got == {}, (mu, i)
                else:
                    want = {tgt: coef} if coef else {}
                    assert got == want, (mu, i)


class TestContravariantForm:
    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_diagonal_nonzero_and_adjoint(self, lam):
        r = gl_rep(lam)
        g = contravariant_gram(r)
        for (a, b), v in g.ent.items():
            assert a == b and v != 0
        for c in range(r.dim):
            assert g.ent.get((c, c))
        for i in range(1, r.n + 1):
            for j in range(1, r.n + 1):
                assert transpose(r.gen(i, j)) @ g == g @ r.gen(j, i), (lam, i, j)


class TestCasimirScalarity:
    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_gl_sum_is_scalar(self, lam):
        casimir_scalar(gl_rep(lam))  # raises on any off-scalar entry

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_so_sum_is_scalar(self, w):
        casimir_scalar(so_rep(w))


class TestDefiningEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_intertwiner_exists_and_conjugates_exactly(self, n):
        w = tuple(["0"] * (n - 1) + ["-1"])
        r = so_rep(w)
        s, target = defining_intertwiner(r)
        # monomial and invertible: one nonzero entry in each row and column
        assert (sorted(p for p, _ in s.ent) == sorted(c for _, c in s.ent)
                == list(range(r.dim)))
        assert all(s.ent.values())
        for key in sorted(r.gens):
            assert s @ r.gens[key] == target[key] @ s, (n, key)


class TestWeightHistogram:
    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_gl_matches_the_recursion_oracle(self, lam):
        r = gl_rep(lam)
        hist = {}
        for wt in r.weights:
            key = tuple(Fraction(x) for x in wt)
            hist[key] = hist.get(key, 0) + 1
        assert hist == freudenthal_multiplicities("A", lam)

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_so_matches_the_recursion_oracle(self, w):
        r = so_rep(w)
        hist = {}
        for wt in r.weights:
            hist[wt] = hist.get(wt, 0) + 1
        assert hist == freudenthal_multiplicities("B", r.lam)


class TestDeterminism:
    def test_repeated_builds_are_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("x.json", "y.json"):
            p = tmp_path / name
            code = main(["build", "--type", "B", "--rank", "2",
                         "--weight", "-1/2,-3/2", "--out", str(p)])
            capsys.readouterr()
            assert code == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_repeated_csv_builds_are_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("x.csv", "y.csv"):
            p = tmp_path / name
            code = main(["build", "--type", "A", "--rank", "3",
                         "--weight", "2,1,0", "--format", "csv",
                         "--out", str(p)])
            capsys.readouterr()
            assert code == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_deformed_route_agrees_with_plain_route(self, w):
        lam = check_weight_so(w)
        basis = Rep(lam, enumerate_patterns_b(lam))
        for k in range(1, basis.n + 1):
            plain = build_f_raise(basis, k)
            deformed = deformed_raise(basis, k)
            assert plain == deformed, (w, k)


class TestVerifySuiteOverCorpus:
    """The CLI verify command must go green on every corpus member."""

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_so_full_suite(self, w, capsys):
        code = main(["verify", "--type", "B", "--rank", str(len(w)),
                     "--weight", ",".join(w), "--level", "full"])
        out, _ = capsys.readouterr()
        assert code == 0, out
        assert json.loads(out)["summary"] == "pass"

    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_gl_full_suite(self, lam, capsys):
        code = main(["verify", "--type", "A", "--rank", str(len(lam)),
                     "--weight", ",".join(str(x) for x in lam),
                     "--level", "full"])
        out, _ = capsys.readouterr()
        assert code == 0, out
        assert json.loads(out)["summary"] == "pass"

    @pytest.mark.parametrize("algebra, weight, dim", [
        ("B", ["0"] * 11 + ["-1"], 25), ("B", ["0"] * 12, 1),
        ("A", ["1"] + ["0"] * 11, 12)],
        ids=["B-vector-rank12", "B-trivial-rank12", "A-vector-rank12"])
    def test_high_rank_small_module_full_suite(self, algebra, weight, dim,
                                               capsys):
        # the Freudenthal orbits are distinct permutations, not a set of
        # all 12! orderings, so these finish in about a second
        argv = ["--type", algebra, "--rank", "12", "--weight", ",".join(weight)]
        assert main(["dim"] + argv) == 0
        assert capsys.readouterr()[0] == "%d\n" % dim
        code = main(["verify"] + argv + ["--level", "full"])
        out, _ = capsys.readouterr()
        assert code == 0, out
        assert json.loads(out)["summary"] == "pass"
