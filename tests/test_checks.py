"""Independent oracles: dimensions, branching, Casimir, multiplicities."""

import json
from fractions import Fraction

import pytest

from conftest import (A_CORPUS, B_CORPUS, fresh_gl_rep, fresh_so_rep, gl_rep,
                      so_rep)
from gtrep import (
    NonScalarError,
    Operator,
    VerificationReport,
    branching_multiplicity,
    casimir_highest_value,
    casimir_scalar,
    check_branching,
    check_structure_constants,
    defining_operators,
    equivalence_intertwiner,
    freudenthal_multiplicities,
    run_verification,
    weyl_dim,
)
from gtrep.checks import _phi_witness


class TestWeylDim:
    def test_known_values(self):
        assert weyl_dim("B", (Fraction(-1),)) == 3
        assert weyl_dim("B", (Fraction(-1, 2),)) == 2
        assert weyl_dim("B", (Fraction(0), Fraction(-1))) == 5
        assert weyl_dim("B", (Fraction(-1, 2), Fraction(-1, 2))) == 4
        assert weyl_dim("A", (2, 1, 0)) == 8

    def test_trivial_weights(self):
        assert weyl_dim("A", (0, 0)) == 1
        assert weyl_dim("B", (Fraction(0), Fraction(0), Fraction(0))) == 1

    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_matches_gl_basis_size(self, lam):
        assert weyl_dim("A", lam) == gl_rep(lam).dim

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_matches_so_basis_size(self, w):
        r = so_rep(w)
        assert weyl_dim("B", r.lam) == r.dim


class TestBranchingCount:
    def test_interval_examples(self):
        lam = (Fraction(0), Fraction(-1))
        assert branching_multiplicity(lam, (Fraction(0),)) == 2
        assert branching_multiplicity(lam, (Fraction(-1),)) == 1

    def test_parity_mismatch_is_zero(self):
        lam = (Fraction(0), Fraction(-1))
        assert branching_multiplicity(lam, (Fraction(-1, 2),)) == 0

    def test_mixed_parity_label_raises(self):
        # not an assert, so the check survives python -O
        with pytest.raises(ValueError, match="parity"):
            branching_multiplicity((Fraction(0), Fraction(-1, 2)),
                                   (Fraction(0),))

    def test_empty_interval_is_zero(self):
        lam = (Fraction(0), Fraction(-1))
        assert branching_multiplicity(lam, (Fraction(-2),)) == 0

    def test_rank_one_restriction_counts_weights(self):
        # empty mu leaves only the lam intervals: one tuple per weight
        assert branching_multiplicity((Fraction(-1),), ()) == 3
        assert branching_multiplicity((Fraction(-1, 2),), ()) == 2


class TestBranchingKernels:
    @pytest.mark.parametrize("w", [("0", "-1"), ("-1/2", "-1/2"),
                                   ("-1", "-2"), ("0", "0", "-1")])
    def test_kernel_counts_match(self, w):
        rep = check_branching(so_rep(w))
        assert rep.passed, rep.summary()

    def test_trivial_weight_single_block(self):
        rep = check_branching(so_rep(("0", "0")))
        assert rep.passed


class TestCasimir:
    def test_gl_defining_value(self):
        assert casimir_scalar(gl_rep((1, 0))) == 2

    def test_gl_closed_form(self):
        for lam in [(1, 0), (2, 1, 0), (1, 1, 0, 0)]:
            assert casimir_scalar(gl_rep(lam)) == casimir_highest_value("A", lam)

    def test_trivial_is_zero(self):
        assert casimir_scalar(gl_rep((0, 0, 0))) == 0
        assert casimir_scalar(so_rep(("0", "0"))) == 0

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_so_matches_highest_vector_evaluation(self, w):
        r = so_rep(w)
        assert casimir_scalar(r) == casimir_highest_value("B", r.lam)

    def test_nonscalar_raises_with_witness(self):
        r = fresh_so_rep(("-1",))
        r.gens[(0, 1)].ent[(0, 1)] = Fraction(7)
        with pytest.raises(NonScalarError) as e:
            casimir_scalar(r)
        assert e.value.witness is not None


class TestFreudenthal:
    def test_vector_module_weights(self):
        got = freudenthal_multiplicities("B", (Fraction(0), Fraction(-1)))
        want = {
            (Fraction(0), Fraction(0)): 1,
            (Fraction(0), Fraction(1)): 1, (Fraction(0), Fraction(-1)): 1,
            (Fraction(1), Fraction(0)): 1, (Fraction(-1), Fraction(0)): 1,
        }
        assert got == want

    def test_gl_defining(self):
        got = freudenthal_multiplicities("A", (1, 0))
        assert got == {(Fraction(1), Fraction(0)): 1,
                       (Fraction(0), Fraction(1)): 1}

    def test_spinor(self):
        got = freudenthal_multiplicities("B", (Fraction(-1, 2),))
        assert got == {(Fraction(1, 2),): 1, (Fraction(-1, 2),): 1}

    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_matches_gl_histogram(self, lam):
        r = gl_rep(lam)
        hist = {}
        for w in r.weights:
            key = tuple(Fraction(x) for x in w)
            hist[key] = hist.get(key, 0) + 1
        assert freudenthal_multiplicities("A", lam) == hist

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_matches_so_histogram(self, w):
        r = so_rep(w)
        hist = {}
        for wt in r.weights:
            hist[wt] = hist.get(wt, 0) + 1
        assert freudenthal_multiplicities("B", r.lam) == hist


class TestStructure:
    @pytest.mark.parametrize("w", [("-1",), ("-1/2", "-3/2")])
    def test_so_passes(self, w):
        assert check_structure_constants(so_rep(w), "B").passed

    @pytest.mark.parametrize("lam", [(1, 0), (2, 1, 0)])
    def test_gl_passes(self, lam):
        assert check_structure_constants(gl_rep(lam), "A").passed

    def test_single_entry_perturbation_detected(self):
        r = fresh_so_rep(("0", "-1"))
        r.gens[(1, 2)].ent[(0, 0)] = Fraction(1, 3)
        assert not check_structure_constants(r, "B").passed

    @pytest.mark.parametrize("algebra, rep", [
        ("B", lambda: fresh_so_rep(("0", "-1"))),
        ("A", lambda: fresh_gl_rep((2, 1, 0)))])
    def test_every_slot_perturbation_detected(self, algebra, rep):
        r = rep()
        assert check_structure_constants(r, algebra).passed
        for slot in sorted(r.gens):
            orig = r.gens[slot]
            bad = orig.copy()
            bad.add_to(*(min(orig.ent) if orig.ent else (0, 0)),
                       Fraction(1, 3))
            r.gens[slot] = bad
            assert not check_structure_constants(r, algebra).passed, slot
            r.gens[slot] = orig

    def test_scalar_in_vanishing_slot_detected(self):
        # F(1,-1) = 0 in every module; the identity commutes with all
        # generators, so only the entrywise slot comparison catches it
        r = fresh_so_rep(("0", "-1"))
        r.gens[(1, -1)] = Operator.identity(r.dim)
        report = run_verification(r, "B", "fast")
        assert not report.passed
        assert report.checks[0]["witness"] == str(("antisymmetry", (1, -1)))


class TestPhiIdentity:
    @pytest.mark.parametrize("w", [("-1",), ("0", "-1"), ("-1/2", "-3/2"),
                                   ("0", "0", "-1")])
    def test_quadratic_expression_matches(self, w):
        assert _phi_witness(so_rep(w)) is None


class TestEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vector_module_is_the_defining_one(self, n):
        w = tuple(["0"] * (n - 1) + ["-1"])
        s = equivalence_intertwiner(so_rep(w), defining_operators(n))
        assert s is not None

    def test_dimension_mismatch_gives_none(self):
        assert equivalence_intertwiner(so_rep(("-1",)), defining_operators(2)) is None

    def test_wrong_module_gives_none(self):
        # spinor and defining module have equal dimension at rank 1? no:
        # 2 vs 3, so use the adjoint-sized mismatch instead
        r = so_rep(("-1", "-1"))
        assert r.dim == 10
        assert equivalence_intertwiner(r, defining_operators(2)) is None


class TestReportShape:
    def test_json_layout(self):
        rep = VerificationReport()
        rep.add("first", True, None)
        rep.add("second", False, (1, 2))
        obj = rep.to_json()
        json.dumps(obj)  # shape must serialize as-is
        assert set(obj) == {"checks", "summary"}
        assert obj["summary"] == "fail"
        assert obj["checks"][0] == {"name": "first", "pass": True,
                                    "witness": None}
        assert obj["checks"][1]["pass"] is False
        assert isinstance(obj["checks"][1]["witness"], str)

    def test_driver_fast_and_full(self):
        fast = run_verification(so_rep(("-1",)), "B", level="fast")
        assert fast.passed and len(fast.checks) == 3
        full = run_verification(so_rep(("-1",)), "B", level="full")
        assert full.passed and len(full.checks) == 8
        full_a = run_verification(gl_rep((2, 1, 0)), "A", level="full")
        assert full_a.passed and len(full_a.checks) == 7

    def test_driver_reports_perturbation(self):
        r = fresh_so_rep(("-1",))
        r.gens[(1, 1)].ent[(0, 0)] = Fraction(5)
        rep = run_verification(r, "B", level="full")
        assert not rep.passed
