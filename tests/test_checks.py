"""Independent oracles: dimensions, branching, Casimir, multiplicities."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from types import SimpleNamespace

from conftest import (A_CORPUS, B_CORPUS, B_WEIGHT_GRID, all_raising,
                      block_gram, defining_intertwiner, fresh_gl_rep,
                      fresh_so_rep, gl_rep, pairwise_structure_witness,
                      perm_capelli, ref_casimir_walk, ref_freudenthal,
                      scalar_op, single_entry_mutants, so_rep)
from gtrep import (
    NonScalarError,
    Operator,
    nullspace,
    VerificationReport,
    branching_multiplicity,
    casimir_highest_value,
    casimir_scalar,
    check_branching,
    check_structure_constants,
    defining_operators,
    freudenthal_multiplicities,
    run_verification,
    weyl_dim,
)
from gtrep import checks, glrep
from gtrep.checks import (_freudenthal, _joint_kernel, _orbit, _phi_witness,
                          _raising, _root_datum, _structure_witness,
                          presentation)
from gtrep.linalg import product_sum, restricted_rows
from gtrep.patterns import canonical_slots
from gtrep.sorep import _canon_slot


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


def _weyl_fraction_product(algebra_type, lam):
    # Weyl's product factor by factor on Fractions, over the positive
    # roots written out here
    n = len(lam)
    top = tuple(-x for x in reversed(lam)) if algebra_type == "B" else lam
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for s in ((-1, 1) if algebra_type == "B" else (-1,)):
                roots.append({i: 1, j: s})
        if algebra_type == "B":
            roots.append({i: 1})
    rho = [sum(al.get(i, 0) for al in roots) / Fraction(2) for i in range(n)]
    acc = Fraction(1)
    for al in roots:
        acc *= (sum((top[i] + rho[i]) * a for i, a in al.items())
                / sum(rho[i] * a for i, a in al.items()))
    return acc


# any tuple of ints shifted by one common class: dominant or not, so the
# product may be a non-integer, zero or negative
weyl_cases = st.tuples(
    st.sampled_from(["A", "B"]),
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                     Fraction(1, 3)]))


class TestWeylDimOnInts:
    @settings(max_examples=300)
    @given(weyl_cases)
    def test_equals_the_fraction_product(self, case):
        algebra, ints, shift = case
        lam = tuple(x + shift for x in ints)
        want = _weyl_fraction_product(algebra, lam)
        if want.denominator == 1 and want > 0:
            assert weyl_dim(algebra, lam) == want
        else:
            with pytest.raises(ValueError, match="gave %s for" % want):
                weyl_dim(algebra, lam)

    @given(st.sampled_from(["A", "B"]),
           st.lists(st.integers(-4, 0), min_size=1, max_size=5),
           st.booleans())
    def test_dominant_weights_are_positive_integers(self, algebra, ints,
                                                    half):
        lam = tuple(sorted((x - Fraction(1, 2) if half else Fraction(x)
                            for x in ints), reverse=True))
        assert weyl_dim(algebra, lam) == _weyl_fraction_product(algebra, lam)


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


# the type B modules of the benchmark's verify-full and build-deformed
# workloads
BENCH_B = [("-1", "-1", "-2"), ("-1/2", "-3/2", "-5/2"),
           ("-1/2", "-1/2", "-1/2", "-3/2")]


def _kernel_counts(rep, ops):
    # the common kernel's dimension on each o(2n-1) weight's columns
    groups = {}
    for c, w in enumerate(rep.weights):
        groups.setdefault(w[:rep.n - 1], []).append(c)
    return {mu: len(nullspace(restricted_rows(ops, cols), len(cols)))
            for mu, cols in groups.items()}


class TestSimpleRaisingKernels:
    """The kernels on the simple raising operators F(m-1,m) against the
    kernels on every raising slot of o(2k-1)."""

    @pytest.mark.parametrize("w", B_CORPUS + BENCH_B)
    def test_branching_counts_are_the_all_slot_counts(self, w):
        r = so_rep(w)
        assert len(_raising(r, r.n)) == r.n - 1
        assert _kernel_counts(r, _raising(r, r.n)) == _kernel_counts(
            r, all_raising(r, r.n))

    @pytest.mark.parametrize("w", B_CORPUS + BENCH_B)
    def test_joint_kernels_are_the_all_slot_kernels(self, w):
        r = so_rep(w)
        for k in range(1, r.n + 1):
            want = nullspace(restricted_rows(all_raising(r, k),
                                             range(r.dim)), r.dim)
            assert len(_joint_kernel(r, k)) == len(want), k

    @pytest.mark.parametrize("w, slot, key", [
        (("-1", "-2"), (0, 1), (1, 4)), (("0", "-1"), (0, 1), (2, 1))])
    def test_count_at_a_non_dominant_weight_fails_the_line(self, w, slot,
                                                           key):
        # the deletion leaves a highest vector at an o(2n-1) weight with
        # no interleaving tuples, where Weyl's formula gives -1: a failed
        # line naming that weight, not a ValueError
        r = fresh_so_rep(w)
        del r.gens[slot].ent[key]
        counts = _kernel_counts(r, _raising(r, r.n))
        bad = [mu for mu, got in counts.items()
               if got and not branching_multiplicity(r.lam, mu)]
        assert bad
        for mu in bad:
            with pytest.raises(ValueError, match="dimension formula gave -1"):
                weyl_dim("B", mu)
        lines = check_branching(r).checks
        assert not lines[0]["pass"] and lines[0]["witness"]
        report = run_verification(r, "B", level="full")
        assert report.summary() == "fail"


BRANCHING = ("subalgebra highest-vector counts match the interval counts",
             "branching dimensions sum to the module dimension")
PHI = "quadratic form of the primed-lowering operator matches its definition"
FORM = "contravariant form is diagonal and nondegenerate"


def _reference_report(r, algebra, monkeypatch):
    # run_verification with the all-slot kernels and the block solve
    with monkeypatch.context() as m:
        m.setattr(checks, "_raising", all_raising)
        m.setattr(checks, "contravariant_gram",
                  lambda rep, forms=None: block_gram(rep))
        return run_verification(r, algebra, level="full")


class TestMutantsAgainstReferences:
    """Single-entry mutants (each entry doubled, each entry deleted, one
    entry added) slot by slot: the summary is the reference oracles',
    the form line's verdict is the block solve's, and on doubled and
    deleted entries the branching and phi lines flag at least what the
    all-slot kernels flag. An entry added to a slot that is not a simple
    raising operator, F(-1,0) or F(-1,1), can fail the reference's
    branching lines and not these; the structure oracle flags it."""

    @pytest.mark.parametrize("algebra, w, every", [
        ("B", ("0", "-1"), 1), ("B", ("-1/2", "-3/2"), 3),
        ("A", (2, 1, 0), 1), ("A", (2, 0, 0), 1)])
    def test_verdicts(self, algebra, w, every, monkeypatch):
        r = fresh_gl_rep(w) if algebra == "A" else fresh_so_rep(w)
        seen = 0
        newly = 0
        for slot in sorted(r.gens):
            orig = r.gens[slot]
            added = len(orig.ent) * 2
            for t, bad in enumerate(single_entry_mutants(r, slot,
                                                         deleted=True)):
                if t % every:
                    continue
                r.gens[slot] = bad
                new = run_verification(r, algebra, level="full")
                ref = _reference_report(r, algebra, monkeypatch)
                r.gens[slot] = orig
                seen += 1
                assert new.summary() == ref.summary() == "fail", slot
                got = {c["name"]: c["pass"] for c in new.checks}
                want = {c["name"]: c["pass"] for c in ref.checks}
                assert got.keys() == want.keys()
                for name in got:
                    if name in BRANCHING + (PHI,):
                        if t < added:
                            assert got[name] <= want[name], (slot, name)
                        newly += got[name] < want[name]
                    else:
                        assert got[name] == want[name], (slot, name)
        assert seen
        if algebra == "B":
            assert newly


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

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_so_canonical_sum_is_half_the_all_slot_sum(self, w):
        r = so_rep(w)
        acc = product_sum(r.dim, [(1, r.gens[(i, j)], r.gens[(j, i)])
                                  for (i, j) in sorted(r.gens)])
        assert acc == scalar_op(r.dim, 2 * casimir_scalar(r))

    def test_so_value_is_half_the_bracket_table_walk(self):
        assert len(B_WEIGHT_GRID) == 138
        for lam in B_WEIGHT_GRID:
            assert ref_casimir_walk(lam) == 2 * casimir_highest_value(
                "B", lam), lam

    def test_canonical_slots_in_sorted_order(self):
        gens = so_rep(("0", "-1")).gens
        slots = canonical_slots(gens)
        assert slots == sorted(s for s in gens if sum(s) <= 0)
        assert slots == sorted(
            {_canon_slot(*s)[0] for s in gens} - {None}
            | {(i, -i) for i in range(-2, 3)})
        assert sorted(glrep.int_forms(so_rep(("0", "-1")))) == slots
        gens = gl_rep((2, 1, 0)).gens
        assert canonical_slots(gens) == sorted(gens)

    @pytest.mark.parametrize("algebra, w, slot", [
        ("B", ("-1",), (-1, 0)), ("B", ("0", "-1"), (-2, 1)),
        ("A", (2, 1, 0), (1, 3))])
    def test_witness_is_the_smallest_off_scalar_entry(self, algebra, w,
                                                      slot):
        # the reference sums the products over all slots, one Operator at
        # a time; a canonical slot's mutant leaves the remainder of the
        # canonical sum, the all-slot sum minus its unmutated mirror half
        r = fresh_gl_rep(w) if algebra == "A" else fresh_so_rep(w)
        r.gens[slot].ent[(0, 1)] = Fraction(7)
        acc = Operator(r.dim)
        for (i, j) in sorted(r.gens):
            acc = acc + r.gens[(i, j)] @ r.gens[(j, i)]
        rem = acc - scalar_op(r.dim, acc.ent.get((0, 0), Fraction(0)))
        key = min(rem.ent)
        with pytest.raises(NonScalarError) as e:
            casimir_scalar(r)
        assert e.value.witness == (*key, rem.ent[key])

    @pytest.mark.parametrize("algebra, w, slot", [
        ("B", ("-1/2", "-3/2"), (-2, -1)), ("A", (3, 1, 0), (2, 1))])
    def test_witness_is_the_product_sum_witness(self, algebra, w, slot):
        # the Operator sum on one product_sum accumulator, minus its (0,0)
        # entry times the identity, at its smallest remaining position
        r = fresh_gl_rep(w) if algebra == "A" else fresh_so_rep(w)
        key = max(r.gens[slot].ent)
        r.gens[slot].ent[key] *= 3
        acc = product_sum(r.dim, [(1, r.gens[(i, j)], r.gens[(j, i)])
                                  for (i, j) in sorted(r.gens)])
        rem = acc - scalar_op(r.dim, acc.ent.get((0, 0), Fraction(0)))
        pos = min(rem.ent)
        with pytest.raises(NonScalarError) as e:
            casimir_scalar(r)
        assert e.value.witness == (*pos, rem.ent[pos])
        report = run_verification(r, algebra, level="full")
        line = {c["name"]: c for c in report.checks}[
            "Casimir sum is the scalar dictated by the top weight"]
        assert line["witness"] == str((*pos, rem.ent[pos]))

    def test_nonscalar_raises_with_witness(self):
        r = fresh_so_rep(("-1",))
        r.gens[(-1, 0)].ent[(0, 1)] = Fraction(7)
        with pytest.raises(NonScalarError) as e:
            casimir_scalar(r)
        assert e.value.witness is not None


class TestFreudenthal:
    @settings(max_examples=200)
    @given(st.lists(st.integers(-1, 2), max_size=6).map(tuple))
    def test_orbit_is_each_distinct_permutation_once(self, t):
        got = list(_orbit(t, False))
        assert len(got) == len(set(got))
        assert set(got) == set(itertools.permutations(t))

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 2), max_size=5).map(tuple))
    def test_signed_orbit_is_each_signed_permutation_once(self, t):
        got = list(_orbit(t, True))
        assert len(got) == len(set(got))
        assert set(got) == {tuple(s * x for s, x in zip(signs, p))
                            for p in itertools.permutations(t)
                            for signs in itertools.product((1, -1),
                                                           repeat=len(t))}

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

    # small weights: gl(1..4) entries 0..4, shifted off the integers or
    # not; o(3..7) entries 0..-3, integral or half-odd
    small_weights = st.one_of(
        st.tuples(st.just("A"),
                  st.lists(st.integers(0, 4), min_size=1, max_size=4),
                  st.sampled_from([0, Fraction(1, 2), Fraction(-2, 3)])),
        st.tuples(st.just("B"),
                  st.lists(st.integers(-3, 0), min_size=1, max_size=3),
                  st.sampled_from([0, Fraction(-1, 2)])))

    @settings(max_examples=60, deadline=None)
    @given(small_weights)
    def test_memoised_line_sums_match_the_string_walk(self, case):
        algebra, entries, shift = case
        lam = tuple(sorted((x + shift for x in entries), reverse=True))
        datum = _root_datum(algebra, lam)
        assert _freudenthal(*datum) == ref_freudenthal(*datum)


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
            bad = Operator(orig.dim, dict(orig.ent))
            bad.add_to(*(min(orig.ent) if orig.ent else (0, 0)),
                       Fraction(1, 3))
            r.gens[slot] = bad
            assert not check_structure_constants(r, algebra).passed, slot
            r.gens[slot] = orig

    def test_scalar_in_vanishing_slot_detected(self):
        # F(1,-1) = 0 in every module; the identity commutes with all
        # generators, so only the entrywise slot comparison catches it
        r = fresh_so_rep(("0", "-1"))
        r.gens[(1, -1)] = scalar_op(r.dim, 1)
        report = run_verification(r, "B", "fast")
        assert not report.passed
        assert report.checks[0]["witness"] == str(("antisymmetry", (1, -1)))


def _hand_cartan(algebra, n):
    # Cartan matrices written out: A_(n-1) for gl(n); B_n with the short
    # simple root F(0,1) first, so a[0][1] = -2
    r = n - 1 if algebra == "A" else n
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(r)]
         for i in range(r)]
    if algebra == "B" and n >= 2:
        a[0][1] = -2
    return a


def _defining_module(algebra, n):
    # the defining module wrapped as a module: o(2n+1) on 2n+1 vectors,
    # gl(n) on the elementary matrices
    if algebra == "B":
        return SimpleNamespace(n=n, dim=2 * n + 1, gens=defining_operators(n))
    gens = {(i, j): Operator(n, {(i - 1, j - 1): Fraction(1)})
            for i in range(1, n + 1) for j in range(1, n + 1)}
    return SimpleNamespace(n=n, dim=n, gens=gens)


def _count_commutators(monkeypatch):
    calls = []
    commutator = Operator.commutator

    def counted(a, b):
        calls.append(1)
        return commutator(a, b)

    monkeypatch.setattr(Operator, "commutator", counted)
    return calls


class TestStructurePresentation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("algebra", ["A", "B"])
    def test_cartan_matrix_read_off_the_defining_module(self, algebra, n):
        assert presentation(algebra, n).cartan_matrix == \
            _hand_cartan(algebra, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("algebra", ["A", "B"])
    def test_plan_reaches_every_other_canonical_slot_once(self, algebra, n):
        p = presentation(algebra, n)
        if algebra == "A":
            slots = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}

            def canon(s):
                return s
        else:
            slots = {_canon_slot(i, j)[0] for i in range(-n, n + 1)
                     for j in range(-n, n + 1)} - {None}

            def canon(s):
                return _canon_slot(*s)[0]
        given = {canon(s) for s in p.cartan} | {
            canon(s) for pair in p.pairs for s in pair}
        targets = [t for _, _, t in p.plan]
        assert len(set(targets)) == len(targets)
        assert given.isdisjoint(targets)
        assert given | set(targets) == slots
        simple = {s for pair in p.pairs for s in pair}
        reached = set(given)
        for x, y, target in p.plan:
            assert x in reached and y in simple
            terms = p.table[(x, y)]
            assert list(terms) == [target] and abs(terms[target]) == 1
            reached.add(target)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("algebra", ["A", "B"])
    def test_passes_on_the_defining_module(self, algebra, n):
        rep = _defining_module(algebra, n)
        assert _structure_witness(rep, algebra) is None
        assert check_structure_constants(rep, algebra).passed

    def test_no_serre_pairs_or_extra_slots_at_rank_one(self):
        for algebra in ("A", "B"):
            p = presentation(algebra, 1)
            assert p.plan == []
            assert all(len(row) <= 1 for row in p.cartan_matrix)
        assert presentation("A", 1).pairs == []

    @pytest.mark.parametrize("algebra, w", [
        ("B", ("-1",)), ("B", ("-1/2",)), ("B", ("0",)), ("B", ("0", "0")),
        ("B", ("0", "0", "0")), ("A", (3,)), ("A", (0,)), ("A", (0, 0, 0))])
    def test_passes_on_rank_one_and_trivial_modules(self, algebra, w):
        rep = gl_rep(w) if algebra == "A" else so_rep(w)
        assert _structure_witness(rep, algebra) is None

    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_agrees_with_pairwise_on_gl_corpus(self, lam):
        r = gl_rep(lam)
        assert _structure_witness(r, "A") is None
        assert pairwise_structure_witness(r, "A") is None

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_agrees_with_pairwise_on_so_corpus(self, w):
        r = so_rep(w)
        assert _structure_witness(r, "B") is None
        assert pairwise_structure_witness(r, "B") is None

    @pytest.mark.parametrize("algebra, w", [
        ("B", ("0", "-1")), ("B", ("-1/2", "-3/2")), ("A", (2, 1, 0))])
    def test_agrees_with_pairwise_on_single_entry_mutants(self, algebra, w):
        # each entry doubled and one entry added, slot by slot; type B
        # also applies each mutant of a canonical slot to its mirror
        # F(-j,-i) = -F(i,j), which the canonical-form comparison passes
        r = fresh_gl_rep(w) if algebra == "A" else fresh_so_rep(w)
        flagged = 0
        for slot in sorted(r.gens):
            orig = r.gens[slot]
            mirror = None
            if algebra == "B" and _canon_slot(*slot)[0] == slot:
                mirror = (-slot[1], -slot[0])
            for bad in single_entry_mutants(r, slot):
                for both in (False, True) if mirror else (False,):
                    saved = r.gens[mirror] if both else None
                    r.gens[slot] = bad
                    if both:
                        r.gens[mirror] = -bad
                    new = _structure_witness(r, algebra)
                    old = pairwise_structure_witness(r, algebra)
                    assert (new is None) == (old is None), (slot, new, old)
                    flagged += new is not None
                    if both:
                        r.gens[mirror] = saved
            r.gens[slot] = orig
        assert flagged
        assert _structure_witness(r, algebra) is None

    @pytest.mark.parametrize("algebra, n", [("A", 3), ("A", 5), ("B", 2),
                                            ("B", 4)])
    def test_fewer_commutators_than_pairs(self, algebra, n, monkeypatch):
        # O(n^2) commutators, against O(n^4) for every pair
        rep = _defining_module(algebra, n)
        presentation(algebra, n)
        calls = _count_commutators(monkeypatch)
        assert _structure_witness(rep, algebra) is None
        new = len(calls)
        del calls[:]
        assert pairwise_structure_witness(rep, algebra) is None
        assert new <= 7 * n * n and new < len(calls)

    def test_witness_names_the_failed_relation(self):
        def fails(mutate):
            r = fresh_gl_rep((2, 1, 0))
            mutate(r)
            w = _structure_witness(r, "A")
            assert check_structure_constants(r, "A").checks[0]["witness"] \
                == str(w)
            return w

        def doubled(slot):
            def mutate(r):
                r.gens[slot] = r.gens[slot].scale(2)
            return mutate

        def off_diagonal_cartan(r):
            # an entry of E(1,1) between weights that E(2,2) tells apart
            wt = r.weights
            rc = next((a, b) for a in range(r.dim) for b in range(r.dim)
                      if wt[a][1] != wt[b][1])
            r.gens[(1, 1)].ent[rc] = Fraction(1)

        def diagonal_in_raising(r):
            r.gens[(1, 2)].ent[(0, 0)] = Fraction(1)

        assert fails(off_diagonal_cartan)[:1] == ("cartan",)
        assert fails(diagonal_in_raising) == ("root", (1, 1), (1, 2))
        assert fails(doubled((1, 2))) == ("chevalley", (1, 2), (2, 1))
        assert fails(doubled((1, 3)))[0] == "closure"


STRUCTURE = "all generator commutators match the bracket table"
CAPELLI = "determinant central element acts by the expected scalar"


def _verdicts(r, algebra):
    return {c["name"]: c["pass"]
            for c in run_verification(r, algebra, level="full").checks}


class TestScaledFormsAreNotKept:
    # the oracles scale the generators to int forms afresh on every run,
    # so an entry changed in place after a passing run is seen

    def test_entry_changed_after_a_passing_run_fails(self):
        r = fresh_gl_rep((3, 1, 0))
        assert all(_verdicts(r, "A").values())
        key = min(r.gens[(2, 1)].ent)
        r.gens[(2, 1)].ent[key] *= 2
        got = _verdicts(r, "A")
        assert not got[STRUCTURE] and not got[CAPELLI]

    def test_capelli_verdict_is_the_permutation_sum_test(self):
        # every single-entry mutant of E(2,1), the added 1/3 entry
        # included: the verdict of the int-form expansion against the
        # scalar test on the n! permutation sum
        r = fresh_gl_rep((2, 1, 0))
        orig = r.gens[(2, 1)]
        ls = [Fraction(x) - i for i, x in enumerate(r.lam)]
        verdicts = set()
        for bad in single_entry_mutants(r, (2, 1)):
            r.gens[(2, 1)] = bad
            want = True
            for u in (Fraction(0), Fraction(1), Fraction(-1), Fraction(7)):
                scal = Fraction(1)
                for l in ls:
                    scal *= u + l
                if perm_capelli(r, u) != scalar_op(r.dim, scal):
                    want = False
                    break
            assert _verdicts(r, "A")[CAPELLI] == want
            verdicts.add(want)
        r.gens[(2, 1)] = orig
        assert False in verdicts


class TestOneIntTable:
    @pytest.mark.parametrize("algebra, w", [("A", (2, 1, 0)),
                                            ("B", ("0", "-1"))])
    def test_full_verification_scales_the_generators_once(
            self, algebra, w, monkeypatch):
        calls = []
        real = checks.int_forms

        def int_forms(rep):
            calls.append(rep)
            return real(rep)
        monkeypatch.setattr(checks, "int_forms", int_forms)
        monkeypatch.setattr(glrep, "int_forms", int_forms)
        r = gl_rep(w) if algebra == "A" else so_rep(w)
        assert run_verification(r, algebra, level="full").passed
        assert calls == [r]
        del calls[:]
        run_verification(r, algebra)
        assert calls == []


class TestPhiIdentity:
    @pytest.mark.parametrize("w", [("-1",), ("0", "-1"), ("-1/2", "-3/2"),
                                   ("0", "0", "-1")])
    def test_quadratic_expression_matches(self, w):
        assert _phi_witness(so_rep(w)) is None


class TestEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vector_module_is_the_defining_one(self, n):
        r = so_rep(tuple(["0"] * (n - 1) + ["-1"]))
        s, target = defining_intertwiner(r)
        # monomial and invertible: one nonzero entry in each row and column
        assert (sorted(p for p, _ in s.ent) == sorted(c for _, c in s.ent)
                == list(range(r.dim)))
        assert all(s.ent.values())
        for key in sorted(r.gens):
            assert s @ r.gens[key] == target[key] @ s, (n, key)


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
