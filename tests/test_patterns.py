"""Pattern enumeration, validity, ordering, serialization."""

from fractions import Fraction

import pytest

from conftest import (A_CORPUS, B_CORPUS, canonical_key, full_valid, gl_rep,
                      so_rep)
from gtrep import (
    DimensionCapError,
    PatternA,
    Rep,
    check_weight_gl,
    check_weight_so,
    enumerate_patterns_a,
    enumerate_patterns_b,
    weyl_dim,
)


class TestWeightValidation:
    def test_gl_accepts_weak_decrease(self):
        assert check_weight_gl((2, 1, 0)) == (2, 1, 0)
        assert check_weight_gl((1, 1)) == (1, 1)

    def test_gl_rejects_increase(self):
        with pytest.raises(ValueError):
            check_weight_gl((0, 1))

    def test_gl_rejects_fractional_gap(self):
        with pytest.raises(ValueError):
            check_weight_gl((Fraction(3, 2), 0))

    def test_so_parses_strings(self):
        w = check_weight_so(("-1/2", "-3/2"))
        assert w == (Fraction(-1, 2), Fraction(-3, 2))
        assert all(type(x) is Fraction for x in w)

    def test_so_rejects_mixed_parity(self):
        with pytest.raises(ValueError):
            check_weight_so(("0", "-1/2"))

    def test_so_rejects_positive_lead(self):
        with pytest.raises(ValueError):
            check_weight_so(("1",))

    def test_so_rejects_increase(self):
        with pytest.raises(ValueError):
            check_weight_so(("-2", "-1"))

    def test_so_rejects_thirds(self):
        with pytest.raises(ValueError):
            check_weight_so(("-1/3",))


class TestEnumerationCounts:
    @pytest.mark.parametrize("lam", A_CORPUS)
    def test_gl_count_matches_dimension_formula(self, lam):
        pats = enumerate_patterns_a(lam)
        assert len(pats) == weyl_dim("A", lam)

    @pytest.mark.parametrize("w", B_CORPUS)
    def test_so_count_matches_dimension_formula(self, w):
        pats = enumerate_patterns_b(check_weight_so(w))
        assert len(pats) == weyl_dim("B", check_weight_so(w))

    def test_known_small_counts(self):
        assert len(enumerate_patterns_b(check_weight_so(("-1",)))) == 3
        assert len(enumerate_patterns_b(check_weight_so(("-1/2",)))) == 2
        assert len(enumerate_patterns_b(check_weight_so(("0", "-1")))) == 5
        assert len(enumerate_patterns_b(check_weight_so(("-1/2", "-1/2")))) == 4
        assert len(enumerate_patterns_a((2, 1, 0))) == 8


class TestCanonicalOrder:
    def test_so_vector_module_order(self):
        pats = enumerate_patterns_b(check_weight_so(("-1",)))
        keys = [canonical_key(p) for p in pats]
        # sigma, then the doubled primed entry
        assert keys == [(0, -2), (0, 0), (1, -2)]

    def test_key_is_ascending_everywhere(self):
        # strictly: the key determines the pattern, so no two basis
        # members tie; the two modules at the cap put the integer-class
        # sigma filter and a long type A descent through it
        for w in B_CORPUS + [("-1", "-1", "-2", "-2")]:
            pats = enumerate_patterns_b(check_weight_so(w))
            keys = [canonical_key(p) for p in pats]
            assert all(a < b for a, b in zip(keys, keys[1:]))
        for lam in A_CORPUS + [(4, 3, 3, 3, 3, 3, 2, 0)]:
            pats = enumerate_patterns_a(lam)
            keys = [canonical_key(p) for p in pats]
            assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_no_duplicates(self):
        pats = enumerate_patterns_b(check_weight_so(("-1", "-2")))
        assert len(set(pats)) == len(pats)


class TestValidity:
    def test_enumerated_gl_patterns_interleave(self):
        for p in enumerate_patterns_a((3, 1, 0, 0)):
            assert p.interleaves()

    def test_enumerated_so_patterns_fully_valid(self):
        for p in enumerate_patterns_b(check_weight_so(("-1", "-2"))):
            assert full_valid(p)

    def test_gl_shift_out_of_range_detected(self):
        p = PatternA([[0], [1, 0]])
        q = p.shifted(1, 1, 1)
        assert q.interleaves() and q.rows[0] == (Fraction(1),)
        assert not p.shifted(1, 1, -1).interleaves()

    def test_so_shift_out_of_range_detected(self):
        p = enumerate_patterns_b(check_weight_so(("-1",)))[1]  # sigma 0, primed 0
        assert full_valid(p.shifted([("p", 1, 1, -1)]))
        assert not full_valid(p.shifted([("p", 1, 1, 1)]))

    def test_generic_valid_ignores_class_bound(self):
        # raising sigma without a deep enough primed entry breaks the
        # strict rule but not the interleaving one
        p = enumerate_patterns_b(check_weight_so(("-1",)))[1]
        q = p.shifted([("sig", 1)])
        assert q.interleaves() and not full_valid(q)


class TestCap:
    def test_cap_trips(self):
        with pytest.raises(DimensionCapError):
            enumerate_patterns_a((3, 1, 0, 0), cap=10)
        with pytest.raises(DimensionCapError):
            enumerate_patterns_b(check_weight_so(("-1", "-2")), cap=10)

    def test_cap_allows_exact_fit(self):
        assert len(enumerate_patterns_a((1, 0), cap=2)) == 2


class TestSerialization:
    def test_gl_entries_off_one_class_raise(self):
        # entries of one pattern differ by integers; 0 and 1/2 do not
        with pytest.raises(ValueError):
            PatternA([[0], [Fraction(1, 2), Fraction(-1, 2)]])
        with pytest.raises(ValueError):
            PatternA([["0"], ["1/2", "-1/2"]])
        p = PatternA([["1/3"], ["4/3", "-2/3"]])
        assert p.to_json() == {"rows": [["1/3"], ["4/3", "-2/3"]]}

    def test_gl_json_shape(self):
        p = PatternA([[0], [1, 0]])
        assert p.to_json() == {"rows": [["0"], ["1", "0"]]}

    def test_so_json_shape(self):
        p = enumerate_patterns_b(check_weight_so(("-1/2",)))[0]
        obj = p.to_json()
        assert set(obj) == {"sigma", "rows", "primed_rows"}
        assert obj["rows"] == [["-1/2"]]


class TestWeights:
    def test_gl_weight_reads_row_sums(self):
        p = PatternA([[1], [1, 0], [2, 1, 0]])
        assert p.weight() == (1, 0, 2)

    def test_so_weight_example(self):
        # doubled on the pattern, decoded by the record
        lam = check_weight_so(("-1",))
        r = Rep(lam, enumerate_patterns_b(lam))
        assert [p.weight()[0] for p in r.patterns] == [-2, 2, 0]
        assert [r.decode(w)[0] for w in r.weights] == [-1, 1, 0]

    @pytest.mark.parametrize("rep", [
        lambda: gl_rep((2, 1, 0)), lambda: so_rep(("0", "-1")),
        lambda: so_rep(("-1/2", "-3/2"))], ids=["A", "B", "B-spinor"])
    def test_rep_values_are_fractions(self, rep):
        # the weights themselves are ints, decoded to Fractions
        r = rep()
        assert all(type(x) is int for w in r.weights for x in w)
        values = list(r.lam) + [x for w in r.weights for x in r.decode(w)]
        assert all(type(x) is Fraction for x in values)
        assert r.decode(r.weights[r.highest_index()]) == r.lam

    def test_rep_algebra_is_read_off_the_pattern_class(self):
        # on both builders' records and on a bare record with no generators
        assert gl_rep((2, 1, 0)).algebra == "A"
        assert so_rep(("0", "-1")).algebra == "B"
        lam = check_weight_so(("-1", "-2"))
        bare = Rep(lam, enumerate_patterns_b(lam))
        assert (bare.algebra, bare.gens) == ("B", {})
        lam = check_weight_gl((2, 0))
        assert Rep(lam, enumerate_patterns_a(lam)).algebra == "A"


def _json_weight(p):
    # a pattern's weight as Fractions, read off its JSON entries: row sums
    # for type A; sigma_k + 2 (primed row k) - (row k) - (row k-1), each
    # row summed, for type B
    def sums(rows):
        return [sum(map(Fraction, r)) for r in rows]
    obj = p.to_json()
    if "sigma" not in obj:
        s = [0] + sums(obj["rows"])
        return tuple(b - a for a, b in zip(s, s[1:]))
    u = [0] + sums(obj["rows"])
    return tuple(sig + 2 * q - a - b for sig, q, a, b in zip(
        obj["sigma"], sums(obj["primed_rows"]), u, u[1:]))


ENCODED = ([("A", lam) for lam in A_CORPUS] + [("B", w) for w in B_CORPUS]
           + [("A", ("1/3", "-2/3", "-5/3"))])


@pytest.mark.parametrize("algebra, lam", ENCODED,
                         ids=["%s %s" % (a, ",".join(map(str, w)))
                              for a, w in ENCODED])
class TestWeightEncoding:
    """The record keeps each weight as its patterns' ints (type A offsets
    from the base, type B doubled); Rep.decode gives the Fractions."""

    def rep(self, algebra, lam):
        if algebra == "A":
            lam = check_weight_gl(lam)
            return Rep(lam, enumerate_patterns_a(lam))
        lam = check_weight_so(lam)
        return Rep(lam, enumerate_patterns_b(lam))

    def test_decode_gives_each_pattern_weight(self, algebra, lam):
        r = self.rep(algebra, lam)
        assert all(type(x) is int for w in r.weights for x in w)
        assert [r.decode(w) for w in r.weights] == [
            _json_weight(p) for p in r.patterns]

    def test_ints_sort_as_the_fractions(self, algebra, lam):
        r = self.rep(algebra, lam)
        cols = range(r.dim)
        assert sorted(cols, key=r.weights.__getitem__) == sorted(
            cols, key=lambda c: r.decode(r.weights[c]))

    def test_highest_weight_decodes_to_the_label(self, algebra, lam):
        r = self.rep(algebra, lam)
        assert r.decode(r.weights[r.highest_index()]) == r.lam
