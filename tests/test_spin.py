"""Quadratic enhancements and spin enumeration."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihodge.complexes import homology_groups
from trihodge.diagram import (
    SYSTEM_NAMES,
    builtin,
    builtin_names,
    handleslide_diagram,
    random_diagram,
)
from trihodge.pairings import intersection_form
from trihodge.spin import (
    MAX_LISTED,
    QuadraticEnhancement,
    _solution_space,
    enumerate_spin,
    spin_count,
)

from helpers import (
    LADDER_BASES,
    all_enhancements,
    brute_force_spin,
    dict_scan_solution_space,
    ladder_diagram,
    plain_form,
    scrambled,
    spin_sum_diagram,
)


class TestEvaluate:
    def test_zero_vector(self):
        q = QuadraticEnhancement(1, (1, 1))
        assert q.evaluate((0, 0)) == 0

    def test_crossterm_per_handle(self):
        q = QuadraticEnhancement(1, (0, 0))
        assert q.evaluate((1, 0)) == 0
        assert q.evaluate((0, 1)) == 0
        assert q.evaluate((1, 1)) == 1

    def test_reduction_mod_two(self):
        q = QuadraticEnhancement(1, (1, 0))
        assert q.evaluate((3, 0)) == q.evaluate((1, 0)) == 1
        assert q.evaluate((-1, 2)) == 1

    def test_dimension_mismatch(self):
        q = QuadraticEnhancement(1, (0, 0))
        with pytest.raises(ValueError):
            q.evaluate((1, 0, 0))

    def test_bad_construction(self):
        bad_bits = [(1, (0, 2)), (2, (0, 0)), (1, (True, False)), (1, (1.0, 0))]
        bad_genera = [(True, (0, 1)), (1.0, (0, 1))]
        for genus, bits in bad_bits + bad_genera:
            with pytest.raises(ValueError):
                QuadraticEnhancement(genus, bits)

    def test_stores_bits_as_a_hashable_tuple(self):
        q, twin = QuadraticEnhancement(1, [0, 1]), QuadraticEnhancement(1, (0, 1))
        assert q.basis_values == (0, 1)
        assert q == twin and hash(q) == hash(twin)
        assert type(q.evaluate((0, 1))) is int


@pytest.mark.parametrize("genus", [1, 2])
def test_defining_relation_exhaustively(genus):
    vectors = list(itertools.product((0, 1), repeat=2 * genus))
    for q in all_enhancements(genus):
        for x in vectors:
            for y in vectors:
                s = tuple(a + b for a, b in zip(x, y))
                expected = (q.evaluate(x) + q.evaluate(y) + plain_form(x, y)) % 2
                assert q.evaluate(s) == expected


def test_all_enhancements_size_and_order():
    qs = all_enhancements(1)
    assert len(qs) == 4
    assert [q.basis_values for q in qs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestEnumeration:
    def test_builtin_counts(self):
        assert spin_count(builtin("S4")) == 1
        assert spin_count(builtin("CP2")) == 0
        assert spin_count(builtin("CP2bar")) == 0
        assert spin_count(builtin("S1xS3")) == 2
        assert spin_count(builtin("CP2#CP2bar")) == 0
        assert spin_count(builtin("S2xS2_candidate")) == 0
        assert spin_count(builtin("S2xS2")) == 1

    def test_torsion_builtin_counts(self):
        # odd torsion admits a unique spin structure; the Z/2 example has none
        assert spin_count(builtin("QS4_Z3")) == 1
        assert spin_count(builtin("QS4_Z2")) == 0

    def test_s1_x_s3_structures_explicit(self):
        qs = enumerate_spin(builtin("S1xS3"))
        assert [q.basis_values for q in qs] == [(0, 0), (1, 0)]

    def test_connected_sum_multiplies_counts(self):
        assert spin_count(builtin("S1xS3#S1xS3")) == 4

    def test_vanishing_extends_to_the_whole_system_span(self):
        d = builtin("S1xS3")
        for q in enumerate_spin(d):
            for coeffs in itertools.product((0, 1), repeat=d.genus):
                for cs in (d.alpha, d.beta, d.gamma):
                    combo = [
                        sum(c * curve[i] for c, curve in zip(coeffs, cs.curves))
                        for i in range(2 * d.genus)
                    ]
                    assert q.evaluate(combo) == 0

    def test_listing_bound_refusal(self):
        at_bound = builtin("#".join(["S1xS3"] * 16))
        assert len(enumerate_spin(at_bound)) == MAX_LISTED
        beyond = builtin("#".join(["S1xS3"] * 17))
        assert spin_count(beyond) == 2 * MAX_LISTED
        with pytest.raises(ValueError, match="listing bound"):
            enumerate_spin(beyond)

    def test_count_without_listing_at_large_genus(self):
        assert spin_count(builtin("#".join(["S1xS3"] * 40))) == 2**40
        assert spin_count(random_diagram(40, 0)) == 0


ORACLE_CASES = builtin_names() + ("S2xS2#S1xS3", "QS4_Z2#S1xS3", "QS4_Z3#QS4_Z2")


def moved(d):
    """d, slides of its first and last curves over each other, and d in three
    scrambled surface bases, whose dense curves exercise back-substitution."""
    yield d
    last = d.genus - 1
    if last > 0:
        for system in SYSTEM_NAMES:
            yield handleslide_diagram(d, system, 0, last, 1)
            yield handleslide_diagram(d, system, last, 0, -1)
    for seed in range(3):
        yield scrambled(d, seed)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_enumeration_matches_brute_force(name):
    for d in moved(builtin(name)):
        assert enumerate_spin(d) == brute_force_spin(d), d.describe()


SPIN_SUMS = ("S2xS2", "QS4_Z3", "S2xS2#S1xS3", "S1xS3#QS4_Z3#S2xS2", "S1xS3#S1xS3#S2xS2#QS4_Z3")


def test_solution_space_matches_the_dict_scan_oracle_on_ladders_and_spin_sums():
    # the particular mask and the kernel tuple, not only the count; the
    # ladders are count-0 diagrams above genus 0, which leave at eq == 1
    diagrams = [ladder_diagram(g) for g in range(25)]
    diagrams += [scrambled(builtin(name), seed) for name in SPIN_SUMS for seed in range(3)]
    spaces = [_solution_space(d) for d in diagrams]
    assert spaces == [dict_scan_solution_space(d) for d in diagrams]
    assert None in spaces
    assert any(space and space[0] and space[1] for space in spaces)


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(st.sampled_from(LADDER_BASES), min_size=1, max_size=4),
    seed=st.integers(0, 10**6),
)
def test_solution_space_matches_the_dict_scan_oracle_on_scrambled_sums(names, seed):
    d = scrambled(builtin("#".join(names)), seed)
    assert _solution_space(d) == dict_scan_solution_space(d)


@settings(max_examples=40, deadline=None)
@given(genus=st.integers(min_value=0, max_value=6), seed=st.integers(0, 10**6))
def test_solution_space_matches_the_dict_scan_oracle_on_random_diagrams(genus, seed):
    d = random_diagram(genus, seed)
    assert _solution_space(d) == dict_scan_solution_space(d)


@settings(max_examples=20, deadline=None)
@given(genus=st.integers(min_value=16, max_value=40), seed=st.integers(0, 10**6))
def test_solution_space_matches_the_dict_scan_oracle_on_dense_spin_sums(genus, seed):
    # the ladder's spin systems stop at eq == 1 above genus 0; these reach
    # the kernel-building half at high genus, with dense curves
    d, count = spin_sum_diagram(genus, seed)
    space = _solution_space(d)
    assert space == dict_scan_solution_space(d)
    assert spin_count(d) == count == 2 ** len(space[1])


def expected_spin_count_when_nonempty(d):
    h1 = homology_groups(d)[1]
    even_factors = sum(1 for t in h1.torsion if t % 2 == 0)
    return 2 ** (h1.rank + even_factors)


@settings(max_examples=40, deadline=None)
@given(genus=st.integers(min_value=0, max_value=3), seed=st.integers(0, 10**6))
def test_count_law_on_random_diagrams(genus, seed):
    d = random_diagram(genus, seed)
    count = spin_count(d)
    assert count in (0, expected_spin_count_when_nonempty(d))


@settings(max_examples=40, deadline=None)
@given(
    names=st.lists(st.sampled_from(builtin_names()), min_size=1, max_size=3),
    slides=st.lists(
        st.tuples(
            st.sampled_from(SYSTEM_NAMES),
            st.integers(0, 8),
            st.integers(0, 8),
            st.sampled_from([1, -1]),
        ),
        max_size=4,
    ),
)
def test_count_law_on_handleslid_sums(names, slides):
    d = builtin("#".join(names))
    for system, i, j, sign in slides:
        if d.genus and i % d.genus != j % d.genus:
            d = handleslide_diagram(d, system, i % d.genus, j % d.genus, sign)
    count = spin_count(d)
    assert count == math.prod(spin_count(builtin(name)) for name in names)
    assert count in (0, expected_spin_count_when_nonempty(d))


def test_count_law_on_builtins():
    for name in ("S4", "CP2", "CP2bar", "S1xS3", "S2xS2", "CP2#CP2bar", "S1xS3#S1xS3"):
        d = builtin(name)
        assert spin_count(d) in (0, expected_spin_count_when_nonempty(d))


def test_nonempty_spin_forces_even_form():
    for name in ("S4", "S1xS3", "S2xS2", "S1xS3#S1xS3"):
        d = builtin(name)
        if spin_count(d):
            assert intersection_form(d).parity == "even"


@settings(max_examples=25, deadline=None)
@given(
    genus=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 10**6),
    which=st.integers(min_value=0, max_value=2),
    i=st.integers(min_value=0, max_value=2),
    j=st.integers(min_value=0, max_value=2),
    sign=st.sampled_from([1, -1]),
)
def test_handleslide_invariance_of_count(genus, seed, which, i, j, sign):
    d = random_diagram(genus, seed)
    i, j = i % genus, j % genus
    if i == j:
        return
    slid = handleslide_diagram(d, SYSTEM_NAMES[which], i, j, sign)
    assert spin_count(slid) == spin_count(d)


# Sums of builtins, some with 2-torsion in H1, of every parity and spin type.
LAW_SUMS = (
    "CP2#CP2",
    "CP2#CP2#CP2bar",
    "CP2bar#CP2bar#S1xS3",
    "S2xS2#S2xS2",
    "S2xS2#CP2bar",
    "S2xS2_candidate#CP2bar",
    "S2xS2#S1xS3",
    "S2xS2#QS4_Z3",
    "S2xS2#QS4_Z2",
    "QS4_Z3#CP2#CP2",
    "QS4_Z2#CP2bar",
)


def law_diagrams():
    """Each of LAW_SUMS and, per system, its slides of the first curve over
    the last and back, which change the curves and so the Gram matrix."""
    for name in LAW_SUMS:
        d = builtin(name)
        yield d
        last = d.genus - 1
        for system in SYSTEM_NAMES:
            yield handleslide_diagram(d, system, 0, last, 1)
            yield handleslide_diagram(d, system, last, 0, -1)


def characteristic_mod_2(gram) -> list[int]:
    """A 0/1 vector w with G w = diag(G) over F2, so w.v = v.v (mod 2) for every v."""
    n = len(gram)
    rows = [[gram[i][j] % 2 for j in range(n)] + [gram[i][i] % 2] for i in range(n)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        p = next((k for k in range(r, n) if rows[k][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for k in range(n):
            if k != r and rows[k][col]:
                rows[k] = [a ^ b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
    assert not any(row[n] for row in rows[len(pivots) :]), "diag(G) is not in the image of G"
    w = [0] * n
    for row, col in zip(rows, pivots):
        w[col] = row[n]
    return w


def test_form_spin_laws_on_slid_builtin_sums():
    seen = set()
    for d in law_diagrams():
        form, count = intersection_form(d), spin_count(d)
        sigma = form.signature[0] - form.signature[1]
        gram = form.gram
        w = characteristic_mod_2(gram)
        square = sum(w[i] * gram[i][j] * w[j] for i in range(len(w)) for j in range(len(w)))
        # van der Blij
        assert (square - sigma) % 8 == 0, d.describe()
        assert (form.parity == "even") == (not any(w)), d.describe()
        # Rokhlin, for sums of builtins and their handleslides
        if count:
            assert sigma % 16 == 0, d.describe()
        # Wu, when H1 has no 2-torsion
        if not any(t % 2 == 0 for t in homology_groups(d)[1].torsion):
            assert (form.parity == "even") == (count > 0), d.describe()
            seen.add((form.parity, count > 0))
    assert seen == {("even", True), ("odd", False)}
