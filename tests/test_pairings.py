"""Intersection pairings, Poincare duality and their exact invariances."""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from trihodge.diagram import (
    SYSTEM_NAMES,
    builtin,
    builtin_names,
    handleslide_diagram,
    random_diagram,
)
from trihodge.lattice import intmat
from trihodge.pairings import (
    CycleConditionError,
    H2DualRep,
    OneOneCocycle,
    _signature_of_symmetric,
    cocycle_from_dual_rep,
    dual_rep_basis,
    evaluate_on_surface_class,
    h1_basis,
    h2_basis_cocycles,
    h3_representatives,
    intersection_form,
    intersection_pairing,
    pairing_h3_h1,
    poincare_dual_rep,
    triple_intersection,
)

from helpers import (
    cocycle_from_blocks,
    det,
    full_width_signature,
    h3_h1_gram,
    ladder_diagram,
    lagrangian_coordinates,
    plain_form,
    random_coboundary,
    random_cocycle,
    random_cycle_rep,
    random_matched_lifts,
    scrambled,
    solved_dual_rep,
)
from test_acceptance import RANDOM_SUITE

CP2 = builtin("CP2")
S1XS3 = builtin("S1xS3")
# Builtins, two torsion sums, three scrambled copies of each, and the random suite.
NAMED = tuple(builtin(name) for name in builtin_names() + ("QS4_Z3#CP2", "QS4_Z2#S2xS2#S1xS3"))
SCRAMBLED = tuple(scrambled(d, seed) for d in NAMED for seed in (1, 2, 3))
DUALITY_SUITE = NAMED + SCRAMBLED + RANDOM_SUITE
REP_DIAGRAMS = tuple(
    builtin(name) for name in ("CP2#CP2bar", "S2xS2#QS4_Z3", "S1xS3#QS4_Z2", "QS4_Z3")
) + tuple(random_diagram(g, s) for g in (1, 2, 3) for s in range(4))


def pairing_all_ways(d, x, y):
    lat = d.lattice
    return (
        lat.intersection_number(x.b1, y.b2),
        lat.intersection_number(x.b2, y.b3),
        lat.intersection_number(x.b3, y.b1),
    )


class TestOneOneCocycle:
    def test_component_outside_lagrangian_rejected(self):
        with pytest.raises(ValueError, match="Lagrangian 1"):
            cocycle_from_blocks(CP2, (0, 1), (0, -1), (0, 0))

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            cocycle_from_blocks(CP2, (1, 0), (0, 1), (1, 1))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            cocycle_from_blocks(CP2, (1, 0, 0), (0, 1), (-1, -1))

    def test_constructor_checks_length_and_sum(self):
        with pytest.raises(ValueError, match="length 3"):
            OneOneCocycle(CP2, (1, 1))
        with pytest.raises(ValueError, match="sum to zero"):
            OneOneCocycle(CP2, (1, 0, 0))
        with pytest.raises(ValueError, match="sum to zero"):
            OneOneCocycle(CP2, (1, 1, 1))

    def test_coordinate_round_trip(self):
        x = h2_basis_cocycles(CP2)[0]
        assert OneOneCocycle(CP2, lagrangian_coordinates(CP2, x.blocks)) == x
        assert cocycle_from_blocks(CP2, *x.blocks) == x

    def test_coordinates_combine_the_curves(self):
        rng = random.Random(17)
        for d in SCRAMBLED:
            for x in h2_basis_cocycles(d) + (random_cocycle(d, rng),):
                assert lagrangian_coordinates(d, x.blocks) == x.coords, d.label
                assert cocycle_from_blocks(d, *x.blocks) == x, d.label

    def test_blocks_of_combinations_are_combined_blocks(self):
        rng = random.Random(19)
        for d in SCRAMBLED:
            x, y = random_cocycle(d, rng), random_cocycle(d, rng)
            for z, (p, q) in ((x + y, (1, 1)), (x - y.scale(3), (1, -3)), (-x, (-1, 0))):
                expected = tuple(
                    tuple(p * a + q * b for a, b in zip(bx, by))
                    for bx, by in zip(x.blocks, y.blocks)
                )
                assert z.blocks == expected, d.label
                assert z.is_zero == (not any(map(any, expected))), d.label

    def test_algebra(self):
        x = h2_basis_cocycles(CP2)[0]
        assert (x + (-x)).is_zero
        assert x.scale(3).b1 == (3, 0)
        assert (x - x) == OneOneCocycle.zero(CP2)

    def test_cross_diagram_addition_rejected(self):
        x = h2_basis_cocycles(CP2)[0]
        with pytest.raises(ValueError, match="different diagrams"):
            x + OneOneCocycle.zero(builtin("CP2bar"))


class TestBasisCocycles:
    def test_projective_plane_generator(self):
        basis = h2_basis_cocycles(CP2)
        assert len(basis) == 1
        assert basis[0].blocks == ((1, 0), (0, 1), (-1, -1))

    def test_rank_zero_cases(self):
        assert h2_basis_cocycles(S1XS3) == ()
        assert h2_basis_cocycles(builtin("S4")) == ()

    def test_connected_sum_basis_is_blockwise(self):
        basis = h2_basis_cocycles(builtin("CP2#CP2bar"))
        assert len(basis) == 2
        assert basis[0].blocks == ((1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0))


class TestIntersectionForm:
    def test_projective_plane(self):
        form = intersection_form(CP2)
        assert form.gram == ((1,),)
        assert form.signature == (1, 0)
        assert form.parity == "odd"
        assert form.unimodular
        assert form.rank == 1

    def test_reversed_projective_plane(self):
        form = intersection_form(builtin("CP2bar"))
        assert form.gram == ((-1,),)
        assert form.signature == (0, 1)

    def test_mixed_connected_sum(self):
        form = intersection_form(builtin("CP2#CP2bar"))
        assert form.gram == ((1, 0), (0, -1))
        assert form.signature == (1, 1)
        assert form.parity == "odd"
        assert form.unimodular

    def test_twisted_candidate_is_odd_definite(self):
        form = intersection_form(builtin("S2xS2_candidate"))
        assert form.gram == ((1, 0), (0, 1))
        assert form.signature == (2, 0)
        assert form.parity == "odd"

    def test_hyperbolic_form_is_even(self):
        form = intersection_form(builtin("S2xS2"))
        assert form.gram == ((0, 1), (1, 0))
        assert form.signature == (1, 1)
        assert form.parity == "even"
        assert form.unimodular

    def test_empty_form(self):
        form = intersection_form(S1XS3)
        assert form.gram == ()
        assert form.signature == (0, 0)
        assert form.unimodular

    def test_pairing_with_zero_cocycle(self):
        x = h2_basis_cocycles(CP2)[0]
        assert intersection_pairing(CP2, x, OneOneCocycle.zero(CP2)) == 0

    def test_pairing_rejects_foreign_cocycle(self):
        x = h2_basis_cocycles(CP2)[0]
        z = OneOneCocycle.zero(builtin("CP2bar"))
        with pytest.raises(ValueError, match="different diagram"):
            intersection_pairing(CP2, x, z)

    def test_three_expressions_on_generator(self):
        x = h2_basis_cocycles(CP2)[0]
        assert pairing_all_ways(CP2, x, x) == (1, 1, 1)


@st.composite
def symmetric_matrices(draw, max_dim=6):
    """Symmetric integer matrices, some singular and some with zero diagonal."""
    n = draw(st.integers(min_value=0, max_value=max_dim))
    hollow = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if not (hollow and i == j):
                rows[i][j] = rows[j][i] = draw(st.integers(min_value=-3, max_value=3))
    return tuple(tuple(r) for r in rows)


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_pivot_determinant_matches_sympy(gram):
    (pos, neg), d = _signature_of_symmetric(gram)
    n = len(gram)
    M = sympy.Matrix(n, n, lambda i, j: gram[i][j])
    assert d == M.det()
    assert pos + neg == M.rank()


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices(max_dim=7))
def test_active_block_signature_matches_full_width_oracle(gram):
    assert _signature_of_symmetric(gram) == full_width_signature(gram)


@settings(max_examples=50, deadline=None)
@given(
    genus=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 10**6),
    draw_seed=st.integers(0, 10**6),
)
def test_pairing_identities_fuzz(genus, seed, draw_seed):
    d = random_diagram(genus, seed)
    rng = random.Random(draw_seed)
    x = random_cocycle(d, rng)
    y = random_cocycle(d, rng)
    values = pairing_all_ways(d, x, y)
    assert values[0] == values[1] == values[2]
    assert intersection_pairing(d, x, y) == intersection_pairing(d, y, x)
    db = random_coboundary(d, rng)
    assert intersection_pairing(d, x + db, y) == intersection_pairing(d, x, y)
    assert intersection_pairing(d, x, y + db) == intersection_pairing(d, x, y)


@settings(max_examples=40, deadline=None)
@given(
    genus=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 10**6),
    draw_seed=st.integers(0, 10**6),
)
def test_evaluation_invariances_fuzz(genus, seed, draw_seed):
    d = random_diagram(genus, seed)
    rng = random.Random(draw_seed)
    x = random_cocycle(d, rng)
    rep = random_cycle_rep(d, rng)
    base = evaluate_on_surface_class(d, x, rep)
    db = random_coboundary(d, rng)
    assert evaluate_on_surface_class(d, x + db, rep) == base
    # shift each lift by a Lagrangian vector: same class, same value
    shifted = tuple(
        tuple(
            v + w
            for v, w in zip(
                rep.lifts[lam - 1],
                d.lagrangian_subgroup(lam).member_from_coordinates(
                    [rng.randint(-3, 3) for _ in range(genus)]
                ),
            )
        )
        for lam in (1, 2, 3)
    )
    other = H2DualRep.from_lifts(d, shifted)
    assert other.coords == rep.coords
    assert other.lifts == rep.lifts
    assert evaluate_on_surface_class(d, x, other) == base


@settings(max_examples=40, deadline=None)
@given(genus=st.integers(min_value=0, max_value=3), seed=st.integers(0, 10**6))
def test_unimodularity_on_random_diagrams(genus, seed):
    d = random_diagram(genus, seed)
    assert intersection_form(d).unimodular


class TestDualReps:
    def test_from_lifts_round_trip(self):
        rep = H2DualRep.from_lifts(CP2, ((0, 1), (0, 0), (0, 0)))
        assert rep.lifts == ((0, 1), (0, 0), (0, 0))
        again = H2DualRep(CP2, rep.coords)
        assert again.coords == rep.coords
        assert H2DualRep.from_lifts(CP2, again.lifts) == rep

    def test_cycle_condition_violation_named(self):
        with pytest.raises(CycleConditionError, match="a1 - a2"):
            H2DualRep.from_lifts(S1XS3, ((1, 0), (0, 0), (0, 0)))

    def test_evaluation_example(self):
        x = h2_basis_cocycles(CP2)[0]
        rep = H2DualRep.from_lifts(CP2, ((0, 1), (0, 0), (0, 0)))
        assert evaluate_on_surface_class(CP2, x, rep) == 1

    def test_from_lifts_coords_are_pairings_with_the_curves(self):
        rng = random.Random(29)
        for d in REP_DIAGRAMS + SCRAMBLED:
            for _ in range(4):
                lifts = random_matched_lifts(d, rng)
                expected = tuple(
                    tuple(plain_form(c, a) for c in cs.curves) for cs, a in zip(d.systems, lifts)
                )
                assert H2DualRep.from_lifts(d, lifts).coords == expected, d.label

    def test_basis_reps_round_trip_through_reduced_lifts(self):
        for d in REP_DIAGRAMS:
            for rep in dual_rep_basis(d):
                assert H2DualRep.from_lifts(d, rep.lifts) == rep, d.label
                for lam, lift in zip((1, 2, 3), rep.lifts):
                    for col in d.lagrangian_subgroup(lam).columns():
                        pivot = next(i for i, x in enumerate(col) if x)
                        assert 0 <= lift[pivot] < col[pivot], d.label

    def test_lagrangian_shifts_keep_coords_and_reduced_lifts(self):
        rng = random.Random(31)
        for d in REP_DIAGRAMS:
            rep = random_cycle_rep(d, rng)
            shifted = tuple(
                tuple(
                    a + w
                    for a, w in zip(
                        lift,
                        d.lagrangian_subgroup(lam).member_from_coordinates(
                            [rng.randint(-5, 5) for _ in range(d.genus)]
                        ),
                    )
                )
                for lam, lift in zip((1, 2, 3), rep.lifts)
            )
            other = H2DualRep.from_lifts(d, shifted)
            assert other.coords == rep.coords, d.label
            assert other.lifts == rep.lifts, d.label

    def test_wrong_component_count_rejected(self):
        with pytest.raises(ValueError, match="one component per handlebody"):
            H2DualRep(CP2, ((0,), (0,)))
        with pytest.raises(ValueError):
            H2DualRep.from_lifts(CP2, ((0, 1), (0, 0), (0, 0), (0, 0)))
        with pytest.raises(ValueError):
            H2DualRep.from_lifts(CP2, ((0, 1), (0, 0)))

    def test_basis_rank_matches_cocycle_basis(self):
        for name in ("S4", "CP2", "S1xS3", "S2xS2", "CP2#CP2bar"):
            d = builtin(name)
            assert len(dual_rep_basis(d)) == len(h2_basis_cocycles(d))


class TestPoincareDuality:
    def test_generator_round_trip(self):
        x = h2_basis_cocycles(CP2)[0]
        K = poincare_dual_rep(CP2, x)
        assert evaluate_on_surface_class(CP2, x, K) == 1

    def test_zero_class_gives_zero_rep(self):
        assert poincare_dual_rep(CP2, OneOneCocycle.zero(CP2)).is_zero

    def test_gram_reproduced_through_duality(self):
        d = builtin("CP2#CP2bar")
        basis = h2_basis_cocycles(d)
        form = intersection_form(d)
        for j, y in enumerate(basis):
            K = poincare_dual_rep(d, y)
            for i, x in enumerate(basis):
                assert evaluate_on_surface_class(d, x, K) == form.gram[i][j]

    def test_basis_reps_are_the_duals_of_the_basis_cocycles(self):
        for d in DUALITY_SUITE:
            basis = h2_basis_cocycles(d)
            assert dual_rep_basis(d) == tuple(poincare_dual_rep(d, x) for x in basis), d.label

    def test_dual_lifts_are_the_second_component_reduced_modulo_l1(self):
        for d in DUALITY_SUITE:
            zero = (0,) * (2 * d.genus)
            L1 = d.lagrangian_subgroup(1)
            for x in h2_basis_cocycles(d):
                a1, a2, a3 = poincare_dual_rep(d, x).lifts
                assert a2 == a3 == zero, d.label
                assert L1.contains(tuple(p - q for p, q in zip(a1, x.b2))), d.label
                for col in L1.columns():
                    pivot = next(i for i, e in enumerate(col) if e)
                    assert 0 <= a1[pivot] < col[pivot], d.label

    def test_closed_form_matches_the_solved_oracle(self):
        for d in DUALITY_SUITE:
            basis = h2_basis_cocycles(d)
            for x in basis:
                closed, solved = poincare_dual_rep(d, x), solved_dual_rep(d, x)
                for b in basis:
                    value = intersection_pairing(d, b, x)
                    assert evaluate_on_surface_class(d, b, closed) == value, d.label
                    assert evaluate_on_surface_class(d, b, solved) == value, d.label

    def test_inverse_solve_recovers_pairings(self):
        d = builtin("S2xS2")
        basis = h2_basis_cocycles(d)
        rng = random.Random(7)
        rep = random_cycle_rep(d, rng)
        c = cocycle_from_dual_rep(d, rep)
        for x in basis:
            assert intersection_pairing(d, x, c) == evaluate_on_surface_class(d, x, rep)


def bit_length(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class TestCurveBases:
    def test_ladder_form_and_basis_stay_narrow(self):
        d = ladder_diagram(24)
        form, basis = intersection_form(d), h2_basis_cocycles(d)
        assert form.rank == len(basis) > 0
        assert bit_length(e for row in form.gram for e in row) <= 8
        assert bit_length(e for x in basis for b in x.blocks for e in b) <= 8

    def test_handleslides_keep_the_form_up_to_isometry(self):
        rng = random.Random(41)
        diagrams = [d for d in NAMED + SCRAMBLED if d.genus >= 2]
        diagrams += [random_diagram(g, seed) for g in (2, 3, 4) for seed in range(3)]
        changed = 0
        for d in diagrams:
            form, basis = intersection_form(d), h2_basis_cocycles(d)
            for _ in range(3):
                i, j = rng.sample(range(d.genus), 2)
                slid = handleslide_diagram(d, rng.choice(SYSTEM_NAMES), i, j, rng.choice((1, -1)))
                other, slid_basis = intersection_form(slid), h2_basis_cocycles(slid)
                assert (other.rank, other.signature, other.parity, other.unimodular) == (
                    form.rank,
                    form.signature,
                    form.parity,
                    form.unimodular,
                ), d.label
                # same Lagrangians, so the slid basis is a cocycle basis of d too:
                # its pairings with d's basis form a unimodular matrix
                moved = [cocycle_from_blocks(d, *y.blocks) for y in slid_basis]
                if basis:
                    cross = [[intersection_pairing(d, x, y) for y in moved] for x in basis]
                    assert abs(det(intmat(cross))) == 1, d.label
                changed += [y.blocks for y in slid_basis] != [x.blocks for x in basis]
        # the printed basis depends on the curves, not only on their span
        assert changed


class TestH3H1Pairing:
    def test_s1_x_s3_value(self):
        assert pairing_h3_h1(S1XS3, (1, 0), (0, 1)) == 1

    def test_representative_shift_invariance(self):
        assert pairing_h3_h1(S1XS3, (1, 1), (0, 1)) == pairing_h3_h1(S1XS3, (1, 0), (0, 1))

    def test_membership_enforced(self):
        with pytest.raises(ValueError, match="all three Lagrangians"):
            pairing_h3_h1(S1XS3, (1, 0), (1, 0))

    def test_projective_plane_vacuous(self):
        assert triple_intersection(CP2).rank == 0
        assert h1_basis(CP2) == ()
        assert h3_representatives(CP2) == ()
        assert pairing_h3_h1(CP2, (1, 0), (0, 0)) == 0

    def test_perfect_on_s1_x_s3(self):
        gram = h3_h1_gram(S1XS3)
        assert abs(det(gram)) == 1

    def test_perfect_whenever_first_betti_positive(self):
        found = 0
        for name in ("S1xS3#CP2", "S1xS3#S1xS3#QS4_Z3", "S2xS2#S1xS3"):
            for seed in range(10):
                d = scrambled(builtin(name), seed)
                gram = h3_h1_gram(d)
                if gram.shape[0]:
                    found += 1
                    assert abs(det(gram)) == 1
        tripled = builtin("S1xS3#S1xS3")
        gram = h3_h1_gram(tripled)
        assert gram.shape == (2, 2)
        assert abs(det(gram)) == 1
        assert found > 0


def test_random_cocycles_satisfy_invariants():
    rng = random.Random(11)
    d = builtin("S2xS2_candidate")
    for _ in range(25):
        x = random_cocycle(d, rng)
        for lam, b in enumerate(x.blocks, start=1):
            assert d.lagrangian_subgroup(lam).contains(b)
    rep = random_cycle_rep(d, rng)
    assert rep.diagram == d
