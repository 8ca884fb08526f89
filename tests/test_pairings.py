"""Intersection pairings, Poincare duality and their exact invariances."""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from trihodge.complexes import betti_numbers
from trihodge.diagram import (
    SYSTEM_NAMES,
    builtin,
    builtin_names,
    handleslide_diagram,
    random_diagram,
)
from trihodge.lattice import _combination, _identity_rows
from trihodge.pairings import (
    CycleConditionError,
    H2DualRep,
    OneOneCocycle,
    _curve_gram_schmidt,
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
    E8,
    FORM_POOL,
    HYPERBOLIC,
    block_sum,
    cocycle_from_blocks,
    det,
    diagram_from_form,
    full_width_signature,
    h3_h1_gram,
    h3_representatives_by_complex,
    ladder_diagram,
    gram_schmidt,
    lagrangian_coordinates,
    mat,
    nearest_plane_reduced,
    plain_form,
    random_coboundary,
    random_cocycle,
    random_cycle_rep,
    random_matched_lifts,
    scrambled,
    solved_dual_rep,
    subgroup_intersection,
)
from test_acceptance import RANDOM_SUITE, SUITE
from test_pool import POOL_SUITE

CP2 = builtin("CP2")
S1XS3 = builtin("S1xS3")
# Builtins, two torsion sums, three scrambled copies of each, the random suite and the pool.
NAMED = tuple(builtin(name) for name in builtin_names() + ("QS4_Z3#CP2", "QS4_Z2#S2xS2#S1xS3"))
SCRAMBLED = tuple(scrambled(d, seed) for d in NAMED for seed in (1, 2, 3))
DUALITY_SUITE = NAMED + SCRAMBLED + RANDOM_SUITE + POOL_SUITE
REP_DIAGRAMS = tuple(
    builtin(name) for name in ("CP2#CP2bar", "S2xS2#QS4_Z3", "S1xS3#QS4_Z2", "QS4_Z3")
) + tuple(random_diagram(g, s) for g in (1, 2, 3) for s in range(4))
# the fingerprint's ladder diagrams, whose canonical Lagrangians have large entries
LADDER_REPS = tuple(ladder_diagram(g) for g in (8, 12, 16, 24))


def pairing_all_ways(d, x, y):
    return (plain_form(x.b1, y.b2), plain_form(x.b2, y.b3), plain_form(x.b3, y.b1))


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


@pytest.mark.parametrize("kind", ["cocycle", "rep"])
def test_scale_checks_its_factor(kind):
    zero = OneOneCocycle.zero(CP2) if kind == "cocycle" else H2DualRep.zero(CP2)
    x = h2_basis_cocycles(CP2)[0] if kind == "cocycle" else dual_rep_basis(CP2)[0]
    for y in (zero, x):
        for bad in ("2", True, 1.5):
            with pytest.raises(ValueError, match=f"scale factor must be an integer, got {bad!r}"):
                y.scale(bad)
    assert x.scale(2) == x + x and zero.scale(3) == zero


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


# the pool's forms and two block sums of them
PRESCRIBED = {
    **FORM_POOL,
    "E8+H": (block_sum(E8, HYPERBOLIC), (9, 1), "even"),
    "<1>+<-1>": (((1, 0), (0, -1)), (1, 1), "odd"),
}


class TestPrescribedForms:
    @pytest.mark.parametrize("name", PRESCRIBED)
    def test_the_form_is_the_prescribed_one(self, name):
        Q, signature, parity = PRESCRIBED[name]
        d = diagram_from_form(Q)
        assert d.validation.is_valid and d.validation.k_values == (0, 0, 0)
        form = intersection_form(d)
        assert form.gram == tuple(map(tuple, Q))
        assert (form.signature, form.parity, form.unimodular) == (signature, parity, True)
        assert betti_numbers(d) == (1, 0, len(Q), 0, 1)
        for seed in (1, 2):
            moved = intersection_form(scrambled(d, seed))
            assert (moved.signature, moved.parity, moved.unimodular) == (signature, parity, True)

    def test_a_form_of_determinant_two_fails_only_the_last_pair(self):
        report = diagram_from_form(((2,),)).validation
        assert [name for name, ok in report.checks if not ok] == ["gamma+alpha torsion-free"]


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
                _combination(
                    d.lagrangian_subgroup(lam).columns(),
                    [rng.randint(-3, 3) for _ in range(genus)],
                    2 * genus,
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

    @pytest.mark.parametrize("count", [2, 4])
    def test_from_lifts_needs_one_lift_per_handlebody(self, count):
        with pytest.raises(ValueError, match="expected one lift per handlebody"):
            H2DualRep.from_lifts(CP2, ((0, 1),) * count)

    def test_is_zero_reads_the_coordinates_not_the_class(self):
        # H2(S1xS3) = 0, so this valid rep is a zero class with nonzero coordinates
        rep = H2DualRep(S1XS3, ((1,), (1,), (1,)))
        assert not rep.is_zero
        assert cocycle_from_dual_rep(S1XS3, rep).is_zero
        assert H2DualRep.zero(S1XS3).is_zero

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
            reps = dual_rep_basis(d)
            for rep in reps:
                assert H2DualRep.from_lifts(d, rep.lifts) == rep, d.label
            assert nearest_plane_reduced(d, reps), d.label

    def test_lifts_are_nearest_plane_reduced_against_the_curves(self):
        rng = random.Random(37)
        for d in REP_DIAGRAMS + SCRAMBLED + LADDER_REPS:
            reps = dual_rep_basis(d) + tuple(random_cycle_rep(d, rng) for _ in range(3))
            for rep in reps:
                assert H2DualRep.from_lifts(d, rep.lifts) == rep, d.label
            assert nearest_plane_reduced(d, reps), d.label

    def test_lagrangian_shifts_keep_coords_and_reduced_lifts(self):
        rng = random.Random(31)
        for d in REP_DIAGRAMS + LADDER_REPS:
            rep = random_cycle_rep(d, rng)
            for span in (5, 10**6):
                shifted = tuple(
                    tuple(
                        a + w
                        for a, w in zip(
                            lift,
                            _combination(
                                d.lagrangian_subgroup(lam).columns(),
                                [rng.randint(-span, span) for _ in range(d.genus)],
                                2 * d.genus,
                            ),
                        )
                    )
                    for lam, lift in zip((1, 2, 3), rep.lifts)
                )
                other = H2DualRep.from_lifts(d, shifted)
                assert other.coords == rep.coords, d.label
                assert other.lifts == rep.lifts, d.label

    @pytest.mark.parametrize("make", [lambda: builtin("CP2#CP2bar"), lambda: ladder_diagram(16)])
    def test_zero_blocks_lift_to_zero_with_no_gram_schmidt_data(self, make):
        d = make()
        zero = (0,) * (2 * d.genus)
        reps = dual_rep_basis(d)
        assert reps
        for rep in reps:
            assert rep.lifts[1] == rep.lifts[2] == zero, d.label
            assert H2DualRep.from_lifts(d, rep.lifts) == rep, d.label
        memo = f"{_curve_gram_schmidt.__module__}.{_curve_gram_schmidt.__qualname__}"
        assert f"{memo}{(0,)}" in vars(d)
        assert f"{memo}{(1,)}" not in vars(d) and f"{memo}{(2,)}" not in vars(d)

    def test_ladder_lifts_stay_small(self):
        for g in range(8, 41):
            d = ladder_diagram(g)
            for rep in dual_rep_basis(d):
                assert max(abs(e) for lift in rep.lifts for e in lift).bit_length() <= 8, g
                assert H2DualRep.from_lifts(d, rep.lifts) == rep, g

    def test_integral_gram_schmidt_matches_the_rational_oracle(self):
        for d in REP_DIAGRAMS + SCRAMBLED + LADDER_REPS[:2]:
            for lam, cs in enumerate(d.systems):
                dets, mus = _curve_gram_schmidt(d, lam)
                stars = gram_schmidt(cs.curves)
                norms = [sum(b * b for b in s) for s in stars]
                det = 1
                for i, (c, n) in enumerate(zip(cs.curves, norms)):
                    det *= n
                    assert dets[i] == det, d.label
                    assert mus[i] == tuple(
                        dets[j] * sum(x * y for x, y in zip(c, stars[j])) / norms[j]
                        for j in range(i)
                    ), d.label

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
            reps = []
            for x in h2_basis_cocycles(d):
                reps.append(poincare_dual_rep(d, x))
                a1, a2, a3 = reps[-1].lifts
                assert a2 == a3 == zero, d.label
                assert L1.contains(tuple(p - q for p, q in zip(a1, x.b2))), d.label
            assert nearest_plane_reduced(d, reps), d.label

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
                    assert abs(det(mat(cross))) == 1, d.label
                changed += [y.blocks for y in slid_basis] != [x.blocks for x in basis]
        # the printed basis depends on the curves, not only on their span
        assert changed


def canonical_triple_intersection(d):
    """L1 n L2 n L3 by intersecting the canonical Lagrangians."""
    L = [d.lagrangian_subgroup(lam) for lam in (1, 2, 3)]
    return subgroup_intersection(subgroup_intersection(L[0], L[1]), L[2])


def is_dual_basis(d) -> bool:
    """Whether ``h3_representatives`` pairs with ``h1_basis`` to the identity."""
    n = len(h1_basis(d))
    return h3_h1_gram(d, h3_representatives(d)).tolist() == _identity_rows(n)


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

    def test_triple_intersection_matches_the_canonical_lagrangian_oracle(self):
        checked = 0
        for d in SUITE + tuple(scrambled(d, 1) for d in SUITE):
            oracle = canonical_triple_intersection(d)
            assert triple_intersection(d) == oracle, d.describe()
            checked += oracle.rank > 0
        assert checked

    def test_ladder_triple_intersection_and_pairing_match_the_oracles(self):
        checked = 0
        for g in range(8, 41):
            d = ladder_diagram(g)
            if betti_numbers(d)[1] == 0:
                continue
            assert triple_intersection(d) == canonical_triple_intersection(d), d.describe()
            assert abs(det(h3_h1_gram(d, h3_representatives_by_complex(d)))) == 1, d.describe()
            assert is_dual_basis(d), d.describe()
            checked += 1
        assert checked > 20

    def test_perfect_on_s1_x_s3(self):
        gram = h3_h1_gram(S1XS3, h3_representatives_by_complex(S1XS3))
        assert abs(det(gram)) == 1
        assert is_dual_basis(S1XS3)

    def test_perfect_whenever_first_betti_positive(self):
        found = 0
        for name in ("S1xS3#CP2", "S1xS3#S1xS3#QS4_Z3", "S2xS2#S1xS3"):
            for seed in range(10):
                d = scrambled(builtin(name), seed)
                gram = h3_h1_gram(d, h3_representatives_by_complex(d))
                if gram.shape[0]:
                    found += 1
                    assert abs(det(gram)) == 1
                    assert is_dual_basis(d)
        tripled = builtin("S1xS3#S1xS3")
        gram = h3_h1_gram(tripled, h3_representatives_by_complex(tripled))
        assert gram.shape == (2, 2)
        assert abs(det(gram)) == 1
        assert is_dual_basis(tripled)
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
