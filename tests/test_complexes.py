"""Homology and cohomology engines against hand-computed values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihodge.complexes import (
    FreeChainComplex,
    HodgeDiamond,
    HomologyGroup,
    _pair_difference_columns,
    betti_numbers,
    cohomology_groups,
    dual_complex,
    dual_middle_homology,
    hodge_diamond,
    homology,
    homology_complex,
    homology_groups,
    serre_duality_holds,
)
from trihodge.diagram import builtin, euler_characteristic, random_diagram
from trihodge.lattice import _combination, kernel_basis
from trihodge.pairings import _sign_normalized, h2_basis_cocycles, intersection_form

from helpers import (
    cech_complex,
    five_term_complex,
    five_term_dual_complex,
    homology_by_kernels,
    ladder_diagram,
    plain_form,
)
from test_acceptance import RANDOM_SUITE
from test_diagram import torsion_sums_and_their_slides
from test_pairings import DUALITY_SUITE

Z = HomologyGroup(1)
ZERO = HomologyGroup(0)


def test_homology_group_rendering():
    assert str(ZERO) == "0"
    assert str(Z) == "Z"
    assert str(HomologyGroup(2)) == "Z^2"
    assert str(HomologyGroup(1, (2,))) == "Z + Z/2"
    assert str(HomologyGroup(0, (6,))) == "Z/6"


def test_homology_group_direct_sum_merges_invariant_factors():
    a = HomologyGroup(1, (2,))
    b = HomologyGroup(0, (3,))
    assert a.direct_sum(b) == HomologyGroup(1, (6,))
    c = HomologyGroup(0, (2,))
    d = HomologyGroup(0, (4,))
    assert c.direct_sum(d) == HomologyGroup(0, (2, 4))


def test_homology_group_rejects_bad_data():
    with pytest.raises(ValueError):
        HomologyGroup(-1)
    with pytest.raises(ValueError):
        HomologyGroup(0, (1,))


def test_complex_rejects_non_composing_differentials():
    with pytest.raises(ValueError, match="compose"):
        FreeChainComplex(
            term_names=("a", "b", "c"),
            ranks=(1, 1, 1),
            degrees=(0, 1, 2),
            columns=(((1,),), ((1,),)),
        )


def test_complex_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        FreeChainComplex(
            term_names=("a", "b"),
            ranks=(2, 1),
            degrees=(0, 1),
            columns=(((1, 0), (0, 1)),),
        )


def test_five_term_ranks_projective_plane():
    d = builtin("CP2")
    assert five_term_complex(d).ranks == (1, 0, 3, 2, 1)
    # the quotient by L_gamma -> L_gamma drops g from the two middle terms
    c = homology_complex(d)
    assert c.ranks == (1, 0, 2, 1, 1)
    assert c.degrees == five_term_complex(d).degrees == (4, 3, 2, 1, 0)


def test_five_term_ranks_s1_x_s3():
    d = builtin("S1xS3")
    assert five_term_complex(d).ranks == (1, 3, 3, 2, 1)
    assert homology_complex(d).ranks == (1, 3, 2, 1, 1)


def test_homology_projective_plane():
    assert homology_groups(builtin("CP2")) == (Z, ZERO, Z, ZERO, Z)


def test_homology_four_sphere():
    assert homology_groups(builtin("S4")) == (Z, ZERO, ZERO, ZERO, Z)


def test_homology_s1_x_s3():
    assert homology_groups(builtin("S1xS3")) == (Z, Z, ZERO, Z, Z)


def test_homology_connected_sum():
    groups = homology_groups(builtin("CP2#CP2bar"))
    assert groups == (Z, ZERO, HomologyGroup(2), ZERO, Z)


def test_homology_torsion_builtins():
    assert homology_groups(builtin("QS4_Z2")) == (
        Z,
        HomologyGroup(0, (2,)),
        HomologyGroup(0, (2,)),
        ZERO,
        Z,
    )
    assert homology_groups(builtin("QS4_Z3")) == (
        Z,
        HomologyGroup(0, (3,)),
        HomologyGroup(0, (3,)),
        ZERO,
        Z,
    )


def test_three_routes_agree_on_torsion():
    for name in ("QS4_Z2", "QS4_Z3", "QS4_Z2#QS4_Z3", "S1xS3#QS4_Z2", "CP2#QS4_Z3"):
        d = builtin(name)
        fm = homology(homology_complex(d), 2)
        assert fm.torsion != ()
        assert fm == dual_middle_homology(d)
        assert fm == cech_complex(d, 1).homology_at(1)
        # duality laws from H1 = lattice / (L1 + L2 + L3) and chi alone
        h1 = d.triple_quotient
        assert fm.torsion == h1.torsion
        assert fm.rank == euler_characteristic(d) - 2 + 2 * h1.free_rank


def test_cech_middle_column_reuses_the_homology_complex():
    d = builtin("S2xS2#QS4_Z3")
    c, fm = cech_complex(d, 1), five_term_complex(d)
    assert c.ranks == fm.ranks[1:4]
    assert all(a is b for a, b in zip(c.columns, fm.columns[1:3]))


def test_universal_coefficients_with_torsion():
    d = builtin("QS4_Z3")
    coh = cohomology_groups(d)
    assert coh[2] == HomologyGroup(0, (3,))
    assert coh[3] == HomologyGroup(0, (3,))
    assert coh[1] == ZERO


def test_homology_unknown_degree():
    c = homology_complex(builtin("CP2"))
    with pytest.raises(ValueError, match="degree 7"):
        homology(c, 7)


def test_middle_generators_projective_plane():
    c = homology_complex(builtin("CP2"))
    group, gens = c.homology_with_generators(c.position_of_degree(2))
    assert group == Z
    assert len(gens) == 1
    total = kernel_basis(c.diffs[2])
    assert total.contains(gens[0])
    assert any(gens[0])


def test_cech_constant_coefficients():
    c = cech_complex(builtin("CP2"), 0)
    assert tuple(c.homology_at(i) for i in range(3)) == (Z, ZERO, ZERO)


def test_cech_top_coefficients():
    c = cech_complex(builtin("S1xS3"), 2)
    assert tuple(c.homology_at(i) for i in range(3)) == (ZERO, ZERO, Z)


def test_cech_middle_coefficients_projective_plane():
    c = cech_complex(builtin("CP2"), 1)
    assert tuple(c.homology_at(i) for i in range(3)) == (ZERO, Z, ZERO)


def test_cech_middle_coefficients_s1_x_s3():
    c = cech_complex(builtin("S1xS3"), 1)
    assert tuple(c.homology_at(i) for i in range(3)) == (Z, ZERO, Z)


def test_cech_bad_sheaf_degree():
    with pytest.raises(ValueError):
        cech_complex(builtin("CP2"), 3)


def test_diamond_projective_plane():
    diamond = hodge_diamond(builtin("CP2"))
    assert diamond.ranks() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert cohomology_groups(builtin("CP2")) == (Z, ZERO, Z, ZERO, Z)


def test_diamond_s1_x_s3():
    diamond = hodge_diamond(builtin("S1xS3"))
    assert diamond.ranks() == ((1, 1, 0), (0, 0, 0), (0, 1, 1))
    assert cohomology_groups(builtin("S1xS3")) == (Z, Z, ZERO, Z, Z)


def test_diamond_rejects_degree_out_of_range():
    diamond = hodge_diamond(builtin("S4"))
    with pytest.raises(ValueError):
        diamond.cohomology(5)


def test_serre_duality_on_builtins():
    for name in ("S4", "CP2", "CP2bar", "S1xS3", "S2xS2", "CP2#CP2bar"):
        assert serre_duality_holds(hodge_diamond(builtin(name)))


def test_serre_duality_detects_asymmetry():
    grid = (
        (Z, ZERO, ZERO),
        (ZERO, ZERO, ZERO),
        (ZERO, ZERO, ZERO),
    )
    assert not serre_duality_holds(HodgeDiamond(grid=grid))


def test_dual_complex_ranks_projective_plane():
    d = builtin("CP2")
    assert dual_complex(d).ranks == (1, 2, 0)
    assert five_term_dual_complex(d).ranks == (2, 3, 0)
    assert dual_middle_homology(d) == Z == five_term_dual_complex(d).homology_at(1)


def test_dual_complex_s1_x_s3():
    d = builtin("S1xS3")
    assert dual_complex(d).ranks == (1, 2, 3)
    assert five_term_dual_complex(d).ranks == (2, 3, 3)
    assert dual_middle_homology(d) == ZERO == five_term_dual_complex(d).homology_at(1)


def test_dual_complex_connected_sum():
    assert dual_middle_homology(builtin("CP2#CP2")) == HomologyGroup(2)


TORSION_SUMS = ("QS4_Z2", "QS4_Z3", "QS4_Z2#QS4_Z3", "S1xS3#QS4_Z2", "CP2#QS4_Z3")


def test_dual_middle_homology_is_the_dual_complex_middle():
    for d in DUALITY_SUITE + tuple(ladder_diagram(g) for g in range(8, 25)):
        assert dual_middle_homology(d) == dual_complex(d).homology_at(1), d.describe()


def test_dual_complex_is_the_transposed_middle_of_the_homology_complex():
    for d in RANDOM_SUITE + tuple(builtin(name) for name in TORSION_SUMS):
        g = d.genus
        fm, dual = homology_complex(d), dual_complex(d)
        lagrangian_columns, pair_columns = fm.columns[2], fm.columns[1]
        assert dual.columns[0] == tuple(
            tuple(col[i] for col in lagrangian_columns) for i in range(g)
        ), d.label
        assert dual.columns[1] == tuple(
            tuple(-col[j] for col in pair_columns) for j in range(2 * g)
        ), d.label


# Diagrams whose intersection matrices vary: random_diagram carries the
# matrices of standard_triple, so these add builtin sums, their scrambled
# copies and handleslides of single systems, and the ladder.
Q_SUITE = (
    DUALITY_SUITE
    + tuple(ladder_diagram(g) for g in range(8, 25))
    + tuple(torsion_sums_and_their_slides())
)


def test_groups_match_the_five_term_oracle():
    for d in Q_SUITE:
        oracle = five_term_complex(d)
        assert homology_groups(d) == tuple(homology(oracle, k) for k in range(5)), d.describe()


def test_degree_two_generators_match_the_five_term_oracle():
    for d in Q_SUITE:
        _, gens = five_term_complex(d).homology_with_generators(2)
        coords = tuple(x.coords for x in h2_basis_cocycles(d))
        assert coords == tuple(map(_sign_normalized, gens)), d.describe()


def test_gram_matrix_matches_the_five_term_oracle():
    for d in Q_SUITE:
        g = d.genus
        _, gens = five_term_complex(d).homology_with_generators(2)
        gens = [_sign_normalized(v) for v in gens]
        b1 = [_combination(d.alpha.curves, v[:g], 2 * g) for v in gens]
        b2 = [_combination(d.beta.curves, v[g : 2 * g], 2 * g) for v in gens]
        gram = tuple(tuple(plain_form(x, y) for y in b2) for x in b1)
        assert intersection_form(d).gram == gram, d.describe()


def test_pair_difference_columns_match_the_five_term_oracle():
    for d in Q_SUITE:
        blocks = _pair_difference_columns(d)
        oracle = five_term_complex(d).columns[1]
        assert tuple(c for block in blocks for c in block) == oracle, d.describe()
        g = d.genus
        assert homology_complex(d).columns[1] == tuple(c[: 2 * g] for c in oracle), d.describe()


@settings(max_examples=60, deadline=None)
@given(genus=st.integers(min_value=0, max_value=3), seed=st.integers(0, 10**6))
def test_three_routes_to_middle_homology_agree(genus, seed):
    d = random_diagram(genus, seed)
    fm = homology(homology_complex(d), 2)
    dual = dual_middle_homology(d)
    h2 = hodge_diamond(d).cohomology(2)
    assert fm == dual
    assert fm.rank == h2.rank


@settings(max_examples=60, deadline=None)
@given(genus=st.integers(min_value=0, max_value=3), seed=st.integers(0, 10**6))
def test_cohomology_matches_homology_via_universal_coefficients(genus, seed):
    d = random_diagram(genus, seed)
    hom = homology_groups(d)
    coh = cohomology_groups(d)
    for k in range(5):
        assert coh[k].rank == hom[k].rank
        assert coh[k].torsion == (hom[k - 1].torsion if k else ())


@settings(max_examples=60, deadline=None)
@given(genus=st.integers(min_value=0, max_value=3), seed=st.integers(0, 10**6))
def test_euler_characteristic_matches_betti_alternating_sum(genus, seed):
    d = random_diagram(genus, seed)
    betti = betti_numbers(d)
    alternating = sum((-1) ** k * b for k, b in enumerate(betti))
    assert alternating == euler_characteristic(d)


@settings(max_examples=60, deadline=None)
@given(genus=st.integers(min_value=0, max_value=3), seed=st.integers(0, 10**6))
def test_serre_duality_on_random_diagrams(genus, seed):
    assert serre_duality_holds(hodge_diamond(random_diagram(genus, seed)))


def test_poincare_duality_ranks_on_random_diagrams():
    for seed in range(12):
        d = random_diagram(3, seed)
        betti = betti_numbers(d)
        assert betti == betti[::-1]


def test_low_degree_groups_never_have_torsion():
    for seed in range(12):
        d = random_diagram(3, seed + 100)
        hom = homology_groups(d)
        assert hom[0] == Z
        assert hom[4] == Z
        assert hom[3].torsion == ()


def test_differentials_are_exact_numpy_objects():
    c = homology_complex(builtin("S2xS2"))
    for mat in c.diffs:
        assert mat.dtype == object or mat.size == 0
    assert not np.any(c.diffs[2] @ c.diffs[1])


def test_empty_genus_complexes():
    d = builtin("S4")
    assert homology_complex(d).ranks == (1, 0, 0, 0, 1)
    assert dual_complex(d).ranks == (0, 0, 0)
    assert cohomology_groups(d) == (Z, ZERO, ZERO, ZERO, Z)


def every_complex(d):
    return (
        homology_complex(d),
        dual_complex(d),
        five_term_complex(d),
        five_term_dual_complex(d),
        *(cech_complex(d, j) for j in range(3)),
    )


def test_homology_from_invariant_factors_matches_the_kernel_route():
    for d in DUALITY_SUITE + tuple(ladder_diagram(g) for g in range(8, 25)):
        for c in every_complex(d):
            for pos in range(len(c.ranks)):
                assert c.homology_at(pos) == homology_by_kernels(c, pos), (d.describe(), pos)


HAND_BUILT = (
    # Z --(2, 0)--> Z^2 --0--> Z: torsion and free rank at the middle position
    (FreeChainComplex(("a", "b", "c"), (1, 2, 1), (0, 1, 2), (((2, 0),), ((0,), (0,)))),
     (ZERO, HomologyGroup(1, (2,)), Z)),
    # Z^2 --[[2, 0], [0, 6], [0, 0]]--> Z^3 --(0, 0, 1)--> Z
    (FreeChainComplex(("a", "b", "c"), (2, 3, 1), (0, 1, 2),
                      (((2, 0, 0), (0, 6, 0)), ((0,), (0,), (1,)))),
     (ZERO, HomologyGroup(0, (2, 6)), ZERO)),
    # zero-rank terms on both sides of a free one
    (FreeChainComplex(("a", "b", "c"), (0, 2, 0), (0, 1, 2), ((), ((), ()))),
     (ZERO, HomologyGroup(2), ZERO)),
    (FreeChainComplex(("a",), (0,), (0,), ()), (ZERO,)),
)


@pytest.mark.parametrize("c,groups", HAND_BUILT)
def test_hand_built_complexes(c, groups):
    assert tuple(c.homology_at(pos) for pos in range(len(c.ranks))) == groups
    assert tuple(homology_by_kernels(c, pos) for pos in range(len(c.ranks))) == groups


def test_genus_zero_complexes_match_the_kernel_route():
    for c in every_complex(builtin("S4")):
        assert all(
            c.homology_at(pos) == homology_by_kernels(c, pos) for pos in range(len(c.ranks))
        )


@pytest.mark.parametrize("c", [homology_complex(builtin("CP2")), HAND_BUILT[0][0]])
def test_positions_out_of_range_are_refused(c):
    for pos in (-1, len(c.ranks)):
        with pytest.raises(ValueError):
            c.homology_at(pos)
        with pytest.raises(ValueError):
            homology_by_kernels(c, pos)
        with pytest.raises(ValueError):
            c.homology_with_generators(pos)
