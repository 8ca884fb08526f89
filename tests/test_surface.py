"""Intersection form and duality map on the surface lattice."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trihodge.lattice import Subgroup
from trihodge.surface import SymplecticLattice, _pairing_rows

from helpers import (
    comprehension_pairing_rows,
    det,
    form_matrix,
    m_subgroup,
    pi_dual,
    standard_basis_vector,
    transvection_matrix,
)


def vectors(rank):
    return st.lists(
        st.integers(min_value=-7, max_value=7), min_size=rank, max_size=rank
    ).map(tuple)


class TestIntersectionNumber:
    def test_genus_one_basis_pairings(self):
        lat = SymplecticLattice(1)
        a1, b1 = (1, 0), (0, 1)
        assert lat.intersection_number(a1, b1) == 1
        assert lat.intersection_number(b1, a1) == -1
        assert lat.intersection_number(a1, a1) == 0

    def test_cross_block_vanishing(self):
        lat = SymplecticLattice(2)
        a1 = (1, 0, 0, 0)
        b2 = (0, 0, 0, 1)
        assert lat.intersection_number(a1, b2) == 0

    def test_genus_zero(self):
        lat = SymplecticLattice(0)
        assert lat.rank == 0
        assert lat.intersection_number((), ()) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SymplecticLattice(1).intersection_number((1, 0, 0), (0, 1))

    @settings(max_examples=100, deadline=None)
    @given(vectors(4), vectors(4), vectors(4))
    def test_bilinear_and_skew(self, x, y, z):
        lat = SymplecticLattice(2)
        form = lat.intersection_number
        assert form(x, y) == -form(y, x)
        xy = tuple(u + v for u, v in zip(x, y))
        assert form(xy, z) == form(x, z) + form(y, z)

    def test_form_matrix_is_unimodular(self):
        for g in range(4):
            assert abs(det(form_matrix(SymplecticLattice(g)))) == 1


class TestPiDual:
    def test_evaluation_identity(self):
        lat = SymplecticLattice(2)
        x = (1, 2, 3, 4)
        y = (-2, 0, 5, 1)
        cov = pi_dual(lat, x)
        assert sum(c * yi for c, yi in zip(cov, y)) == lat.intersection_number(y, x)

    def test_injective_on_basis(self):
        lat = SymplecticLattice(3)
        images = {pi_dual(lat, standard_basis_vector(lat, i)) for i in range(6)}
        assert len(images) == 6
        assert all(any(images_vec) for images_vec in images)


class TestMSubgroup:
    def test_cp2_alpha_system(self):
        lat = SymplecticLattice(1)
        L = Subgroup.from_columns(2, [(1, 0)])
        assert m_subgroup(lat, L) == Subgroup.from_columns(2, [(0, 1)])

    def test_rejects_non_lagrangian(self):
        lat = SymplecticLattice(1)
        with pytest.raises(ValueError):
            m_subgroup(lat, Subgroup.full(2))
        lat2 = SymplecticLattice(2)
        with pytest.raises(ValueError):
            # rank 2 but not isotropic
            m_subgroup(lat2, Subgroup.from_columns(4, [(1, 0, 0, 0), (0, 1, 0, 0)]))

    def test_rank_preserved(self):
        lat = SymplecticLattice(2)
        L = Subgroup.from_columns(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
        assert m_subgroup(lat, L).rank == 2


class TestTransvection:
    @settings(max_examples=100, deadline=None)
    @given(vectors(4), vectors(4), vectors(4))
    def test_preserves_the_form(self, v, x, y):
        lat = SymplecticLattice(2)
        T = transvection_matrix(lat, v)
        Tx = tuple(int(e) for e in (T @ np.array(x, dtype=object).reshape(-1, 1))[:, 0])
        Ty = tuple(int(e) for e in (T @ np.array(y, dtype=object).reshape(-1, 1))[:, 0])
        assert lat.intersection_number(Tx, Ty) == lat.intersection_number(x, y)

    def test_is_unimodular(self):
        lat = SymplecticLattice(2)
        assert abs(det(transvection_matrix(lat, (1, 2, -1, 3)))) == 1

    def test_formula(self):
        lat = SymplecticLattice(1)
        T = transvection_matrix(lat, (1, 0))
        x = np.array([(3,), (4,)], dtype=object)
        out = tuple(int(e) for e in (T @ x)[:, 0])
        # x + <x, v> v with v = a1: <(3,4),(1,0)> = -4
        assert out == (3 - 4, 4)


class TestPairingRows:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6).flatmap(
            lambda g: st.lists(
                st.lists(st.integers(-(2**70), 2**70), min_size=2 * g, max_size=2 * g).map(tuple),
                max_size=2 * g + 1,
            )
        )
    )
    def test_slice_rows_match_the_comprehension_oracle(self, vectors):
        assert _pairing_rows(vectors) == comprehension_pairing_rows(vectors)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6).flatmap(
            lambda g: st.tuples(vectors(2 * g), vectors(2 * g))
        )
    )
    def test_row_dotted_with_x_is_the_form(self, xy):
        x, y = xy
        (row,) = _pairing_rows((x,))
        lat = SymplecticLattice(len(x) // 2)
        assert sum(r * e for r, e in zip(row, y)) == lat.intersection_number(x, y)
