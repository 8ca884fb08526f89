"""Intersection form, read as pairing-row dots, and the duality map on the surface lattice."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trihodge.diagram import _pairing_rows, builtin
from trihodge.lattice import Subgroup, _identity_rows
from trihodge.pairings import pairing_h3_h1

from helpers import (
    comprehension_pairing_rows,
    det,
    form_matrix,
    m_subgroup,
    pi_dual,
    plain_form,
    standard_basis_vector,
    transvection_matrix,
)


def vectors(rank):
    return st.lists(
        st.integers(min_value=-7, max_value=7), min_size=rank, max_size=rank
    ).map(tuple)


def form(x, y):
    """<x, y> as the package reads it: the pairing row of x dotted with y."""
    (row,) = _pairing_rows((x,))
    return sum(r * e for r, e in zip(row, y))


class TestIntersectionNumber:
    def test_genus_one_basis_pairings(self):
        a1, b1 = (1, 0), (0, 1)
        assert form(a1, b1) == 1
        assert form(b1, a1) == -1
        assert form(a1, a1) == 0

    def test_cross_block_vanishing(self):
        a1 = (1, 0, 0, 0)
        b2 = (0, 0, 0, 1)
        assert form(a1, b2) == 0

    def test_genus_zero(self):
        assert _pairing_rows(((),)) == [[]]
        assert form((), ()) == 0

    def test_dimension_mismatch(self):
        # the pairing rows take trusted vectors; the public pairing checks its own
        d = builtin("S1xS3")
        assert pairing_h3_h1(d, (1, 0), (0, 1)) == 1
        with pytest.raises(ValueError):
            pairing_h3_h1(d, (1, 0, 0), (0, 1))

    @settings(max_examples=100, deadline=None)
    @given(vectors(4), vectors(4), vectors(4))
    def test_bilinear_and_skew(self, x, y, z):
        assert form(x, y) == -form(y, x)
        assert form(x, x) == 0
        xy = tuple(u + v for u, v in zip(x, y))
        assert form(xy, z) == form(x, z) + form(y, z)

    def test_form_matrix_is_unimodular(self):
        for g in range(4):
            J = form_matrix(g)
            assert [list(r) for r in J] == _pairing_rows(_identity_rows(2 * g))
            assert abs(det(J)) == 1


class TestPiDual:
    def test_evaluation_identity(self):
        x = (1, 2, 3, 4)
        y = (-2, 0, 5, 1)
        cov = pi_dual(2, x)
        assert sum(c * yi for c, yi in zip(cov, y)) == form(y, x)

    def test_injective_on_basis(self):
        images = {pi_dual(3, standard_basis_vector(3, i)) for i in range(6)}
        assert len(images) == 6
        assert all(any(images_vec) for images_vec in images)


class TestMSubgroup:
    def test_cp2_alpha_system(self):
        L = Subgroup.from_columns(2, [(1, 0)])
        assert m_subgroup(1, L) == Subgroup.from_columns(2, [(0, 1)])

    def test_rejects_non_lagrangian(self):
        with pytest.raises(ValueError):
            m_subgroup(1, Subgroup.full(2))
        with pytest.raises(ValueError):
            # rank 2 but not isotropic
            m_subgroup(2, Subgroup.from_columns(4, [(1, 0, 0, 0), (0, 1, 0, 0)]))

    def test_rank_preserved(self):
        L = Subgroup.from_columns(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
        assert m_subgroup(2, L).rank == 2


class TestTransvection:
    @settings(max_examples=100, deadline=None)
    @given(vectors(4), vectors(4), vectors(4))
    def test_preserves_the_form(self, v, x, y):
        T = transvection_matrix(2, v)
        Tx = tuple(int(e) for e in (T @ np.array(x, dtype=object).reshape(-1, 1))[:, 0])
        Ty = tuple(int(e) for e in (T @ np.array(y, dtype=object).reshape(-1, 1))[:, 0])
        assert form(Tx, Ty) == form(x, y)

    def test_is_unimodular(self):
        assert abs(det(transvection_matrix(2, (1, 2, -1, 3)))) == 1

    def test_formula(self):
        T = transvection_matrix(1, (1, 0))
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
        assert form(x, y) == plain_form(x, y)
