"""Test-only constructions: random (co)cycles, duality maps, column spans.

The suites use these to generate inputs and to state laws; the package
itself never needs them.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from trihodge.complexes import dual_complex, homology_complex
from trihodge.diagram import TrisectionDiagram
from trihodge.lattice import (
    Subgroup,
    as_int_vector,
    column_vector,
    kernel_basis,
    matrix_columns,
)
from trihodge.pairings import H2DualRep, OneOneCocycle
from trihodge.surface import SymplecticLattice


def image_subgroup(m: np.ndarray) -> Subgroup:
    """Column span of m as a canonical Subgroup of Z^rows."""
    return Subgroup.from_columns(m.shape[0], matrix_columns(m))


def standard_basis_vector(lat: SymplecticLattice, index: int) -> tuple[int, ...]:
    vec = [0] * lat.rank
    vec[index] = 1
    return tuple(vec)


def pi_dual(lat: SymplecticLattice, x: Sequence[int]) -> tuple[int, ...]:
    """Coordinates of the functional <., x> in the dual basis.

    The assignment x -> <., x> identifies the lattice with its dual because
    the form is unimodular; concretely the coordinate vector is J @ x.
    """
    out = lat.form_matrix @ column_vector(as_int_vector(x, lat.rank))
    return tuple(int(e) for e in out[:, 0])


def is_lagrangian(lat: SymplecticLattice, sub: Subgroup) -> bool:
    return sub.rank == lat.genus and lat.is_isotropic(sub)


def m_subgroup(lat: SymplecticLattice, lagrangian: Subgroup) -> Subgroup:
    """Image of a Lagrangian under the duality map x -> <., x>."""
    if not is_lagrangian(lat, lagrangian):
        raise ValueError("m_subgroup needs a Lagrangian subgroup")
    return Subgroup.from_columns(
        lat.rank, [pi_dual(lat, col) for col in lagrangian.columns()]
    )


def _random_combination(basis: np.ndarray, rng: random.Random, span: int) -> tuple[int, ...]:
    combo = column_vector([rng.randint(-span, span) for _ in range(basis.shape[1])])
    return tuple(int(e) for e in (basis @ combo)[:, 0])


def random_cocycle(d: TrisectionDiagram, rng: random.Random, span: int = 4) -> OneOneCocycle:
    """Random element of the cocycle group (kernel of the total-sum map)."""
    cycles = kernel_basis(homology_complex(d).diffs[2])
    if cycles.rank == 0:
        return OneOneCocycle.zero(d)
    coords = _random_combination(cycles.basis, rng, span)
    return OneOneCocycle.from_lagrangian_coordinates(d, coords)


def random_coboundary(d: TrisectionDiagram, rng: random.Random, span: int = 4) -> OneOneCocycle:
    """Random image of the pairwise-intersection difference map."""
    zeta = homology_complex(d).diffs[1]
    if zeta.shape[1] == 0:
        return OneOneCocycle.zero(d)
    coords = _random_combination(zeta, rng, span)
    return OneOneCocycle.from_lagrangian_coordinates(d, coords)


def random_cycle_rep(d: TrisectionDiagram, rng: random.Random, span: int = 4) -> H2DualRep:
    """Random triple of handlebody classes satisfying the matching conditions."""
    g = d.genus
    cycles = kernel_basis(dual_complex(d).diffs[1])
    if cycles.rank == 0:
        return H2DualRep.zero(d)
    vec = _random_combination(cycles.basis, rng, span)
    return H2DualRep.from_coords(d, (vec[:g], vec[g : 2 * g], vec[2 * g :]))
