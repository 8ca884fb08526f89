"""The first homology lattice of a closed genus-g surface.

Basis convention: a1, b1, a2, b2, ..., a_g, b_g, with the algebraic
intersection form given blockwise by [[0, 1], [-1, 0]] for each (a_i, b_i)
pair. This is the ambient module every cut system and every chain complex in
the package lives in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .lattice import Subgroup, as_int_vector, zeros


@dataclass(frozen=True)
class SymplecticLattice:
    """Z^2g with the standard unimodular skew form of a genus-g surface."""

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")

    @property
    def rank(self) -> int:
        return 2 * self.genus

    @cached_property
    def form_matrix(self) -> np.ndarray:
        J = zeros(self.rank, self.rank)
        for i in range(self.genus):
            J[2 * i, 2 * i + 1] = 1
            J[2 * i + 1, 2 * i] = -1
        J.setflags(write=False)
        return J

    def intersection_number(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Algebraic intersection <x, y>; skew-symmetric and unimodular."""
        x = as_int_vector(x, self.rank)
        y = as_int_vector(y, self.rank)
        total = 0
        for i in range(self.genus):
            total += x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i]
        return total

    def is_isotropic(self, sub: Subgroup) -> bool:
        """Whether the form vanishes identically on the subgroup."""
        if sub.ambient_rank != self.rank:
            raise ValueError("subgroup lives in a different ambient rank")
        B = sub.basis
        return not np.any(B.T @ self.form_matrix @ B)
