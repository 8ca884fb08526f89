"""The first homology lattice of a closed genus-g surface.

Basis convention: a1, b1, a2, b2, ..., a_g, b_g, with the algebraic
intersection form given blockwise by [[0, 1], [-1, 0]] for each (a_i, b_i)
pair. This is the ambient module every cut system and every chain complex in
the package lives in.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import neg

from .lattice import _check_count, _Value, as_int_vector


class SymplecticLattice(_Value):
    """Z^2g with the standard unimodular skew form of a genus-g surface."""

    _fields = ("genus",)

    def __init__(self, genus: int):
        _check_count(genus, "genus")
        object.__setattr__(self, "genus", genus)

    @property
    def rank(self) -> int:
        return 2 * self.genus

    def intersection_number(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Algebraic intersection <x, y>; skew-symmetric and unimodular."""
        return _form(as_int_vector(x, self.rank), as_int_vector(y, self.rank))


def _form(x: Sequence[int], y: Sequence[int]) -> int:
    """<x, y> on trusted vectors of equal even length; <x, x> = 0 always."""
    return sum(x[i] * y[i + 1] - x[i + 1] * y[i] for i in range(0, len(x), 2))


def _pairing_rows(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Rows of the map x -> (<e, x>) over trusted vectors e: row e dotted with x is <e, x>.

    Row e holds -e_{2t+1} at 2t and e_{2t} at 2t+1, written as two slice
    assignments per row.
    """
    rows = []
    for e in vectors:
        row = [0] * len(e)
        row[0::2] = map(neg, e[1::2])
        row[1::2] = e[0::2]
        rows.append(row)
    return rows
