"""Spin structures counted through quadratic enhancements.

A quadratic enhancement is a function q on the mod-2 surface lattice
satisfying q(x + y) = q(x) + q(y) + <x, y> mod 2. It is determined by its
values on the standard basis, and a diagram's spin structures correspond to
the enhancements vanishing on all three cut systems. Enumeration is a filter
over all 2^(2g) candidates, so it refuses genus beyond a configurable bound
instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import SYSTEM_NAMES, CutSystem, TrisectionDiagram, ensure_valid, memoized
from .lattice import as_int_vector

DEFAULT_GENUS_BOUND = 8


@dataclass(frozen=True)
class QuadraticEnhancement:
    """q on the mod-2 surface lattice, stored by its values on the basis."""

    genus: int
    basis_values: tuple[int, ...]

    def __post_init__(self):
        if len(self.basis_values) != 2 * self.genus:
            raise ValueError("expected one bit per basis vector")
        if any(b not in (0, 1) for b in self.basis_values):
            raise ValueError("basis values must be bits")

    def evaluate(self, x) -> int:
        """q(x) mod 2 for an integer vector x.

        Expanding the defining relation over a sum of basis vectors leaves
        one crossterm per handle, since <e_i, e_j> = 0 except within an
        (a_t, b_t) pair: q(sum x_i e_i) = sum x_i q(e_i) + sum_t x_a x_b.
        """
        x = [e % 2 for e in as_int_vector(x, 2 * self.genus)]
        total = sum(xi * qi for xi, qi in zip(x, self.basis_values))
        total += sum(x[2 * t] * x[2 * t + 1] for t in range(self.genus))
        return total % 2

    def vanishes_on(self, cs: CutSystem) -> bool:
        """True when q is zero on every curve of the cut system.

        Within one system the curves span a Lagrangian, so the defining
        relation is additive there and vanishing on the curves already gives
        vanishing on the whole subgroup.
        """
        return all(self.evaluate(curve) == 0 for curve in cs.curves)


def all_enhancements(genus: int) -> "tuple[QuadraticEnhancement, ...]":
    """Every enhancement for the given genus, in lexicographic bit order."""
    width = 2 * genus
    out = []
    for mask in range(1 << width):
        bits = tuple((mask >> (width - 1 - i)) & 1 for i in range(width))
        out.append(QuadraticEnhancement(genus, bits))
    return tuple(out)


def enumerate_spin(
    d: TrisectionDiagram, genus_bound: int = DEFAULT_GENUS_BOUND
) -> "tuple[QuadraticEnhancement, ...]":
    """Enhancements vanishing on all three cut systems, lexicographically.

    Raises ValueError beyond the genus bound: the search space is 4^genus
    and partial output would be wrong, not just slow.
    """
    ensure_valid(d)
    if d.genus > genus_bound:
        raise ValueError(
            f"genus {d.genus} exceeds the enumeration bound {genus_bound}; "
            "raise the bound explicitly to force the 4^genus search"
        )
    return _spin_structures(d)


@memoized
def _spin_structures(d: TrisectionDiagram) -> "tuple[QuadraticEnhancement, ...]":
    systems = tuple(getattr(d, name) for name in SYSTEM_NAMES)
    return tuple(
        q for q in all_enhancements(d.genus) if all(q.vanishes_on(cs) for cs in systems)
    )


def spin_count(d: TrisectionDiagram, genus_bound: int = DEFAULT_GENUS_BOUND) -> int:
    return len(enumerate_spin(d, genus_bound))
