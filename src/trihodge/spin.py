"""Spin structures: quadratic enhancements vanishing on all three cut systems.

An enhancement q satisfies q(x + y) = q(x) + q(y) + <x, y> mod 2 on the mod-2
surface lattice and is fixed by its basis values, so the spin structures are
the solutions of one affine system over F_2.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import and_, mul

from .diagram import SYSTEM_NAMES, TrisectionDiagram, ensure_valid, memoized
from .lattice import _check_count, _Frozen, _Value, as_int_vector

MAX_LISTED = 2**16


class QuadraticEnhancement(_Value):
    """q on the mod-2 surface lattice, stored by its values on the basis."""

    _fields = ("genus", "basis_values")

    def __init__(self, genus: int, basis_values: Sequence[int]):
        _check_count(genus, "genus")
        basis_values = as_int_vector(basis_values, 2 * genus)
        if any(b not in (0, 1) for b in basis_values):
            raise ValueError("basis values must be bits")
        _Frozen.__init__(self, genus, basis_values)

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


@memoized
def _solution_space(d: TrisectionDiagram) -> "tuple[int, tuple[int, ...]] | None":
    """Solutions as a particular mask and a kernel basis, or None if there are none.

    q(c) = 0 reads sum c_i q_i = sum_t c_a c_b (mod 2). A mask holds q_i at bit
    2g-1-i, so mask order is lexicographic; an equation holds it one bit higher,
    above its constant. A pivot bit is set in its own equation only, so a new
    equation is reduced by the pivots at the set bits of ``eq & held`` alone,
    ``held`` the mask of pivot bits, and a new pivot's bit is cleared in
    place from the equations that hold it.
    """
    ensure_valid(d)
    n = 2 * d.genus
    weights = [1 << (n - i) for i in range(n)]
    ones = (1,) * n
    pivots: dict[int, int] = {}
    held = 0
    for curve in (c for name in SYSTEM_NAMES for c in getattr(d, name).curves):
        eq = sum(map(mul, curve[::2], curve[1::2])) & 1
        eq |= sum(map(mul, weights, map(and_, curve, ones)))
        hit = eq & held
        while hit:
            bit = hit.bit_length() - 1
            eq ^= pivots[bit]
            hit ^= 1 << bit
        if eq == 1:
            return None
        if eq:
            lead = eq.bit_length() - 1
            for bit, p in pivots.items():
                if p >> lead & 1:
                    pivots[bit] = p ^ eq
            pivots[lead] = eq
            held |= 1 << lead
    particular = sum(1 << bit for bit, p in pivots.items() if p & 1) >> 1
    return particular, tuple(
        ((1 << free) | sum(1 << bit for bit, p in pivots.items() if p >> free & 1)) >> 1
        for free in range(1, n + 1) if free not in pivots
    )


def spin_count(d: TrisectionDiagram) -> int:
    space = _solution_space(d)
    return 0 if space is None else 2 ** len(space[1])


def enumerate_spin(d: TrisectionDiagram) -> "tuple[QuadraticEnhancement, ...]":
    """Enhancements vanishing on all three cut systems, lexicographically.

    Raises ValueError beyond MAX_LISTED structures; spin_count has no bound.
    """
    space = _solution_space(d)
    if space is None:
        return ()
    count = 2 ** len(space[1])
    if count > MAX_LISTED:
        raise ValueError(f"{count} spin structures exceed the listing bound {MAX_LISTED}")
    masks = [space[0]]
    for k in space[1]:
        masks += [m ^ k for m in masks]
    bits = range(2 * d.genus - 1, -1, -1)
    return tuple(
        QuadraticEnhancement(d.genus, tuple(m >> i & 1 for i in bits)) for m in sorted(masks)
    )
