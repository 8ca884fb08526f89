"""Chain complexes attached to a diagram and their integral (co)homology.

A five-term complex of free groups carries the computation. Following
Feller, Klug, Schirmer and Zemke, it is read from the three g x g
intersection matrices of the curves of consecutive systems: it is the
complex of the three Lagrangians, L_alpha + L_beta + L_gamma -> Z^2g,
quotiented by its acyclic subcomplex L_gamma -> L_gamma, so its homology in
degrees 0..4 is the integral homology of the 4-manifold. The complex of the
three Lagrangians is kept in the tests as its oracle. The dual complex, Hom
of its middle, has middle homology isomorphic to H2 by universal
coefficients plus Poincare duality. ``dual_middle_homology`` reads that
group in closed form off the eliminations of the homology complex, so only
the tests (as the oracle of the closed form) and the bench build the dual
complex. It is no independent route to H2; the duality laws are that check.

The invariant factors of each differential, and with them its rank, come
from one unit-pivot elimination of its columns and are kept on the complex.
Every homology group is read off those of the two differentials at its
position, which holds in any complex of free groups: H2 is
Z^(2g - rank d1 - rank d2) plus the factors >= 2 of d1, like every other
group, so a group query builds no kernel of a differential and presents
no cokernel. Free generators are built only where a caller reads them,
which is at degree two, for ``pairings.h2_basis_cocycles``. There the
canonical kernel of the outgoing differential gives the cycles, and one
Smith form of the boundaries in the cycles gives the generators. A
complex keeps its differentials as the columns the eliminations read;
``diffs`` builds matrices from them only when asked.

The 3x3 Hodge-style diamond is ``homology_groups`` arranged with two constant
outer columns; its antidiagonals assemble the cohomology. The Cech complexes
of three coefficient presheaves over the three-sector cover, from which the
notes build the diamond, are kept in the tests as its oracle: the outer ones
do not depend on the diagram, and the middle one is the middle of the
complex of the three Lagrangians. The tests compare the diamond with them,
and H2 with the duality laws, which need only H1 and the Euler
characteristic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from operator import is_, mod

from .diagram import TrisectionDiagram, ensure_valid, memoized
from .lattice import (
    Subgroup,
    _Frozen,
    _Value,
    _check_count,
    _cokernel,
    _column_matrix,
    _combination,
    _invariant_factors,
    _kernel,
    _transpose,
    as_int_vector,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


class InvalidStateError(RuntimeError):
    """Internal invariant broke; indicates a bug rather than bad user input."""


class HomologyGroup(_Value):
    """Finitely generated abelian group: free rank plus invariant factors.

    The factors are a divisibility chain, so each group has one record and
    equal groups compare equal.
    """

    _fields = ("rank", "torsion")

    def __init__(self, rank: int, torsion: Iterable[int] = ()):
        torsion = tuple(torsion)
        for x in (rank, *torsion):
            if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
                raise ValueError("rank and invariant factors must be integers")
        if rank < 0 or torsion and (min(torsion) < 2 or any(map(mod, torsion[1:], torsion))):
            raise ValueError("rank must be >= 0, invariant factors >= 2, each dividing the next")
        _Frozen.__init__(self, rank, torsion)

    def direct_sum(self, other: "HomologyGroup") -> "HomologyGroup":
        merged = self.torsion + other.torsion
        diag = [[t if i == j else 0 for j in range(len(merged))] for i, t in enumerate(merged)]
        factors = _invariant_factors(diag, len(merged))
        return HomologyGroup(self.rank + other.rank, tuple(f for f in factors if f >= 2))

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class FreeChainComplex(_Frozen):
    """Finite complex of free abelian groups with explicit differentials.

    Position i maps to position i+1 by the differential whose columns are
    ``columns[i]``: one tuple per basis vector of position i, each of length
    ``ranks[i + 1]``. Consecutive composites must vanish. Columns that already
    are tuples of Python ints are kept as the same objects. Every homology
    group is read from the invariant factors of the differentials, which
    are memoized on the complex; free generators are built only where
    ``homology_with_generators`` is asked for them, on each call.
    """

    _fields = ("ranks", "columns")

    def __init__(
        self,
        ranks: tuple[int, ...],
        columns: tuple[tuple[tuple[int, ...], ...], ...],
    ):
        ranks = tuple(ranks)
        for r in ranks:
            _check_count(r, "rank")
        n = len(ranks)
        if len(columns) != n - 1:
            raise ValueError("inconsistent complex data")
        kept = []
        for i, (cols, nrows) in enumerate(zip(columns, ranks[1:])):
            if len(cols) != ranks[i] or any(len(c) != nrows for c in cols):
                raise ValueError(f"differential {i} does not have shape ({nrows}, {ranks[i]})")
            checked = tuple(map(as_int_vector, cols))
            same = type(cols) is tuple and all(map(is_, checked, cols))
            kept.append(cols if same else checked)
        for i in range(n - 2):
            if any(any(_combination(kept[i + 1], col, ranks[i + 2])) for col in kept[i]):
                raise ValueError(f"differentials {i} and {i + 1} do not compose to zero")
        _Frozen.__init__(self, ranks, tuple(kept))

    @cached_property
    def diffs(self) -> tuple[np.ndarray, ...]:
        """Read-only matrices of the differentials, built on first read."""
        return tuple(_column_matrix(cols, r) for cols, r in zip(self.columns, self.ranks[1:]))

    def _check_position(self, pos: int) -> None:
        if type(pos) is not int or not 0 <= pos < len(self.ranks):
            raise ValueError(f"position must be an int in 0..{len(self.ranks) - 1}, got {pos!r}")

    @memoized
    def _factors(self, i: int) -> tuple[int, ...]:
        """Nonzero invariant factors of differential i, read from its columns
        (those of its transpose); their count is its rank."""
        return _invariant_factors(self.columns[i], self.ranks[i + 1])

    def _rank(self, i: int) -> int:
        """Rank of differential i; zero out of the last position."""
        return len(self._factors(i)) if i < len(self.columns) else 0

    def homology_at(self, pos: int) -> HomologyGroup:
        """Homology at a position, from the ranks and invariant factors of the differentials.

        ker d_pos is saturated, so the boundaries of d_{pos-1} lie in it
        with the invariant factors of d_{pos-1}: the group is
        Z^(n_pos - rank d_pos - rank d_{pos-1}) plus the factors >= 2 of
        d_{pos-1}. This holds for any complex of free groups.
        """
        self._check_position(pos)
        incoming = self._factors(pos - 1) if pos else ()
        free = self.ranks[pos] - self._rank(pos) - len(incoming)
        return HomologyGroup(free, tuple(f for f in incoming if f >= 2))

    def homology_with_generators(
        self, pos: int
    ) -> tuple[HomologyGroup, tuple[tuple[int, ...], ...]]:
        """Homology at a position plus lifts of free-part generators.

        The generators are cycle vectors in the coordinates of term ``pos``
        whose classes form a basis of the free part of the homology group.
        The cycles are the canonical kernel of the outgoing differential
        (everything at the last position), and one Smith form of the
        boundaries written in their basis gives the group with its
        generators. The package reads it for the degree-two generators
        only (``pairings.h2_basis_cocycles``); its group is the kernel-route
        oracle of ``homology_at`` in the tests, and its degree-one
        generators those of the oracle
        ``tests/helpers.py::h3_representatives_by_complex``.
        """
        self._check_position(pos)
        if pos < len(self.columns):
            cycles = _kernel(self.columns[pos], self.ranks[pos + 1])
        else:
            cycles = Subgroup.full(self.ranks[pos])
        if cycles.rank == 0:
            return HomologyGroup(0), ()
        # boundary columns land in the cycle subgroup (d o d = 0, saturated basis)
        coords = [cycles.coordinates_of(col) for col in (self.columns[pos - 1] if pos else ())]
        q = _cokernel(_transpose(coords, cycles.rank), len(coords))
        cols = cycles.columns()
        gens = tuple(_combination(cols, lift, self.ranks[pos]) for lift in q._free_lifts)
        return HomologyGroup(q.free_rank, q.torsion), gens


def _negated(v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-e for e in v)


@memoized
def _pair_difference_columns(d: TrisectionDiagram) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per cyclic pair lam, lam+1, the pair-difference columns in the three curve bases.

    One length-3g column per basis vector of L_lam n L_{lam+1}, written as
    (x, y) with C_lam x = C_{lam+1} y, C_lam the curves of system lam: -x in
    block lam and +y in block lam+1, the (c-a, a-b, b-c) pattern
    componentwise. The columns of a block span that intersection.

    A vector of Z^2g lies in a primitive Lagrangian exactly when it pairs to
    zero with that Lagrangian's curves, so x runs over the canonical kernel
    of x -> x^T Q_lam, and y is the coordinates of C_lam x along the curve
    echelon of system lam+1. The intersection projects isomorphically onto
    x, so these are the columns of the canonical kernel of
    [C_lam | -C_{lam+1}], for all three pairs alike.
    """
    ensure_valid(d)
    g = d.genus
    blocks = []
    for lam, q in enumerate(d._intersection_matrices):
        nxt = (lam + 1) % 3
        curves, coordinates = d.systems[lam].curves, d._curve_echelons[nxt].coordinates
        columns = []
        for x in _kernel(q, g).columns():
            col = [(0,) * g] * 3
            col[lam] = _negated(x)
            col[nxt] = coordinates(_combination(curves, x, 2 * g))
            columns.append(col[0] + col[1] + col[2])
        blocks.append(tuple(columns))
    return tuple(blocks)


@memoized
def homology_complex(d: TrisectionDiagram) -> FreeChainComplex:
    """A five-term complex whose homology is H_*(X; Z), read from the intersection matrices.

    Terms, left to right: Z, the sum of cyclic pairwise intersections, the
    alpha and beta Lagrangians, the surface lattice modulo the gamma
    Lagrangian, Z: position p holds degree 4 - p. The Lagrangians are
    written in their curve bases, and Z^2g / L_gamma is identified with Z^g
    by pairing with the gamma curves, so the degree-two differential is
    [Q_gamma_alpha | Q_gamma_beta]. The degree-three one keeps the alpha
    and beta blocks of the pair-difference columns. Its cycles and
    boundaries are the projections of those of the complex of the three
    Lagrangians, which lose nothing: the gamma block of a cycle there is
    fixed by its alpha and beta blocks.
    """
    ensure_valid(d)
    g = d.genus
    pair_columns = tuple(col[: 2 * g] for block in _pair_difference_columns(d) for col in block)
    _, bg, ga = d._intersection_matrices
    columns = (
        ((0,) * len(pair_columns),),
        pair_columns,
        tuple(map(tuple, _transpose(ga, g))) + tuple(map(_negated, bg)),
        ((0,),) * g,
    )
    return FreeChainComplex(ranks=(1, len(pair_columns), 2 * g, g, 1), columns=columns)


def _curve_coordinates_of_cycle(d: TrisectionDiagram, xy: tuple[int, ...]) -> tuple[int, ...]:
    """The 3g curve coordinates (x, y, z) of a degree-two cycle (x, y) of the homology complex.

    (x, y) is a cycle when C_alpha x + C_beta y pairs to zero with the gamma
    curves, that is lies in L_gamma; z solves C_gamma z = -(C_alpha x + C_beta y),
    so that the three blocks sum to zero.
    """
    g = d.genus
    total = _combination(d.alpha.curves + d.beta.curves, xy, 2 * g)
    return xy + d._curve_echelons[2].coordinates(_negated(total))


@memoized
def homology_groups(d: TrisectionDiagram) -> tuple[HomologyGroup, ...]:
    """H_0 .. H_4 of the 4-manifold."""
    c = homology_complex(d)
    return tuple(c.homology_at(4 - k) for k in range(5))


def dual_complex(d: TrisectionDiagram) -> FreeChainComplex:
    """Hom of the middle of the homology complex; its middle homology is H_2(X; Z).

    Hom(Z^2g / L_gamma, Z) -> Hom(L_alpha + L_beta, Z) -> Hom of the pairwise
    intersections, by the transposes of the degree-two differential and of
    the negated degree-three one. No package path builds it: its middle
    homology is ``dual_middle_homology``, read without it. The tests keep it
    as the oracle of that closed form, and the bench's lattice replay reads
    its differentials; each builds it once, so it is rebuilt on each call.
    """
    c = homology_complex(d)
    g = d.genus
    pair_columns = c.columns[1]
    return FreeChainComplex(
        ranks=(g, 2 * g, len(pair_columns)),
        columns=(
            _transpose(c.columns[2], g),
            _transpose([[-x for x in col] for col in pair_columns], 2 * g),
        ),
    )


@memoized
def dual_middle_homology(d: TrisectionDiagram) -> HomologyGroup:
    """Middle homology of ``dual_complex(d)``, read off the homology complex.

    The dual complex's maps are d_2^T and -d_1^T, with d_1 and d_2 the
    differentials into and out of the alpha and beta Lagrangians. So its
    cycles are the saturated ker d_1^T and its boundaries im d_2^T, which
    has the invariant factors of d_2: the group is
    Z^(2g - rank d_1 - rank d_2) plus the factors >= 2 of d_2.
    ``homology_groups`` has already eliminated both differentials, so this
    computes nothing new. The torsion it reports is that of H1, which
    equals the torsion of H2.
    """
    c = homology_complex(d)
    free = c.ranks[2] - c._rank(1) - c._rank(2)
    return HomologyGroup(free, tuple(f for f in c._factors(2) if f >= 2))


class HodgeDiamond(_Value):
    """3x3 grid: rows are Cech degrees, columns are coefficient degrees."""

    _fields = ("grid",)

    def __init__(self, grid: Sequence[Sequence[HomologyGroup]]):
        grid = tuple(map(tuple, grid))
        if len(grid) != 3 or any(len(row) != 3 for row in grid):
            raise ValueError("expected a 3x3 grid")
        _Frozen.__init__(self, grid)

    def ranks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(h.rank for h in row) for row in self.grid)

    def cohomology(self, k: int) -> HomologyGroup:
        """H^k of the manifold: direct sum along the antidiagonal i + j = k."""
        if type(k) is not int or not 0 <= k <= 4:
            raise ValueError(f"cohomological degree must be an int between 0 and 4, got {k!r}")
        total = HomologyGroup(0)
        for i in range(3):
            j = k - i
            if 0 <= j <= 2:
                total = total.direct_sum(self.grid[i][j])
        return total


@memoized
def hodge_diamond(d: TrisectionDiagram) -> HodgeDiamond:
    """The diamond of Cech groups, read off ``homology_groups``.

    Column 0 (constant coefficients) is Z, 0, 0 and column 2 (top
    coefficients) is 0, 0, Z on every diagram. Column 1 is the middle of the
    homology complex read as a cochain complex, so Cech degrees 0, 1, 2
    hold H3, H2, H1.
    """
    h = homology_groups(d)
    Z, ZERO = HomologyGroup(1), HomologyGroup(0)
    return HodgeDiamond(grid=((Z, h[3], ZERO), (ZERO, h[2], ZERO), (ZERO, h[1], Z)))


def cohomology_groups(d: TrisectionDiagram) -> tuple[HomologyGroup, ...]:
    """H^0 .. H^4 assembled from the diamond antidiagonals."""
    diamond = hodge_diamond(d)
    return tuple(diamond.cohomology(k) for k in range(5))


def serre_duality_holds(diamond: HodgeDiamond) -> bool:
    """Rank symmetry rank(i, j) == rank(2-i, 2-j) across the diamond."""
    r = diamond.ranks()
    return all(r[i][j] == r[2 - i][2 - j] for i in range(3) for j in range(3))


def betti_numbers(d: TrisectionDiagram) -> tuple[int, ...]:
    return tuple(h.rank for h in homology_groups(d))
