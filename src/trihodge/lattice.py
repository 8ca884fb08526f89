"""Exact linear algebra over the integers.

Everything in this package reduces to finitely generated abelian groups, so this
module is the computational core: canonical echelon bases for subgroups of Z^n,
Smith normal form with unimodular transforms, and quotient presentations with
explicit project/lift maps.

Kernels and intersections come from the echelon routine that canonicalizes
every subgroup. Smith forms serve only what needs invariant factors or
transforms: quotients, homology presentations and integer solves.

Matrices are numpy arrays with ``dtype=object`` holding Python ints, which keeps
all arithmetic exact at any magnitude. No code path here (or anywhere else in
the package) touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np


def intmat(rows: Sequence[Sequence[int]], *, cols: int | None = None) -> np.ndarray:
    """Build an exact integer matrix from rows.

    ``cols`` is only needed to disambiguate the width of a matrix with zero
    rows. Raises ValueError on ragged input or non-integer entries.
    """
    rows = [list(r) for r in rows]
    if not rows:
        if cols is None:
            raise ValueError("matrix with zero rows needs an explicit column count")
        return np.zeros((0, cols), dtype=object)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in matrix input")
    if cols is not None and cols != width:
        raise ValueError(f"expected {cols} columns, got {width}")
    out = np.empty((len(rows), width), dtype=object)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[i, j] = _as_int(entry)
    return out


def zeros(nrows: int, ncols: int) -> np.ndarray:
    return np.zeros((nrows, ncols), dtype=object)


def identity(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"integer entry expected, got {x!r}")
    return int(x)


def as_int_vector(v: Iterable[int], length: int | None = None) -> tuple[int, ...]:
    """Normalize a vector to a tuple of Python ints, checking its length."""
    vec = tuple(_as_int(x) for x in v)
    if length is not None and len(vec) != length:
        raise ValueError(f"vector of length {length} expected, got {len(vec)}")
    return vec


def column_vector(v: Sequence[int]) -> np.ndarray:
    return intmat([[x] for x in v], cols=1)


def matrix_columns(m: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(m[:, j]) for j in range(m.shape[1])]


class _SNFFull(NamedTuple):
    U: np.ndarray
    D: np.ndarray
    V: np.ndarray
    Uinv: np.ndarray


def smith_normal_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form of an integer matrix.

    Returns unimodular U, V and diagonal D with ``U @ m @ V == D``, entries
    nonnegative and each dividing the next.
    """
    full = _snf_with_inverses(m)
    return full.U, full.D, full.V


def _snf_with_inverses(m: np.ndarray) -> _SNFFull:
    """Smith normal form together with the inverse of the row transform.

    Standard gcd-pivot reduction: pick the smallest nonzero entry of the
    remaining block, clear its row and column by Euclidean steps, then force the
    divisibility chain by folding any non-divisible entry into the pivot row.
    """
    D = _clone(m)
    nrows, ncols = D.shape
    U, Uinv = identity(nrows), identity(nrows)
    V = identity(ncols)

    def row_add(i, j, q):
        # row_i += q * row_j
        D[i, :] += q * D[j, :]
        U[i, :] += q * U[j, :]
        Uinv[:, j] -= q * Uinv[:, i]

    def row_swap(i, j):
        D[[i, j], :] = D[[j, i], :]
        U[[i, j], :] = U[[j, i], :]
        Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def row_negate(i):
        D[i, :] = -D[i, :]
        U[i, :] = -U[i, :]
        Uinv[:, i] = -Uinv[:, i]

    def col_add(j, k, q):
        # col_j += q * col_k
        D[:, j] += q * D[:, k]
        V[:, j] += q * V[:, k]

    def col_swap(j, k):
        D[:, [j, k]] = D[:, [k, j]]
        V[:, [j, k]] = V[:, [k, j]]

    t = 0
    while t < min(nrows, ncols):
        pos = _smallest_nonzero(D, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)

        dirty = False
        for i in range(t + 1, nrows):
            if D[i, t] != 0:
                q = D[i, t] // D[t, t]
                row_add(i, t, -q)
                dirty = dirty or D[i, t] != 0
        for j in range(t + 1, ncols):
            if D[t, j] != 0:
                q = D[t, j] // D[t, t]
                col_add(j, t, -q)
                dirty = dirty or D[t, j] != 0
        if dirty:
            continue

        bad = _non_divisible(D, t)
        if bad is not None:
            row_add(t, bad, 1)
            continue

        if D[t, t] < 0:
            row_negate(t)
        t += 1

    return _SNFFull(U, D, V, Uinv)


def _clone(m: np.ndarray) -> np.ndarray:
    out = np.empty(m.shape, dtype=object)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            out[i, j] = _as_int(m[i, j])
    return out


def _smallest_nonzero(D, t):
    best = None
    best_abs = None
    for i in range(t, D.shape[0]):
        for j in range(t, D.shape[1]):
            if D[i, j] != 0 and (best is None or abs(D[i, j]) < best_abs):
                best, best_abs = (i, j), abs(D[i, j])
    return best


def _non_divisible(D, t):
    """Row index holding an entry the pivot D[t,t] does not divide, or None."""
    d = D[t, t]
    for i in range(t + 1, D.shape[0]):
        for j in range(t + 1, D.shape[1]):
            if D[i, j] % d != 0:
                return i
    return None


def snf_diagonal(D: np.ndarray) -> tuple[int, ...]:
    """Nonzero diagonal entries of a Smith form, in order."""
    out = []
    for i in range(min(D.shape)):
        if D[i, i] != 0:
            out.append(int(D[i, i]))
    return tuple(out)


def invariant_factors(m: np.ndarray) -> tuple[int, ...]:
    """Nonzero invariant factors of the subgroup spanned by the columns of m."""
    return snf_diagonal(_snf_with_inverses(m).D)


def integer_solve(m: np.ndarray, rhs: Sequence[int]) -> tuple[int, ...]:
    """One integer solution x of ``m @ x == rhs``.

    Solves through the Smith form: with U m V = D the system becomes a
    diagonal one for V^{-1} x. Raises ValueError when no integer solution
    exists; when the system is underdetermined an arbitrary solution is
    returned (free coordinates set to zero).
    """
    nrows, ncols = m.shape
    full = _snf_with_inverses(m)
    y = full.U @ column_vector(as_int_vector(rhs, nrows))
    diag = snf_diagonal(full.D)
    s = len(diag)
    z = zeros(ncols, 1)
    for i in range(nrows):
        val = int(y[i, 0])
        if i < s:
            if val % diag[i]:
                raise ValueError("no integer solution: divisibility fails")
            z[i, 0] = val // diag[i]
        elif val:
            raise ValueError("no integer solution: inconsistent system")
    x = full.V @ z
    return tuple(int(e) for e in x[:, 0])


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of Z^n held in a canonical column echelon basis.

    The basis matrix has one column per generator; pivot rows strictly increase
    left to right, pivots are positive, and within a pivot row every entry to
    the left of the pivot is reduced into [0, pivot). Two subgroups are equal
    as sets of vectors exactly when their stored bases are identical, so
    ``__eq__`` is plain matrix equality.
    """

    ambient_rank: int
    basis: np.ndarray

    @classmethod
    def from_columns(cls, ambient_rank: int, vectors: Iterable[Sequence[int]]) -> "Subgroup":
        vecs = [as_int_vector(v, ambient_rank) for v in vectors]
        echelon_rows = _row_echelon_lattice([list(v) for v in vecs], ambient_rank)
        basis = intmat(echelon_rows, cols=ambient_rank).T.copy() if echelon_rows else zeros(ambient_rank, 0)
        basis.setflags(write=False)
        return cls(ambient_rank, basis)

    @classmethod
    def trivial(cls, ambient_rank: int) -> "Subgroup":
        return cls.from_columns(ambient_rank, [])

    @classmethod
    def full(cls, ambient_rank: int) -> "Subgroup":
        return cls.from_columns(ambient_rank, identity(ambient_rank).T)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(matrix_columns(self.basis))

    @cached_property
    def _pivots(self) -> tuple[tuple[int, int], ...]:
        """(row, value) of each column's pivot."""
        out = []
        for j in range(self.rank):
            row = next(i for i in range(self.ambient_rank) if self.basis[i, j] != 0)
            out.append((row, int(self.basis[row, j])))
        return tuple(out)

    def coordinates_of(self, v: Sequence[int]) -> tuple[int, ...]:
        """Integer coordinates of v in the canonical basis.

        Raises ValueError when v is not a member. Forward substitution down the
        echelon columns, so this is exact and fast.
        """
        rem = list(as_int_vector(v, self.ambient_rank))
        coords = []
        for j, (prow, pval) in enumerate(self._pivots):
            q, r = divmod(rem[prow], pval)
            if r:
                raise ValueError("vector is not in the subgroup")
            coords.append(q)
            if q:
                for i in range(self.ambient_rank):
                    rem[i] -= q * int(self.basis[i, j])
        if any(rem):
            raise ValueError("vector is not in the subgroup")
        return tuple(coords)

    def contains(self, v: Sequence[int]) -> bool:
        try:
            self.coordinates_of(v)
        except ValueError:
            return False
        return True

    def member_from_coordinates(self, coords: Sequence[int]) -> tuple[int, ...]:
        coords = as_int_vector(coords, self.rank)
        if self.rank == 0:
            return (0,) * self.ambient_rank
        vec = self.basis @ column_vector(coords)
        return tuple(int(x) for x in vec[:, 0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.ambient_rank == other.ambient_rank and np.array_equal(self.basis, other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient_rank, tuple(map(tuple, self.basis))))

    def __repr__(self) -> str:
        return f"Subgroup(ambient_rank={self.ambient_rank}, columns={list(self.columns())})"


def _row_echelon_lattice(rows: list[list[int]], width: int) -> list[list[int]]:
    """Canonical row echelon form of the lattice spanned by the given rows.

    Integer row operations only, so the row span is preserved exactly. Pivots
    are positive, entries above each pivot are reduced into [0, pivot), zero
    rows are dropped.
    """
    work = [list(r) for r in rows if any(r)]
    pivot_row = 0
    for col in range(width):
        if pivot_row >= len(work):
            break
        while True:
            live = [i for i in range(pivot_row, len(work)) if work[i][col] != 0]
            if not live:
                break
            i_min = min(live, key=lambda i: abs(work[i][col]))
            work[pivot_row], work[i_min] = work[i_min], work[pivot_row]
            finished = True
            for i in range(pivot_row + 1, len(work)):
                if work[i][col] != 0:
                    q = work[i][col] // work[pivot_row][col]
                    for k in range(width):
                        work[i][k] -= q * work[pivot_row][k]
                    finished = finished and work[i][col] == 0
            if finished:
                break
        if pivot_row < len(work) and work[pivot_row][col] != 0:
            if work[pivot_row][col] < 0:
                work[pivot_row] = [-x for x in work[pivot_row]]
            pval = work[pivot_row][col]
            for i in range(pivot_row):
                q = work[i][col] // pval
                if q:
                    for k in range(width):
                        work[i][k] -= q * work[pivot_row][k]
            pivot_row += 1
    return [r for r in work[:pivot_row]] + [r for r in work[pivot_row:] if any(r)]


def kernel_basis(m: np.ndarray) -> Subgroup:
    """Canonical basis of the integer kernel of m.

    Echelons the rows of [m^T | I]. The row operations are unimodular, so the
    identity parts of the rows whose m^T part vanishes span the kernel
    exactly (no finite-index sublattice).
    """
    nrows, ncols = m.shape
    rows = [
        [_as_int(m[i, j]) for i in range(nrows)] + [int(k == j) for k in range(ncols)]
        for j in range(ncols)
    ]
    echelon = _row_echelon_lattice(rows, nrows + ncols)
    return Subgroup.from_columns(ncols, [r[nrows:] for r in echelon if not any(r[:nrows])])


@dataclass(frozen=True, eq=False)
class QuotientPresentation:
    """Z^n modulo a subgroup, with explicit coordinates.

    Coordinates come in two blocks: one residue per invariant factor >= 2
    (torsion block, in divisibility order) followed by ``free_rank`` integer
    coordinates. ``project`` and ``lift`` translate between ambient vectors and
    these coordinates; ``project(lift(c)) == c`` always holds.
    """

    ambient_rank: int
    free_rank: int
    torsion: tuple[int, ...]
    _U: np.ndarray
    _Uinv: np.ndarray
    _torsion_indices: tuple[int, ...]
    _free_indices: tuple[int, ...]

    @property
    def coordinate_count(self) -> int:
        return len(self.torsion) + self.free_rank

    def project(self, v: Sequence[int]) -> tuple[int, ...]:
        vec = column_vector(as_int_vector(v, self.ambient_rank))
        y = self._U @ vec
        tor = [int(y[i, 0]) % d for i, d in zip(self._torsion_indices, self.torsion)]
        free = [int(y[i, 0]) for i in self._free_indices]
        return tuple(tor + free)

    def lift(self, coords: Sequence[int]) -> tuple[int, ...]:
        coords = as_int_vector(coords, self.coordinate_count)
        y = zeros(self.ambient_rank, 1)
        for idx, c in zip(self._torsion_indices + self._free_indices, coords):
            y[idx, 0] = c
        x = self._Uinv @ y
        return tuple(int(e) for e in x[:, 0])

    def is_zero(self, v: Sequence[int]) -> bool:
        return not any(self.project(v))

    @property
    def free_part_matrix(self) -> np.ndarray:
        """Matrix of the map Z^n -> Z^free_rank onto the free coordinates."""
        return self._U[list(self._free_indices), :].copy() if self._free_indices else zeros(0, self.ambient_rank)

    @property
    def free_lift_matrix(self) -> np.ndarray:
        """Columns lifting each free coordinate back to Z^n."""
        return self._Uinv[:, list(self._free_indices)].copy() if self._free_indices else zeros(self.ambient_rank, 0)

    def __repr__(self) -> str:
        return (
            f"QuotientPresentation(ambient_rank={self.ambient_rank}, "
            f"free_rank={self.free_rank}, torsion={self.torsion})"
        )


def quotient(ambient_rank: int, relations: Subgroup) -> QuotientPresentation:
    """Present Z^ambient_rank modulo the given subgroup of relations."""
    if relations.ambient_rank != ambient_rank:
        raise ValueError("relations live in a different ambient rank")
    return _cokernel(relations.basis)


def _cokernel(m: np.ndarray) -> QuotientPresentation:
    """Present Z^rows modulo the column span of m, through one Smith form."""
    ambient_rank = m.shape[0]
    full = _snf_with_inverses(m)
    diag = snf_diagonal(full.D)
    s = len(diag)
    torsion_indices = tuple(i for i in range(s) if diag[i] >= 2)
    return QuotientPresentation(
        ambient_rank=ambient_rank,
        free_rank=ambient_rank - s,
        torsion=tuple(diag[i] for i in torsion_indices),
        _U=full.U,
        _Uinv=full.Uinv,
        _torsion_indices=torsion_indices,
        _free_indices=tuple(range(s, ambient_rank)),
    )


def subgroup_intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    """Intersection of two subgroups of the same Z^n."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("subgroups of different ambient ranks")
    if a.rank == 0 or b.rank == 0:
        return Subgroup.trivial(a.ambient_rank)
    paired = np.hstack([a.basis, -b.basis])
    ker = kernel_basis(paired)
    gens = []
    for col in ker.columns():
        left = column_vector(col[: a.rank])
        vec = a.basis @ left
        gens.append(tuple(int(x) for x in vec[:, 0]))
    return Subgroup.from_columns(a.ambient_rank, gens)


def subgroup_sum(a: Subgroup, b: Subgroup) -> Subgroup:
    """Smallest subgroup containing both arguments."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("subgroups of different ambient ranks")
    return Subgroup.from_columns(a.ambient_rank, list(a.columns()) + list(b.columns()))
