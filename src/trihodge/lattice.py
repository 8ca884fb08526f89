"""Exact linear algebra over the integers.

Everything in this package reduces to finitely generated abelian groups, so this
module is the computational core: canonical echelon bases for subgroups of Z^n,
Smith normal form with unimodular transforms, and quotient presentations with
an explicit projection.

Each elimination has one job. ``_UnitEchelon`` is a recorded row reduction
that pivots only on entries +-1. It gives every rank and invariant factor,
a factor 1 per pivot, and on the columns c_1..c_n of a basis of a
primitive sublattice it solves sum_i a_i c_i = v and u . c_i = v_i by
substitution alone. The one other solver is ``Subgroup.coordinates_of``,
which substitutes down a subgroup's canonical echelon columns: it gives the
boundary coordinates in ``FreeChainComplex.homology_with_generators`` and
the membership test of ``pairings.pairing_h3_h1``. One row-Euclid
step, ``_euclid_down``, serves the unit-pivot elimination (when no entry
+-1 is left), the canonical spans and the kernels: the column loop
``_forward_echelon`` runs it for the last two, and a kernel eliminates the
matrix part of [m^T | I] and canonicalizes just the kernel rows. Smith
forms finish what a unit pivot cannot: the residual rows of an
invariant-factor computation, the free generators of a cokernel
(``_cokernel``) and the public ``smith_normal_form`` and ``quotient``.
A Smith form tracks no transform: callers append identity blocks for U
and V, as a kernel does, and U^{-1} is solved where it is read.

Inside the package a matrix is a list of rows of Python ints, and a subgroup
or a chain complex keeps its columns as tuples, so all arithmetic is exact at
any magnitude. Entries are checked once, where they enter from outside
(``as_int_vector``, and ``smith_normal_form`` and ``kernel_basis``, which
take a matrix: an array or a rectangular nested sequence); the kernels
trust rows the package built itself. numpy is a boundary format only:
matrices handed back to callers (a subgroup's ``basis``, a complex's
``diffs``, the result of ``smith_normal_form``) are object arrays of Python
ints, built by ``_array`` when asked for. No code path touches floating point.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from contextlib import suppress
from functools import cached_property
from operator import index, mul

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


def _check_count(n: int, what: str) -> None:
    """Raise unless n, a rank or a genus, is a nonnegative int (not a bool)."""
    if type(n) is not int or n < 0:
        raise ValueError(f"{what} must be a nonnegative int, got {n!r}")


def _as_int(x) -> int:
    if type(x) is int:
        return x
    if not isinstance(x, bool):
        with suppress(TypeError):
            return index(x)
    raise ValueError(f"integer entry expected, got {x!r}")


def as_int_vector(v: Iterable[int], length: int | None = None) -> tuple[int, ...]:
    """Normalize a vector to a tuple of Python ints, checking its length."""
    vec = tuple(v)
    for x in vec:
        if type(x) is not int:
            vec = tuple(map(_as_int, vec))
            break
    if length is not None and len(vec) != length:
        raise ValueError(f"vector of length {length} expected, got {len(vec)}")
    return vec


def _array(rows: Sequence[Sequence[int]], ncols: int) -> np.ndarray:
    """Object array of trusted rows; the column count fixes the shape of an empty one.

    numpy is imported only here, when a caller reads a matrix, and where
    ``_checked_rows`` reads one handed in.
    """
    import numpy as np

    return np.array(rows, dtype=object).reshape(len(rows), ncols)


def _column_matrix(columns: Sequence[Sequence[int]], nrows: int) -> np.ndarray:
    """Read-only nrows x len(columns) matrix with the given trusted columns."""
    out = _array(_transpose(columns, nrows), len(columns))
    out.setflags(write=False)
    return out


def _checked_rows(m: np.ndarray | Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Rows and width of a matrix from outside the package, every entry checked.

    An array or any rectangular nested sequence; a ragged one has one axis.
    """
    import numpy as np

    a = np.asarray(m, dtype=object)
    if a.ndim != 2:
        raise ValueError(f"matrix with two axes expected, got {a.ndim}")
    return [[_as_int(x) for x in row] for row in a.tolist()], a.shape[1]


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _transpose(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Columns of a matrix as rows; ``ncols`` fixes the count when there are no rows."""
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(ncols)]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _combination(
    vectors: Sequence[Sequence[int]], coeffs: Sequence[int], length: int
) -> tuple[int, ...]:
    """sum_j coeffs[j] * vectors[j], a vector of the given length."""
    out = [0] * length
    for c, vec in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(vec):
                out[i] += c * x
    return tuple(out)


def smith_normal_form(
    m: np.ndarray | Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form of an integer matrix.

    Returns ``(U, D, V)``: unimodular U and V and diagonal D with
    ``U @ m @ V == D``, entries nonnegative and each dividing the next.
    """
    rows, ncols = _checked_rows(m)
    smith = _Smith(_beside_identity(rows) + _identity_rows(ncols), len(rows), ncols)
    return _array(smith.U, len(rows)), _array(smith.D, ncols), _array(smith.V, ncols)


def _beside_identity(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """[M | I]: each row with the matching row of an identity matrix appended."""
    return [list(row) + unit for row, unit in zip(rows, _identity_rows(len(rows)))]


class _Smith:
    """Smith normal form U M V = D of the nrows x ncols block M at the top
    left of trusted rows of Python ints, eliminated in place.

    Standard gcd-pivot reduction: pick the smallest nonzero entry of the
    remaining block, clear its row and column by Euclidean steps, then force the
    divisibility chain by folding any non-divisible entry into the pivot row.

    No transform is tracked: row operations act on whole rows and column
    operations on whole columns, so identity columns appended to the block's
    rows end as ``U`` and identity rows appended below it as ``V`` (each
    empty when nothing is appended). Entries of the block outside rows and
    columns >= t are zero at step t, so operations start at row or column t.
    """

    def __init__(self, rows: list[list[int]], nrows: int, ncols: int):
        def row_add(i, j, q, t):
            # row_i += q * row_j
            Ri, Rj = rows[i], rows[j]
            for k in range(t, len(Ri)):
                Ri[k] += q * Rj[k]

        def col_add(j, k, q, t):
            # col_j += q * col_k
            for r in range(t, len(rows)):
                R = rows[r]
                R[j] += q * R[k]

        t = 0
        while t < min(nrows, ncols):
            pos = _smallest_nonzero(rows, t, nrows, ncols)
            if pos is None:
                break
            i, j = pos
            if i != t:
                rows[i], rows[t] = rows[t], rows[i]
            if j != t:
                for r in range(t, len(rows)):
                    R = rows[r]
                    R[j], R[t] = R[t], R[j]

            pivot = rows[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if rows[i][t] != 0:
                    row_add(i, t, -(rows[i][t] // pivot), t)
                    dirty = dirty or rows[i][t] != 0
            Rt = rows[t]
            for j in range(t + 1, ncols):
                if Rt[j] != 0:
                    col_add(j, t, -(Rt[j] // pivot), t)
                    dirty = dirty or Rt[j] != 0
            if dirty:
                continue

            bad = _non_divisible(rows, t, nrows, ncols)
            if bad is not None:
                row_add(t, bad, 1, t)
                continue

            if pivot < 0:
                rows[t] = [-x for x in rows[t]]
            t += 1

        self.D = [row[:ncols] for row in rows[:nrows]]
        self.U = [row[ncols:] for row in rows[:nrows]]
        self.V = rows[nrows:]


def _smallest_nonzero(D, t, nrows, ncols):
    """First entry of least absolute value in the block from (t, t), row by row."""
    best = None
    best_abs = None
    for i in range(t, nrows):
        row = D[i]
        for j in range(t, ncols):
            x = row[j]
            if x != 0 and (best is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
                if best_abs == 1:
                    return best
    return best


def _non_divisible(D, t, nrows, ncols):
    """Row index holding an entry the pivot D[t][t] does not divide, or None."""
    d = D[t][t]
    if d == 1 or d == -1:
        return None
    for i in range(t + 1, nrows):
        row = D[i]
        for j in range(t + 1, ncols):
            if row[j] % d != 0:
                return i
    return None


def snf_diagonal(D: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal entries of a Smith form, in order (rows or an array)."""
    return tuple(int(row[i]) for i, row in enumerate(D) if i < len(row) and row[i] != 0)


def _invariant_factors(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...]:
    """Nonzero invariant factors of trusted rows; their count is the rank.

    A factor 1 for each pivot of the unit-pivot elimination of the rows,
    then the factors of the residual rows it leaves, from a Smith form of
    those rows alone, with no transform. The rows handed in are not changed.
    """
    echelon = _UnitEchelon(rows, ncols)
    rest = echelon.residual
    factors = snf_diagonal(_Smith(rest, len(rest), ncols).D) if rest else ()
    return (1,) * len(echelon._pivots) + factors


class _Frozen:
    """Base of the package's immutable records. ``_fields`` names a record's
    fields in order, and this ``__init__`` assigns them the values given,
    in that order: a record's own ``__init__`` normalizes and checks its
    input, then calls this one. Any later assignment or deletion raises.

    Memoized values (``cached_property`` and ``diagram.memoized``) are
    written to the instance ``__dict__`` directly, so they still work. A
    plain ``_Frozen`` record compares by identity; a ``_Value`` by its
    fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init__(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Value(_Frozen):
    """An immutable record whose value is its ``_fields``, each hashable.

    Records compare and hash by the tuple of those fields, ``_key()``, and
    print them as ``Class(name=value, ...)``; records of different classes
    are never equal.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class Subgroup(_Value):
    """A subgroup of Z^n held in a canonical column echelon basis.

    The basis has one column per generator; pivot rows strictly increase left
    to right, pivots are positive, and within a pivot row every entry to the
    left of the pivot is reduced into [0, pivot). Two subgroups are equal as
    sets of vectors exactly when their stored columns are identical, so
    ``__eq__`` is plain equality of the column tuples.
    """

    _fields = ("ambient_rank", "_columns")

    def __init__(self, ambient_rank: int, _columns: tuple[tuple[int, ...], ...]):
        _Frozen.__init__(self, ambient_rank, _columns)

    @classmethod
    def from_columns(cls, ambient_rank: int, vectors: Iterable[Sequence[int]]) -> "Subgroup":
        _check_count(ambient_rank, "ambient rank")
        return _span(ambient_rank, [as_int_vector(v, ambient_rank) for v in vectors])

    @classmethod
    def full(cls, ambient_rank: int) -> "Subgroup":
        _check_count(ambient_rank, "ambient rank")
        return cls(ambient_rank, tuple(map(tuple, _identity_rows(ambient_rank))))

    @property
    def rank(self) -> int:
        return len(self._columns)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return self._columns

    @cached_property
    def basis(self) -> np.ndarray:
        """The canonical columns as a read-only ambient_rank x rank matrix."""
        return _column_matrix(self._columns, self.ambient_rank)

    @cached_property
    def _entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(row, value) of each nonzero entry of each column, pivot first."""
        return tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in self._columns)

    def coordinates_of(self, v: Sequence[int]) -> tuple[int, ...]:
        """Integer coordinates of v in the canonical basis.

        Raises ValueError when v is not a member.
        """
        rem = list(as_int_vector(v, self.ambient_rank))
        coords = self._substitute(rem)
        if any(rem):
            raise ValueError("vector is not in the subgroup")
        return coords

    def _substitute(self, rem: list[int]) -> tuple[int, ...]:
        """Floor quotients of trusted rem down the canonical columns; rem keeps the rest.

        Forward substitution down the echelon columns, touching only their
        nonzero entries. Afterwards each pivot-row entry of rem lies in
        [0, pivot), which makes rem the unique such representative of its
        class modulo the subgroup: zero exactly when the input was a member.
        """
        coords = []
        for entries in self._entries:
            prow, pval = entries[0]
            q = rem[prow] // pval
            coords.append(q)
            if q:
                for i, x in entries:
                    rem[i] -= q * x
        return tuple(coords)

    def contains(self, v: Sequence[int]) -> bool:
        try:
            self.coordinates_of(v)
        except ValueError:
            return False
        return True


def _span(ambient_rank: int, vectors: Sequence[Sequence[int]]) -> Subgroup:
    """Canonical subgroup spanned by trusted vectors of Python ints."""
    return Subgroup(ambient_rank, tuple(map(tuple, _row_echelon_lattice(vectors, ambient_rank))))


def _row_echelon_lattice(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Canonical row echelon form of the lattice spanned by the given rows.

    Integer row operations only, so the row span is preserved exactly. Pivots
    are positive, entries above each pivot are reduced into [0, pivot), zero
    rows are dropped.
    """
    work = [list(r) for r in rows if any(r)]
    pivots, _ = _forward_echelon(work, width)
    out: list[list[int]] = []
    for r, col in pivots:
        p = work[r] if work[r][col] > 0 else [-x for x in work[r]]
        pval = p[col]
        for w in out:
            q = w[col] // pval
            if q:
                for k in range(col, width):
                    w[k] -= q * p[k]
        out.append(p)
    return out


def _forward_echelon(work: list[list[int]], stop: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Row-Euclid (``_euclid_down``) down columns 0..stop-1 of the rows, in place.

    Returns the (row, column) of each pivot in column order and the indices
    of the rows left, which are zero in columns 0..stop-1. A pivot row is
    zero left of its column. Nothing above a pivot is reduced, and no pivot
    is made positive: callers canonicalize afterwards, so the rounding of
    the quotients does not show in their results.
    """
    active = list(range(len(work)))
    pivots: list[tuple[int, int]] = []
    for col in range(stop):
        r = _euclid_down(work, active, col, [])
        if r is not None:
            active.remove(r)
            pivots.append((r, col))
    return pivots, active


def kernel_basis(m: np.ndarray | Sequence[Sequence[int]]) -> Subgroup:
    """Canonical basis of the integer kernel of m."""
    rows, ncols = _checked_rows(m)
    return _kernel(_transpose(rows, ncols), len(rows))


def _kernel(columns: Sequence[Sequence[int]], nrows: int) -> Subgroup:
    """Kernel of the matrix m with the given trusted columns, each of length nrows.

    The rows of [m^T | I] are eliminated downward in their m^T part. The
    row operations are unimodular, so the identity parts of the rows whose
    m^T part vanishes span the kernel exactly (no finite-index sublattice);
    only those parts are then put in canonical echelon form.
    """
    work = _beside_identity(columns)
    _, rest = _forward_echelon(work, nrows)
    return _span(len(columns), [work[i][nrows:] for i in rest])


_NOT_PRIMITIVE = "the vectors are not a basis of a primitive sublattice"


class _UnitEchelon:
    """A recorded integer row reduction T M of trusted rows of a matrix M
    whose ncols columns are c_1..c_n (Cohen 1993, A Course in Computational
    Algebraic Number Theory, 2.4).

    Each step pivots on an entry +-1 (row r, column j) of the rows and
    columns still active, clears column j in the other active rows by
    row_i -= q * row_r, and retires row r and column j. With no unit left,
    row-Euclid runs down the first active column until one nonzero entry
    remains, the next pivot if it is +-1. If it is not, or the column is
    zero, the elimination stops there.

    Each pivot row of T M is zero in the columns pivoted before it, and the
    active rows are zero in every pivot column, so column operations split
    off a factor 1 per pivot: the other invariant factors of M are those of
    ``residual``, the active rows left nonzero. When every column has a
    pivot, ``residual`` is empty and the c_j are a basis of a primitive
    sublattice (``primitive``). Otherwise every maximal minor of the active
    block is a multiple of the entry row-Euclid left, so they are not. On
    a primitive system both solves only substitute along the pivot rows
    and the operations, kept as groups ``(r, (i, q, i', q', ...))``.
    """

    def __init__(self, rows: Iterable[Sequence[int]], ncols: int):
        rows = [list(r) for r in rows]
        active = list(range(len(rows)))
        ops: list[tuple[int, tuple[int, ...]]] = []
        pivots: list[tuple[int, int, list[int]]] = []
        done = [False] * ncols
        while len(pivots) < ncols:
            for k, r in enumerate(active):
                p = rows[r]
                if 1 in p:
                    j = p.index(1)
                    break
                if -1 in p:
                    j = p.index(-1)
                    break
            else:
                j = done.index(False)
                r = _euclid_down(rows, active, j, ops)
                if r is None or rows[r][j] not in (1, -1):
                    break
                k, p = active.index(r), rows[r]
            del active[k]
            # clear column j in the other active rows (after row-Euclid it is
            # clear already): row_i -= q * row_r, q = row_i[j] / s = row_i[j] * s
            s = p[j]
            support = [(col, x * s) for col, x in enumerate(p) if x]
            record: list[int] = []
            for i in active:
                w = rows[i]
                c = w[j]
                if c:
                    for col, x in support:
                        w[col] -= c * x
                    record += (i, c * s)
            if record:
                ops.append((r, tuple(record)))
            # a retired row is never written again: both loops run over active
            pivots.append((r, j, p))
            done[j] = True

        self.primitive = len(pivots) == ncols
        # active rows are zero in every pivot column, so all zero when primitive
        self.residual = []
        if not self.primitive:
            self.residual = [p for p in map(rows.__getitem__, active) if any(p)]
        self._ops = ops
        self._pivots = pivots
        self._free_rows = active  # the rows that were never pivots
        self._width = len(rows)

    def coordinates(self, v: Sequence[int]) -> tuple[int, ...]:
        """The x with sum_j x_j c_j = v, for trusted v; ValueError unless v
        lies in the span, that is unless T v is zero off the pivot rows."""
        if not self.primitive:
            raise ValueError(_NOT_PRIMITIVE)
        w = list(v)
        for r, updates in self._ops:
            c = w[r]
            if c:
                it = iter(updates)
                for i, q in zip(it, it):
                    w[i] -= q * c
        if any(w[i] for i in self._free_rows):
            raise ValueError("vector is not in the span")
        x = [0] * len(self._pivots)
        for r, j, row in reversed(self._pivots):
            x[j] = (w[r] - _dot(row, x)) * row[j]
        return tuple(x)

    def transpose_solve(self, v: Sequence[int]) -> tuple[int, ...]:
        """A u with u . c_j = v_j for every j, for trusted v of length n:
        u = T^T w for the w zero off the pivot rows with (T C)^T w = v."""
        if not self.primitive:
            raise ValueError(_NOT_PRIMITIVE)
        u = [0] * self._width
        rem = list(v)
        for r, j, row in self._pivots:
            c = rem[j] * row[j]
            if c:
                u[r] = c
                for k, x in enumerate(row):
                    if x:
                        rem[k] -= c * x
        for r, updates in reversed(self._ops):
            it = iter(updates)
            u[r] -= sum(q * u[i] for i, q in zip(it, it))
        return tuple(u)


def _euclid_down(rows: list[list[int]], active: list[int], j: int, ops: list) -> int | None:
    """Row-Euclid down column j of the active rows with nearest-rounded
    quotients, recorded in ops, until at most one entry is nonzero: the row
    holding it, or None when the column is zero."""
    live = [i for i in active if rows[i][j]]
    while len(live) > 1:
        r = min(live, key=lambda i: abs(rows[i][j]))
        p = rows[r]
        pc = p[j]
        support = [(k, x) for k, x in enumerate(p) if x]
        record: list[int] = []
        for i in live:
            if i != r:
                w = rows[i]
                q = (2 * w[j] + pc) // (2 * pc)  # floor(w/p + 1/2) for either sign of p
                for k, x in support:
                    w[k] -= q * x
                record += (i, q)
        ops.append((r, tuple(record)))
        live = [i for i in live if rows[i][j]]
    return live[0] if live else None


class QuotientPresentation(_Frozen):
    """Z^n modulo a subgroup, with explicit coordinates.

    Coordinates come in two blocks: one residue per invariant factor >= 2
    (torsion block, in divisibility order) followed by ``free_rank`` integer
    coordinates. The Smith diagonal is a divisibility chain, factors 1 first,
    so ``project`` reads them off the last ``len(torsion) + free_rank`` rows
    of the Smith transform U, kept as ``_U``, and ``_free_lifts`` solves for
    the last ``free_rank`` columns of U^{-1}.
    """

    _fields = ("ambient_rank", "free_rank", "torsion", "_U")

    def project(self, v: Sequence[int]) -> tuple[int, ...]:
        vec = as_int_vector(v, self.ambient_rank)
        k = len(self.torsion)
        rows = self._U[self.ambient_rank - self.free_rank - k :]
        values = [_dot(row, vec) for row in rows]
        return tuple(x % d for x, d in zip(values, self.torsion)) + tuple(values[k:])

    def is_zero(self, v: Sequence[int]) -> bool:
        return not any(self.project(v))

    @property
    def _free_lifts(self) -> tuple[tuple[int, ...], ...]:
        """The ambient vector lifting each free coordinate: a column of U^{-1},
        solved from U x = e_i along a unit-pivot elimination of U, which is
        unimodular and so has a pivot +-1 in every column."""
        n = self.ambient_rank
        echelon = _UnitEchelon(self._U, n)
        return tuple(map(echelon.coordinates, _identity_rows(n)[n - self.free_rank :]))

    def __repr__(self) -> str:
        public = (name for name in self._fields if not name.startswith("_"))
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in public)
        return f"QuotientPresentation({shown})"


def quotient(ambient_rank: int, relations: Subgroup) -> QuotientPresentation:
    """Present Z^ambient_rank modulo the given subgroup of relations."""
    if relations.ambient_rank != ambient_rank:
        raise ValueError("relations live in a different ambient rank")
    return _cokernel(_transpose(relations.columns(), ambient_rank), relations.rank)


def _cokernel(rows: list[list[int]], ncols: int) -> QuotientPresentation:
    """Present Z^rows modulo the column span of trusted rows, through one Smith form.

    The form is handed [rows | I], whose identity columns end as U. The
    presentation reads the ranks and the torsion off D and keeps U.
    """
    n = len(rows)
    smith = _Smith(_beside_identity(rows), n, ncols)
    diag = snf_diagonal(smith.D)
    torsion = tuple(f for f in diag if f >= 2)
    return QuotientPresentation(n, n - len(diag), torsion, smith.U)


def subgroup_sum(a: Subgroup, b: Subgroup) -> Subgroup:
    """Smallest subgroup containing both arguments."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("subgroups of different ambient ranks")
    return _span(a.ambient_rank, a.columns() + b.columns())
