"""Test-only constructions: random (co)cycles, cocycles from ambient
blocks and the curve coordinates of those blocks, the ladder recipe,
duality maps, column spans, transvections, the degree-three against
degree-one Gram matrix, cold copies of diagrams (nothing memoized), a
stream of small block sums, the seeded pool of prescribed forms summed with
torsion, S1xS3 and S4 pieces, every public query on one diagram, a matrix
builder, and twenty-three oracles: the numpy Smith form, the lift of a quotient
presentation's coordinates, sympy's invariant factors, the
Bareiss determinant, the full-width congruence diagonalization over the
rationals, the comprehension pairing rows, the Smith-form kernel, the
Smith-form integer solve, the tracked-echelon span solver (on its own
downward echelon), the intersection of canonical subgroups, the quotients
by canonical pair and triple sums, validation by pair sums, homology by
kernels, the five-term complex of the three Lagrangians with its dual,
the Cech complexes behind the diamond, the degree-three representatives
from the homology complex, the solved Poincare dual, the dict-scan spin
elimination, the brute-force spin filter, Kashiwara's index of the three
Lagrangians (a second route to the signature), Wall's form (a second route
to the form) and the spin count of Wu's formula.

The suites use these to generate inputs and to state laws; the package
itself never needs them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from trihodge.complexes import (
    FreeChainComplex,
    HomologyGroup,
    dual_complex,
    dual_middle_homology,
    hodge_diamond,
    homology_complex,
    homology_groups,
)
from trihodge.diagram import (
    SYSTEM_NAMES,
    CutSystem,
    TrisectionDiagram,
    ValidationReport,
    _pairing_rows,
    builtin,
    builtin_genus,
    connected_sum,
    diagram_from_curves,
    ensure_valid,
    handleslide_diagram,
    memoized,
)
from trihodge.lattice import (
    QuotientPresentation,
    Subgroup,
    _combination,
    _dot,
    _identity_rows,
    as_int_vector,
    kernel_basis,
    quotient,
    smith_normal_form,
    snf_diagonal,
)
from trihodge.pairings import (
    H2DualRep,
    OneOneCocycle,
    _reduced_lift,
    _sign_normalized,
    dual_rep_basis,
    evaluate_on_surface_class,
    h1_basis,
    h2_basis_cocycles,
    h3_representatives,
    intersection_form,
    intersection_pairing,
    pairing_h3_h1,
)
from trihodge.spin import MAX_LISTED, QuadraticEnhancement, enumerate_spin, spin_count
from trihodge.spinc import act, base_ledger, c1_difference

ORACLE_MAX_GENUS = 6


def mat(rows: Sequence[Sequence[int]], ncols: int | None = None) -> np.ndarray:
    """Object array of trusted ints; ``ncols`` fixes the width of a matrix with no rows."""
    rows = [list(r) for r in rows]
    return np.array(rows, dtype=object).reshape(len(rows), len(rows[0]) if ncols is None else ncols)


def column_vector(v: Sequence[int]) -> np.ndarray:
    return mat([[x] for x in v], 1)


def matrix_columns(m: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(m[:, j]) for j in range(m.shape[1])]


def form_matrix(genus: int) -> np.ndarray:
    """Matrix J of the genus-g intersection form: <x, y> = x^T J y."""
    J = mat([[0] * (2 * genus) for _ in range(2 * genus)], 2 * genus)
    for i in range(genus):
        J[2 * i, 2 * i + 1] = 1
        J[2 * i + 1, 2 * i] = -1
    return J


def plain_form(x: Sequence[int], y: Sequence[int]) -> int:
    """<x, y> written out from the basis convention a1, b1, a2, b2, ..."""
    return sum(x[i] * y[i + 1] - x[i + 1] * y[i] for i in range(0, len(x), 2))


def numpy_snf_with_inverses(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """U, D, V and U^{-1} of the Smith form, by whole-row and whole-column
    updates of numpy object arrays.

    The oracle for ``lattice._Smith``, which makes the same pivot choices and
    operations on rows of Python ints, updates the rows of U, (U^{-1})^T and
    V^T with each, and must return the identical transforms.
    """
    D = mat(m.tolist(), m.shape[1])
    nrows, ncols = D.shape
    U, Uinv = mat(_identity_rows(nrows), nrows), mat(_identity_rows(nrows), nrows)
    V = mat(_identity_rows(ncols), ncols)

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

    def smallest_nonzero(t):
        best = best_abs = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if D[i, j] != 0 and (best is None or abs(D[i, j]) < best_abs):
                    best, best_abs = (i, j), abs(D[i, j])
        return best

    def non_divisible(t):
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if D[i, j] % D[t, t] != 0:
                    return i
        return None

    t = 0
    while t < min(nrows, ncols):
        pos = smallest_nonzero(t)
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

        bad = non_divisible(t)
        if bad is not None:
            row_add(t, bad, 1)
            continue

        if D[t, t] < 0:
            row_negate(t)
        t += 1

    return U, D, V, Uinv


def det(m: np.ndarray) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    The oracle for the determinant that ``pairings.intersection_form`` reads
    off its congruence pivots.
    """
    nrows, ncols = m.shape
    if nrows != ncols:
        raise ValueError("determinant of a non-square matrix")
    n = nrows
    if n == 0:
        return 1
    M = mat(m.tolist(), n)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k, k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i, k] != 0), None)
            if swap is None:
                return 0
            M[[k, swap], :] = M[[swap, k], :]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i, j] = (M[i, j] * M[k, k] - M[i, k] * M[k, j]) // prev
        prev = M[k, k]
    return sign * int(M[n - 1, n - 1])


def full_width_signature(
    gram: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, int], int]:
    """Inertia and determinant by congruence steps that update every column of
    each active row and then every row of its column.

    The oracle for ``pairings._signature_of_symmetric``, which updates only
    the active block, in integers, and must find the same pivots.
    """
    n = len(gram)
    M = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = 0
    det = Fraction(1)
    active = list(range(n))
    while active:
        pivot_row = next((i for i in active if M[i][i]), None)
        if pivot_row is None:
            off = next(
                ((i, j) for i in active for j in active if i != j and M[i][j]),
                None,
            )
            if off is None:
                det = Fraction(0)
                break
            i, j = off
            for k in range(n):
                M[i][k] += M[j][k]
            for k in range(n):
                M[k][i] += M[k][j]
            pivot_row = i
        p = M[pivot_row][pivot_row]
        det *= p
        if p > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot_row)
        for r in active:
            f = M[r][pivot_row] / p
            if f:
                for k in range(n):
                    M[r][k] -= f * M[pivot_row][k]
                for k in range(n):
                    M[k][r] -= f * M[k][pivot_row]
    return (pos, neg), int(det)


def kashiwara_signature(d: TrisectionDiagram) -> int:
    """Kashiwara's Maslov index of the three Lagrangians, the signature of
    the symmetric 3g x 3g matrix with zero diagonal blocks and the
    intersection matrices Q_alpha_beta, Q_beta_gamma and Q_gamma_alpha in
    blocks (0, 1), (1, 2) and (2, 0), their transposes across the diagonal.

    A second route to the signature of the form (Wall 1969; Feller, Klug,
    Schirmer and Zemke 2018): it reads no kernel, no homology complex and
    no H2 basis, and takes its inertia from ``full_width_signature``, so it
    shares no code with ``pairings._signature_of_symmetric``.
    """
    g = d.genus
    omega = [[0] * (3 * g) for _ in range(3 * g)]
    for lam, q in enumerate(d._intersection_matrices):
        r, c = lam * g, (lam + 1) % 3 * g
        for i, row in enumerate(q):
            for j, x in enumerate(row):
                omega[r + i][c + j] = omega[c + j][r + i] = x
    (positive, negative), _ = full_width_signature(omega)
    return positive - negative


def wall_gram(d: TrisectionDiagram) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of Wall's form (Wall 1969, *Non-additivity of the signature*).

    Its lattice W is the integer kernel of [C_alpha | -C_beta | -C_gamma],
    where C_lam has the curves of system lam as columns: the triples
    (x, y, z) with C_alpha x = C_beta y + C_gamma z, taken with
    ``smith_kernel_basis``. The form is (x, x') -> <C_alpha x, C_beta y'>.
    Past its radical it is unimodular of rank b2, with the parity of the
    intersection form and signature -sigma: a second route to the form up
    to isometry. It shares the pairing formula with
    ``pairings.intersection_pairing``, but not the boundary columns, the
    Smith cokernel or the basis choice.
    """
    g, n = d.genus, 2 * d.genus
    alpha, beta, gamma = (cs.curves for cs in d.systems)
    columns = [*alpha, *([-x for x in c] for c in beta + gamma)]
    kernel = smith_kernel_basis(mat([[c[i] for c in columns] for i in range(n)], 3 * g))
    ax = [_combination(alpha, w[:g], n) for w in kernel.columns()]
    by = [_combination(beta, w[g : 2 * g], n) for w in kernel.columns()]
    return tuple(tuple(_dot(row, v) for v in by) for row in _pairing_rows(ax))


def wu_spin_count(d: TrisectionDiagram) -> int | None:
    """The spin count Wu's formula gives, or None where H1 has 2-torsion.

    Without 2-torsion in H1, w2 is the reduction of the characteristic
    covectors of the form, so it vanishes exactly when the form is even;
    the spin structures are then a torsor over H^1(X; Z/2) = (Z/2)^b1.
    """
    h1 = homology_groups(d)[1]
    if any(t % 2 == 0 for t in h1.torsion):
        return None
    return 2**h1.rank if intersection_form(d).parity == "even" else 0


def is_unimodular(m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and abs(det(m)) == 1


def smith_kernel_basis(m: np.ndarray) -> Subgroup:
    """Kernel of m through its Smith form U m V = D: the columns of V past rank D.

    The oracle for ``lattice.kernel_basis``, which echelons [m^T | I] instead.
    """
    _, D, V = smith_normal_form(m)
    return Subgroup.from_columns(m.shape[1], matrix_columns(V[:, len(snf_diagonal(D)) :]))


def integer_solve(m: np.ndarray, rhs: Sequence[int]) -> tuple[int, ...]:
    """One integer solution x of ``m @ x == rhs``, through the Smith form.

    With U m V = D the system becomes a diagonal one for V^{-1} x; free
    coordinates are set to zero. Raises ValueError when no integer solution
    exists. The oracle for ``SpanCoordinates``, which solves by one echelon
    beside an identity block instead.
    """
    rhs = as_int_vector(rhs, m.shape[0])
    U, D, V = smith_normal_form(m)
    diag = snf_diagonal(D)
    z = [0] * m.shape[1]
    for i, row in enumerate(U.tolist()):
        val = sum(a * b for a, b in zip(row, rhs))
        if i < len(diag):
            if val % diag[i]:
                raise ValueError("no integer solution: divisibility fails")
            z[i] = val // diag[i]
        elif val:
            raise ValueError("no integer solution: inconsistent system")
    return tuple(sum(a * b for a, b in zip(row, z)) for row in V.tolist())


def downward_echelon(work: list[list[int]], stop: int, width: int) -> list[int]:
    """Eliminate downward in columns 0..stop-1 of rows of the given width, in place.

    Returns the pivot column of each leading row; every later row is zero in
    columns 0..stop-1. Nothing above a pivot is reduced, and no pivot is made
    positive. Every row below the current pivot row is already zero left of
    the current column, so each update starts at that column. Quotients are
    rounded to the nearest integer, so each remainder is at most half the
    pivot and the rows grow less than with floor quotients; callers
    canonicalize afterwards, so the choice does not show in their results.
    """
    n = len(work)
    pivots: list[int] = []
    for col in range(stop):
        pivot_row = len(pivots)
        if pivot_row >= n:
            break
        while True:
            live = [i for i in range(pivot_row, n) if work[i][col] != 0]
            if not live:
                break
            i_min = min(live, key=lambda i: abs(work[i][col]))
            work[pivot_row], work[i_min] = work[i_min], work[pivot_row]
            p = work[pivot_row]
            pc, two_pc = p[col], 2 * p[col]
            finished = True
            for i in range(pivot_row + 1, n):
                w = work[i]
                if w[col] != 0:
                    q = (2 * w[col] + pc) // two_pc  # floor(w/p + 1/2), for either sign of p
                    for k in range(col, width):
                        w[k] -= q * p[k]
                    finished = finished and w[col] == 0
            if finished:
                break
        if work[pivot_row][col] != 0:
            pivots.append(col)
    return pivots


class SpanCoordinates:
    """Integer solutions a of sum_i a_i c_i = v over trusted vectors c_1..c_n.

    One downward echelon of the rows [c_i | e_i] gives echelon rows E = T C,
    with T unimodular: the identity block tracks the row operations. Its
    nonzero rows are the first ``rank``. A member v = a E is read off their
    pivots by forward substitution, and a T is a solution; it is the only
    one when the c_i are independent (``rank == n``).

    The oracle for ``lattice._UnitEchelon``, which records its row
    operations instead of tracking them and pivots only on entries +-1.
    The echelon is ``downward_echelon``, a copy of the package's former
    column loop that swaps each pivot row up and updates dense rows, so
    this route shares no Euclid step with ``lattice._euclid_down``.
    """

    def __init__(self, vectors: Sequence[Sequence[int]], width: int):
        n = len(vectors)
        work = [list(v) + unit for v, unit in zip(vectors, _identity_rows(n))]
        pivots = downward_echelon(work, width, width + n)
        self.rank = len(pivots)
        self._rows = [(col, row[:width]) for col, row in zip(pivots, work)]
        self._tracker = [row[width:] for row in work[: self.rank]]
        self._count = n

    def __call__(self, v: Sequence[int]) -> tuple[int, ...]:
        """One solution for trusted v; ValueError unless v lies in the span."""
        rem = list(v)
        coeffs = []
        for col, row in self._rows:
            q, r = divmod(rem[col], row[col])
            if r:
                break
            coeffs.append(q)
            if q:
                # an echelon row is zero left of its pivot
                for i in range(col, len(rem)):
                    rem[i] -= q * row[i]
        if any(rem):
            raise ValueError("vector is not in the span")
        return _combination(self._tracker, coeffs, self._count)


def subgroup_intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    """Intersection of two subgroups of the same Z^n, from the kernel of [A | -B].

    The oracle for ``pairings.triple_intersection``, which reads L1 n L2 n L3
    off the alpha curves and the intersection matrices Q_alpha_beta and
    Q_gamma_alpha instead of intersecting the canonical Lagrangians.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("subgroups of different ambient ranks")
    if a.rank == 0 or b.rank == 0:
        return Subgroup.from_columns(a.ambient_rank, ())
    paired = a.columns() + tuple(tuple(-x for x in col) for col in b.columns())
    ker = kernel_basis(mat(list(zip(*paired)), len(paired)))
    members = [_combination(a.columns(), col[: a.rank], a.ambient_rank) for col in ker.columns()]
    return Subgroup.from_columns(a.ambient_rank, members)


def pair_quotient(d: TrisectionDiagram, lam: int) -> QuotientPresentation:
    """The surface lattice modulo the canonical pair sum L_lam + L_{lam+1}.

    The oracle for each pair check of ``diagram.validate``, which reads the
    invariant factors of an intersection matrix or of the pair's 2g curves.
    """
    return quotient(2 * d.genus, d.pair_sum(lam))


def quotient_lift(q: QuotientPresentation, coords: Sequence[int]) -> tuple[int, ...]:
    """An ambient vector v with ``q.project(v) == coords``, read off the last
    ``len(q.torsion) + q.free_rank`` columns of the Smith transform U^{-1},
    whose last ``q.free_rank`` are the ones ``_free_lifts`` reads."""
    indices = range(q.ambient_rank - len(q.torsion) - q.free_rank, q.ambient_rank)
    return tuple(sum(row[i] * c for i, c in zip(indices, coords)) for row in q._smith.Uinv)


def triple_sum(d: TrisectionDiagram) -> Subgroup:
    """L1 + L2 + L3, spanned by the canonical columns of all three at once."""
    columns = [c for lam in (1, 2, 3) for c in d.lagrangian_subgroup(lam).columns()]
    return Subgroup.from_columns(2 * d.genus, columns)


def triple_quotient(d: TrisectionDiagram) -> QuotientPresentation:
    """The surface lattice modulo L1 + L2 + L3 (degree-one homology of X).

    The oracle for the curve-span route of the CLI's three-way H2 check,
    which reads the invariant factors of the 3g curves instead.
    """
    return quotient(2 * d.genus, triple_sum(d))


def sympy_invariant_factors(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...]:
    """Nonzero invariant factors of rows, the diagonal of sympy's Smith normal form.

    The oracle for ``lattice._invariant_factors``, which counts the pivots of
    its unit-pivot elimination as factors 1 and runs its own Smith form only
    on the residual rows that elimination leaves; and for the primitivity
    that elimination reads, which holds exactly when every factor is 1.
    """
    D = sympy_snf(sympy.Matrix(len(rows), ncols, [x for row in rows for x in row]))
    return tuple(sorted(abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i]))


def validate_by_pair_sums(d: TrisectionDiagram) -> ValidationReport:
    """Every validity check, each pair check read off the quotient of the
    surface lattice by the canonical pair sum L_lam + L_{lam+1}.

    The oracle for ``diagram.validate``, which reads each pair check off the
    intersection matrix of the two systems' curves instead, and the system
    checks off the curves rather than the canonical columns. Primitivity is
    read from sympy's Smith form, not from the package's invariant factors.
    """
    rank = 2 * d.genus
    units = [standard_basis_vector(d.genus, i) for i in range(rank)]
    checks = []
    for name, lam in zip(SYSTEM_NAMES, (1, 2, 3)):
        L = d.lagrangian_subgroup(lam)
        checks.append((f"{name} isotropic", is_isotropic(L)))
        rows = [[plain_form(e, u) for u in units] for e in L.columns()]
        ones = sympy_invariant_factors(rows, rank) == (1,) * d.genus
        checks.append((f"{name} primitive", L.rank == d.genus and ones))
    quotients = [pair_quotient(d, lam) for lam in (1, 2, 3)]
    for name, q in zip(("alpha+beta", "beta+gamma", "gamma+alpha"), quotients):
        checks.append((f"{name} torsion-free", q.torsion == ()))
    valid = all(ok for _, ok in checks)
    return ValidationReport(tuple(checks), tuple(q.free_rank for q in quotients) if valid else None)


def homology_by_kernels(c: FreeChainComplex, pos: int) -> HomologyGroup:
    """Homology at a position as the cycles modulo the boundaries written in
    a basis of the cycles: ``kernel_basis``, ``coordinates_of`` and ``quotient``.

    The oracle for ``FreeChainComplex.homology_at``, which reads the ranks
    and invariant factors of the differentials instead.
    """
    if not 0 <= pos < len(c.ranks):
        raise ValueError("position out of range")
    if pos < len(c.diffs):
        cycles = kernel_basis(c.diffs[pos])
    else:
        cycles = Subgroup.full(c.ranks[pos])
    boundaries = matrix_columns(c.diffs[pos - 1]) if pos else []
    relations = Subgroup.from_columns(cycles.rank, [cycles.coordinates_of(b) for b in boundaries])
    q = quotient(cycles.rank, relations)
    return HomologyGroup(q.free_rank, q.torsion)


@memoized
def five_term_complex(d: TrisectionDiagram) -> FreeChainComplex:
    """Z -> pairwise intersections -> L1 + L2 + L3 -> surface lattice -> Z, degrees 4 to 0.

    The oracle for ``homology_complex``, which is this complex quotiented by
    its acyclic subcomplex L_gamma -> L_gamma. The Lagrangians are written
    in their curve bases, so the degree-two differential's columns are the
    3g curves. The pairwise intersections are the canonical kernels of the
    2g-wide [C_lam | -C_{lam+1}], C_lam the curves of system lam: a kernel
    column (x, y) has C_lam x = C_{lam+1} y, and contributes -x to the L_lam
    block and +y to the L_{lam+1} block.
    """
    ensure_valid(d)
    g = d.genus
    pair_columns = []
    for lam in range(3):
        nxt = (lam + 1) % 3
        left, right = d.systems[lam].curves, d.systems[nxt].curves
        paired = left + tuple(tuple(-e for e in c) for c in right)
        for xy in kernel_basis(mat(list(zip(*paired)), 2 * g)).columns():
            col = [0] * (3 * g)
            col[lam * g : (lam + 1) * g] = [-e for e in xy[:g]]
            col[nxt * g : (nxt + 1) * g] = xy[g:]
            pair_columns.append(tuple(col))
    return FreeChainComplex(
        ranks=(1, len(pair_columns), 3 * g, 2 * g, 1),
        columns=(
            ((0,) * len(pair_columns),),
            tuple(pair_columns),
            tuple(c for cs in d.systems for c in cs.curves),
            ((0,),) * (2 * g),
        ),
    )


@memoized
def five_term_dual_complex(d: TrisectionDiagram) -> FreeChainComplex:
    """Hom of the middle of ``five_term_complex``: surface lattice -> sum of
    Hom(L_lam, Z) -> sum of Hom(L_lam n L_{lam+1}, Z).

    The first map is x -> (<c, x>) over the 3g curves c, the second the
    negated transpose of the pair-difference columns. Its middle cycles are
    the coordinates of ``H2DualRep``s.
    """
    c = five_term_complex(d)
    g = d.genus
    units = [tuple(int(i == j) for j in range(2 * g)) for i in range(2 * g)]
    return FreeChainComplex(
        ranks=(2 * g, 3 * g, c.ranks[1]),
        columns=(
            tuple(tuple(plain_form(e, u) for e in c.columns[2]) for u in units),
            tuple(tuple(-col[j] for col in c.columns[1]) for j in range(3 * g)),
        ),
    )


def image_subgroup(m: np.ndarray) -> Subgroup:
    """Column span of m as a canonical Subgroup of Z^rows."""
    return Subgroup.from_columns(m.shape[0], matrix_columns(m))


def standard_basis_vector(genus: int, index: int) -> tuple[int, ...]:
    vec = [0] * (2 * genus)
    vec[index] = 1
    return tuple(vec)


def pi_dual(genus: int, x: Sequence[int]) -> tuple[int, ...]:
    """Coordinates of the functional <., x> in the dual basis.

    The assignment x -> <., x> identifies the lattice with its dual because
    the form is unimodular; concretely the coordinate vector is J @ x.
    """
    out = form_matrix(genus) @ column_vector(as_int_vector(x, 2 * genus))
    return tuple(int(e) for e in out[:, 0])


def transvection_matrix(genus: int, v: Sequence[int]) -> np.ndarray:
    """Matrix of x -> x + <x, v> v, an integral symplectomorphism."""
    v = column_vector(as_int_vector(v, 2 * genus))
    return mat(_identity_rows(2 * genus), 2 * genus) + v @ (form_matrix(genus) @ v).T


def is_isotropic(sub: Subgroup) -> bool:
    """Whether the intersection form vanishes on every pair of the subgroup's columns."""
    return not any(plain_form(x, y) for x in sub.columns() for y in sub.columns())


def is_lagrangian(genus: int, sub: Subgroup) -> bool:
    return sub.rank == genus and is_isotropic(sub)


def m_subgroup(genus: int, lagrangian: Subgroup) -> Subgroup:
    """Image of a Lagrangian under the duality map x -> <., x>."""
    if not is_lagrangian(genus, lagrangian):
        raise ValueError("m_subgroup needs a Lagrangian subgroup")
    return Subgroup.from_columns(
        2 * genus, [pi_dual(genus, col) for col in lagrangian.columns()]
    )


def cech_complex(d: TrisectionDiagram, sheaf_degree: int) -> FreeChainComplex:
    """Cech complex of one coefficient presheaf over the three-sector cover.

    The oracle for ``hodge_diamond``: column j of the diamond is the
    cohomology of ``cech_complex(d, j)`` in Cech degrees 0, 1, 2.

    sheaf_degree 0: constant coefficients, cohomology (Z, 0, 0).
    sheaf_degree 1: degree-one coefficients, realized on the Lagrangian data.
    This is the middle of the five-term complex read as a cochain complex: its
    terms and differentials are taken from ``five_term_complex(d)`` as they
    are, so its middle cohomology is H2 of that oracle, a route to the
    diamond that does not pass through the intersection matrices.
    sheaf_degree 2: top coefficients vanish except over the central surface.
    """
    ensure_valid(d)
    if sheaf_degree == 0:
        return FreeChainComplex(
            ranks=(3, 3, 1),
            columns=(((1, 0, -1), (-1, 1, 0), (0, -1, 1)), ((1,), (1,), (1,))),
        )
    if sheaf_degree == 1:
        c = five_term_complex(d)
        return FreeChainComplex(ranks=c.ranks[1:4], columns=c.columns[1:3])
    if sheaf_degree == 2:
        return FreeChainComplex(ranks=(0, 0, 1), columns=((), ()))
    raise ValueError("sheaf degree must be 0, 1 or 2")


def h3_representatives_by_complex(d: TrisectionDiagram) -> tuple[tuple[int, ...], ...]:
    """Degree-three representatives from the homology complex: the free
    generators of its degree one, Z^2g modulo the three Lagrangians written
    as pairings with the gamma curves, each lifted by ``_reduced_lift``.

    The oracle of ``pairings.h3_representatives``, which reads the basis
    dual to ``h1_basis`` instead and so pairs perfectly by construction.
    """
    c = homology_complex(d)
    _, gens = c.homology_with_generators(3)
    return tuple(_reduced_lift(d, 2, v) for v in gens)


def h3_h1_gram(d: TrisectionDiagram, h3s: Sequence[Sequence[int]]) -> np.ndarray:
    """Matrix of the degree-three against degree-one pairing on the
    representatives ``h3s`` and on ``h1_basis``."""
    rows = [[pairing_h3_h1(d, h3, h1) for h1 in h1_basis(d)] for h3 in h3s]
    return mat(rows, len(h1_basis(d)))


def lagrangian_coordinates(d: TrisectionDiagram, blocks) -> tuple[int, ...]:
    """The length-3g vector of ambient blocks b1, b2, b3 in the curve bases,
    each solved for through a Smith form; inverse of ``OneOneCocycle.blocks``."""
    out: list[int] = []
    for cs, b in zip(d.systems, blocks):
        curves = mat(zip(*cs.curves), d.genus)
        out += integer_solve(curves, b)
    return tuple(out)


def cocycle_from_blocks(d: TrisectionDiagram, b1, b2, b3) -> OneOneCocycle:
    """The cocycle with ambient blocks b1, b2, b3.

    Each block must have length 2g and lie in its Lagrangian, which a
    primitive Lagrangian checks as pairing to zero with every curve of its
    system (read from the pairing rows), and the blocks must sum to zero.
    """
    ensure_valid(d)
    blocks = [as_int_vector(b, 2 * d.genus) for b in (b1, b2, b3)]
    for lam, (rows, b) in enumerate(zip(d._curve_pairings, blocks), start=1):
        if any(sum(r * e for r, e in zip(row, b)) for row in rows):
            raise ValueError(f"component {lam} does not lie in Lagrangian {lam}")
    if any(map(sum, zip(*blocks))):
        raise ValueError("components do not sum to zero")
    return OneOneCocycle(d, lagrangian_coordinates(d, blocks))


def cold_copy(d: TrisectionDiagram) -> TrisectionDiagram:
    """An equal diagram with the same systems and label and nothing memoized."""
    return TrisectionDiagram(d.genus, d.alpha, d.beta, d.gamma, d.label)


def full_query(d: TrisectionDiagram) -> None:
    """Every public query on a valid diagram: validation, the groups, the
    dual complex and the diamond, the canonical Lagrangians and pair sums,
    the form with its cocycle and dual-rep bases, every rep's lifts, the
    spin-c action of each rep with its c1, the spin count and listing, and
    the degree-one and degree-three bases."""
    ensure_valid(d)
    homology_groups(d)
    dual_middle_homology(d)
    dual_complex(d)
    hodge_diamond(d)
    for lam in (1, 2, 3):
        d.pair_sum(lam)
    intersection_form(d)
    h2_basis_cocycles(d)
    s = base_ledger(d)
    for rep in dual_rep_basis(d):
        assert H2DualRep.from_lifts(d, rep.lifts) == rep
        c1_difference(act(s, rep), s)
    if spin_count(d) <= MAX_LISTED:
        enumerate_spin(d)
    h1_basis(d)
    h3_representatives(d)


def small_sums(count: int, seed: int):
    """``count`` fresh diagrams, each the block sum of one to three of
    ``LADDER_BASES`` drawn with ``random.Random(seed)``."""
    rng = random.Random(seed)
    for _ in range(count):
        yield builtin("#".join(rng.choices(LADDER_BASES, k=rng.randint(1, 3))))


def _random_combination(basis: np.ndarray, rng: random.Random, span: int) -> tuple[int, ...]:
    combo = column_vector([rng.randint(-span, span) for _ in range(basis.shape[1])])
    return tuple(int(e) for e in (basis @ combo)[:, 0])


def random_cocycle(d: TrisectionDiagram, rng: random.Random, span: int = 4) -> OneOneCocycle:
    """Random element of the cocycle group (kernel of the total-sum map)."""
    cycles = kernel_basis(five_term_complex(d).diffs[2])
    if cycles.rank == 0:
        return OneOneCocycle.zero(d)
    return OneOneCocycle(d, _random_combination(cycles.basis, rng, span))


def random_coboundary(d: TrisectionDiagram, rng: random.Random, span: int = 4) -> OneOneCocycle:
    """Random image of the pairwise-intersection difference map."""
    zeta = five_term_complex(d).diffs[1]
    if zeta.shape[1] == 0:
        return OneOneCocycle.zero(d)
    return OneOneCocycle(d, _random_combination(zeta, rng, span))


def random_cycle_rep(d: TrisectionDiagram, rng: random.Random, span: int = 4) -> H2DualRep:
    """Random triple of handlebody classes satisfying the matching conditions."""
    g = d.genus
    cycles = kernel_basis(five_term_dual_complex(d).diffs[1])
    if cycles.rank == 0:
        return H2DualRep.zero(d)
    vec = _random_combination(cycles.basis, rng, span)
    return H2DualRep(d, (vec[:g], vec[g : 2 * g], vec[2 * g :]))


def solved_dual_rep(d: TrisectionDiagram, x: OneOneCocycle) -> H2DualRep:
    """A rep of x's Poincare dual by exact solve against the dual complex.

    The oracle for ``pairings.poincare_dual_rep``'s closed form: the
    combination K of the sign-normalized free generators of the five-term
    dual complex's middle homology with evaluate_on_surface_class(d, b, K) equal
    to intersection_pairing(d, b, x) for every basis cocycle b. The form is
    unimodular, so the system has one integral solution.
    """
    g = d.genus
    _, gens = five_term_dual_complex(d).homology_with_generators(1)
    gens = map(_sign_normalized, gens)
    reps = [H2DualRep(d, (v[:g], v[g : 2 * g], v[2 * g :])) for v in gens]
    basis = h2_basis_cocycles(d)
    rows = [[evaluate_on_surface_class(d, b, rep) for rep in reps] for b in basis]
    rhs = [intersection_pairing(d, b, x) for b in basis]
    coeffs = integer_solve(mat(rows, len(reps)), rhs)
    return sum((rep.scale(c) for rep, c in zip(reps, coeffs)), H2DualRep.zero(d))


def random_matched_lifts(
    d: TrisectionDiagram, rng: random.Random, span: int = 3
) -> tuple[tuple[int, ...], ...]:
    """Ambient lifts of a random cycle rep, each moved by its own random vector of
    its Lagrangian and all three by one random ambient vector, so still matched."""
    g = d.genus
    common = [rng.randint(-span, span) for _ in range(2 * g)]
    return tuple(
        tuple(
            a + c + w
            for a, c, w in zip(
                lift,
                common,
                _combination(
                    d.lagrangian_subgroup(lam).columns(),
                    [rng.randint(-span, span) for _ in range(g)],
                    2 * g,
                ),
            )
        )
        for lam, lift in zip((1, 2, 3), random_cycle_rep(d, rng).lifts)
    )


def gram_schmidt(curves: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """The Gram-Schmidt vectors c*_1..c*_n of the curves, in order, in the
    Euclidean product and exact rationals: the oracle of the package's
    integral Gram-Schmidt."""
    stars: list[list[Fraction]] = []
    for c in curves:
        star = [Fraction(e) for e in c]
        for s in stars:
            mu = sum(a * b for a, b in zip(c, s)) / sum(b * b for b in s)
            star = [a - mu * b for a, b in zip(star, s)]
        stars.append(star)
    return stars


def nearest_plane_reduced(d: TrisectionDiagram, reps: Sequence[H2DualRep]) -> bool:
    """Whether every lift of the reps lies in the nearest-plane window of its
    system's curves: each coordinate a . c*_l / c*_l . c*_l along their
    Gram-Schmidt vectors c*_l is in [-1/2, 1/2)."""
    half = Fraction(1, 2)
    for cs, lifts in zip(d.systems, zip(*(rep.lifts for rep in reps))):
        stars = gram_schmidt(cs.curves)
        norms = [sum(b * b for b in s) for s in stars]
        for a in lifts:
            coords = (sum(x * y for x, y in zip(a, s)) / n for s, n in zip(stars, norms))
            if not all(-half <= c < half for c in coords):
                return False
    return True


def scrambled(d: TrisectionDiagram, seed: int) -> TrisectionDiagram:
    """d in a new surface basis: every curve moved by one seeded word of six
    transvections x -> x + <x, v> v, each v with one to three entries of +-1."""
    rng = random.Random(seed)
    systems = [list(cs.curves) for cs in d.systems]
    for _ in range(6):
        v = [0] * (2 * d.genus)
        for idx in rng.sample(range(2 * d.genus), min(rng.randint(1, 3), 2 * d.genus)):
            v[idx] = rng.choice((-1, 1))
        T = transvection_matrix(d.genus, v)
        systems = [[tuple(int(e) for e in (T @ column_vector(c))[:, 0]) for c in cs] for cs in systems]
    return diagram_from_curves(d.genus, *systems, label=d.label)


def diagram_from_form(
    Q: Sequence[Sequence[int]], label: str | None = None
) -> TrisectionDiagram:
    """The triple alpha = <a_i>, beta = <b_i>, gamma = <a_i + sum_j Q_ij b_j>.

    Gamma is isotropic when Q is symmetric, and the triple is valid exactly
    when Q has a torsion-free cokernel. For a unimodular Q the k-values are
    (0, 0, 0) and the intersection form is Q, so any form can be prescribed:
    even, definite, or with large entries.
    """
    g = len(Q)
    units = _identity_rows(2 * g)
    gamma = []
    for i, row in enumerate(Q):
        curve = [0] * (2 * g)
        curve[2 * i] = 1
        curve[1::2] = row
        gamma.append(curve)
    return diagram_from_curves(g, units[0::2], units[1::2], gamma, label=label)


def block_sum(*forms: Sequence[Sequence[int]]) -> list[list[int]]:
    n = sum(map(len, forms))
    rows, start = [], 0
    for Q in forms:
        rows += [[0] * start + list(row) + [0] * (n - start - len(Q)) for row in Q]
        start += len(Q)
    return rows


E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, -1),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, -1, 0, 0, 0, 0, 2),
)
HYPERBOLIC = ((0, 1), (1, 0))
# unimodular forms with their signature and parity: definite and non-diagonal,
# even, and with Gram entries of 3 and 5
FORM_POOL = {
    "E8": (E8, (8, 0), "even"),
    "-E8": (tuple(tuple(-q for q in row) for row in E8), (0, 8), "even"),
    "H": (HYPERBOLIC, (1, 1), "even"),
    "<1>": (((1,),), (1, 0), "odd"),
    "<-1>": (((-1,),), (0, 1), "odd"),
    "[[3,1],[1,0]]": (((3, 1), (1, 0)), (1, 1), "odd"),
    "[[5,1],[1,0]]": (((5, 1), (1, 0)), (1, 1), "odd"),
}

# the genus-1 trisections of S4, one for each position of the k-value 1
S4_PIECES = tuple(
    diagram_from_curves(1, *([curve] for curve in curves), label=label)
    for label, curves in (
        ("S4(a,a,b)", ((1, 0), (1, 0), (0, 1))),
        ("S4(b,a,a)", ((0, 1), (1, 0), (1, 0))),
        ("S4(a,b,a)", ((1, 0), (0, 1), (1, 0))),
    )
)


class PoolInvariants(NamedTuple):
    """What ``pool_diagram`` prescribes: the form's rank, signature and parity, and H1."""

    rank: int
    signature: tuple[int, int]
    parity: str
    h1: HomologyGroup


def pool_diagram(seed: int) -> tuple[TrisectionDiagram, PoolInvariants]:
    """A diagram of known invariants, drawn with ``random.Random(seed)``.

    ``diagram_from_form`` of the block sum Q of one to three ``FORM_POOL``
    forms, summed on a random side with zero to two of S1xS3, QS4_Z2 and
    QS4_Z3 and with zero to two ``S4_PIECES``, then ``scrambled`` and moved
    by one to three handleslides. None of these changes the form's rank,
    signature or parity, those of Q; H1 is Z^(number of S1xS3) plus Z/2
    and Z/3 per QS4_Z2 and QS4_Z3.
    """
    rng = random.Random(seed)
    names = rng.choices(sorted(FORM_POOL), k=rng.randint(1, 3))
    d = diagram_from_form(block_sum(*(FORM_POOL[n][0] for n in names)), label="+".join(names))
    sums = rng.choices(("S1xS3", "QS4_Z2", "QS4_Z3"), k=rng.randint(0, 2))
    pieces = rng.choices(S4_PIECES, k=rng.randint(0, 2))
    for summand in [builtin(n) for n in sums] + pieces:
        d = connected_sum(d, summand) if rng.random() < 0.5 else connected_sum(summand, d)
    d = scrambled(d, rng.randrange(2**32))
    for _ in range(rng.randint(1, 3)):
        if d.genus > 1:
            i, j = rng.sample(range(d.genus), 2)
            d = handleslide_diagram(d, rng.choice(SYSTEM_NAMES), i, j, rng.choice((1, -1)))
    twos, threes = sums.count("QS4_Z2"), sums.count("QS4_Z3")
    torsion = sorted(
        (2 if k < twos else 1) * (3 if k < threes else 1) for k in range(max(twos, threes))
    )
    positive = sum(FORM_POOL[n][1][0] for n in names)
    negative = sum(FORM_POOL[n][1][1] for n in names)
    parity = "even" if all(FORM_POOL[n][2] == "even" for n in names) else "odd"
    h1 = HomologyGroup(sums.count("S1xS3"), torsion)
    return d, PoolInvariants(positive + negative, (positive, negative), parity, h1)


LADDER_BASES = ("CP2", "CP2bar", "S1xS3", "S2xS2", "QS4_Z2", "QS4_Z3")


def ladder_diagram(genus: int) -> TrisectionDiagram:
    """The ladder recipe: a random block sum of genus g, then 2g transvections.

    With ``random.Random(genus)``, summands are drawn from ``LADDER_BASES``
    until their genera add up to g; then every curve is moved by one word of
    2g transvections x -> x + <x, v> v, each v with three entries of +-1.
    The curve entries stay near 8 bits, while the canonical echelon bases of
    the Lagrangians they span grow with g.
    """
    rng = random.Random(genus)
    summands = _random_summands(genus, LADDER_BASES, rng)
    d = builtin("#".join(summands)) if summands else builtin("S4")
    return _transvected(d, rng, label=f"ladder(g={genus})")


def _random_summands(genus: int, bases: Sequence[str], rng: random.Random) -> list[str]:
    """Builtin names drawn from ``bases`` until their genera add up to g."""
    summands: list[str] = []
    left = genus
    while left:
        name = rng.choice([n for n in bases if builtin_genus(n) <= left])
        summands.append(name)
        left -= builtin_genus(name)
    return summands


def _transvected(d: TrisectionDiagram, rng: random.Random, label: str) -> TrisectionDiagram:
    """d with every curve moved by one word of 2g transvections
    x -> x + <x, v> v, each v with three entries of +-1."""
    genus = d.genus
    systems = [[list(c) for c in cs.curves] for cs in d.systems]
    for _ in range(2 * genus):
        v = [0] * (2 * genus)
        # support drawn from [3, 3], so the stream matches perfbench's ``scramble``
        for idx in rng.sample(range(2 * genus), min(rng.randint(3, 3), 2 * genus)):
            v[idx] = rng.choice((-1, 1))
        for curves in systems:
            for c in curves:
                t = plain_form(c, v)
                if t:
                    for i, vi in enumerate(v):
                        c[i] += t * vi
    return diagram_from_curves(genus, *systems, label=label)


def spin_sum_diagram(genus: int, seed: int) -> tuple[TrisectionDiagram, int]:
    """A block sum of S1xS3 and S2xS2 of genus g under the ladder's word of
    transvections, and its spin count.

    With ``random.Random(seed)``, summands are drawn as for the ladder, then
    every curve is moved by 2g transvections. S1xS3 has two spin structures
    and S2xS2 one, and counts multiply under connected sum, so the count is
    2^(number of S1xS3 summands). The ladder's CP2 summands make almost
    every ladder count 0; these sums give dense high-genus spin systems with
    a nonempty kernel.
    """
    rng = random.Random(seed)
    summands = _random_summands(genus, ("S1xS3", "S2xS2"), rng)
    d = _transvected(builtin("#".join(summands)), rng, label=f"spin sum(g={genus}, seed={seed})")
    return d, 2 ** summands.count("S1xS3")


def all_enhancements(genus: int) -> tuple[QuadraticEnhancement, ...]:
    """Every enhancement for the given genus, in lexicographic bit order."""
    if genus > ORACLE_MAX_GENUS:
        raise ValueError(f"the 4^genus oracle is kept to genus {ORACLE_MAX_GENUS}")
    width = 2 * genus
    out = []
    for mask in range(1 << width):
        bits = tuple((mask >> (width - 1 - i)) & 1 for i in range(width))
        out.append(QuadraticEnhancement(genus, bits))
    return tuple(out)


def vanishes_on(q: QuadraticEnhancement, cs: CutSystem) -> bool:
    """True when q is zero on every curve of the cut system.

    Within one system the curves span a Lagrangian, so the defining relation
    is additive there and vanishing on the curves already gives vanishing on
    the whole subgroup.
    """
    return all(q.evaluate(curve) == 0 for curve in cs.curves)


def comprehension_pairing_rows(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Pairing rows as one nested comprehension, entry by entry: the oracle
    for the package's slice-assigned ``_pairing_rows``."""
    return [[c for i in range(0, len(e), 2) for c in (-e[i + 1], e[i])] for e in vectors]


def dict_scan_solution_space(d: TrisectionDiagram) -> "tuple[int, tuple[int, ...]] | None":
    """The spin system's particular mask and kernel basis, or None, by the
    plain elimination: each equation built entry by entry, reduced by a scan
    of every pivot, and the pivot dict rebuilt at each new pivot. The oracle
    for the package's ``_solution_space``; no validity check, no memo."""
    pivots: dict[int, int] = {}
    for curve in (c for name in SYSTEM_NAMES for c in getattr(d, name).curves):
        eq = sum(curve[2 * t] * curve[2 * t + 1] for t in range(d.genus)) % 2
        eq |= sum(1 << (2 * d.genus - i) for i, e in enumerate(curve) if e % 2)
        for bit, p in pivots.items():
            if eq >> bit & 1:
                eq ^= p
        if eq == 1:
            return None
        if eq:
            lead = eq.bit_length() - 1
            pivots = {bit: p ^ eq if p >> lead & 1 else p for bit, p in pivots.items()}
            pivots[lead] = eq
    particular = sum(1 << bit for bit, p in pivots.items() if p & 1) >> 1
    return particular, tuple(
        ((1 << free) | sum(1 << bit for bit, p in pivots.items() if p >> free & 1)) >> 1
        for free in range(1, 2 * d.genus + 1) if free not in pivots
    )


def brute_force_spin(d: TrisectionDiagram) -> tuple[QuadraticEnhancement, ...]:
    """Spin structures by filtering all 4^genus enhancements."""
    systems = tuple(getattr(d, name) for name in SYSTEM_NAMES)
    return tuple(
        q for q in all_enhancements(d.genus) if all(vanishes_on(q, cs) for cs in systems)
    )
