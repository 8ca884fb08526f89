"""Test-only constructions: random (co)cycles, cocycles from ambient
blocks and the curve coordinates of those blocks, the ladder recipe,
duality maps, column spans, transvections, the degree-three against
degree-one Gram matrix, and eleven oracles: the numpy Smith form,
sympy's invariant factors, the Bareiss determinant, the full-width
congruence diagonalization, the Smith-form kernel, validation by pair sums,
homology by kernels, the five-term complex of the three Lagrangians with its
dual, the Cech complexes behind the diamond, the solved Poincare dual and
the brute-force spin filter.

The suites use these to generate inputs and to state laws; the package
itself never needs them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import numpy as np
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from trihodge.complexes import FreeChainComplex, HomologyGroup
from trihodge.diagram import (
    SYSTEM_NAMES,
    CutSystem,
    TrisectionDiagram,
    ValidationReport,
    builtin,
    builtin_genus,
    diagram_from_curves,
    ensure_valid,
    memoized,
)
from trihodge.lattice import (
    Subgroup,
    as_int_vector,
    identity,
    integer_solve,
    intmat,
    kernel_basis,
    quotient,
    smith_normal_form,
    snf_diagonal,
    zeros,
)
from trihodge.pairings import (
    H2DualRep,
    OneOneCocycle,
    _sign_normalized,
    evaluate_on_surface_class,
    h1_basis,
    h2_basis_cocycles,
    h3_representatives,
    intersection_pairing,
    pairing_h3_h1,
)
from trihodge.spin import QuadraticEnhancement
from trihodge.surface import SymplecticLattice

ORACLE_MAX_GENUS = 6


def column_vector(v: Sequence[int]) -> np.ndarray:
    return intmat([[x] for x in v], cols=1)


def matrix_columns(m: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(m[:, j]) for j in range(m.shape[1])]


def form_matrix(lat: SymplecticLattice) -> np.ndarray:
    """Matrix J of the intersection form: <x, y> = x^T J y."""
    J = zeros(lat.rank, lat.rank)
    for i in range(lat.genus):
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
    operations on rows of Python ints, replays them for each transform it is
    asked for, and must return the identical transforms.
    """
    D = intmat(m.tolist(), cols=m.shape[1])
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
    M = intmat(m.tolist())
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
    the active block and must find the same pivots.
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


def is_unimodular(m: np.ndarray) -> bool:
    return m.shape[0] == m.shape[1] and abs(det(m)) == 1


def smith_kernel_basis(m: np.ndarray) -> Subgroup:
    """Kernel of m through its Smith form U m V = D: the columns of V past rank D.

    The oracle for ``lattice.kernel_basis``, which echelons [m^T | I] instead.
    """
    _, D, V = smith_normal_form(m)
    return Subgroup.from_columns(m.shape[1], matrix_columns(V[:, len(snf_diagonal(D)) :]))


def sympy_invariant_factors(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...]:
    """Nonzero invariant factors of rows, the diagonal of sympy's Smith normal form.

    The oracle for ``lattice.invariant_factors``, which splits off a factor 1
    at each unit entry and runs its own Smith form only on what is left.
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
    lat = d.lattice
    units = [standard_basis_vector(lat, i) for i in range(lat.rank)]
    checks = []
    for name, L in zip(SYSTEM_NAMES, d._lagrangians):
        checks.append((f"{name} isotropic", lat.is_isotropic(L)))
        rows = [[plain_form(e, u) for u in units] for e in L.columns()]
        ones = sympy_invariant_factors(rows, lat.rank) == (1,) * d.genus
        checks.append((f"{name} primitive", L.rank == d.genus and ones))
    quotients = [d.pair_quotient(lam) for lam in (1, 2, 3)]
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
        for xy in kernel_basis(intmat(list(zip(*paired)), cols=2 * g)).columns():
            col = [0] * (3 * g)
            col[lam * g : (lam + 1) * g] = [-e for e in xy[:g]]
            col[nxt * g : (nxt + 1) * g] = xy[g:]
            pair_columns.append(tuple(col))
    return FreeChainComplex(
        term_names=("Z", "pairwise intersections", "lagrangian sum", "surface lattice", "Z"),
        ranks=(1, len(pair_columns), 3 * g, 2 * g, 1),
        degrees=(4, 3, 2, 1, 0),
        columns=(
            ((0,) * len(pair_columns),),
            tuple(pair_columns),
            tuple(c for cs in d.systems for c in cs.curves),
            ((0,),) * (2 * g),
        ),
        generator_positions=(2,),
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
        term_names=("surface classes", "handlebody quotients", "sector boundary quotients"),
        ranks=(2 * g, 3 * g, c.ranks[1]),
        degrees=(0, 1, 2),
        columns=(
            tuple(tuple(plain_form(e, u) for e in c.columns[2]) for u in units),
            tuple(tuple(-col[j] for col in c.columns[1]) for j in range(3 * g)),
        ),
    )


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
    out = form_matrix(lat) @ column_vector(as_int_vector(x, lat.rank))
    return tuple(int(e) for e in out[:, 0])


def transvection_matrix(lat: SymplecticLattice, v: Sequence[int]) -> np.ndarray:
    """Matrix of x -> x + <x, v> v, an integral symplectomorphism."""
    v = column_vector(as_int_vector(v, lat.rank))
    return identity(lat.rank) + v @ (form_matrix(lat) @ v).T


def is_lagrangian(lat: SymplecticLattice, sub: Subgroup) -> bool:
    return sub.rank == lat.genus and lat.is_isotropic(sub)


def m_subgroup(lat: SymplecticLattice, lagrangian: Subgroup) -> Subgroup:
    """Image of a Lagrangian under the duality map x -> <., x>."""
    if not is_lagrangian(lat, lagrangian):
        raise ValueError("m_subgroup needs a Lagrangian subgroup")
    return Subgroup.from_columns(
        lat.rank, [pi_dual(lat, col) for col in lagrangian.columns()]
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
            term_names=("sector constants", "pair constants", "central constant"),
            ranks=(3, 3, 1),
            degrees=(0, 1, 2),
            columns=(((1, 0, -1), (-1, 1, 0), (0, -1, 1)), ((1,), (1,), (1,))),
        )
    if sheaf_degree == 1:
        c = five_term_complex(d)
        return FreeChainComplex(
            term_names=("sector classes", "handlebody classes", "surface classes"),
            ranks=c.ranks[1:4],
            degrees=(0, 1, 2),
            columns=c.columns[1:3],
        )
    if sheaf_degree == 2:
        return FreeChainComplex(
            term_names=("zero", "zero", "central constant"),
            ranks=(0, 0, 1),
            degrees=(0, 1, 2),
            columns=((), ()),
        )
    raise ValueError("sheaf degree must be 0, 1 or 2")


def h3_h1_gram(d: TrisectionDiagram) -> np.ndarray:
    """Matrix of the degree-three against degree-one pairing on the bases of
    ``h3_representatives`` and ``h1_basis``."""
    rows = [
        [pairing_h3_h1(d, h3, h1) for h1 in h1_basis(d)] for h3 in h3_representatives(d)
    ]
    return intmat(rows, cols=len(h1_basis(d)))


def lagrangian_coordinates(d: TrisectionDiagram, blocks) -> tuple[int, ...]:
    """The length-3g vector of ambient blocks b1, b2, b3 in the curve bases,
    each solved for through a Smith form; inverse of ``OneOneCocycle.blocks``."""
    out: list[int] = []
    for cs, b in zip(d.systems, blocks):
        curves = intmat([list(row) for row in zip(*cs.curves)], cols=d.genus)
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
    coeffs = integer_solve(intmat(rows, cols=len(reps)), rhs)
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
                d.lagrangian_subgroup(lam).member_from_coordinates(
                    [rng.randint(-span, span) for _ in range(g)]
                ),
            )
        )
        for lam, lift in zip((1, 2, 3), random_cycle_rep(d, rng).lifts)
    )


def scrambled(d: TrisectionDiagram, seed: int) -> TrisectionDiagram:
    """d in a new surface basis: every curve moved by one seeded word of six
    transvections x -> x + <x, v> v, each v with one to three entries of +-1."""
    rng = random.Random(seed)
    systems = [list(cs.curves) for cs in d.systems]
    for _ in range(6):
        v = [0] * (2 * d.genus)
        for idx in rng.sample(range(2 * d.genus), min(rng.randint(1, 3), 2 * d.genus)):
            v[idx] = rng.choice((-1, 1))
        T = transvection_matrix(d.lattice, v)
        systems = [[tuple(int(e) for e in (T @ column_vector(c))[:, 0]) for c in cs] for cs in systems]
    return diagram_from_curves(d.genus, *systems, label=d.label)


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
    summands: list[str] = []
    left = genus
    while left:
        name = rng.choice([n for n in LADDER_BASES if builtin_genus(n) <= left])
        summands.append(name)
        left -= builtin_genus(name)
    d = builtin("#".join(summands)) if summands else builtin("S4")
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
    return diagram_from_curves(genus, *systems, label=f"ladder(g={genus})")


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


def brute_force_spin(d: TrisectionDiagram) -> tuple[QuadraticEnhancement, ...]:
    """Spin structures by filtering all 4^genus enhancements."""
    systems = tuple(getattr(d, name) for name in SYSTEM_NAMES)
    return tuple(
        q for q in all_enhancements(d.genus) if all(vanishes_on(q, cs) for cs in systems)
    )
