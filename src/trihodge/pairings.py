"""Cohomology pairings computed on explicit cocycle representatives.

Degree-two classes are carried in the curve coordinates of the notes'
(1,1)-cocycles (b1, b2, b3): b_lam = C_lam x_lam combines the curves of
system lam, so it lies in the lam-th Lagrangian by construction, and the
three blocks sum to zero. The cup product of two such classes evaluates on
the fundamental class as a single intersection number on the central
surface, which in curve coordinates is read off the intersection matrix
Q_alpha_beta. Degree-two homology classes are carried dually, as matched
triples of handlebody H1 classes, each given by its pairings with the
curves of its cut system in file order; the matching conditions are the
pair-difference columns of the homology complex, kept with their gamma
blocks. The two sides meet in an integer evaluation pairing: curve
coordinates dotted with curve pairings. Poincare duality has a closed form
at chain level: the triple (b2, 0, 0) is matched, its pairings are
Q_alpha_beta x_beta, and it evaluates like cup product with (b1, b2, b3),
so no solve is needed in that direction.

A class derived from others (a sum, a multiple, a solved combination of a
basis) is built in one step: the coordinates are combined first, then the
class is constructed once, so its check runs once on the result. No
ambient vector is built unless a caller reads the blocks.

Everything here is integer arithmetic; the signature and the determinant of
the form use Fraction pivots only as bookkeeping for an exact congruence
diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .complexes import (
    InvalidStateError,
    _curve_coordinates_of_cycle,
    _pair_difference_columns,
    homology_complex,
)
from .diagram import TrisectionDiagram, ensure_valid, memoized
from .lattice import (
    Subgroup,
    _combination,
    _dot,
    _unimodular_inverse,
    as_int_vector,
    subgroup_intersection,
)


class CycleConditionError(ValueError):
    """A handlebody-class triple fails one of the cyclic matching conditions."""


def _matching_failure(d: TrisectionDiagram, coords) -> str | None:
    """The first cyclic matching condition handlebody coordinates fail, or None.

    Condition lam: the pair-difference columns of block lam, one per basis
    vector of L_lam n L_{lam+1} in the curve bases, annihilate them.
    """
    flat = [c for block in coords for c in block]
    for (lam, nxt), columns in zip(((1, 2), (2, 3), (3, 1)), _pair_difference_columns(d)):
        if any(_dot(col, flat) for col in columns):
            return f"a{lam} - a{nxt} is nonzero in the sector boundary quotient {lam}"
    return None


@dataclass(frozen=True)
class OneOneCocycle:
    """Degree-two cohomology class as a sum-zero triple of Lagrangian vectors.

    Carried by its 3g curve coordinates: block lam of ``coords`` combines
    the curves of system lam in file order, the basis of L_lam the homology
    complex uses, so b_lam lies in L_lam by construction. The curves of a
    valid diagram are a basis of their Lagrangian, so the coordinates fix
    the class and equal cocycles have equal coordinates. Construction
    checks the one cocycle condition left, sum_lam C_lam x_lam = 0. The
    ambient blocks are computed from the curves when first read.
    """

    diagram: TrisectionDiagram
    coords: tuple[int, ...]

    def __post_init__(self):
        d = self.diagram
        ensure_valid(d)
        coords = as_int_vector(self.coords, 3 * d.genus)
        object.__setattr__(self, "coords", coords)
        curves = d.alpha.curves + d.beta.curves + d.gamma.curves
        if any(_combination(curves, coords, 2 * d.genus)):
            raise ValueError("components do not sum to zero")

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The ambient vectors (b1, b2, b3), b_lam = C_lam x_lam."""
        g = self.diagram.genus
        return tuple(
            _combination(cs.curves, self.coords[i * g : (i + 1) * g], 2 * g)
            for i, cs in enumerate(self.diagram.systems)
        )

    @property
    def b1(self) -> tuple[int, ...]:
        return self.blocks[0]

    @property
    def b2(self) -> tuple[int, ...]:
        return self.blocks[1]

    @property
    def b3(self) -> tuple[int, ...]:
        return self.blocks[2]

    @classmethod
    def zero(cls, d: TrisectionDiagram) -> "OneOneCocycle":
        return _cocycle_combination(d, (), ())

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "OneOneCocycle") -> "OneOneCocycle":
        return _cocycle_combination(self.diagram, (self, other), (1, 1))

    def scale(self, n: int) -> "OneOneCocycle":
        return _cocycle_combination(self.diagram, (self,), (n,))

    def __neg__(self) -> "OneOneCocycle":
        return self.scale(-1)

    def __sub__(self, other: "OneOneCocycle") -> "OneOneCocycle":
        return _cocycle_combination(self.diagram, (self, other), (1, -1))


def _cocycle_combination(d: TrisectionDiagram, xs, coeffs) -> OneOneCocycle:
    """sum_j coeffs[j] * xs[j] over d, one construction; zero when xs is empty."""
    if any(x.diagram != d for x in xs):
        raise ValueError("cocycles belong to different diagrams")
    return OneOneCocycle(d, _combination([x.coords for x in xs], coeffs, 3 * d.genus))


@dataclass(frozen=True)
class H2DualRep:
    """Degree-two homology class as a matched triple of handlebody H1 classes.

    ``coords[lam - 1][i]`` is <c_i, a_lam> over the curves c_i of system lam
    in file order, which fixes the class of a_lam in H1(surface)/L_lam: the
    curves are a basis of L_lam, so by the unimodular form these pairings
    determine a_lam modulo L_lam. These pairings are the rep's only
    coordinates; the evaluation on cocycles is read from them, and so are
    the ambient ``lifts``, which no computation in the package reads.
    Construction checks the cyclic matching conditions: the
    concatenated coordinates are annihilated by the pair-difference columns.
    """

    diagram: TrisectionDiagram
    coords: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.diagram.genus
        coords = tuple(as_int_vector(c, g) for c in self.coords)
        if len(coords) != 3:
            raise ValueError("expected one component per handlebody")
        object.__setattr__(self, "coords", coords)
        failure = _matching_failure(self.diagram, coords)
        if failure:
            raise CycleConditionError(failure)

    @classmethod
    def from_lifts(
        cls, d: TrisectionDiagram, lifts: "tuple[tuple[int, ...], ...]"
    ) -> "H2DualRep":
        """The rep of ambient vectors a_1, a_2, a_3, each paired with its system's curves."""
        vectors = (as_int_vector(v, 2 * d.genus) for v in lifts)
        pairs = zip(d._curve_pairings, vectors, strict=True)
        return cls(d, tuple(tuple(_dot(r, a) for r in rows) for rows, a in pairs))

    @cached_property
    def lifts(self) -> tuple[tuple[int, ...], ...]:
        """Ambient vectors with these coordinates, each reduced modulo its L_lam.

        With U N V = [I | 0] the Smith form of the pairing map N on the
        curves of system lam (``TrisectionDiagram._pairing_forms``), the
        dual basis V[:, :g] U times the curve pairings is reduced along the
        canonical columns of L_lam, to the one vector of its class whose
        pivot-row entries lie in [0, pivot).
        """
        d = self.diagram
        g = d.genus
        out = []
        for lam, smith, c in zip((1, 2, 3), d._pairing_forms, self.coords):
            u = [_dot(row, c) for row in smith.U]
            lift = [_dot(row[:g], u) for row in smith.V]
            d.lagrangian_subgroup(lam)._substitute(lift)
            out.append(tuple(lift))
        return tuple(out)

    @classmethod
    def zero(cls, d: TrisectionDiagram) -> "H2DualRep":
        return _rep_combination(d, (), ())

    @property
    def is_zero(self) -> bool:
        return not any(any(c) for c in self.coords)

    def __add__(self, other: "H2DualRep") -> "H2DualRep":
        return _rep_combination(self.diagram, (self, other), (1, 1))

    def scale(self, n: int) -> "H2DualRep":
        return _rep_combination(self.diagram, (self,), (n,))

    def __neg__(self) -> "H2DualRep":
        return self.scale(-1)

    def __sub__(self, other: "H2DualRep") -> "H2DualRep":
        return _rep_combination(self.diagram, (self, other), (1, -1))


def _rep_combination(d: TrisectionDiagram, reps, coeffs) -> H2DualRep:
    """sum_j coeffs[j] * reps[j] over d, one construction; zero when reps is empty."""
    if any(r.diagram != d for r in reps):
        raise ValueError("dual reps belong to different diagrams")
    g = d.genus
    return H2DualRep(
        d, tuple(_combination([r.coords[i] for r in reps], coeffs, g) for i in range(3))
    )


def _sign_normalized(vec: tuple[int, ...]) -> tuple[int, ...]:
    """vec or -vec, whichever has a positive first nonzero entry."""
    sign = next((1 if e > 0 else -1 for e in vec if e), 1)
    return _combination((vec,), (sign,), len(vec))


@memoized
def h2_basis_cocycles(d: TrisectionDiagram) -> tuple[OneOneCocycle, ...]:
    """Cocycle representatives for a basis of the free part of H^2.

    Computed as free generators of the middle homology of the homology
    complex, which builds them at that position only. A generator gives the
    alpha and beta curve coordinates; the gamma block follows from them.
    Each generator is normalized so its first nonzero coordinate is
    positive. The basis, and so the printed Gram matrix, depends on the
    curves, not only on the Lagrangians they span; a handleslide may change
    it, but not the isometry class of the form.
    """
    c = homology_complex(d)
    _, gens = c.homology_with_generators(c.position_of_degree(2))
    coords = (_sign_normalized(_curve_coordinates_of_cycle(d, v)) for v in gens)
    return tuple(OneOneCocycle(d, x) for x in coords)


def _check_cocycle(d: TrisectionDiagram, x: OneOneCocycle, name: str) -> None:
    if x.diagram != d:
        raise ValueError(f"{name} belongs to a different diagram")


def intersection_pairing(d: TrisectionDiagram, x: OneOneCocycle, y: OneOneCocycle) -> int:
    """Cup-product pairing of two degree-two classes on the fundamental class.

    The surface intersection number <x.b1, y.b2>, read in curve coordinates
    as x_alpha^T Q_alpha_beta y_beta; the two cyclically rotated expressions
    give the same integer because Lagrangian components annihilate each
    other.
    """
    _check_cocycle(d, x, "first argument")
    _check_cocycle(d, y, "second argument")
    return _dot(x.coords[: d.genus], _beta_pairings(d, y.coords))


def _beta_pairings(d: TrisectionDiagram, coords: tuple[int, ...]) -> list[int]:
    """Q_alpha_beta x_beta, x the curve coordinates of a cocycle: the pairings
    <c, b2> of its second block with the alpha curves c."""
    g = d.genus
    return [_dot(row, coords[g : 2 * g]) for row in d._intersection_matrices[0]]


@dataclass(frozen=True)
class IntersectionForm:
    """The integral intersection form on H^2 modulo torsion."""

    gram: tuple[tuple[int, ...], ...]
    signature: tuple[int, int]
    parity: str
    unimodular: bool

    @property
    def rank(self) -> int:
        return len(self.gram)


def _signature_of_symmetric(
    gram: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, int], int]:
    """Exact (positive, negative) inertia and determinant of a symmetric integer matrix.

    Congruence diagonalization over the rationals: clear with a nonzero
    diagonal pivot when one exists, otherwise make one by adding a row and
    column (which turns an off-diagonal entry 2m into a diagonal one). Every
    step is a congruence by a determinant-one matrix, so the determinant is
    the product of the pivots, or 0 when rows are left over. Clearing the
    pivot at index t leaves the Schur complement M[r][s] - M[r][t] M[t][s] /
    M[t][t] on the rows and columns still active; nothing outside that block
    is read again.
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
            for k in active:
                M[i][k] += M[j][k]
            for k in active:
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
                for s in active:
                    M[r][s] -= f * M[pivot_row][s]
    return (pos, neg), int(det)


@memoized
def intersection_form(d: TrisectionDiagram) -> IntersectionForm:
    """Gram matrix, signature, parity and unimodularity of the form on H^2.

    The Gram entry of basis cocycles x and y is <x.b1, y.b2>, which is
    X_alpha^T Q_alpha_beta Y_beta in their curve coordinates. Parity: the
    form is even exactly when the zero vector is characteristic, which for
    a symmetric integer matrix means every diagonal entry is even; diagonal
    parity is invariant under unimodular change of basis.
    """
    g = d.genus
    coords = [x.coords for x in h2_basis_cocycles(d)]
    n = len(coords)
    paired = [_beta_pairings(d, y) for y in coords]
    gram = tuple(tuple(_dot(x[:g], qy) for qy in paired) for x in coords)
    signature, det = _signature_of_symmetric(gram)
    parity = "even" if all(gram[i][i] % 2 == 0 for i in range(n)) else "odd"
    return IntersectionForm(gram, signature, parity, abs(det) == 1)


@memoized
def triple_intersection(d: TrisectionDiagram) -> Subgroup:
    """L1 n L2 n L3: representatives of the free degree-one cohomology."""
    ensure_valid(d)
    return subgroup_intersection(d.pair_intersection(1), d.lagrangian_subgroup(3))


def pairing_h3_h1(d: TrisectionDiagram, h3, h1) -> int:
    """Pairing of a degree-three class with a degree-one class.

    ``h3`` is any ambient representative of its class modulo L1 + L2 + L3;
    ``h1`` must lie in all three Lagrangians. The value is the surface
    intersection number, independent of the h3 representative because every
    Lagrangian vector pairs to zero against h1.
    """
    ensure_valid(d)
    h3 = as_int_vector(h3, 2 * d.genus)
    h1 = as_int_vector(h1, 2 * d.genus)
    if not triple_intersection(d).contains(h1):
        raise ValueError("h1 does not lie in all three Lagrangians")
    return d.lattice.intersection_number(h3, h1)


def h1_basis(d: TrisectionDiagram) -> tuple[tuple[int, ...], ...]:
    """Basis of the free degree-one cohomology (triple intersection columns)."""
    return triple_intersection(d).columns()


def h3_representatives(d: TrisectionDiagram) -> tuple[tuple[int, ...], ...]:
    """Ambient lifts of a basis of the degree-three cohomology modulo torsion."""
    ensure_valid(d)
    return d.triple_quotient._free_lifts


def evaluate_on_surface_class(d: TrisectionDiagram, x: OneOneCocycle, rep: H2DualRep) -> int:
    """Evaluate a degree-two cocycle on a degree-two homology class.

    The sum over lam of <b_lam, a_lam>, a_lam any ambient vector of the
    rep's class, which is fixed only modulo L_lam; b_lam lies in the
    isotropic L_lam, so the value does not depend on that choice and no lift
    is needed. Block lam of x combines the curves of system lam, so the sum
    is x's curve coordinates dotted with the rep's curve pairings. Coboundary
    changes to the cocycle do not move it (the matching conditions kill
    those).
    """
    _check_cocycle(d, x, "cocycle")
    if rep.diagram != d:
        raise ValueError("dual rep belongs to a different diagram")
    return _dot(x.coords, [c for block in rep.coords for c in block])


def poincare_dual_rep(d: TrisectionDiagram, x: OneOneCocycle) -> H2DualRep:
    """The homology class realizing cup product with x: the rep of (x.b2, 0, 0).

    The triple is matched: a1 - a2 = b2 lies in L2, a2 - a3 = 0, and a3 - a1
    = b1 + b3 lies in L1 + L3; construction checks it. Its coordinates are
    the pairings of b2 with the alpha curves, Q_alpha_beta x_beta, and zero.
    On every cocycle y it evaluates to <y.b1, x.b2>, which is
    intersection_pairing(d, y, x). The zero class gives the zero rep.
    """
    _check_cocycle(d, x, "cocycle")
    zero = (0,) * d.genus
    return H2DualRep(d, (_beta_pairings(d, x.coords), zero, zero))


@memoized
def dual_rep_basis(d: TrisectionDiagram) -> tuple[H2DualRep, ...]:
    """Dual reps generating the free part of degree-two homology.

    The Poincare duals of the cocycle basis, in its order: duality is an
    isomorphism, so they generate degree-two homology modulo torsion, and
    evaluating basis cocycle i on rep j gives the Gram entry G[i][j].
    """
    return tuple(poincare_dual_rep(d, x) for x in h2_basis_cocycles(d))


@memoized
def _inverse_gram(d: TrisectionDiagram) -> tuple[tuple[int, ...], ...]:
    """Integer inverse of the Gram matrix: V U from its Smith form U G V = I."""
    form = intersection_form(d)
    if not form.unimodular:
        raise InvalidStateError("the intersection form of a valid diagram is unimodular")
    return _unimodular_inverse([list(row) for row in form.gram])


def cocycle_from_dual_rep(d: TrisectionDiagram, rep: H2DualRep) -> OneOneCocycle:
    """Inverse of ``poincare_dual_rep`` on any rep, modulo torsion.

    Returns a cocycle c with intersection_pairing(d, b, c) equal to
    evaluate_on_surface_class(d, b, rep) for every basis cocycle b: the
    combination of the cocycle basis with coefficients G^-1 times those
    evaluations, constructed once (the zero cocycle when b2 = 0). Each
    evaluation is b's curve coordinates dotted with the rep's curve
    pairings, so none needs a change of basis.
    """
    if rep.diagram != d:
        raise ValueError("dual rep belongs to a different diagram")
    flat = [c for block in rep.coords for c in block]
    basis = h2_basis_cocycles(d)
    rhs = [_dot(x.coords, flat) for x in basis]
    return _cocycle_combination(d, basis, [_dot(row, rhs) for row in _inverse_gram(d)])

