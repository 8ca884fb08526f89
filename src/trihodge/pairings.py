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
ambient vector is built unless a caller reads the blocks. A class holds
its diagram, so the diagram memoizes only the basis's curve coordinates.

Degree one is read from the alpha curves: L1 n L2 n L3 is spanned by the
vectors C_alpha x that pair to zero with the beta and gamma curves, since a
primitive Lagrangian is its own annihilator. Degree-three representatives
are the basis dual to that one under the surface pairing, read from one
elimination of its pairing rows. Every solve substitutes along a recorded
unit-pivot elimination (``lattice._UnitEchelon``): the diagram's curve
echelons give curve coordinates and lifts, and one of the Gram matrix
gives the cocycle of a dual rep, one solve per rep and no inverse. A lift
is then reduced modulo L_lam by Babai's nearest-plane pass against the
curves of system lam, read in integral Gram-Schmidt coordinates (Cohen,
Alg. 2.6.7) that each diagram memoizes per system: every coordinate along
the Gram-Schmidt vectors ends in [-1/2, 1/2), so lifts stay about as small
as the curves at any genus.

Everything here is integer arithmetic, the congruence diagonalization that
gives the signature and the determinant of the form included.
"""

from __future__ import annotations

from functools import cached_property

from .complexes import (
    InvalidStateError,
    _curve_coordinates_of_cycle,
    _pair_difference_columns,
    homology_complex,
)
from .diagram import (
    CycleConditionError,
    TrisectionDiagram,
    _pairing_rows,
    ensure_valid,
    memoized,
)
from .lattice import (
    Subgroup,
    _as_int,
    _Frozen,
    _Value,
    _combination,
    _dot,
    _kernel,
    _span,
    _UnitEchelon,
    as_int_vector,
)


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


def _check_diagram(d: TrisectionDiagram, *records) -> None:
    """Raise unless each record (a cocycle, a dual rep or a ledger) is over diagram d."""
    for x in records:
        if x.diagram != d:
            raise ValueError("arguments belong to different diagrams")


class _DegreeTwo:
    """What the two degree-two class types share: a class is its diagram and
    its coordinates, and a class derived from others (the zero, a sum, a
    difference, a multiple) is built in one step, from coordinates combined
    by the subclass's ``_combine``, so its construction check runs once.
    """

    __slots__ = ()
    _fields = ("diagram", "coords")

    @classmethod
    def _combined(cls, d: TrisectionDiagram, xs, coeffs):
        """sum_j coeffs[j] * xs[j] over d, one construction; zero when xs is empty."""
        _check_diagram(d, *xs)
        return cls(d, cls._combine(d, [x.coords for x in xs], coeffs))

    @classmethod
    def zero(cls, d: TrisectionDiagram):
        return cls._combined(d, (), ())

    def __add__(self, other):
        return self._combined(self.diagram, (self, other), (1, 1))

    def __sub__(self, other):
        return self._combined(self.diagram, (self, other), (1, -1))

    def scale(self, n: int):
        try:
            n = _as_int(n)
        except ValueError:
            raise ValueError(f"scale factor must be an integer, got {n!r}") from None
        return self._combined(self.diagram, (self,), (n,))

    def __neg__(self):
        return self.scale(-1)


class OneOneCocycle(_DegreeTwo, _Value):
    """Degree-two cohomology class as a sum-zero triple of Lagrangian vectors.

    Carried by its 3g curve coordinates: block lam of ``coords`` combines
    the curves of system lam in file order, the basis of L_lam the homology
    complex uses, so b_lam lies in L_lam by construction. The curves of a
    valid diagram are a basis of their Lagrangian, so the coordinates fix
    the class and equal cocycles have equal coordinates. Construction
    checks the one cocycle condition left, sum_lam C_lam x_lam = 0. The
    ambient blocks are computed from the curves when first read.
    """

    def __init__(self, diagram: TrisectionDiagram, coords: tuple[int, ...]):
        ensure_valid(diagram)
        g = diagram.genus
        coords = as_int_vector(coords, 3 * g)
        curves = diagram.alpha.curves + diagram.beta.curves + diagram.gamma.curves
        if any(_combination(curves, coords, 2 * g)):
            raise ValueError("components do not sum to zero")
        _Frozen.__init__(self, diagram, coords)

    @staticmethod
    def _combine(d: TrisectionDiagram, coords, coeffs) -> tuple[int, ...]:
        return _combination(coords, coeffs, 3 * d.genus)

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

    @property
    def is_zero(self) -> bool:
        """Whether the curve coordinates are zero: a question about the
        cochain, not its class (a coboundary is nonzero here; ROADMAP item 7)."""
        return not any(self.coords)


class H2DualRep(_DegreeTwo, _Value):
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

    def __init__(self, diagram: TrisectionDiagram, coords: tuple[tuple[int, ...], ...]):
        g = diagram.genus
        coords = tuple(as_int_vector(c, g) for c in coords)
        if len(coords) != 3:
            raise ValueError("expected one component per handlebody")
        failure = _matching_failure(diagram, coords)
        if failure:
            raise CycleConditionError(failure)
        _Frozen.__init__(self, diagram, coords)

    @staticmethod
    def _combine(d: TrisectionDiagram, coords, coeffs) -> tuple[tuple[int, ...], ...]:
        return tuple(_combination([c[i] for c in coords], coeffs, d.genus) for i in range(3))

    @classmethod
    def from_lifts(
        cls, d: TrisectionDiagram, lifts: "tuple[tuple[int, ...], ...]"
    ) -> "H2DualRep":
        """The rep of ambient vectors a_1, a_2, a_3, each paired with its system's curves."""
        vectors = tuple(as_int_vector(v, 2 * d.genus) for v in lifts)
        if len(vectors) != 3:
            raise ValueError("expected one lift per handlebody")
        pairs = zip(d._curve_pairings, vectors)
        return cls(d, tuple(tuple(_dot(r, a) for r in rows) for rows, a in pairs))

    @cached_property
    def lifts(self) -> tuple[tuple[int, ...], ...]:
        """Ambient vectors with these coordinates, each reduced modulo its L_lam.

        Block lam is ``_reduced_lift`` of its pairings with the curves of
        system lam: the one vector with those pairings whose Gram-Schmidt
        coordinates along the curves, in file order, lie in [-1/2, 1/2).
        So equal reps have equal lifts, and the entries stay about as
        small as the curves'.
        """
        return tuple(_reduced_lift(self.diagram, lam, c) for lam, c in enumerate(self.coords))

    @property
    def is_zero(self) -> bool:
        """Whether the pairing coordinates are zero: a question about the
        coordinates, not the class (where H2 = 0 a nonzero rep can be a zero
        class; ROADMAP item 7)."""
        return not any(any(c) for c in self.coords)


def _reduced_lift(d: TrisectionDiagram, lam: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """The vector with pairings v against the curves of system lam (0-based)
    whose Gram-Schmidt coordinates along those curves lie in [-1/2, 1/2),
    the one such vector in its class.

    The curve echelon gives u with c_i . u = v_i, and <c, a> = c . u for
    a the pairing row of u: a_{2t} = -u_{2t+1} and a_{2t+1} = u_{2t}. On a
    valid diagram the pairing map is onto Z^g with kernel L_lam, so the
    vectors with pairings v form one class modulo L_lam. Babai's
    nearest-plane pass against the curves c_g, ..., c_1 subtracts from a
    the nearest integer multiple of each, which moves its coordinate along
    c*_j into [-1/2, 1/2) and leaves the later ones; the curves are a basis
    of L_lam, so the result is unique in the class, and its pairings with
    the curves are those of a because L_lam is isotropic. The coordinates
    are kept as d_j times their value, integers, rounded as
    floor((2 lambda_j + d_j) / 2 d_j).

    A zero block has class L_lam, whose reduced vector is zero: it is
    returned at once, with no solve and no Gram-Schmidt data built.
    """
    if not any(v):
        return (0,) * (2 * d.genus)
    (lift,) = _pairing_rows((d._curve_echelons[lam].transpose_solve(v),))
    curves = d.systems[lam].curves
    dets, mus = _curve_gram_schmidt(d, lam)
    coords = _gram_schmidt_coords(lift, curves, dets, mus)
    for j in reversed(range(len(curves))):
        q = (2 * coords[j] + dets[j]) // (2 * dets[j])
        if q:
            for k, m in enumerate(mus[j]):
                coords[k] -= q * m
            for i, e in enumerate(curves[j]):
                lift[i] -= q * e
    return tuple(lift)


def _gram_schmidt_coords(t, curves, dets, mus) -> list[int]:
    """lambda_j = d_j t . c*_j / c*_j . c*_j over the curves c_j, integers.

    c*_j is the Gram-Schmidt vector of c_j in the Euclidean product, d_j the
    Gram determinant of c_1..c_j and mus[j] the lambda of c_j over c_1..c_{j-1};
    each lambda is read from t . c_j by the exact divisions of Cohen's
    integral Gram-Schmidt (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7).
    """
    out: list[int] = []
    for c, row in zip(curves, mus):
        u, prev = _dot(t, c), 1
        for k, (dk, m) in enumerate(zip(dets, row)):
            u = (dk * u - out[k] * m) // prev
            prev = dk
        out.append(u)
    return out


@memoized
def _curve_gram_schmidt(
    d: TrisectionDiagram, lam: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The integral Gram-Schmidt data of the curves of system lam (0-based):
    the Gram determinants d_1..d_g and, per curve c_i, the lambda of c_i
    over c_1..c_{i-1} (``_gram_schmidt_coords`` over the curves before it),
    in file order. d_i is the same recurrence run on c_i . c_i with those
    lambdas on both sides.
    """
    curves = d.systems[lam].curves
    dets: list[int] = []
    mus: list[tuple[int, ...]] = []
    for c in curves:
        row = _gram_schmidt_coords(c, curves, dets, mus)
        u, prev = _dot(c, c), 1
        for dk, m in zip(dets, row):
            u = (dk * u - m * m) // prev
            prev = dk
        dets.append(u)
        mus.append(tuple(row))
    return tuple(dets), tuple(mus)


def _sign_normalized(vec: tuple[int, ...]) -> tuple[int, ...]:
    """vec or -vec, whichever has a positive first nonzero entry."""
    sign = next((1 if e > 0 else -1 for e in vec if e), 1)
    return _combination((vec,), (sign,), len(vec))


@memoized
def _h2_basis_coords(d: TrisectionDiagram) -> tuple[tuple[int, ...], ...]:
    """The 3g curve coordinates of ``h2_basis_cocycles``, in its order."""
    c = homology_complex(d)
    _, gens = c.homology_with_generators(2)
    return tuple(_sign_normalized(_curve_coordinates_of_cycle(d, v)) for v in gens)


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
    return tuple(OneOneCocycle(d, x) for x in _h2_basis_coords(d))


def intersection_pairing(d: TrisectionDiagram, x: OneOneCocycle, y: OneOneCocycle) -> int:
    """Cup-product pairing of two degree-two classes on the fundamental class.

    The surface intersection number <x.b1, y.b2>, read in curve coordinates
    as x_alpha^T Q_alpha_beta y_beta; the two cyclically rotated expressions
    give the same integer because Lagrangian components annihilate each
    other.
    """
    _check_diagram(d, x, y)
    return _dot(x.coords[: d.genus], _beta_pairings(d, y.coords))


def _beta_pairings(d: TrisectionDiagram, coords: tuple[int, ...]) -> list[int]:
    """Q_alpha_beta x_beta, x the curve coordinates of a cocycle: the pairings
    <c, b2> of its second block with the alpha curves c."""
    g = d.genus
    return [_dot(row, coords[g : 2 * g]) for row in d._intersection_matrices[0]]


class IntersectionForm(_Value):
    """The integral intersection form on H^2 modulo torsion."""

    _fields = ("gram", "signature", "parity", "unimodular")

    def __init__(
        self,
        gram: tuple[tuple[int, ...], ...],
        signature: tuple[int, int],
        parity: str,
        unimodular: bool,
    ):
        _Frozen.__init__(self, gram, signature, parity, unimodular)

    @property
    def rank(self) -> int:
        return len(self.gram)


def _signature_of_symmetric(
    gram: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, int], int]:
    """Exact (positive, negative) inertia and determinant of a symmetric integer matrix.

    Congruence diagonalization: clear with a nonzero diagonal pivot when one
    exists, otherwise make one by adding a row and column (which turns an
    off-diagonal entry 2m into a diagonal one). Every step is a congruence
    by a determinant-one matrix, so the determinant is the product of the
    rational pivots, or 0 when rows are left over. Clearing the pivot at
    index t leaves the Schur complement on the rows and columns still
    active; nothing outside that block is read again.

    The block is kept in integers by Bareiss's fraction-free update: with p
    the pivot and q the one before it (1 at first), M[r][s] becomes
    (p M[r][s] - M[r][t] M[t][s]) / q, an exact division. The block then
    holds p times the rational Schur complement, and adding a row and column
    commutes with that scaling, so the same pivots are found: the rational
    pivot is p / q, positive when p and q have the same sign, and the
    product of the rational pivots is the last p.
    """
    M = [list(row) for row in gram]
    pos = neg = 0
    prev = 1
    active = list(range(len(gram)))
    while active:
        t = next((i for i in active if M[i][i]), None)
        if t is None:
            off = next(
                ((i, j) for i in active for j in active if i != j and M[i][j]),
                None,
            )
            if off is None:
                return (pos, neg), 0
            i, j = off
            for k in active:
                M[i][k] += M[j][k]
            for k in active:
                M[k][i] += M[k][j]
            t = i
        p = M[t][t]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        active.remove(t)
        pivot_row = M[t]
        for r in active:
            row, f = M[r], M[r][t]
            for s in active:
                row[s] = (p * row[s] - f * pivot_row[s]) // prev
        prev = p
    return (pos, neg), prev


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
    coords = _h2_basis_coords(d)
    n = len(coords)
    paired = [_beta_pairings(d, y) for y in coords]
    gram = tuple(tuple(_dot(x[:g], qy) for qy in paired) for x in coords)
    signature, det = _signature_of_symmetric(gram)
    parity = "even" if all(gram[i][i] % 2 == 0 for i in range(n)) else "odd"
    return IntersectionForm(gram, signature, parity, abs(det) == 1)


@memoized
def triple_intersection(d: TrisectionDiagram) -> Subgroup:
    """L1 n L2 n L3: representatives of the free degree-one cohomology.

    A primitive Lagrangian is its own annihilator, so a vector C_alpha x of
    L_alpha lies in L_beta and L_gamma exactly when it pairs to zero with
    their curves: when x^T Q_alpha_beta = 0 and Q_gamma_alpha x = 0. The
    intersection is the span of C_alpha x over the kernel of those 2g
    conditions on the alpha curve coordinates.
    """
    ensure_valid(d)
    g = d.genus
    ab, _, ga = d._intersection_matrices
    kernel = _kernel([row + col for row, col in zip(ab, zip(*ga))], 2 * g)
    return _span(2 * g, [_combination(d.alpha.curves, x, 2 * g) for x in kernel.columns()])


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
    (row,) = _pairing_rows((h3,))
    return _dot(row, h1)


def h1_basis(d: TrisectionDiagram) -> tuple[tuple[int, ...], ...]:
    """Basis of the free degree-one cohomology (triple intersection columns)."""
    return triple_intersection(d).columns()


def h3_representatives(d: TrisectionDiagram) -> tuple[tuple[int, ...], ...]:
    """Ambient lifts of the basis of degree-three cohomology modulo torsion
    dual to ``h1_basis``: pairing_h3_h1(d, h3_i, h1_j) = delta_ij.

    The free part of Z^2g / (L1 + L2 + L3) pairs perfectly with its
    annihilator L1 n L2 n L3, which is saturated, so the unit-pivot
    elimination of the pairing rows of ``h1_basis`` pivots in each, and its
    transposed solve against -e_i gives h3_i.
    """
    h1 = h1_basis(d)
    n = len(h1)
    echelon = _UnitEchelon(zip(*_pairing_rows(h1)), n)
    return tuple(echelon.transpose_solve([-(i == j) for j in range(n)]) for i in range(n))


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
    _check_diagram(d, x, rep)
    return _dot(x.coords, [c for block in rep.coords for c in block])


def poincare_dual_rep(d: TrisectionDiagram, x: OneOneCocycle) -> H2DualRep:
    """The homology class realizing cup product with x: the rep of (x.b2, 0, 0).

    The triple is matched: a1 - a2 = b2 lies in L2, a2 - a3 = 0, and a3 - a1
    = b1 + b3 lies in L1 + L3; construction checks it. Its coordinates are
    the pairings of b2 with the alpha curves, Q_alpha_beta x_beta, and zero.
    On every cocycle y it evaluates to <y.b1, x.b2>, which is
    intersection_pairing(d, y, x). The zero class gives the zero rep.
    """
    _check_diagram(d, x)
    return _dual_of_coords(d, x.coords)


def _dual_of_coords(d: TrisectionDiagram, coords: tuple[int, ...]) -> H2DualRep:
    """The Poincare dual of the cocycle with these curve coordinates."""
    zero = (0,) * d.genus
    return H2DualRep(d, (_beta_pairings(d, coords), zero, zero))


def dual_rep_basis(d: TrisectionDiagram) -> tuple[H2DualRep, ...]:
    """Dual reps generating the free part of degree-two homology.

    The Poincare duals of the cocycle basis, in its order, read from its
    curve coordinates with no cocycle built: duality is an isomorphism, so
    they generate degree-two homology modulo torsion, and evaluating basis
    cocycle i on rep j gives the Gram entry G[i][j].
    """
    return tuple(_dual_of_coords(d, x) for x in _h2_basis_coords(d))


@memoized
def _gram_echelon(d: TrisectionDiagram) -> _UnitEchelon:
    """The unit-pivot elimination of the Gram matrix G, which solves G x = v."""
    form = intersection_form(d)
    if not form.unimodular:
        raise InvalidStateError("the intersection form of a valid diagram is unimodular")
    return _UnitEchelon(form.gram, form.rank)


def cocycle_from_dual_rep(d: TrisectionDiagram, rep: H2DualRep) -> OneOneCocycle:
    """Inverse of ``poincare_dual_rep`` on any rep, modulo torsion.

    Returns a cocycle c with intersection_pairing(d, b, c) equal to
    evaluate_on_surface_class(d, b, rep) for every basis cocycle b: the
    combination of the cocycle basis with coefficients G^-1 times those
    evaluations, solved along the Gram matrix's elimination and constructed
    once (the zero cocycle when b2 = 0). Each evaluation is b's curve
    coordinates dotted with the rep's curve pairings, so none needs a
    change of basis.
    """
    _check_diagram(d, rep)
    flat = [c for block in rep.coords for c in block]
    coords = _h2_basis_coords(d)
    solved = _gram_echelon(d).coordinates([_dot(x, flat) for x in coords])
    return OneOneCocycle(d, _combination(coords, solved, 3 * d.genus))
