"""Trisection diagrams as triples of cut systems on a surface lattice.

The surface lattice is H1 of the genus-g surface, Z^2g in the basis a1, b1,
a2, b2, ..., a_g, b_g, with the algebraic intersection form given blockwise
by [[0, 1], [-1, 0]] for each (a_i, b_i) pair. Every cut system and every
chain complex in the package lives in it, and every surface pairing is read
as a dot with a pairing row (``_pairing_rows``).

A genus-g diagram is three systems of g curves each, every system spanning a
Lagrangian of the surface lattice. Validity is a property of the *homology*
data: each system must be isotropic and primitive, and each cyclic pair of
Lagrangians must sum to a saturated subgroup (torsion-free quotient). All
downstream invariants require a valid diagram.

The system checks read only the curves: isotropy from the pairwise
intersection numbers, and primitivity from one recorded elimination of
the curves per system (``_curve_echelons``), which finds a pivot of +-1
in every curve exactly when the system spans a primitive subgroup of
rank g. That elimination builds no Smith form, and on a valid diagram it
also gives the curve coordinates of Lagrangian vectors and the lifts of
curve pairings.

Each cyclic pair of systems is a Heegaard diagram of a connected sum of
copies of S1 x S2, whose H1 is the cokernel of the g x g intersection
matrix of the two systems' curves. Validation reads each pair check off
that matrix. When it cannot, because the next system is no primitive
Lagrangian, it reads the invariant factors of the 2g curves of the pair,
which span the pair sum. Validation builds no canonical Lagrangian; only
``lagrangian_subgroup`` and ``pair_sum`` do, one on each call, for
callers that read them.
"""

from __future__ import annotations

from functools import cached_property, wraps
from collections.abc import Iterable, Sequence
from operator import mul, neg

from .lattice import (
    Subgroup,
    _check_count,
    _Frozen,
    _invariant_factors,
    _span,
    _UnitEchelon,
    _Value,
    as_int_vector,
)

SYSTEM_NAMES = ("alpha", "beta", "gamma")


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


class InvalidDiagramError(ValueError):
    """Raised when an operation requires a valid diagram and gets an invalid one."""


class CycleConditionError(ValueError):
    """A handlebody-class triple fails one of the cyclic matching conditions."""


class CutSystem(_Value):
    """g curves on a genus-g surface, each recorded as a homology class."""

    _fields = ("curves",)

    def __init__(self, curves: Sequence[Sequence[int]], name: str | None = None):
        """``name`` (alpha, beta or gamma) only labels the system in error messages."""
        normalized = tuple(as_int_vector(c) for c in curves)
        if normalized:
            system = f"{name or f'genus-{len(normalized)}'} system"
            width = len(normalized[0])
            if any(len(c) != width for c in normalized):
                raise ValueError(f"{system} has curves of mixed lengths")
            if width != 2 * len(normalized):
                raise ValueError(
                    f"{system} needs curves of length {2 * len(normalized)}, got {width}"
                )
        _Frozen.__init__(self, normalized)

    @property
    def genus(self) -> int:
        return len(self.curves)

    def subgroup(self) -> Subgroup:
        return _span(2 * self.genus, self.curves)


def _check_curve_counts(genus: int, counts: Iterable[int]) -> None:
    """Raise unless genus is a nonnegative int and each system has genus curves."""
    _check_count(genus, "genus")
    for name, count in zip(SYSTEM_NAMES, counts):
        if count != genus:
            raise ValueError(f"{name} system has {count} curves, expected {genus}")


class TrisectionDiagram(_Value):
    """Three cut systems of genus g; ``label`` names the diagram and takes no
    part in equality."""

    _fields = ("genus", "alpha", "beta", "gamma")

    def __init__(
        self,
        genus: int,
        alpha: CutSystem,
        beta: CutSystem,
        gamma: CutSystem,
        label: str | None = None,
    ):
        _check_curve_counts(genus, (alpha.genus, beta.genus, gamma.genus))
        if label is not None and type(label) is not str:
            raise ValueError(f"diagram label must be a string or None, got {label!r}")
        _Frozen.__init__(self, genus, alpha, beta, gamma)
        self.__dict__["label"] = label

    @property
    def systems(self) -> tuple[CutSystem, CutSystem, CutSystem]:
        return (self.alpha, self.beta, self.gamma)

    def lagrangian_subgroup(self, lam: int) -> Subgroup:
        """Canonical subgroup spanned by cut system lam (1=alpha, 2=beta, 3=gamma)."""
        return self.systems[_system_index(lam)].subgroup()

    def pair_sum(self, lam: int) -> Subgroup:
        """Canonical subgroup L_lam + L_{lam+1}, spanned by both systems' curves."""
        i = _system_index(lam)
        curves = self.systems[i].curves + self.systems[(i + 1) % 3].curves
        return _span(2 * self.genus, curves)

    @cached_property
    def _curve_pairings(self) -> tuple[list[list[int]], ...]:
        """Rows of the pairing maps x -> (<c, x>) over each system's curves c, in file order."""
        return tuple(_pairing_rows(cs.curves) for cs in self.systems)

    @cached_property
    def _curve_echelons(self) -> tuple[_UnitEchelon, _UnitEchelon, _UnitEchelon]:
        """One recorded elimination of each system's curves, in system order.

        Validation reads primitivity from it, and on a valid diagram it
        gives the curve coordinates of Lagrangian vectors and the ambient
        lifts of curve pairings.
        """
        return tuple(_UnitEchelon(zip(*cs.curves), self.genus) for cs in self.systems)

    @cached_property
    def _intersection_matrices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Q_lam = (<c_i, c'_j>), c the curves of system lam and c' those of the next.

        The g x g matrices Q_alpha_beta, Q_beta_gamma and Q_gamma_alpha, lam
        cyclic. Validation reads their invariant factors and the homology
        complex their kernels; Q_mu_lam is -Q_lam_mu^T.
        """
        nxt = self.systems[1:] + self.systems[:1]
        return tuple(
            tuple(tuple(sum(map(mul, r, c)) for c in cs.curves) for r in rows)
            for rows, cs in zip(self._curve_pairings, nxt)
        )

    @cached_property
    def validation(self) -> "ValidationReport":
        return validate(self)

    def describe(self) -> str:
        return self.label if self.label is not None else f"genus-{self.genus} diagram"


class ValidationReport(_Value):
    """Outcome of every validity check, plus k-values when all of them pass."""

    _fields = ("checks", "k_values")

    def __init__(
        self, checks: tuple[tuple[str, bool], ...], k_values: tuple[int, int, int] | None
    ):
        _Frozen.__init__(self, checks, k_values)

    @cached_property
    def is_valid(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks if not ok)


def memoized(fn):
    """Store ``fn(obj, *args)`` in the object's own ``__dict__``, as cached_property does.

    The object is a diagram, or a complex built for one. Each result is
    computed once per object and positional arguments and lives as long as
    the object. A result never refers to the object it is stored on, so
    the object and its results are freed when its last reference goes,
    without the cycle collector; a value that holds its diagram, such as a
    cocycle, is built on each call from memoized plain data.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(obj, *args):
        key = f"{name}{args}" if args else name
        if key not in obj.__dict__:
            obj.__dict__[key] = fn(obj, *args)
        return obj.__dict__[key]

    return cached


def _system_index(lam: int) -> int:
    if type(lam) is not int or lam not in (1, 2, 3):
        raise ValueError(f"system index must be 1, 2 or 3, got {lam}")
    return lam - 1


def validate(d: TrisectionDiagram) -> ValidationReport:
    """Run every validity check; never raises, failures land in the report."""
    checks: list[tuple[str, bool]] = []
    lagrangian: list[bool] = []
    # the form vanishes on a span when it vanishes on the generators, each
    # <c_i, c_j> read as pairing row i dotted with c_j, and the span is
    # primitive of rank g when the elimination of the curves pivots on +-1
    # in every curve
    systems = zip(SYSTEM_NAMES, d.systems, d._curve_pairings, d._curve_echelons)
    for name, cs, rows, echelon in systems:
        curves = cs.curves
        isotropic = not any(
            sum(map(mul, r, c)) for i, r in enumerate(rows) for c in curves[i + 1 :]
        )
        primitive = echelon.primitive
        checks += [(f"{name} isotropic", isotropic), (f"{name} primitive", primitive)]
        lagrangian.append(isotropic and primitive)
    g, k = d.genus, []
    for lam, name in enumerate(("alpha+beta", "beta+gamma", "gamma+alpha")):
        nxt = (lam + 1) % 3
        # when system nxt spans a primitive Lagrangian L', v -> (<c'_j, v>)
        # maps Z^2g onto Z^g with kernel L', which identifies Z^2g / (L + L')
        # with the cokernel of Q_lam; otherwise read the span of both
        # systems' curves, which is L + L'
        if lagrangian[nxt]:
            free_rank, torsion = _span_quotient(d._intersection_matrices[lam], g)
        else:
            curves = d.systems[lam].curves + d.systems[nxt].curves
            free_rank, torsion = _span_quotient(curves, 2 * g)
        checks.append((f"{name} torsion-free", not torsion))
        k.append(free_rank)
    report_checks = tuple(checks)
    # rank(L + L') + rank(L n L') = 2g, so each k is the free rank of
    # Z^2g / (L + L'), the corank of an intersection matrix on a valid diagram
    valid = all(ok for _, ok in report_checks)
    return ValidationReport(checks=report_checks, k_values=tuple(k) if valid else None)


def _span_quotient(rows: Sequence[Sequence[int]], width: int) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion of Z^width modulo the span of trusted rows,
    read off their invariant factors."""
    factors = _invariant_factors(rows, width)
    return width - len(factors), tuple(f for f in factors if f >= 2)


def ensure_valid(d: TrisectionDiagram) -> None:
    report = d.validation
    if not report.is_valid:
        raise InvalidDiagramError(
            "invalid diagram, failing checks: " + ", ".join(report.failures)
        )


def k_values(d: TrisectionDiagram) -> tuple[int, int, int]:
    """Ranks of the three cyclic pair intersections; determines chi."""
    ensure_valid(d)
    return d.validation.k_values


def euler_characteristic(d: TrisectionDiagram) -> int:
    k1, k2, k3 = k_values(d)
    return 2 + d.genus - (k1 + k2 + k3)


def diagram_from_curves(
    genus: int,
    alpha: Sequence[Sequence[int]],
    beta: Sequence[Sequence[int]],
    gamma: Sequence[Sequence[int]],
    label: str | None = None,
) -> TrisectionDiagram:
    # Counts first, so a short system is named before its curve widths are read.
    _check_curve_counts(genus, (len(alpha), len(beta), len(gamma)))
    systems = (CutSystem(cs, name) for name, cs in zip(SYSTEM_NAMES, (alpha, beta, gamma)))
    return TrisectionDiagram(genus, *systems, label)


_BASE_BUILTINS: dict[str, tuple[int, list, list, list]] = {
    "S4": (0, [], [], []),
    "CP2": (1, [(1, 0)], [(0, 1)], [(1, 1)]),
    "CP2bar": (1, [(1, 0)], [(0, 1)], [(1, -1)]),
    "S1xS3": (1, [(0, 1)], [(0, 1)], [(0, 1)]),
    "S2xS2_candidate": (
        2,
        [(1, 0, 0, 0), (0, 0, 1, 0)],
        [(0, 1, 0, 0), (0, 0, 0, 1)],
        [(1, 1, 0, 0), (0, 0, 1, 1)],
    ),
    "S2xS2": (
        2,
        [(1, 0, 0, 0), (0, 0, 1, 0)],
        [(0, 1, 0, 0), (0, 0, 0, 1)],
        [(1, 0, 0, 1), (0, 1, 1, 0)],
    ),
    # Rational homology 4-spheres with torsion first homology, found by a
    # randomized search over genus-3 Lagrangian triples (the smallest genus
    # where validity and torsion can coexist). They exercise every torsion
    # code path: chi = 2, b_1 = b_2 = 0, H_1 = H_2 = the named cyclic group.
    "QS4_Z2": (
        3,
        [(0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)],
        [(-1, 1, 1, 0, 0, 0), (1, 0, -1, 1, 0, 0), (0, 0, 0, 0, 0, 1)],
        [(1, 2, 1, 1, 1, 1), (0, -1, 0, 1, 0, 0), (0, 0, 0, -1, 0, 1)],
    ),
    "QS4_Z3": (
        3,
        [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)],
        [(0, 1, 0, 0, 0, 0), (0, 0, -1, 0, 0, -1), (0, 0, -1, -1, -1, 1)],
        [(0, 1, 0, 0, 0, -1), (-1, -1, 0, 2, -1, -1), (-1, -1, -1, 2, -1, 1)],
    ),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BASE_BUILTINS))


def _builtin_parts(name: str) -> list[tuple[str, tuple[int, list, list, list]]]:
    """Catalog entries of the '#'-separated parts of a name; KeyError on an unknown part."""
    parts = []
    for part in name.split("#"):
        if part not in _BASE_BUILTINS:
            raise KeyError(
                f"unknown builtin diagram {part!r}; available: {', '.join(builtin_names())}"
            )
        parts.append((part, _BASE_BUILTINS[part]))
    return parts


def builtin_genus(name: str) -> int:
    """Genus of ``builtin(name)``, read from the catalog without building a diagram."""
    return sum(entry[0] for _, entry in _builtin_parts(name))


def builtin(name: str) -> TrisectionDiagram:
    """Catalog diagram by name; 'A#B' builds the connected sum of catalog entries."""
    diagrams = [
        diagram_from_curves(*entry, label=part) for part, entry in _builtin_parts(name)
    ]
    result = diagrams[0]
    for other in diagrams[1:]:
        result = connected_sum(result, other)
    return result


def connected_sum(d1: TrisectionDiagram, d2: TrisectionDiagram) -> TrisectionDiagram:
    """Block sum of two diagrams; genus and k-values add, chi adds minus 2."""
    g1, g2 = d1.genus, d2.genus
    genus = g1 + g2

    def paste(cs1: CutSystem, cs2: CutSystem):
        left = [tuple(c) + (0,) * (2 * g2) for c in cs1.curves]
        right = [(0,) * (2 * g1) + tuple(c) for c in cs2.curves]
        return left + right

    label = None
    if d1.label is not None and d2.label is not None:
        label = f"{d1.label}#{d2.label}"
    systems = (paste(cs1, cs2) for cs1, cs2 in zip(d1.systems, d2.systems))
    return diagram_from_curves(genus, *systems, label=label)


def handleslide(cs: CutSystem, i: int, j: int, sign: int = 1) -> CutSystem:
    """Replace curve i by curve i + sign * curve j; preserves the spanned subgroup."""
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"handleslide sign must be +1 or -1, got {sign!r}")
    if type(i) is not int or type(j) is not int:
        raise ValueError("curve indices must be integers")
    if i == j:
        raise ValueError("handleslide needs two distinct curves")
    if not (0 <= i < cs.genus and 0 <= j < cs.genus):
        raise ValueError("curve index out of range")
    curves = list(cs.curves)
    curves[i] = tuple(x + sign * y for x, y in zip(curves[i], curves[j]))
    return CutSystem(curves)


def handleslide_diagram(
    d: TrisectionDiagram, system: str, i: int, j: int, sign: int = 1
) -> TrisectionDiagram:
    """New diagram with one handleslide applied to the named cut system."""
    if system not in SYSTEM_NAMES:
        raise ValueError(f"unknown cut system {system!r}; expected one of {SYSTEM_NAMES}")
    systems = (
        handleslide(cs, i, j, sign) if name == system else cs
        for name, cs in zip(SYSTEM_NAMES, d.systems)
    )
    return TrisectionDiagram(d.genus, *systems, d.label)


def standard_triple(genus: int) -> TrisectionDiagram:
    """alpha = {a_i}, beta = {b_i}, gamma = {a_i + b_i}."""
    _check_count(genus, "genus")
    alpha, beta, gamma = [], [], []
    for i in range(genus):
        a = [0] * (2 * genus)
        b = [0] * (2 * genus)
        a[2 * i] = 1
        b[2 * i + 1] = 1
        alpha.append(tuple(a))
        beta.append(tuple(b))
        gamma.append(tuple(x + y for x, y in zip(a, b)))
    return diagram_from_curves(genus, alpha, beta, gamma, label=f"standard(g={genus})")


def random_diagram(genus: int, seed: int) -> TrisectionDiagram:
    """Deterministic pseudo-random valid diagram; the seed must be an int.

    Applies a seed-determined word of integral symplectic transvections to the
    standard triple. Transvections preserve the form, so isotropy, primitivity
    and pair saturation survive and the result is always valid.
    ``random.Random`` seeds from |seed|, so seeds -5 and 5 give equal diagrams.
    """
    import random  # not at module level: every CLI call loads this module

    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")

    base = standard_triple(genus)
    if genus == 0:
        return diagram_from_curves(0, [], [], [], label=f"random(g=0, seed={seed})")
    rng = random.Random(seed)
    rank = 2 * genus

    systems = [list(cs.curves) for cs in base.systems]
    moves = rng.randint(genus + 1, 3 * genus + 4)
    for _ in range(moves):
        support = rng.sample(range(rank), rng.randint(1, min(2, rank)))
        signs = [rng.choice((-1, 1)) for _ in support]
        # the transvection x -> x + <x, v> v, applied curve by curve; v is
        # nonzero only on its support, so <x, v> reads x only at the partner
        # of each support index (a_t <-> b_t, +v_s at s = b_t and -v_s at
        # s = a_t), and the move changes x only on that support
        partners = [(s ^ 1, e if s & 1 else -e) for s, e in zip(support, signs)]
        for curves in systems:
            for c_idx, curve in enumerate(curves):
                t = sum(curve[p] * w for p, w in partners)
                if t:
                    moved = list(curve)
                    for s, e in zip(support, signs):
                        moved[s] += t * e
                    curves[c_idx] = tuple(moved)

    return diagram_from_curves(genus, *systems, label=f"random(g={genus}, seed={seed})")
