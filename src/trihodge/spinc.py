"""Ledger bookkeeping for Spin^C structures.

A ledger records, per handlebody, the relative Euler class of a plane field
in handlebody coordinates: a class a in H1 of handlebody lam is recorded as
its pairings <c_i, a> with the curves c_i of cut system lam, in the order the
diagram lists them (the coordinates ``pairings.H2DualRep`` uses). Lutz twists
shift one entry by -2 times a curve class; the degree-two homology action
applies three matched twists at once, as one update of all three entries.
Admissibility is the cyclic matching check of ``pairings`` run on the Euler
coordinates directly, without building a homology rep from them. First Chern
classes are tracked as differences against an opaque base structure: the
base value itself is geometric input the diagram does not determine, so it
is either supplied by the user or left symbolic.

All c1 arithmetic happens modulo torsion (it goes through the intersection
form solve), which is recorded here as a limitation rather than hidden.
"""

from __future__ import annotations

from .diagram import TrisectionDiagram, _system_index, ensure_valid
from .lattice import _Frozen, _Value, as_int_vector
from .pairings import (
    H2DualRep,
    OneOneCocycle,
    _check_diagram,
    _matching_failure,
    cocycle_from_dual_rep,
)

EulerTriple = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class SpinCLedger(_Value):
    """Relative Euler classes of one Spin^C candidate, plus its ancestry."""

    _fields = ("diagram", "euler", "base_id", "base_c1")

    def __init__(
        self,
        diagram: TrisectionDiagram,
        euler: EulerTriple,
        base_id: str,
        base_c1: OneOneCocycle | None = None,
    ):
        g = diagram.genus
        euler = tuple(as_int_vector(e, g) for e in euler)
        if len(euler) != 3:
            raise ValueError("expected one Euler entry per handlebody")
        if type(base_id) is not str:
            raise ValueError(f"base id must be a string, got {base_id!r}")
        if base_c1 is not None:
            _check_diagram(diagram, base_c1)
        _Frozen.__init__(self, diagram, euler, base_id, base_c1)

    def _with_euler(self, euler: EulerTriple) -> "SpinCLedger":
        """The same ledger with other Euler entries."""
        return SpinCLedger(self.diagram, euler, self.base_id, self.base_c1)


def base_ledger(
    d: TrisectionDiagram, base_id: str = "base", base_c1: OneOneCocycle | None = None
) -> SpinCLedger:
    """Ledger of the reference structure: all relative Euler classes zero."""
    ensure_valid(d)
    zero = ((0,) * d.genus,) * 3
    return SpinCLedger(diagram=d, euler=zero, base_id=base_id, base_c1=base_c1)


def lutz_shift(ledger: SpinCLedger, lam: int, gamma_coords) -> SpinCLedger:
    """Twist along a curve class in handlebody lam: its Euler entry drops by 2*gamma.

    ``gamma_coords`` are the pairings <c_i, gamma> with the curves c_i of
    cut system lam, in file order. A lone shift may leave the admissible
    locus; matched triples (see ``act``) never do.
    """
    i = _system_index(lam)
    gamma = as_int_vector(gamma_coords, ledger.diagram.genus)
    euler = list(ledger.euler)
    euler[i] = tuple(e - 2 * c for e, c in zip(euler[i], gamma))
    return ledger._with_euler(tuple(euler))


def act(ledger: SpinCLedger, rep: H2DualRep) -> SpinCLedger:
    """Apply the degree-two homology action: one matched Lutz twist per handlebody.

    Every Euler entry drops by twice the matching rep coordinates, and the
    shifted ledger is built once.
    """
    _check_diagram(ledger.diagram, rep)
    euler = H2DualRep._combine(rep.diagram, (ledger.euler, rep.coords), (1, -2))
    return ledger._with_euler(euler)


def is_admissible(ledger: SpinCLedger) -> bool:
    """Whether the Euler entries satisfy the cyclic matching conditions.

    Consecutive entries must agree in the sector boundary quotients, the same
    conditions a degree-two homology rep satisfies, checked by the same
    function on the Euler coordinates; the base ledger is admissible and
    ``act`` preserves the property.
    """
    return _matching_failure(ledger.diagram, ledger.euler) is None


def _difference_rep(s1: SpinCLedger, s2: SpinCLedger) -> H2DualRep:
    """The rep 2A, for A the homology rep with act(s2, A) matching s1's Euler entries."""
    coords = H2DualRep._combine(s1.diagram, (s2.euler, s1.euler), (1, -1))
    if any(c % 2 for block in coords for c in block):
        raise ValueError("Euler entries do not differ by an even class")
    return H2DualRep(s1.diagram, coords)


def c1_difference(s1: SpinCLedger, s2: SpinCLedger) -> OneOneCocycle:
    """c1(s1) - c1(s2) as a cocycle, modulo torsion.

    Defined only for ledgers over the same diagram and base structure; the
    value is twice the class A by which the two differ, the dual of the
    rep 2A, built once. Raises CycleConditionError when the Euler difference
    is not a matched triple (then the two ledgers do not differ by a
    degree-two class at all).
    """
    _check_diagram(s1.diagram, s2)
    if s1.base_id != s2.base_id:
        raise ValueError("ledgers track different base structures; difference undefined")
    return cocycle_from_dual_rep(s1.diagram, _difference_rep(s1, s2))


def c1_offset(ledger: SpinCLedger) -> OneOneCocycle:
    """c1(ledger) - c1(base), from the Euler shifts; the base's entries are zero."""
    base = ledger._with_euler(((0,) * ledger.diagram.genus,) * 3)
    return c1_difference(ledger, base)


def c1_total(ledger: SpinCLedger) -> OneOneCocycle:
    """Absolute c1, available only when the base value was supplied."""
    if ledger.base_c1 is None:
        raise ValueError(
            "absolute c1 requires a user-supplied base value; "
            "only differences are computable from the diagram"
        )
    return ledger.base_c1 + c1_offset(ledger)
