"""Exact integer invariants of closed 4-manifolds given by trisection diagrams.

The public API is one table, ``_EXPORTS``, listing the names each module
exports:

- diagram construction and validation (:mod:`trihodge.diagram`),
- homology, cohomology, and the refined diamond (:mod:`trihodge.complexes`),
- cup-product pairings and the intersection form (:mod:`trihodge.pairings`),
- spin structure enumeration (:mod:`trihodge.spin`),
- the spin-c ledger and its affine action (:mod:`trihodge.spinc`).

``__all__`` is read off the table. Importing the package loads none of these
modules: a name is imported from its module on first access (PEP 562) and
then bound here, so ``from trihodge import homology_groups`` loads only the
modules that function needs, and a CLI subcommand only the ones it reads.

Lower-level integer linear algebra lives in :mod:`trihodge.lattice` and is
imported directly by callers that need it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "complexes": (
        "FreeChainComplex",
        "HodgeDiamond",
        "HomologyGroup",
        "InvalidStateError",
        "betti_numbers",
        "cohomology_groups",
        "dual_complex",
        "dual_middle_homology",
        "hodge_diamond",
        "homology_complex",
        "homology_groups",
        "serre_duality_holds",
    ),
    "diagram": (
        "CutSystem",
        "CycleConditionError",
        "InvalidDiagramError",
        "TrisectionDiagram",
        "ValidationReport",
        "builtin",
        "builtin_names",
        "connected_sum",
        "diagram_from_curves",
        "ensure_valid",
        "euler_characteristic",
        "handleslide",
        "handleslide_diagram",
        "k_values",
        "random_diagram",
        "standard_triple",
        "validate",
    ),
    "pairings": (
        "H2DualRep",
        "IntersectionForm",
        "OneOneCocycle",
        "cocycle_from_dual_rep",
        "evaluate_on_surface_class",
        "h2_basis_cocycles",
        "intersection_form",
        "intersection_pairing",
        "pairing_h3_h1",
        "poincare_dual_rep",
        "triple_intersection",
    ),
    "spin": ("QuadraticEnhancement", "enumerate_spin", "spin_count"),
    "spinc": (
        "SpinCLedger",
        "act",
        "base_ledger",
        "c1_difference",
        "c1_offset",
        "c1_total",
        "is_admissible",
        "lutz_shift",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
