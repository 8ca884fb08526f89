"""Shared pytest hooks: derandomized fuzzing, acceptance-gate verdict lines,
and the ``eliminations`` fixture, the one recorder of the integer
eliminations the package runs: Smith forms, unit-pivot and downward
echelons, and the cokernels and canonical spans built from them."""

import importlib
import inspect
import pkgutil
import sys
import warnings
from contextlib import suppress
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# When a property test fails, hypothesis's report imports this module, which
# imports libcst and, through it, mypy_extensions, whose DeprecationWarning
# the "error" warning filter turns into an INTERNALERROR: the falsifying
# example is lost and the run stops. Imported once here, with that warning
# ignored, it is cached before any test runs.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")


def pytest_terminal_summary(terminalreporter):
    gate = sys.modules.get("test_acceptance")
    if gate is None or not getattr(gate, "VERDICTS", None):
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance gate")
    for number in sorted(gate.VERDICTS):
        terminalreporter.write_line(gate.VERDICTS[number])


# each kind of elimination recorded: the lattice name it is bound to, and the
# argument holding the rows it is handed
RECORDED = {
    "smith": ("_Smith", "rows"),
    "unit": ("_UnitEchelon", "rows"),
    "echelon": ("_forward_echelon", "work"),
    "cokernel": ("_cokernel", "rows"),
    "span": ("_span", "vectors"),
}


class Elimination(NamedTuple):
    """One recorded call: its kind, the name of the module whose binding was
    called, the rows handed in (as tuples, read before the call, which may
    eliminate them in place), the matrix it eliminates and its result.

    A Smith form eliminates the columns of its nrows x ncols block, the rows
    less the identity blocks appended for its transforms; a downward echelon
    the leading ``stop`` entries of each row, for a kernel the columns of
    the matrix; every other kind the rows handed in."""

    kind: str
    module: str
    rows: tuple
    matrix: tuple
    result: object


class Eliminations(list):
    def of(self, *kinds, module=None) -> list:
        """The records of the given kinds, in order; only those called
        through ``module``'s bindings when a module is named."""
        name = module and module.__name__
        return [e for e in self if e.kind in kinds and name in (None, e.module)]


@pytest.fixture
def eliminations(monkeypatch):
    """Every elimination the package runs since the fixture started, as
    ``Elimination`` records in the order the calls return (so a Smith form
    comes before the cokernel that builds it, an echelon before its span).

    Every ``trihodge`` module is imported first, so none binds a wrapper
    that outlives the test. Then every binding of a ``RECORDED`` name in a
    ``trihodge`` module, found by identity with the original whatever its
    name, is wrapped for the test.
    """
    # imported here, so the hooks above load without the package
    import trihodge
    from trihodge import lattice

    for info in pkgutil.iter_modules(trihodge.__path__, "trihodge."):
        importlib.import_module(info.name)
    records = Eliminations()

    def record(kind, original, signature, module, *args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        at = bound.arguments
        handed = at[RECORDED[kind][1]]
        rows = tuple(map(tuple, handed))
        if iter(handed) is handed:  # an iterator, which the copy has spent
            at[RECORDED[kind][1]] = rows
        result = original(*bound.args, **bound.kwargs)
        matrix = rows
        if kind == "smith":
            matrix = tuple(zip(*(row[: at["ncols"]] for row in rows[: at["nrows"]])))
        elif kind == "echelon":
            matrix = tuple(row[: at["stop"]] for row in rows)
        records.append(Elimination(kind, module, rows, matrix, result))
        return result

    originals = {kind: getattr(lattice, name) for kind, (name, _) in RECORDED.items()}
    for module in [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "trihodge"]:
        for binding, value in list(vars(module).items()):
            for kind, original in originals.items():
                if value is original:
                    signature = inspect.signature(value)
                    wrapped = partial(record, kind, value, signature, module.__name__)
                    monkeypatch.setattr(module, binding, wrapped)
    return records
