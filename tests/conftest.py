"""Shared pytest hooks: derandomized fuzzing, acceptance-gate verdict lines,
and the ``canonical_spans`` and ``smith_forms`` fixtures."""

import importlib
import sys
import warnings
from contextlib import suppress

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


@pytest.fixture
def canonical_spans(monkeypatch):
    """The vectors of every canonical span the diagram module builds since the
    fixture started: those of ``lagrangian_subgroup`` and ``pair_sum``, which
    only their callers read and no query path builds."""
    # imported here, so the hooks above load without the package
    from trihodge import diagram

    spans = []
    span = diagram._span

    def recorded(ambient_rank, vectors):
        spans.append(tuple(vectors))
        return span(ambient_rank, vectors)

    monkeypatch.setattr(diagram, "_span", recorded)
    return spans


@pytest.fixture
def smith_forms(monkeypatch):
    """Every Smith normal form computed since the fixture started, in order."""
    from trihodge import lattice

    forms = []

    class Recorded(lattice._Smith):
        def __init__(self, *args):
            super().__init__(*args)
            forms.append(self)

    monkeypatch.setattr(lattice, "_Smith", Recorded)
    return forms
