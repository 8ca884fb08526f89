"""A pinned digest of every user-visible degree-two value on a fixed diagram set.

The set is the 8 builtins and 4 torsion sums, each as given and in 3
``helpers.scrambled`` copies, ``random_diagram`` g 0-10 x 4 seeds and
``ladder_diagram`` g 8/12/16/24: 96 diagrams. A change that moves any value
the digest covers is a contract change: it updates ``DIGEST`` and says why
in ``CHANGES.md``.
"""

import hashlib
import json

from trihodge.complexes import homology_groups
from trihodge.diagram import builtin, builtin_names, random_diagram
from trihodge.pairings import (
    dual_rep_basis,
    evaluate_on_surface_class,
    h2_basis_cocycles,
    intersection_form,
)
from trihodge.spin import spin_count
from trihodge.spinc import act, base_ledger, c1_difference

from helpers import ladder_diagram, scrambled

TORSION_SUMS = ("QS4_Z2#QS4_Z3", "S2xS2#QS4_Z3", "S1xS3#QS4_Z2", "CP2#QS4_Z3#S1xS3")

DIGEST = "367e52176b441cc36aafe345743e97df7af64535608c1976d087aa45df5662f3"


def fingerprint_diagrams():
    named = [builtin(name) for name in builtin_names() + TORSION_SUMS]
    out = [e for d in named for e in (d, *(scrambled(d, seed) for seed in (1, 2, 3)))]
    out += [random_diagram(g, seed) for g in range(11) for seed in range(4)]
    out += [ladder_diagram(g) for g in (8, 12, 16, 24)]
    return out


def record(d) -> list:
    """Every value the digest covers for one diagram, as JSON-ready lists."""
    form = intersection_form(d)
    basis = h2_basis_cocycles(d)
    reps = dual_rep_basis(d)
    base = base_ledger(d)
    return [
        [(h.rank, h.torsion) for h in homology_groups(d)],
        [form.gram, form.signature, form.parity, form.unimodular],
        [x.blocks for x in basis],
        [(rep.coords, rep.lifts) for rep in reps],
        [[evaluate_on_surface_class(d, x, rep) for rep in reps] for x in basis],
        [c1_difference(act(base, rep), base).blocks for rep in reps],
        spin_count(d),
    ]


def test_fingerprint_is_pinned():
    diagrams = fingerprint_diagrams()
    assert len(diagrams) == 96
    payload = json.dumps([record(d) for d in diagrams], separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == DIGEST
