"""Acceptance gate: ten exact criteria, one verdict line each.

Every check is exact integer arithmetic; there are no tolerances to tune.
The random suite is deterministic (fixed genus/seed grid), so a failure here
reproduces byte-for-byte. Each criterion records a single PASS/FAIL verdict
line; the conftest terminal-summary hook prints them at the end of the run.
"""

import functools
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from trihodge.cli import EXIT_INVALID, EXIT_OK, EXIT_PARSE, main
from trihodge.complexes import (
    HomologyGroup,
    betti_numbers,
    dual_complex,
    dual_middle_homology,
    hodge_diamond,
    homology_complex,
    homology_groups,
    serre_duality_holds,
)
from trihodge.diagram import (
    SYSTEM_NAMES,
    builtin,
    builtin_names,
    euler_characteristic,
    handleslide_diagram,
    k_values,
    random_diagram,
)
from trihodge.lattice import _identity_rows
from trihodge.pairings import (
    CycleConditionError,
    H2DualRep,
    cocycle_from_dual_rep,
    h1_basis,
    h3_representatives,
    intersection_form,
    intersection_pairing,
    pairing_h3_h1,
)
from trihodge.spin import spin_count
from trihodge.spinc import (
    act,
    base_ledger,
    c1_difference,
    c1_offset,
    is_admissible,
    lutz_shift,
)

from helpers import (
    cech_complex,
    det,
    h3_h1_gram,
    h3_representatives_by_complex,
    ladder_diagram,
    plain_form,
    random_coboundary,
    random_cocycle,
    random_cycle_rep,
    triple_quotient,
)

GOLDEN = Path(__file__).parent / "golden"

Z = HomologyGroup(1)
ZERO = HomologyGroup(0)

BUILTIN_SUITE = tuple(builtin(name) for name in builtin_names()) + (
    builtin("CP2#CP2bar"),
    builtin("S1xS3#S1xS3"),
)
RANDOM_SUITE = tuple(random_diagram(g, s) for g in range(5) for s in range(21))
SUITE = BUILTIN_SUITE + RANDOM_SUITE

VERDICTS: dict[int, str] = {}


def criterion(number: int, label: str):
    """Record one 'criterion NN PASS/FAIL label' verdict around the wrapped test."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                VERDICTS[number] = f"criterion {number:2d} FAIL  {label}"
                raise
            VERDICTS[number] = f"criterion {number:2d} PASS  {label}"
            return result

        return run

    return wrap


@criterion(1, "builtin homology table")
def test_criterion_01_builtin_homology():
    expected = {
        "S4": (Z, ZERO, ZERO, ZERO, Z),
        "CP2": (Z, ZERO, Z, ZERO, Z),
        "CP2bar": (Z, ZERO, Z, ZERO, Z),
        "S1xS3": (Z, Z, ZERO, Z, Z),
        "CP2#CP2bar": (Z, ZERO, HomologyGroup(2), ZERO, Z),
    }
    for name, groups in expected.items():
        assert homology_groups(builtin(name)) == groups, name


@criterion(2, "diamond against its Cech oracle, outer columns and antidiagonal assembly")
def test_criterion_02_diamond_structure():
    assert len(RANDOM_SUITE) >= 100
    sums = tuple(builtin(n) for n in ("QS4_Z2#QS4_Z3", "S1xS3#QS4_Z2", "CP2#QS4_Z3"))
    slid = tuple(
        handleslide_diagram(d, system, 0, d.genus - 1)
        for d in BUILTIN_SUITE + sums
        if d.genus > 1
        for system in SYSTEM_NAMES
    )
    for d in SUITE + sums + slid:
        dm = hodge_diamond(d)
        oracle = tuple(tuple(cech_complex(d, j).homology_at(i) for j in range(3)) for i in range(3))
        assert dm.grid == oracle, d.describe()
        assert tuple(row[0] for row in dm.grid) == (Z, ZERO, ZERO), d.label
        assert tuple(row[2] for row in dm.grid) == (ZERO, ZERO, Z), d.label
        hom = homology_groups(d)
        for k in range(5):
            expected = HomologyGroup(hom[k].rank, hom[k - 1].torsion if k else ())
            assert dm.cohomology(k) == expected, (d.label, k)


@criterion(3, "rank symmetry of the diamond")
def test_criterion_03_rank_symmetry():
    for d in SUITE:
        assert serre_duality_holds(hodge_diamond(d)), d.label


@criterion(4, "H2 agrees with its dual complex and the independent duality laws")
def test_criterion_04_three_way_h2():
    saw_torsion = False
    for d in SUITE + tuple(ladder_diagram(g) for g in range(8, 25)):
        fm, dual = homology_complex(d).homology_at(2), dual_middle_homology(d)
        # the closed form against the dual complex it reads without building
        assert dual == dual_complex(d).homology_at(1), d.label
        # the torsion compared is that of d_1 (H2) against that of d_2 (H1)
        assert fm == dual, d.label
        assert fm == cech_complex(d, 1).homology_at(1), d.label
        # third route, free of the complex's middle: tors H2 = tors H1 and
        # rank H2 = chi - 2 + 2 b1, with H1 the lattice mod L1 + L2 + L3
        h1 = triple_quotient(d)
        assert fm.torsion == h1.torsion, d.label
        assert fm.rank == euler_characteristic(d) - 2 + 2 * h1.free_rank, d.label
        saw_torsion = saw_torsion or bool(fm.torsion)
    assert saw_torsion  # the suite must exercise the torsion comparison


@criterion(5, "intersection form values and cup-product laws")
def test_criterion_05_intersection_form():
    assert intersection_form(builtin("CP2")).gram == ((1,),)
    assert intersection_form(builtin("CP2#CP2bar")).gram == ((1, 0), (0, -1))
    for d in SUITE:
        assert intersection_form(d).unimodular, d.label
    rng = random.Random(20260814)
    pairs = 0
    for d in SUITE:
        if d.genus == 0:
            continue
        for _ in range(12):
            x = random_cocycle(d, rng)
            y = random_cocycle(d, rng)
            value = intersection_pairing(d, x, y)
            assert value == plain_form(x.b1, y.b2)
            assert value == plain_form(x.b2, y.b3)
            assert value == plain_form(x.b3, y.b1)
            assert value == intersection_pairing(d, y, x)
            db = random_coboundary(d, rng)
            assert intersection_pairing(d, x + db, y) == value
            assert intersection_pairing(d, x, y + db) == value
            pairs += 1
    assert pairs >= 1000


@criterion(6, "degree-three against degree-one pairing")
def test_criterion_06_h3_h1_pairing():
    d = builtin("S1xS3")
    gram = h3_h1_gram(d, h3_representatives_by_complex(d))
    assert gram.shape == (1, 1) and abs(int(gram[0, 0])) == 1
    assert h3_h1_gram(d, h3_representatives(d)).tolist() == [[1]]
    h3 = h3_representatives(d)[0]
    h1 = h1_basis(d)[0]
    value = pairing_h3_h1(d, h3, h1)
    for lam in (1, 2, 3):
        for vec in d.lagrangian_subgroup(lam).columns():
            shifted = tuple(a + b for a, b in zip(h3, vec))
            assert pairing_h3_h1(d, shifted, h1) == value
    for d in SUITE:
        if betti_numbers(d)[1] == 0:
            continue
        m = h3_h1_gram(d, h3_representatives_by_complex(d))
        assert m.shape[0] == m.shape[1], d.label
        assert abs(det(m)) == 1, d.label
        # the package's representatives are the dual basis
        assert h3_h1_gram(d, h3_representatives(d)).tolist() == _identity_rows(m.shape[0])


@criterion(7, "spin enumeration counts and laws")
def test_criterion_07_spin():
    counts = {"S4": 1, "CP2": 0, "CP2bar": 0, "S1xS3": 2, "CP2#CP2bar": 0}
    for name, count in counts.items():
        assert spin_count(builtin(name)) == count, name
    for d in SUITE:
        count = spin_count(d)
        h1 = homology_groups(d)[1]
        even_factors = sum(1 for t in h1.torsion if t % 2 == 0)
        assert count in (0, 2 ** (h1.rank + even_factors)), d.label
        if count:
            assert intersection_form(d).parity == "even", d.label
    sliders = [builtin("S2xS2"), builtin("CP2#CP2bar"), builtin("QS4_Z3")]
    sliders += [random_diagram(2, s) for s in range(3)]
    for d in sliders:
        count = spin_count(d)
        for system in SYSTEM_NAMES:
            for sign in (1, -1):
                assert spin_count(handleslide_diagram(d, system, 0, 1, sign)) == count


@criterion(8, "spin-c ledger laws")
def test_criterion_08_spinc():
    rng = random.Random(515)
    ledgers = [builtin(n) for n in ("CP2", "S2xS2", "CP2#CP2bar", "S1xS3")]
    ledgers += [random_diagram(g, s) for g in (1, 2, 3) for s in range(6)]
    for d in ledgers:
        s = base_ledger(d)
        A = random_cycle_rep(d, rng)
        B = random_cycle_rep(d, rng)
        assert act(s, A + B) == act(act(s, A), B), d.label
        assert c1_difference(act(s, A), s) == cocycle_from_dual_rep(d, A).scale(2)
        assert is_admissible(act(act(s, A), B)), d.label
    with pytest.raises(CycleConditionError):
        H2DualRep.from_lifts(builtin("S1xS3"), ((1, 0), (0, 0), (0, 0)))
    broken = lutz_shift(base_ledger(builtin("S1xS3")), 1, (1,))
    assert not is_admissible(broken)
    with pytest.raises(CycleConditionError):
        c1_offset(broken)


@criterion(9, "Euler characteristic cross-check")
def test_criterion_09_euler_characteristic():
    for d in SUITE:
        chi = euler_characteristic(d)
        assert chi == 2 + d.genus - sum(k_values(d)), d.label
        b = betti_numbers(d)
        assert chi == b[0] - b[1] + b[2] - b[3] + b[4], d.label


CLI_GOLDEN_CASES = [
    ("validate_cp2.txt", ["validate", "--builtin", "CP2"]),
    ("validate_s4.txt", ["validate", "--builtin", "S4"]),
    ("homology_s4.txt", ["homology", "--builtin", "S4"]),
    ("homology_cp2.txt", ["homology", "--builtin", "CP2"]),
    ("homology_cp2bar.txt", ["homology", "--builtin", "CP2bar"]),
    ("homology_s1xs3.txt", ["homology", "--builtin", "S1xS3"]),
    ("homology_s2xs2.txt", ["homology", "--builtin", "S2xS2"]),
    ("homology_s2xs2_candidate.txt", ["homology", "--builtin", "S2xS2_candidate"]),
    ("homology_cp2_cp2bar.txt", ["homology", "--builtin", "CP2#CP2bar"]),
    ("homology_qs4_z3.txt", ["homology", "--builtin", "QS4_Z3"]),
    ("diamond_cp2.txt", ["diamond", "--builtin", "CP2"]),
    ("diamond_s1xs3.txt", ["diamond", "--builtin", "S1xS3"]),
    ("form_cp2.txt", ["form", "--builtin", "CP2"]),
    ("form_cp2_cp2bar.txt", ["form", "--builtin", "CP2#CP2bar"]),
    ("form_s2xs2.txt", ["form", "--builtin", "S2xS2"]),
    ("spin_s1xs3.txt", ["spin", "--builtin", "S1xS3"]),
    ("spin_s2xs2.txt", ["spin", "--builtin", "S2xS2"]),
    ("spinc_cp2.txt", ["spinc", "--builtin", "CP2"]),
    ("spinc_cp2_act.txt", ["spinc", "--builtin", "CP2", "--act", str(GOLDEN / "rep_cp2.json")]),
    ("homology_cp2_json.txt", ["homology", "--builtin", "CP2", "--json"]),
    ("homology_random_g2_s5.txt", ["homology", "--genus", "2", "--seed", "5"]),
]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@criterion(10, "CLI golden bytes and exit codes")
def test_criterion_10_cli_contract(tmp_path):
    for golden_name, argv in CLI_GOLDEN_CASES:
        expected = (GOLDEN / golden_name).read_bytes()
        for _ in range(2):
            code, out, _ = _run_cli(argv)
            assert code == EXIT_OK, golden_name
            assert out.encode("utf-8") == expected, golden_name

    valid = tmp_path / "cp2.json"
    valid.write_text(
        json.dumps({"genus": 1, "alpha": [[1, 0]], "beta": [[0, 1]], "gamma": [[1, 1]]})
    )
    code, out, _ = _run_cli(["validate", str(valid)])
    assert code == EXIT_OK and "verdict: valid" in out

    twisted = tmp_path / "twisted.json"
    twisted.write_text(
        json.dumps({"genus": 1, "alpha": [[1, 0]], "beta": [[0, 1]], "gamma": [[2, 1]]})
    )
    code, out, _ = _run_cli(["validate", str(twisted)])
    assert code == EXIT_INVALID and "check beta+gamma torsion-free: FAIL" in out

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = _run_cli(["validate", str(broken)])
    assert code == EXIT_PARSE and "line 1" in err and "column" in err
