"""Per-diagram memo: results live on the diagram object and die with it."""

import gc
import weakref
from dataclasses import replace

import pytest

from trihodge import lattice
from trihodge.complexes import (
    _curve_coordinates,
    dual_complex,
    dual_middle_homology,
    hodge_diamond,
    homology_complex,
    homology_groups,
)
from trihodge.diagram import InvalidDiagramError, builtin, diagram_from_curves, ensure_valid
from trihodge.pairings import (
    H2DualRep,
    dual_rep_basis,
    evaluate_on_surface_class,
    h2_basis_cocycles,
    intersection_form,
    intersection_pairing,
    triple_intersection,
)
from trihodge.spin import enumerate_spin, spin_count
from trihodge.spinc import act, base_ledger, c1_difference

from helpers import cech_complex, cocycle_from_blocks, ladder_diagram, plain_form
from test_acceptance import RANDOM_SUITE

MEMOIZED = (
    homology_complex,
    dual_complex,
    homology_groups,
    dual_middle_homology,
    hodge_diamond,
    h2_basis_cocycles,
    intersection_form,
    triple_intersection,
    dual_rep_basis,
    enumerate_spin,
)


def test_repeated_queries_return_the_cached_object():
    d = builtin("S2xS2#QS4_Z3")
    for fn in MEMOIZED:
        assert fn(d) is fn(d), fn.__name__


def test_shared_differentials_are_read_only():
    d = builtin("CP2")
    with pytest.raises(ValueError):
        homology_complex(d).diffs[2][0, 0] = 7
    assert cech_complex(d, 1).homology_at(1) == homology_groups(d)[2]


def test_results_are_freed_with_their_diagram():
    d = builtin("S2xS2#QS4_Z3")
    for fn in MEMOIZED:
        fn(d)
    refs = [weakref.ref(d)]
    for c in (homology_complex(d), dual_complex(d)):
        refs.append(weakref.ref(c))
        refs += [weakref.ref(c.homology_with_generators(pos)[0]) for pos in range(len(c.ranks))]
    del d, c
    # cached cocycles and dual reps point back at d, so only the cycle
    # collector can free the diagram together with its results
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_groups_and_generators_share_one_result_per_position():
    d = builtin("S2xS2#QS4_Z3")
    assert homology_groups(d)[2] is homology_complex(d).homology_with_generators(2)[0]


SUMS = ["CP2#CP2bar", "S2xS2#QS4_Z3", "S1xS3#QS4_Z2"]


TRANSFORMS = ("U", "V", "Uinv")


def built(form) -> set[str]:
    """The transforms a Smith form has materialized so far."""
    return {name for name in TRANSFORMS if name in vars(form)}


@pytest.fixture
def smith_forms(monkeypatch):
    """Every Smith normal form computed since the fixture started, in order.

    The forms themselves are kept, so ``built(form)`` tells which transforms
    each has materialized by the time the test reads it."""
    forms = []

    class Recorded(lattice._Smith):
        def __init__(self, *args):
            super().__init__(*args)
            forms.append(self)

    monkeypatch.setattr(lattice, "_Smith", Recorded)
    return forms


@pytest.mark.parametrize("name", SUMS)
def test_no_smith_form_is_computed_twice(name, smith_forms):
    d = builtin(name)
    homology_groups(d)
    dual_middle_homology(d)
    before = len(smith_forms)
    h2_basis_cocycles(d)
    dual_rep_basis(d)
    hodge_diamond(d)
    assert len(smith_forms) == before

    fresh = builtin(name)
    ensure_valid(fresh)
    before = len(smith_forms)
    dual_complex(fresh)
    assert len(smith_forms) == before


@pytest.mark.parametrize("name", SUMS)
def test_smith_forms_build_only_the_transforms_read(name, smith_forms):
    d = builtin(name)
    ensure_valid(d)
    # every factor of validation is split off at a unit entry
    assert not smith_forms and "_pairing_forms" not in vars(d)
    homology_groups(d)
    dual_middle_homology(d)
    assert smith_forms
    assert not any({"U", "V"} & built(form) for form in smith_forms)
    assert "_pairing_forms" not in vars(d)


@pytest.mark.parametrize("name", ["CP2#CP2bar", "S2xS2#QS4_Z3"])
def test_only_the_degree_two_position_builds_generators(name, smith_forms):
    d = builtin(name)
    ensure_valid(d)
    before = len(smith_forms)
    homology_groups(d)
    dual_middle_homology(d)
    cokernels = smith_forms[before:]
    assert cokernels
    assert sum("Uinv" in built(form) for form in cokernels) == 1
    assert all(built(form) in ({"Uinv"}, set()) for form in cokernels)
    c = homology_complex(d)
    prefix = f"{c.homology_with_generators.__module__}.{c.homology_with_generators.__qualname__}"
    assert [key for key in vars(c) if key.startswith(prefix)] == [f"{prefix}(2,)"]
    before = len(smith_forms)
    h2_basis_cocycles(d)
    assert len(smith_forms) == before


@pytest.mark.parametrize("name", SUMS)
def test_validation_and_spin_build_no_transform(name, smith_forms):
    d = builtin(name)
    ensure_valid(d)
    spin_count(d)
    enumerate_spin(d)
    assert smith_forms == []
    assert "_pairing_forms" not in vars(d)


@pytest.mark.parametrize("name", SUMS)
def test_validation_builds_no_pair_sum_but_reads_it_on_demand(name):
    d = builtin(name)
    ensure_valid(d)
    assert "_pair_sums" not in vars(d) and "_pair_quotients" not in vars(d)
    homology_groups(d)
    dual_middle_homology(d)
    d.triple_quotient
    assert "_pair_sums" not in vars(d) and "_pair_quotients" not in vars(d)
    L = [d.lagrangian_subgroup(lam) for lam in (1, 2, 3)]
    for lam, k in zip((1, 2, 3), d.validation.k_values):
        pair = lattice.subgroup_sum(L[lam - 1], L[lam % 3])
        assert d.pair_sum(lam) == pair
        q = d.pair_quotient(lam)
        assert (q.free_rank, q.torsion) == (k, ())
        assert all(q.is_zero(col) for col in pair.columns())


@pytest.fixture
def eliminations(monkeypatch):
    """The matrix behind every echelon and every Smith form computed since the
    fixture started, as the tuple of its columns.

    An echelon eliminates the rows of m^T (the leading ``stop`` entries of
    each row it is handed), so those rows are the columns of m."""
    matrices = []
    forward, smith = lattice._forward_echelon, lattice._Smith

    def recorded(work, stop, width):
        matrices.append(tuple(tuple(row[:stop]) for row in work))
        return forward(work, stop, width)

    class Recorded(smith):
        def __init__(self, rows, ncols):
            matrices.append(tuple(zip(*rows)) if rows else ((),) * ncols)
            super().__init__(rows, ncols)

    monkeypatch.setattr(lattice, "_forward_echelon", recorded)
    monkeypatch.setattr(lattice, "_Smith", Recorded)
    return matrices


@pytest.mark.parametrize("name", SUMS)
def test_degree_two_differential_is_eliminated_once(name, eliminations):
    d = builtin(name)
    ensure_valid(d)
    d2 = homology_complex(d).columns[2]
    gamma = d.gamma.curves
    curves = d.alpha.curves + d.beta.curves
    assert d2 == tuple(tuple(plain_form(c, e) for c in gamma) for e in curves)
    homology_groups(d)
    h2_basis_cocycles(d)
    assert eliminations.count(d2) == 1


@pytest.mark.parametrize("name", SUMS)
def test_dual_middle_homology_adds_no_elimination(name, eliminations):
    d = builtin(name)
    homology_groups(d)
    before = len(eliminations)
    dual_middle_homology(d)
    assert len(eliminations) == before
    key = f"{dual_complex.__module__}.{dual_complex.__qualname__}"
    assert key not in vars(d)
    assert dual_middle_homology(d) == dual_complex(d).homology_at(1)
    assert key in vars(d)


def test_dense_queries_build_no_lagrangian_echelon_and_nothing_wider_than_3g(monkeypatch):
    d = ladder_diagram(12)
    widths = []
    forward = lattice._forward_echelon

    def recorded(work, stop, width):
        widths.append(width)
        return forward(work, stop, width)

    monkeypatch.setattr(lattice, "_forward_echelon", recorded)
    ensure_valid(d)
    homology_groups(d)
    dual_middle_homology(d)
    intersection_form(d)
    reps = dual_rep_basis(d)
    assert reps
    s = base_ledger(d)
    c1_difference(act(s, reps[0]), s)
    assert widths and max(widths) <= 3 * d.genus
    assert "_lagrangians" not in vars(d) and "_pair_sums" not in vars(d)


def census_query(d):
    """The perfbench census op on d; returns its cocycles and its dual reps."""
    ensure_valid(d)
    homology_groups(d)
    dual_middle_homology(d)
    hodge_diamond(d)
    intersection_form(d)
    basis = h2_basis_cocycles(d)
    reps = dual_rep_basis(d)
    s = base_ledger(d)
    c1 = c1_difference(act(s, reps[0] if reps else H2DualRep.zero(d)), s)
    spin_count(d)
    return basis + (c1,), reps


@pytest.fixture
def lift_reads(monkeypatch):
    """Every dual rep whose lifts are read since the fixture started."""
    reads = []
    lifts = H2DualRep.lifts.func
    monkeypatch.setattr(H2DualRep, "lifts", property(lambda rep: reads.append(rep) or lifts(rep)))
    return reads


CENSUS_DIAGRAMS = [builtin(name) for name in SUMS] + list(RANDOM_SUITE[::5])


def test_pair_quotients_build_no_inverse_unless_lifted():
    diagrams = [builtin(name) for name in SUMS] + [replace(d) for d in RANDOM_SUITE]
    for d in diagrams:
        census_query(d)
    assert not any("Uinv" in built(q._smith) for d in diagrams for q in d._pair_quotients)
    for d in diagrams:
        for lam in (1, 2, 3):
            q = d.pair_quotient(lam)
            n = q.coordinate_count
            for c in [[0] * n, *lattice._identity_rows(n)]:
                assert q.project(q.lift(c)) == tuple(c)
            assert "Uinv" in built(q._smith)


def test_census_query_replays_no_pairing_transform_and_no_lift(smith_forms, lift_reads):
    diagrams = [replace(d) for d in CENSUS_DIAGRAMS]
    reps = [rep for d in diagrams for rep in census_query(d)[1]]
    # the pairing forms serve only lifts; the Gram inverse reads a V of its own
    assert reps and not lift_reads
    assert not any("_pairing_forms" in vars(d) for d in diagrams)
    before = len(smith_forms)
    for rep in reps:
        assert H2DualRep.from_lifts(rep.diagram, rep.lifts) == rep
    assert len(lift_reads) == len(reps)
    pairing_forms = [form for d in diagrams for form in vars(d).get("_pairing_forms", ())]
    assert smith_forms[before:] == pairing_forms
    assert any(built(form) == {"U", "V"} for form in pairing_forms)


def test_census_query_keeps_cocycles_in_curve_coordinates(lift_reads):
    diagrams = [replace(d) for d in CENSUS_DIAGRAMS]
    cocycles = [x for d in diagrams for x in census_query(d)[0]]
    assert len(cocycles) > len(diagrams)
    # no ambient block is built: a cocycle holds its diagram and coordinates only
    assert all(set(vars(x)) == {"diagram", "coords"} for x in cocycles)
    alpha = f"{_curve_coordinates.__module__}.{_curve_coordinates.__qualname__}(0,)"
    assert not any(alpha in vars(d) for d in diagrams)
    assert not any("_pairing_forms" in vars(d) for d in diagrams) and not lift_reads
    for x in cocycles:
        assert cocycle_from_blocks(x.diagram, *x.blocks) == x
    assert all(set(vars(x)) == {"diagram", "coords", "blocks"} for x in cocycles)


def test_kernels_and_intersections_need_no_smith_form(smith_forms):
    m = lattice.intmat([[2, 4, -6, 1], [0, 3, 9, 0], [2, 7, 3, 1]])
    assert lattice.kernel_basis(m).rank == 2
    assert lattice.kernel_basis(lattice.zeros(2, 3)).rank == 3
    d = builtin("S2xS2#QS4_Z3")
    assert [P.rank for P in d._pair_intersections] == [1, 1, 1]
    assert len(smith_forms) == 0


def test_repeated_c1_difference_needs_no_smith_form(smith_forms):
    d = builtin("CP2#CP2bar")
    s = base_ledger(d)
    A, B = dual_rep_basis(d)
    rep = A.scale(2) - B
    first, second = act(s, A), act(s, rep)
    c1_difference(first, s)
    before = len(smith_forms)
    diff = c1_difference(second, s)
    assert len(smith_forms) == before
    for b in h2_basis_cocycles(d):
        assert intersection_pairing(d, b, diff) == 2 * evaluate_on_surface_class(d, b, rep)


def test_equal_diagrams_keep_separate_results():
    first, second = builtin("CP2"), builtin("CP2")
    assert first == second and first is not second
    assert h2_basis_cocycles(first)[0].diagram is first
    assert h2_basis_cocycles(second)[0].diagram is second


def test_failures_are_not_cached():
    twisted = diagram_from_curves(1, [(1, 0)], [(0, 1)], [(2, 1)])
    for _ in range(2):
        with pytest.raises(InvalidDiagramError):
            homology_groups(twisted)


def test_spin_listing_bound_is_checked_on_every_call():
    d = builtin("#".join(["S1xS3"] * 17))
    assert spin_count(d) == 2**17
    for _ in range(2):
        with pytest.raises(ValueError, match="listing bound"):
            enumerate_spin(d)
