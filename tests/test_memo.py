"""Per-diagram memo: results live on the diagram object as long as it does.

No memoized value refers back to the object it is stored on: the diagram
keeps the curve coordinates of the degree-two basis, and the cocycles and
dual reps that hold it are built from them on each call. So reference
counting frees a queried diagram with its results, and a batch retains
only the diagrams still in use, with the cycle collector off.
"""

import gc
import io
import sys
import weakref
from contextlib import redirect_stdout
from types import BuiltinFunctionType, FunctionType, ModuleType

import pytest

from trihodge import cli, complexes, diagram, lattice, pairings
from trihodge.complexes import (
    FreeChainComplex,
    HomologyGroup,
    dual_complex,
    dual_middle_homology,
    hodge_diamond,
    homology_complex,
    homology_groups,
)
from trihodge.diagram import (
    InvalidDiagramError,
    _pairing_rows,
    builtin,
    diagram_from_curves,
    ensure_valid,
)
from trihodge.pairings import (
    H2DualRep,
    dual_rep_basis,
    evaluate_on_surface_class,
    h1_basis,
    h2_basis_cocycles,
    h3_representatives,
    intersection_form,
    intersection_pairing,
    triple_intersection,
)
from trihodge.spin import enumerate_spin, spin_count
from trihodge.spinc import act, base_ledger, c1_difference

from helpers import (
    cech_complex,
    cocycle_from_blocks,
    cold_copy,
    full_query,
    ladder_diagram,
    mat,
    pair_quotient,
    plain_form,
    quotient_lift,
    small_sums,
    subgroup_intersection,
)
from test_acceptance import RANDOM_SUITE, SUITE
from test_pool import POOL_SUITE

MEMOIZED = (
    homology_complex,
    homology_groups,
    dual_middle_homology,
    hodge_diamond,
    pairings._h2_basis_coords,
    intersection_form,
    pairings._gram_echelon,
    triple_intersection,
)


def test_repeated_queries_return_the_cached_object(eliminations):
    d = builtin("S2xS2#QS4_Z3")
    for fn in MEMOIZED:
        assert fn(d) is fn(d), fn.__name__
    # cocycles and dual reps hold d, so each call builds them afresh from
    # the memoized coordinates, without a new elimination
    before = len(eliminations)
    basis, reps = h2_basis_cocycles(d), dual_rep_basis(d)
    assert len(basis) == len(reps) == 2
    assert h2_basis_cocycles(d) == basis and dual_rep_basis(d) == reps
    assert len(eliminations) == before


@pytest.fixture
def no_collector():
    """The cycle collector off for the test: only reference counting frees."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def reaches(roots, target) -> bool:
    """Whether target is reachable from roots along ``gc.get_referents``
    through data: classes, modules and functions are not entered, since
    every object reaches the test modules' globals through them."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(
            obj, (type, ModuleType, FunctionType, BuiltinFunctionType)
        ):
            continue
        seen.add(id(obj))
        stack += gc.get_referents(obj)
    return False


def test_no_memoized_value_refers_back_to_its_diagram():
    checked = 0
    for d in map(cold_copy, SUITE):
        if not d.validation.is_valid:
            continue
        full_query(d)
        c = homology_complex(d)
        for pos in range(len(c.ranks)):
            c.homology_with_generators(pos)
        # the complexes' memos are reached through the complexes in vars(d)
        assert not reaches(vars(d).values(), d), d.describe()
        checked += 1
    assert checked > 100


def test_shared_differentials_are_read_only():
    d = builtin("CP2")
    with pytest.raises(ValueError):
        homology_complex(d).diffs[2][0, 0] = 7
    assert cech_complex(d, 1).homology_at(1) == homology_groups(d)[2]


def test_results_are_freed_with_their_diagram(no_collector):
    d = builtin("S2xS2#QS4_Z3")
    full_query(d)
    values = [fn(d) for fn in MEMOIZED]
    refs = [weakref.ref(d), *map(weakref.ref, homology_groups(d))]
    refs += [weakref.ref(v) for v in values if not isinstance(v, tuple)]
    del d, values
    # nothing memoized refers back to d, so reference counting alone frees
    # the diagram together with its results
    assert all(ref() is None for ref in refs)


def test_retained_heap_stays_bounded_over_a_batch(no_collector):
    # counted in allocated blocks, which needs no tracing of each allocation
    for d in small_sums(200, 1):
        full_query(d)
    start = sys.getallocatedblocks()
    for d in small_sums(1000, 2):
        full_query(d)
    del d
    grown = sys.getallocatedblocks() - start
    # about 5,000 blocks, the interpreter's free lists still filling after
    # the warm-up; 249,000 when memoized cocycles and dual reps held every
    # diagram in a reference cycle
    assert grown < 20_000


def test_groups_and_generators_share_one_result_per_position():
    d = builtin("S2xS2#QS4_Z3")
    c = homology_complex(d)
    groups = homology_groups(d)
    # the groups are kept once, by homology_groups; each position reads an equal group
    assert homology_groups(d) is groups
    for k in range(5):
        pos = 4 - k
        assert groups[k] == c.homology_at(pos)
        # the generators' own group is the kernel route, equal but not shared
        assert c.homology_with_generators(pos)[0] == groups[k]


SUMS = ["CP2#CP2bar", "S2xS2#QS4_Z3", "S1xS3#QS4_Z2"]


GRAM_SCHMIDT = f"{pairings.__name__}.{pairings._curve_gram_schmidt.__qualname__}"


def lifted(d, canonical_spans) -> bool:
    """Whether a canonical Lagrangian or pair sum was built, which no package
    path does, or d holds the Gram-Schmidt data of its curves, which only
    the reduction of lifts reads."""
    return bool(canonical_spans) or any(key.startswith(GRAM_SCHMIDT) for key in vars(d))


@pytest.fixture
def smith_forms(monkeypatch):
    """Every Smith normal form computed since the fixture started, in order."""
    forms = []

    class Recorded(lattice._Smith):
        def __init__(self, *args):
            super().__init__(*args)
            forms.append(self)

    monkeypatch.setattr(lattice, "_Smith", Recorded)
    return forms


@pytest.fixture
def cokernels(monkeypatch):
    """The group of every cokernel presented through ``complexes._cokernel``
    since the fixture started, in order.

    That is the name ``homology_with_generators`` calls, and the one Smith
    form whose transforms a query reads: U^{-1} lifts the free generators.
    """
    groups = []
    cokernel = complexes._cokernel

    def recorded(rows, ncols):
        q = cokernel(rows, ncols)
        groups.append(HomologyGroup(q.free_rank, q.torsion))
        return q

    monkeypatch.setattr(complexes, "_cokernel", recorded)
    return groups


@pytest.mark.parametrize("name", SUMS)
def test_no_smith_form_is_computed_twice(name, smith_forms):
    d = builtin(name)
    homology_groups(d)
    dual_middle_homology(d)
    before = len(smith_forms)
    # the one cokernel that gives the free degree-two generators
    h2_basis_cocycles(d)
    assert len(smith_forms) == before + 1
    dual_rep_basis(d)
    hodge_diamond(d)
    homology_groups(d)
    dual_middle_homology(d)
    h2_basis_cocycles(d)
    assert len(smith_forms) == before + 1

    fresh = builtin(name)
    ensure_valid(fresh)
    before = len(smith_forms)
    dual_complex(fresh)
    assert len(smith_forms) == before


@pytest.mark.parametrize("name", SUMS)
def test_smith_forms_build_only_the_transforms_read(
    name, smith_forms, cokernels, canonical_spans
):
    d = builtin(name)
    ensure_valid(d)
    # primitivity is read off the curve echelons, and every pair factor is
    # a unit pivot of the elimination of an intersection matrix
    assert not smith_forms and not lifted(d, canonical_spans)
    homology_groups(d)
    dual_middle_homology(d)
    # the groups read only invariant factors: no cokernel is presented
    assert not cokernels
    before = len(smith_forms)
    h2_basis_cocycles(d)
    # one Smith form, the degree-two cokernel whose U^{-1} lifts the generators
    assert len(smith_forms) == before + 1
    assert cokernels == [homology_groups(d)[2]]
    assert not lifted(d, canonical_spans)


@pytest.mark.parametrize("name", ["CP2#CP2bar", "S2xS2#QS4_Z3"])
def test_only_the_degree_two_position_builds_generators(name, cokernels, eliminations):
    d = builtin(name)
    c = homology_complex(d)
    start = len(eliminations)
    homology_groups(d)
    dual_middle_homology(d)
    # generators need a kernel for their cycles; the groups read factors only
    assert not any(kind == "echelon" for kind, _ in eliminations[start:])
    assert not cokernels
    before = len(eliminations)
    h2_basis_cocycles(d)
    added = eliminations[before:]
    # the cycles of degree two, and one cokernel for its generators
    assert [count(added, cols, "echelon") for cols in c.columns] == [0, 0, 1, 0]
    assert cokernels == [homology_groups(d)[2]]


@pytest.mark.parametrize("name", SUMS)
def test_validation_and_spin_build_no_transform(name, smith_forms, canonical_spans):
    d = builtin(name)
    ensure_valid(d)
    spin_count(d)
    enumerate_spin(d)
    assert smith_forms == []
    assert not lifted(d, canonical_spans)


@pytest.mark.parametrize("name", SUMS)
def test_validation_builds_no_pair_sum_but_reads_it_on_demand(name, canonical_spans):
    d = builtin(name)
    ensure_valid(d)
    assert not canonical_spans
    homology_groups(d)
    dual_middle_homology(d)
    assert not canonical_spans
    L = [d.lagrangian_subgroup(lam) for lam in (1, 2, 3)]
    assert canonical_spans == [cs.curves for cs in d.systems]
    for lam, k in zip((1, 2, 3), d.validation.k_values):
        pair = lattice.subgroup_sum(L[lam - 1], L[lam % 3])
        assert d.pair_sum(lam) == pair
        q = pair_quotient(d, lam)
        assert (q.free_rank, q.torsion) == (k, ())
        assert all(q.is_zero(col) for col in pair.columns())


@pytest.fixture
def eliminations(monkeypatch):
    """Every elimination run since the fixture started, as (kind, matrix).

    The kinds are "echelon" (a downward echelon: canonical spans and
    kernels), "smith" (a Smith form) and "unit" (a unit-pivot elimination:
    invariant factors, curve echelons, the Gram matrix's and that of the
    pairing rows of the degree-one basis). The matrix
    is the tuple of the rows the elimination is handed, which for an
    echelon or a unit-pivot elimination of a differential are its columns
    (the leading ``stop`` entries of each row, for an echelon), and the
    tuple of the columns of the rows a Smith form is handed."""
    matrices = []
    forward, smith, unit = lattice._forward_echelon, lattice._Smith, lattice._UnitEchelon

    def recorded(work, stop):
        matrices.append(("echelon", tuple(tuple(row[:stop]) for row in work)))
        return forward(work, stop)

    class RecordedSmith(smith):
        def __init__(self, rows, ncols):
            matrices.append(("smith", tuple(zip(*rows)) if rows else ((),) * ncols))
            super().__init__(rows, ncols)

    class RecordedUnit(unit):
        def __init__(self, rows, ncols):
            rows = tuple(map(tuple, rows))
            matrices.append(("unit", rows))
            super().__init__(rows, ncols)

    monkeypatch.setattr(lattice, "_forward_echelon", recorded)
    monkeypatch.setattr(lattice, "_Smith", RecordedSmith)
    for module in (lattice, diagram, pairings):
        monkeypatch.setattr(module, "_UnitEchelon", RecordedUnit)
    return matrices


def count(eliminations, matrix, *kinds) -> int:
    """How many recorded eliminations of the given kinds (of any kind when
    none is named) were handed this matrix."""
    return sum(m == matrix and (not kinds or k in kinds) for k, m in eliminations)


@pytest.mark.parametrize("name", SUMS)
def test_degree_two_differential_is_eliminated_once(name, eliminations):
    d = builtin(name)
    ensure_valid(d)
    complex_ = homology_complex(d)
    d2 = complex_.columns[2]
    gamma = d.gamma.curves
    curves = d.alpha.curves + d.beta.curves
    assert d2 == tuple(tuple(plain_form(c, e) for c in gamma) for e in curves)
    homology_groups(d)
    # its invariant factors, and no kernel
    assert count(eliminations, d2) == count(eliminations, d2, "unit") == 1
    h2_basis_cocycles(d)
    # the kernel whose basis the free generators are read in
    assert count(eliminations, d2, "echelon") == 1
    assert count(eliminations, d2) == 2
    before = len(eliminations)
    triple_intersection(d)
    differentials = [cols for cols in complex_.columns if cols]
    assert not any(m in differentials for _, m in eliminations[before:])


@pytest.mark.parametrize("name", ["S2xS2#QS4_Z3", "S1xS3#QS4_Z2", "S1xS3#S1xS3#CP2"])
def test_degree_one_and_three_reads_eliminate_each_differential_at_most_once(
    name, eliminations
):
    d = builtin(name)
    c = homology_complex(d)
    assert c.columns[1] and c.columns[3]
    homology_groups(d)
    before = eliminations[:]
    for _ in range(2):
        triple_intersection(d)
        h3_representatives(d)
    added = eliminations[len(before) :]
    # triple_intersection reads the alpha curves, and h3_representatives one
    # unit-pivot elimination of the pairing rows of the degree-one basis per
    # call: neither eliminates a differential
    assert count(before, c.columns[1]) == count(before, c.columns[1], "unit") == 1
    differentials = [cols for cols in c.columns if cols]
    assert not any(m in differentials for _, m in added)
    rows = tuple(zip(*_pairing_rows(h1_basis(d))))
    assert count(added, rows, "unit") == 2


@pytest.mark.parametrize("name", SUMS)
def test_dual_middle_homology_adds_no_elimination(name, eliminations):
    d = builtin(name)
    homology_groups(d)
    before = len(eliminations)
    dual_middle_homology(d)
    assert len(eliminations) == before
    # its oracle eliminates both differentials of the dual complex, which the
    # closed form reads off those of the homology complex instead
    dual = dual_complex(d)
    assert dual_middle_homology(d) == dual.homology_at(1)
    added = eliminations[before:]
    assert [count(added, cols, "unit") for cols in dual.columns] == [1, 1]


def test_dense_queries_build_no_lagrangian_echelon_and_nothing_wider_than_3g(
    monkeypatch, canonical_spans
):
    d = ladder_diagram(12)
    widths = []
    forward = lattice._forward_echelon

    def recorded(work, stop):
        widths.extend(map(len, work))
        return forward(work, stop)

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
    assert not canonical_spans


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


def test_a_query_keeps_only_values_read_again():
    d = builtin("S2xS2#QS4_Z3")
    census_query(d)
    c = homology_complex(d)
    factors = f"{FreeChainComplex.__module__}.{FreeChainComplex._factors.__qualname__}"
    # the fields and the factors of each differential; the groups are kept by
    # homology_groups, so the complex keeps no group of its own
    assert set(vars(c)) == {"ranks", "columns", *(f"{factors}({i},)" for i in range(4))}
    # the spin listing and the dual complex are rebuilt on each call from kept values
    keys = set(vars(d))
    assert enumerate_spin(d) == enumerate_spin(d) and len(enumerate_spin(d)) == spin_count(d)
    assert dual_complex(d) is not dual_complex(d)
    assert set(vars(d)) == keys


@pytest.fixture
def lift_reads(monkeypatch):
    """Every dual rep whose lifts are read since the fixture started."""
    reads = []
    lifts = H2DualRep.lifts.func
    monkeypatch.setattr(H2DualRep, "lifts", property(lambda rep: reads.append(rep) or lifts(rep)))
    return reads


CENSUS_DIAGRAMS = [builtin(name) for name in SUMS] + list(RANDOM_SUITE[::5] + POOL_SUITE)


def test_pair_quotients_build_no_inverse_unless_lifted(canonical_spans):
    diagrams = [builtin(name) for name in SUMS] + [cold_copy(d) for d in RANDOM_SUITE]
    for d in diagrams:
        census_query(d)
    # the op builds no pair sum, so no pair quotient either
    assert not canonical_spans
    for d in diagrams:
        for lam in (1, 2, 3):
            q = pair_quotient(d, lam)
            assert all(q.is_zero(col) for col in d.pair_sum(lam).columns())
            n = len(q.torsion) + q.free_rank
            for c in [[0] * n, *lattice._identity_rows(n)]:
                assert q.project(quotient_lift(q, c)) == tuple(c)


def test_census_query_replays_no_pairing_transform_and_no_lift(
    smith_forms, cokernels, lift_reads, canonical_spans
):
    diagrams = [cold_copy(d) for d in CENSUS_DIAGRAMS]
    reps = [rep for d in diagrams for rep in census_query(d)[1]]
    # the only transforms the op reads are those of one degree-two cokernel
    # per diagram of positive genus, which has degree-two cycles
    assert reps and not lift_reads
    assert cokernels == [homology_groups(d)[2] for d in diagrams if d.genus]
    assert not any(lifted(d, canonical_spans) for d in diagrams)
    memo = {id(d): dict(vars(d)) for d in diagrams}
    before = len(smith_forms)
    for rep in reps:
        assert H2DualRep.from_lifts(rep.diagram, rep.lifts) == rep
    assert len(lift_reads) == len(reps) and not canonical_spans
    # reading lifts substitutes along the curve echelons validation built and
    # reduces against the Gram-Schmidt data of the curves of each system
    # whose block is nonzero in some rep (a zero block lifts to zero): it
    # builds nothing else, no canonical Lagrangian and no Smith form
    assert len(smith_forms) == before
    gram_schmidt = {id(d): set() for d in diagrams}
    for rep in reps:
        gram_schmidt[id(rep.diagram)] |= {
            f"{GRAM_SCHMIDT}({lam},)" for lam, block in enumerate(rep.coords) if any(block)
        }
    assert any(gram_schmidt.values())
    for d in diagrams:
        assert set(vars(d)) - set(memo[id(d)]) == gram_schmidt[id(d)]
        assert d._curve_echelons is memo[id(d)]["_curve_echelons"]


def test_census_query_keeps_cocycles_in_curve_coordinates(lift_reads, canonical_spans):
    diagrams = [cold_copy(d) for d in CENSUS_DIAGRAMS]
    cocycles = [x for d in diagrams for x in census_query(d)[0]]
    assert len(cocycles) > len(diagrams)
    # no ambient block is built: a cocycle holds its diagram and coordinates only
    assert all(set(vars(x)) == {"diagram", "coords"} for x in cocycles)
    assert not any(lifted(d, canonical_spans) for d in diagrams) and not lift_reads
    for x in cocycles:
        assert cocycle_from_blocks(x.diagram, *x.blocks) == x
    assert all(set(vars(x)) == {"diagram", "coords", "blocks"} for x in cocycles)


def test_kernels_and_intersections_need_no_smith_form(smith_forms):
    m = mat([[2, 4, -6, 1], [0, 3, 9, 0], [2, 7, 3, 1]])
    assert lattice.kernel_basis(m).rank == 2
    assert lattice.kernel_basis(mat([[0, 0, 0]] * 2)).rank == 3
    d = builtin("S2xS2#QS4_Z3")
    L = [d.lagrangian_subgroup(lam) for lam in (1, 2, 3)]
    assert [subgroup_intersection(L[i], L[(i + 1) % 3]).rank for i in range(3)] == [1, 1, 1]
    assert triple_intersection(d).rank == 0
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


HOMOLOGY_BUILTINS = ["S4", "CP2", "S1xS3", "S2xS2", "QS4_Z3", *SUMS, "CP2#QS4_Z3#S1xS3"]


@pytest.mark.parametrize("name", HOMOLOGY_BUILTINS)
def test_homology_command_builds_no_lagrangian_and_only_the_degree_two_generators(
    name, cokernels, eliminations, monkeypatch, canonical_spans
):
    loaded = []
    load = cli._load_diagram
    monkeypatch.setattr(cli, "_load_diagram", lambda args: loaded.append(load(args)) or loaded[-1])
    for command in ("homology", "diamond"):
        with redirect_stdout(io.StringIO()):
            assert cli.main([command, "--builtin", name]) == 0
    # every group is read off invariant factors: no cokernel is presented,
    # and the only kernels are the three of the Q matrices that give the
    # pairwise intersections (each two echelons: its rows, then the
    # canonical kernel), so no cycles and no generators are built
    assert not cokernels
    echelons = [m for kind, m in eliminations if kind == "echelon"]
    assert echelons[::2] == [q for d in loaded for q in d._intersection_matrices]
    assert len(echelons) == 6 * len(loaded) and not canonical_spans


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
