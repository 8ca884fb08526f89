"""Diagram validation, k-values, builtins, handleslides, random generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from trihodge.diagram import (
    SYSTEM_NAMES,
    CutSystem,
    InvalidDiagramError,
    TrisectionDiagram,
    builtin,
    builtin_names,
    connected_sum,
    diagram_from_curves,
    ensure_valid,
    euler_characteristic,
    handleslide,
    handleslide_diagram,
    k_values,
    random_diagram,
    standard_triple,
    validate,
)
from trihodge import diagram as diagram_module
from trihodge.complexes import (
    _pair_difference_columns,
    hodge_diamond,
    homology_complex,
    homology_groups,
)
from trihodge.diagram import _span_quotient
from trihodge.lattice import Subgroup, _combination, _Value, subgroup_sum
from trihodge.pairings import dual_rep_basis, h2_basis_cocycles, intersection_form
from trihodge.spin import enumerate_spin, spin_count
from trihodge.spinc import base_ledger, lutz_shift

from helpers import (
    S4_PIECES,
    cold_copy,
    ladder_diagram,
    pair_quotient,
    plain_form,
    subgroup_intersection,
    sympy_invariant_factors,
    triple_quotient,
    triple_sum,
    validate_by_pair_sums,
)
from test_acceptance import RANDOM_SUITE
from test_pairings import DUALITY_SUITE
from test_pool import POOL_SUITE


class TestConstruction:
    def test_curve_count_must_match_genus(self):
        with pytest.raises(ValueError):
            diagram_from_curves(2, [(1, 0, 0, 0)], [(0, 1, 0, 0)], [(1, 1, 0, 0)])

    def test_curve_length_must_be_twice_genus(self):
        with pytest.raises(ValueError):
            CutSystem([(1, 0, 0)])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            CutSystem([(1, 0, 0, 0), (1, 0)])

    def test_width_errors_name_the_system(self):
        with pytest.raises(ValueError, match="^beta system needs curves of length 2, got 3$"):
            CutSystem([(1, 0, 0)], "beta")
        with pytest.raises(ValueError, match="^gamma system has curves of mixed lengths$"):
            pair = [(0, 1, 0, 0), (0, 0, 0, 1)]
            diagram_from_curves(2, pair, pair, [(1, 1, 0, 0), (0, 1)])

    def test_label_does_not_affect_equality(self):
        d1 = builtin("CP2")
        d2 = diagram_from_curves(1, [(1, 0)], [(0, 1)], [(1, 1)], label="other")
        assert d1 == d2

    @pytest.mark.parametrize("label", [5, ["x"], b"x", 1.5])
    def test_label_must_be_a_string_or_none(self, label):
        with pytest.raises(ValueError, match="^diagram label must be a string or None, got "):
            diagram_from_curves(1, [[1, 0]], [[0, 1]], [[1, 1]], label=label)


def records(d: TrisectionDiagram) -> dict:
    """One instance of each of the package's immutable record classes, built on d."""
    return {
        "cut system": d.alpha,
        "diagram": d,
        "validation report": d.validation,
        "subgroup": d.lagrangian_subgroup(1),
        "quotient": triple_quotient(d),
        "homology group": homology_groups(d)[2],
        "complex": homology_complex(d),
        "diamond": hodge_diamond(d),
        "cocycle": h2_basis_cocycles(d)[0],
        "dual rep": dual_rep_basis(d)[0],
        "intersection form": intersection_form(d),
        "enhancement": enumerate_spin(d)[0],
        "ledger": base_ledger(d),
    }


# records that compare by identity; the others compare by value
BY_IDENTITY = {"quotient", "complex"}


def test_record_fields_are_what_the_constructor_sets():
    """``_fields`` names exactly the attributes a value record's ``__init__`` sets.

    Each record is rebuilt from its fields, passed by name, and its
    attributes are read before any memoized value is; a diagram's label is
    the one attribute outside its value. Every field is hashable and the
    repr shows each one.
    """
    values = [r for k, r in records(builtin("S2xS2#QS4_Z3")).items() if k not in BY_IDENTITY]
    assert {type(r) for r in values} == set(_Value.__subclasses__())
    for record in values:
        cls = type(record)
        fresh = cls(**{name: getattr(record, name) for name in cls._fields})
        extra = {"label"} if cls is TrisectionDiagram else set()
        assert set(vars(fresh)) == set(cls._fields) | extra, cls.__name__
        assert fresh == record and hash(fresh) == hash(record)
        text = repr(record)
        assert text.startswith(f"{cls.__name__}(")
        assert all(f"{name}={getattr(record, name)!r}" in text for name in cls._fields)


@pytest.mark.parametrize("kind", records(builtin("S2xS2")))
def test_records_are_frozen_and_compare_by_value_or_identity(kind):
    d = builtin("S2xS2")
    record, twin = records(d)[kind], records(cold_copy(d))[kind]
    with pytest.raises(AttributeError, match="cannot assign"):
        record.genus = 0
    with pytest.raises(AttributeError, match="cannot delete"):
        del record.genus
    assert record == record and hash(record) == hash(record)
    if kind in BY_IDENTITY:
        assert record != twin
    else:
        assert record == twin and hash(record) == hash(twin)
        assert {record, twin} == {record}


class TestValidation:
    def test_builtins_are_valid(self):
        for name in builtin_names():
            report = validate(builtin(name))
            assert report.is_valid, (name, report.failures)

    def test_k_values_of_catalog(self):
        assert k_values(builtin("CP2")) == (0, 0, 0)
        assert k_values(builtin("S1xS3")) == (1, 1, 1)
        assert k_values(builtin("S4")) == (0, 0, 0)
        assert k_values(builtin("S2xS2_candidate")) == (0, 0, 0)
        assert k_values(builtin("QS4_Z2")) == (1, 1, 1)
        assert k_values(builtin("QS4_Z3")) == (1, 1, 1)

    def test_torsion_builtins_have_unsaturated_triple_sum(self):
        assert triple_quotient(builtin("QS4_Z2")).torsion == (2,)
        assert triple_quotient(builtin("QS4_Z3")).torsion == (3,)
        assert euler_characteristic(builtin("QS4_Z2")) == 2

    def test_cp2_lagrangian_subgroups(self):
        d = builtin("CP2")
        assert d.lagrangian_subgroup(1) == Subgroup.from_columns(2, [(1, 0)])
        assert d.lagrangian_subgroup(3) == Subgroup.from_columns(2, [(1, 1)])
        with pytest.raises(ValueError):
            d.lagrangian_subgroup(4)

    def test_pair_torsion_is_detected_and_named(self):
        # beta + gamma spans an index-2 sublattice
        d = diagram_from_curves(1, [(1, 0)], [(0, 1)], [(2, 1)])
        report = validate(d)
        assert not report.is_valid
        assert report.failures == ("beta+gamma torsion-free",)
        assert report.k_values is None
        with pytest.raises(InvalidDiagramError):
            k_values(d)

    def test_non_isotropic_system_is_detected(self):
        d = diagram_from_curves(
            2,
            [(1, 0, 0, 0), (0, 1, 0, 0)],  # <a1, b1> = 1
            [(0, 1, 0, 0), (0, 0, 0, 1)],
            [(1, 1, 0, 0), (0, 0, 1, 1)],
        )
        assert "alpha isotropic" in validate(d).failures

    def test_non_primitive_system_is_detected(self):
        d = diagram_from_curves(1, [(2, 0)], [(0, 1)], [(1, 1)])
        assert "alpha primitive" in validate(d).failures

    def test_dependent_curves_are_not_primitive(self):
        d = diagram_from_curves(
            2,
            [(1, 0, 0, 0), (1, 0, 0, 0)],
            [(0, 1, 0, 0), (0, 0, 0, 1)],
            [(1, 1, 0, 0), (0, 0, 1, 1)],
        )
        assert "alpha primitive" in validate(d).failures


class TestEulerCharacteristic:
    def test_catalog_values(self):
        assert euler_characteristic(builtin("S4")) == 2
        assert euler_characteristic(builtin("CP2")) == 3
        assert euler_characteristic(builtin("S1xS3")) == 0
        assert euler_characteristic(builtin("S2xS2_candidate")) == 4


class TestConnectedSum:
    def test_genus_and_k_add(self):
        d = builtin("CP2#CP2bar")
        assert d.genus == 2
        assert k_values(d) == (0, 0, 0)
        assert d.label == "CP2#CP2bar"
        assert euler_characteristic(d) == 4

    def test_sum_with_s4_is_identity_on_invariants(self):
        d = builtin("CP2#S4")
        assert d.genus == 1
        assert d == builtin("CP2")

    def test_block_structure(self):
        d = connected_sum(builtin("CP2"), builtin("S1xS3"))
        assert d.alpha.curves == ((1, 0, 0, 0), (0, 0, 0, 1))
        assert d.gamma.curves == ((1, 1, 0, 0), (0, 0, 0, 1))

    @pytest.mark.parametrize("name", ["S2xS2#QS4_Z3", "S1xS3#QS4_Z2", "CP2", "ladder(g=8)"])
    def test_stabilization_keeps_every_invariant(self, name):
        d = ladder_diagram(8) if name.startswith("ladder") else builtin(name)

        def invariants(d):
            form = intersection_form(d)
            return homology_groups(d), form.signature, form.parity, spin_count(d)

        before = invariants(d)
        for piece, k in zip(S4_PIECES, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            assert piece.validation.k_values == k
            for stabilized in (connected_sum(d, piece), connected_sum(piece, d)):
                assert stabilized.validation.is_valid
                assert invariants(stabilized) == before

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin("T4")
        with pytest.raises(KeyError):
            builtin("CP2#nope")


TORSION_SUMS = ("QS4_Z2#QS4_Z3", "S2xS2#QS4_Z3", "S1xS3#QS4_Z2", "CP2#QS4_Z3#S1xS3")
INVALID = (
    diagram_from_curves(1, [(1, 0)], [(0, 1)], [(2, 1)]),  # pair torsion
    diagram_from_curves(1, [(2, 0)], [(0, 1)], [(1, 1)]),  # not primitive
    diagram_from_curves(  # not isotropic
        2,
        [(1, 0, 0, 0), (0, 1, 0, 0)],
        [(0, 1, 0, 0), (0, 0, 0, 1)],
        [(1, 1, 0, 0), (0, 0, 1, 1)],
    ),
)


def torsion_sums_and_their_slides():
    for name in TORSION_SUMS:
        d = builtin(name)
        yield d
        for system in SYSTEM_NAMES:
            for i, j, sign in ((0, 1, 1), (d.genus - 1, 0, -1)):
                yield handleslide_diagram(d, system, i, j, sign)


class TestKValuesFromPairQuotients:
    def test_validation_builds_no_pair_intersection(self, eliminations):
        fn = _pair_difference_columns
        pair_columns = f"{fn.__module__}.{fn.__qualname__}"
        for d in (builtin("S2xS2#QS4_Z3"), random_diagram(6, 0), builtin("S1xS3#S1xS3")):
            assert d.validation.is_valid
            assert pair_columns not in vars(d)
            assert not eliminations.of("span", module=diagram_module)

    def test_k_values_are_the_pair_intersection_ranks(self):
        for d in RANDOM_SUITE + POOL_SUITE + tuple(torsion_sums_and_their_slides()):
            k = d.validation.k_values
            L = [d.lagrangian_subgroup(lam) for lam in (1, 2, 3)]
            ranks = tuple(subgroup_intersection(L[i], L[(i + 1) % 3]).rank for i in range(3))
            assert k == ranks, d.describe()

    def test_invalid_diagrams_report_no_k_values(self):
        for d in INVALID:
            assert validate(d).k_values is None


# Invalid inputs whose pair checks read an intersection matrix: every system
# is a primitive Lagrangian, and the beta+gamma sum has index 2.
PAIR_FAILURES = (diagram_from_curves(1, [(1, 0)], [(0, 1)], [(2, 1)]),)
# Isotropic alpha systems that are not primitive. The pairing rows of the
# first keep the block [[2]] once their unit entry is split off; those of
# the second hold no unit entry at all.
NON_PRIMITIVE = tuple(
    diagram_from_curves(2, alpha, [(0, 1, 0, 0), (0, 0, 0, 1)], [(1, 1, 0, 0), (0, 0, 1, 1)])
    for alpha in ([(2, 0, 0, 0), (0, 0, 1, 0)], [(2, 0, 0, 0), (0, 0, 2, 0)])
)
# Invalid inputs where some system is no primitive Lagrangian, so the pair
# check into it falls back to the invariant factors of the pair's curves.
FALLBACKS = (
    diagram_from_curves(1, [(0, 0)], [(0, 0)], [(0, 0)]),
    diagram_from_curves(
        2,
        [(1, 0, 0, 0), (2, 0, 0, 0)],
        [(0, 1, 0, 0), (0, 0, 0, 1)],
        [(1, 1, 0, 0), (0, 0, 1, 1)],
    ),
    *INVALID[1:],
    *NON_PRIMITIVE,
)


class TestPairChecksFromIntersectionMatrices:
    def test_checks_and_k_values_match_the_pair_sum_route(self):
        suite = DUALITY_SUITE + tuple(ladder_diagram(g) for g in range(8, 25))
        for d in suite + PAIR_FAILURES + FALLBACKS:
            d = cold_copy(d)
            assert validate(d) == validate_by_pair_sums(d), d.describe()

    def test_invalid_inputs_cover_both_branches(self, monkeypatch, eliminations):
        widths = []

        def recorded(rows, width):
            widths.append(width)
            return _span_quotient(rows, width)

        monkeypatch.setattr(diagram_module, "_span_quotient", recorded)
        # a pair check reads a g x g intersection matrix, a fallback the 2g
        # curves of a pair
        for d in PAIR_FAILURES:
            d = cold_copy(d)
            widths.clear()
            assert validate(d).failures == ("beta+gamma torsion-free",)
            assert widths == [d.genus] * 3
        for d in FALLBACKS:
            d = cold_copy(d)
            widths.clear()
            assert not validate(d).is_valid
            assert 2 * d.genus in widths, d.alpha
            # the fallback reads the curves: no canonical Lagrangian, no quotient
            assert not eliminations.of("span", module=diagram_module)
        # a quotient presentation is built only by a cokernel
        assert not eliminations.of("cokernel")

    def test_non_primitive_systems_reach_both_smith_branches(self, monkeypatch, eliminations):
        # primitivity is read off the curve echelons, which build no Smith
        # form; the pair check into the non-primitive alpha system still
        # falls back to the invariant factors of the gamma and alpha curves
        widths = []

        def recorded(rows, width):
            widths.append(width)
            return _span_quotient(rows, width)

        monkeypatch.setattr(diagram_module, "_span_quotient", recorded)
        for d in NON_PRIMITIVE:
            d = cold_copy(d)
            eliminations.clear()
            widths.clear()
            echelons = d._curve_echelons
            assert not eliminations.of("smith")
            assert [e.primitive for e in echelons] == [False, True, True]
            report = validate(d)
            assert d._curve_echelons is echelons
            assert report == validate_by_pair_sums(d)
            assert report.failures[0] == "alpha primitive"
            assert "alpha isotropic" not in report.failures
            assert widths == [d.genus, d.genus, 2 * d.genus]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_moved_fixtures_match_the_pair_sum_route(self, data):
        # transvections of the whole surface and handleslides within one
        # system keep every check's outcome; a connected sum adds valid ones
        d = data.draw(st.sampled_from(PAIR_FAILURES + FALLBACKS))
        for _ in range(data.draw(st.integers(0, 4))):
            move = data.draw(st.sampled_from(("transvection", "handleslide", "sum")))
            if move == "sum":
                d = connected_sum(d, builtin(data.draw(st.sampled_from(("CP2", "S2xS2")))))
            elif move == "handleslide" and d.genus > 1:
                i, j = data.draw(st.permutations(range(d.genus)))[:2]
                system = data.draw(st.sampled_from(SYSTEM_NAMES))
                d = handleslide_diagram(d, system, i, j, data.draw(st.sampled_from((1, -1))))
            elif move == "transvection":
                entries = st.sampled_from((0, 0, 1, -1))
                v = data.draw(st.lists(entries, min_size=2 * d.genus, max_size=2 * d.genus))
                d = diagram_from_curves(
                    d.genus,
                    *(
                        [tuple(x + plain_form(c, v) * y for x, y in zip(c, v)) for c in cs.curves]
                        for cs in d.systems
                    ),
                )
        assert validate(d) == validate_by_pair_sums(d)
        for echelon, rows in zip(d._curve_echelons, d._curve_pairings):
            ones = sympy_invariant_factors(rows, 2 * d.genus) == (1,) * d.genus
            assert echelon.primitive == ones

    def test_validation_builds_no_pair_sum(self, eliminations):
        for d in DUALITY_SUITE[::7]:
            d = cold_copy(d)
            assert validate(d).is_valid
            assert not eliminations.of("span", module=diagram_module)

    def test_triple_sum_is_the_sum_of_the_pair_sum_and_the_third_lagrangian(self):
        suite = DUALITY_SUITE + tuple(ladder_diagram(g) for g in (8, 12, 16, 24))
        for d in suite + PAIR_FAILURES + FALLBACKS:
            third = d.lagrangian_subgroup(3)
            assert triple_sum(d) == subgroup_sum(d.pair_sum(1), third), d.describe()
            # the curve-span route of the fallback and of the CLI's H2 law
            quotients = [pair_quotient(d, lam) for lam in (1, 2, 3)] + [triple_quotient(d)]
            systems = [(0, 1), (1, 2), (2, 0), (0, 1, 2)]
            for q, spanned in zip(quotients, systems):
                curves = [c for lam in spanned for c in d.systems[lam].curves]
                found = _span_quotient(curves, 2 * d.genus)
                assert found == (q.free_rank, q.torsion), d.describe()


class TestCurveBases:
    def test_validation_reads_only_the_curves(self, eliminations):
        suite = RANDOM_SUITE + POOL_SUITE + tuple(torsion_sums_and_their_slides())
        for d in suite + tuple(ladder_diagram(g) for g in (8, 16)):
            d = cold_copy(d)
            ensure_valid(d)
            assert not eliminations.of("span", module=diagram_module), d.describe()

    def test_pair_kernels_pair_the_curves_of_consecutive_systems(self):
        for d in RANDOM_SUITE + POOL_SUITE + tuple(torsion_sums_and_their_slides()):
            g = d.genus
            blocks = _pair_difference_columns(d)
            assert tuple(map(len, blocks)) == k_values(d), d.describe()
            for lam, block in enumerate(blocks):
                nxt, rest = (lam + 1) % 3, (lam + 2) % 3
                left, right = d.systems[lam].curves, d.systems[nxt].curves
                for col in block:
                    x = [-e for e in col[lam * g : (lam + 1) * g]]
                    y = col[nxt * g : (nxt + 1) * g]
                    assert not any(col[rest * g : (rest + 1) * g]), d.describe()
                    w = _combination(left, x, 2 * g)
                    assert any(w) and w == _combination(right, y, 2 * g), d.describe()


class TestHandleslide:
    def test_slide_changes_curves_but_not_span(self):
        cs = builtin("S2xS2_candidate").gamma
        slid = handleslide(cs, 0, 1, 1)
        assert slid.curves[0] == (1, 1, 1, 1)
        assert slid.subgroup() == cs.subgroup()

    def test_slide_then_inverse_restores(self):
        cs = builtin("S2xS2_candidate").alpha
        assert handleslide(handleslide(cs, 1, 0, 1), 1, 0, -1) == cs

    def test_k_values_invariant_under_slides(self):
        d = builtin("CP2#CP2bar")
        slid = TrisectionDiagram(
            genus=d.genus,
            alpha=handleslide(d.alpha, 0, 1, -1),
            beta=d.beta,
            gamma=handleslide(d.gamma, 1, 0, 1),
        )
        assert validate(slid).is_valid
        assert k_values(slid) == k_values(d)

    def test_bad_arguments(self):
        cs = builtin("S2xS2_candidate").alpha
        with pytest.raises(ValueError):
            handleslide(cs, 0, 0, 1)
        with pytest.raises(ValueError):
            handleslide(cs, 0, 1, 2)
        with pytest.raises(ValueError):
            handleslide(cs, 0, 5, 1)


@pytest.mark.parametrize("index", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "entry",
    [
        "lagrangian_subgroup",
        "pair_sum",
        "lutz_shift",
        "handleslide",
        "handleslide_diagram",
        "handleslide_sign",
        "diagram_from_curves",
        "random_diagram",
        "standard_triple",
        "TrisectionDiagram",
    ],
)
def test_index_arguments_must_be_ints(entry, index):
    # a float index, genus or sign used to raise TypeError or slip through
    # to a later check, and a bool one to pass as 0 or 1
    d = builtin("CP2#CP2bar")
    calls = {
        "lagrangian_subgroup": lambda: d.lagrangian_subgroup(index),
        "pair_sum": lambda: d.pair_sum(index),
        "lutz_shift": lambda: lutz_shift(base_ledger(d), index, (1, 0)),
        "handleslide": lambda: handleslide(d.alpha, index, 0),
        "handleslide_diagram": lambda: handleslide_diagram(d, "gamma", 0, index),
        "handleslide_sign": lambda: handleslide(d.alpha, 0, 1, index),
        "diagram_from_curves": lambda: diagram_from_curves(index, [(1, 0)], [(0, 1)], [(1, 1)]),
        "random_diagram": lambda: random_diagram(index, 3),
        "standard_triple": lambda: standard_triple(index),
        "TrisectionDiagram": lambda: TrisectionDiagram(index, *builtin("CP2").systems),
    }
    with pytest.raises(ValueError):
        calls[entry]()


class TestRandomDiagram:
    def test_deterministic_in_seed(self):
        assert random_diagram(3, 17) == random_diagram(3, 17)
        assert random_diagram(3, 17) != random_diagram(3, 18)

    def test_seed_must_be_an_int(self):
        for bad in (None, "x", 1.5, True):
            with pytest.raises(ValueError, match="seed must be an int"):
                random_diagram(4, bad)
        # random.Random seeds from |seed|
        assert random_diagram(4, -5) == random_diagram(4, 5)

    def test_always_valid(self):
        for seed in range(30):
            d = random_diagram(1 + seed % 4, seed)
            assert validate(d).is_valid, seed

    def test_k_values_match_standard_triple(self):
        # transvections act globally, so intersections keep their ranks
        for seed in (3, 9):
            for g in (1, 2, 3):
                assert k_values(random_diagram(g, seed)) == k_values(standard_triple(g))

    def test_genus_zero(self):
        d = random_diagram(0, 5)
        assert d.genus == 0
        assert validate(d).is_valid


class TestStandardTriple:
    def test_genus_one_is_cp2_diagram(self):
        assert standard_triple(1) == builtin("CP2")

    def test_pairwise_intersections_trivial(self):
        d = standard_triple(3)
        assert k_values(d) == (0, 0, 0)
