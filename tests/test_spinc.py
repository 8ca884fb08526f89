"""Spin^C ledger laws: shifts, the homology action, and c1 differences."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihodge.diagram import builtin, random_diagram
from trihodge.lattice import Subgroup, _invariant_factors, kernel_basis
from trihodge.pairings import (
    CycleConditionError,
    H2DualRep,
    OneOneCocycle,
    cocycle_from_dual_rep,
    dual_rep_basis,
    h2_basis_cocycles,
    intersection_pairing,
    poincare_dual_rep,
)
from trihodge.spinc import (
    SpinCLedger,
    act,
    base_ledger,
    c1_difference,
    c1_offset,
    c1_total,
    is_admissible,
    lutz_shift,
)

from helpers import five_term_dual_complex, plain_form, random_cycle_rep, random_matched_lifts
from test_pairings import DUALITY_SUITE

CP2 = builtin("CP2")
S1XS3 = builtin("S1xS3")


class TestBaseLedger:
    def test_base_is_zero_and_admissible(self):
        s = base_ledger(CP2)
        assert s.euler == ((0,), (0,), (0,))
        assert is_admissible(s)
        assert c1_offset(s).is_zero

    def test_admissible_on_all_builtins(self):
        for name in ("S4", "CP2", "CP2bar", "S1xS3", "S2xS2", "CP2#CP2bar"):
            assert is_admissible(base_ledger(builtin(name)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SpinCLedger(CP2, ((0, 0),) * 3, "base")

    @pytest.mark.parametrize("base_id", [["x"], 3, None], ids=["list", "int", "none"])
    def test_base_id_must_be_a_string(self, base_id):
        with pytest.raises(ValueError, match="base id must be a string"):
            base_ledger(CP2, base_id=base_id)
        with pytest.raises(ValueError, match="base id must be a string"):
            SpinCLedger(CP2, ((0,),) * 3, base_id)


class TestLutzShift:
    def test_drop_by_twice_the_class(self):
        s = base_ledger(CP2)
        gamma = tuple(plain_form(e, (0, 1)) for e in CP2.lagrangian_subgroup(1).columns())
        assert gamma == (1,)
        shifted = lutz_shift(s, 1, gamma)
        assert shifted.euler == ((-2,), (0,), (0,))

    def test_zero_shift_is_identity(self):
        s = base_ledger(CP2)
        assert lutz_shift(s, 2, (0,)) == s

    def test_shifts_accumulate(self):
        s = base_ledger(CP2)
        twice = lutz_shift(lutz_shift(s, 1, (1,)), 1, (1,))
        assert twice.euler[0] == (-4,)

    def test_bad_handlebody_index(self):
        with pytest.raises(ValueError, match="1, 2 or 3"):
            lutz_shift(base_ledger(CP2), 0, (1,))

    def test_lone_shift_can_leave_admissible_locus(self):
        s = lutz_shift(base_ledger(S1XS3), 1, (1,))
        assert not is_admissible(s)


class TestAction:
    def test_zero_rep_is_identity(self):
        s = base_ledger(CP2)
        assert act(s, H2DualRep.zero(CP2)) == s

    def test_composition_is_addition(self):
        d = builtin("CP2#CP2bar")
        s = base_ledger(d)
        A, B = dual_rep_basis(d)
        assert act(act(s, A), B) == act(s, A + B)
        assert act(act(s, A), B) == act(act(s, B), A)

    def test_action_shifts_euler_by_twice_the_coords(self):
        A = dual_rep_basis(CP2)[0]
        s = act(base_ledger(CP2), A)
        assert s.euler == tuple(
            tuple(-2 * c for c in block) for block in A.coords
        )
        assert is_admissible(s)

    def test_foreign_rep_rejected(self):
        with pytest.raises(ValueError, match="different diagram"):
            act(base_ledger(CP2), H2DualRep.zero(S1XS3))

    def test_freeness_on_basis_reps(self):
        for name in ("CP2", "S2xS2", "CP2#CP2bar"):
            d = builtin(name)
            s = base_ledger(d)
            for A in dual_rep_basis(d):
                assert act(s, A) != s


class TestC1:
    def test_difference_with_self_is_zero(self):
        s = base_ledger(CP2)
        assert c1_difference(s, s).is_zero

    def test_difference_after_action_is_twice_the_class(self):
        for name in ("CP2", "S2xS2", "CP2#CP2bar"):
            d = builtin(name)
            s = base_ledger(d)
            for A in dual_rep_basis(d):
                expected = cocycle_from_dual_rep(d, A).scale(2)
                assert c1_difference(act(s, A), s) == expected

    def test_difference_after_a_basis_dual_is_twice_the_basis_cocycle(self):
        for d in DUALITY_SUITE:
            s = base_ledger(d)
            for A, x in zip(dual_rep_basis(d), h2_basis_cocycles(d), strict=True):
                assert c1_difference(act(s, A), s) == x.scale(2), d.label

    def test_difference_is_additive(self):
        d = builtin("S2xS2")
        s = base_ledger(d)
        A, B = dual_rep_basis(d)
        left = c1_difference(act(s, A), act(s, B))
        assert left == cocycle_from_dual_rep(d, A - B).scale(2)

    def test_offset_tracks_accumulated_actions(self):
        d = builtin("CP2")
        A = dual_rep_basis(d)[0]
        s = act(act(base_ledger(d), A), A)
        assert c1_offset(s) == cocycle_from_dual_rep(d, A).scale(4)

    def test_mismatched_bases_refused(self):
        s1 = base_ledger(CP2, base_id="J0")
        s2 = base_ledger(CP2, base_id="J1")
        with pytest.raises(ValueError, match="different base structures"):
            c1_difference(s1, s2)

    def test_mismatched_diagrams_refused(self):
        with pytest.raises(ValueError, match="different diagrams"):
            c1_difference(base_ledger(CP2), base_ledger(S1XS3))

    def test_non_matched_euler_difference_refused(self):
        broken = lutz_shift(base_ledger(S1XS3), 1, (1,))
        with pytest.raises(CycleConditionError):
            c1_offset(broken)

    def test_odd_euler_difference_refused(self):
        odd = SpinCLedger(S1XS3, ((1,), (1,), (1,)), "base")
        with pytest.raises(ValueError, match="even class"):
            c1_offset(odd)

    def test_absolute_c1_requires_base_value(self):
        s = base_ledger(CP2)
        with pytest.raises(ValueError, match="user-supplied base"):
            c1_total(s)
        anchored = base_ledger(CP2, base_c1=h2_basis_cocycles(CP2)[0].scale(3))
        A = dual_rep_basis(CP2)[0]
        total = c1_total(act(anchored, A))
        assert total == anchored.base_c1 + cocycle_from_dual_rep(CP2, A).scale(2)


@settings(max_examples=40, deadline=None)
@given(
    genus=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 10**6),
    draw_seed=st.integers(0, 10**6),
)
def test_admissibility_preserved_by_action(genus, seed, draw_seed):
    d = random_diagram(genus, seed)
    rng = random.Random(draw_seed)
    s = base_ledger(d)
    for _ in range(2):
        s = act(s, random_cycle_rep(d, rng))
        assert is_admissible(s)


@settings(max_examples=40, deadline=None)
@given(
    genus=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 10**6),
    draw_seed=st.integers(0, 10**6),
)
def test_c1_difference_matches_action_fuzz(genus, seed, draw_seed):
    d = random_diagram(genus, seed)
    rng = random.Random(draw_seed)
    s = base_ledger(d)
    A = random_cycle_rep(d, rng)
    diff = c1_difference(act(s, A), s)
    assert diff == cocycle_from_dual_rep(d, A).scale(2)
    assert isinstance(diff, OneOneCocycle)


def test_c1_difference_is_twice_the_pairing_with_given_lifts():
    rng = random.Random(37)
    diagrams = [builtin(n) for n in ("CP2", "S2xS2", "CP2#CP2bar", "S2xS2#QS4_Z3")]
    diagrams += [random_diagram(g, s) for g in (1, 2, 3) for s in range(4)]
    for d in diagrams:
        s = base_ledger(d)
        for _ in range(3):
            lifts = random_matched_lifts(d, rng)
            c1 = c1_difference(act(s, H2DualRep.from_lifts(d, lifts)), s)
            for b in h2_basis_cocycles(d):
                paired = sum(plain_form(x, a) for x, a in zip(b.blocks, lifts))
                assert intersection_pairing(d, b, c1) == 2 * paired, d.label


def test_orbit_lattice_is_twice_the_cycle_lattice():
    for name in ("S2xS2", "CP2#CP2bar", "S1xS3"):
        d = builtin(name)
        g = d.genus
        cycles = kernel_basis(five_term_dual_complex(d).diffs[1])
        s = base_ledger(d)
        shifts = []
        for col in cycles.columns():
            rep = H2DualRep(d, (col[:g], col[g : 2 * g], col[2 * g :]))
            moved = act(s, rep)
            shift = tuple(
                b - a
                for base_block, new_block in zip(s.euler, moved.euler)
                for a, b in zip(new_block, base_block)
            )
            assert cycles.contains(shift)
            shifts.append(shift)
        reachable = Subgroup.from_columns(3 * g, shifts)
        doubled = Subgroup.from_columns(3 * g, [tuple(2 * e for e in c) for c in cycles.columns()])
        assert reachable == doubled
        if cycles.rank:
            coords = [cycles.coordinates_of(sh) for sh in shifts]
            index = 1
            for f in _invariant_factors(coords, cycles.rank):
                index *= f
            assert index == 2 ** cycles.rank


# Builtin sums whose coordinate triples are not all matched (b1 > 0).
UNMATCHED_SUMS = {name: builtin(name) for name in ("S1xS3#CP2", "S2xS2#S1xS3")}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(UNMATCHED_SUMS)),
    # zero-heavy entries, so matched triples are drawn as well as unmatched ones
    entries=st.lists(st.just(0) | st.integers(-2, 2), min_size=12, max_size=12),
)
def test_admissible_exactly_when_euler_entries_form_a_rep(name, entries):
    d = UNMATCHED_SUMS[name]
    g = d.genus
    euler = tuple(tuple(entries[i * g : (i + 1) * g]) for i in range(3))
    try:
        H2DualRep(d, euler)
        matched = True
    except CycleConditionError:
        matched = False
    assert is_admissible(base_ledger(d)._with_euler(euler)) == matched


SUM3 = builtin("S2xS2#CP2#CP2bar")  # b2 = 4
X, Y = h2_basis_cocycles(SUM3)[:2]
R, Q = dual_rep_basis(SUM3)[:2]
REP = R + Q.scale(3)
CLASS = X + Y.scale(2)
LEDGER = base_ledger(SUM3)

ONE_STEP = {
    "cocycle_from_dual_rep": lambda: cocycle_from_dual_rep(SUM3, REP),
    "poincare_dual_rep": lambda: poincare_dual_rep(SUM3, CLASS),
    "act": lambda: act(LEDGER, REP),
    "cocycle_sum": lambda: X + Y,
    "cocycle_difference": lambda: X - Y,
    "cocycle_scale": lambda: X.scale(-3),
    "rep_sum": lambda: R + Q,
    "rep_difference": lambda: R - Q,
    "rep_scale": lambda: R.scale(-3),
}


@pytest.mark.parametrize("derive", ONE_STEP.values(), ids=ONE_STEP.keys())
def test_derived_class_is_constructed_once(monkeypatch, derive):
    derive()  # fills the diagram's memoized bases outside the count
    constructed = Counter()
    for cls in (OneOneCocycle, H2DualRep, SpinCLedger):

        def counting(self, *args, init=cls.__init__, **kwargs):
            constructed[type(self)] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    result = derive()
    assert constructed == {type(result): 1}
