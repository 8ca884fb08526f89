"""Core integer linear algebra: Smith form, subgroups, quotients.

Expected values in the example tests were worked out by hand; the property
tests cross-check against sympy, which has an independent Smith normal form
and exact rank/determinant code. The Smith transforms are also checked entry
for entry against the numpy implementation they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from trihodge.complexes import dual_complex, homology_complex
from trihodge.diagram import builtin, diagram_from_curves, random_diagram
from trihodge.lattice import (
    Subgroup,
    _column_matrix,
    _combination,
    _identity_rows,
    _invariant_factors,
    _kernel,
    _transpose,
    _UnitEchelon,
    as_int_vector,
    kernel_basis,
    quotient,
    smith_normal_form,
    snf_diagonal,
    subgroup_sum,
)
from trihodge.pairings import pairing_h3_h1

from helpers import (
    det,
    image_subgroup,
    integer_solve,
    is_unimodular,
    mat,
    matrix_columns,
    numpy_snf_with_inverses,
    quotient_lift,
    SpanCoordinates,
    smith_kernel_basis,
    subgroup_intersection,
    sympy_invariant_factors,
)
from test_acceptance import RANDOM_SUITE
from test_fingerprint import TORSION_SUMS
from test_pool import POOL_SUITE


def sympy_of(m):
    return sympy.Matrix(m.shape[0], m.shape[1], lambda i, j: int(m[i, j]))


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_dim=5, min_dim=1):
    nrows = draw(st.integers(min_value=min_dim, max_value=max_dim))
    ncols = draw(st.integers(min_value=min_dim, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return mat(rows, ncols)


def zero_matrix(nrows, ncols):
    return mat([[0] * ncols] * nrows, ncols)


zero_matrices = st.builds(zero_matrix, st.integers(0, 5), st.integers(0, 5))


class TestSmithNormalForm:
    def test_diag_2_3_normalizes_to_1_6(self):
        U, D, V = smith_normal_form(mat([[2, 0], [0, 3]]))
        assert [[int(x) for x in row] for row in D] == [[1, 0], [0, 6]]
        assert np.array_equal(U @ mat([[2, 0], [0, 3]]) @ V, D)

    def test_identity_is_fixed(self):
        U, D, V = smith_normal_form(mat(_identity_rows(3)))
        assert D.tolist() == _identity_rows(3)

    def test_zero_matrix(self):
        U, D, V = smith_normal_form(zero_matrix(2, 3))
        assert np.array_equal(D, zero_matrix(2, 3))
        assert is_unimodular(U) and is_unimodular(V)

    def test_empty_shapes(self):
        for shape in [(0, 3), (3, 0), (0, 0)]:
            U, D, V = smith_normal_form(zero_matrix(*shape))
            assert D.shape == shape
            assert U.shape == (shape[0], shape[0])
            assert V.shape == (shape[1], shape[1])

    def test_big_integers_stay_exact(self):
        n = 10**40
        m = mat([[n, n + 1], [1, 1]])
        U, D, V = smith_normal_form(m)
        assert np.array_equal(U @ m @ V, D)
        assert int(D[0, 0]) * int(D[1, 1]) == abs(det(m))

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_transforms_and_divisibility(self, m):
        U, D, V = smith_normal_form(m)
        assert np.array_equal(U @ m @ V, D)
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [int(D[i, i]) for i in range(min(D.shape))]
        for i in range(D.shape[0]):
            for j in range(D.shape[1]):
                if i != j:
                    assert D[i, j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_matches_sympy_smith_form(self, m):
        _, D, _ = smith_normal_form(m)
        expected = sympy_snf(sympy_of(m))
        ours = sorted(abs(int(D[i, i])) for i in range(min(D.shape)))
        theirs = sorted(abs(int(expected[i, i])) for i in range(min(D.shape)))
        assert ours == theirs


@st.composite
def entry_rows(draw, entries=small_entries, min_rows=0, max_dim=6):
    """Rows and a column count, every entry drawn from ``entries``."""
    nrows = draw(st.integers(min_value=min_rows, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@st.composite
def rows_with_units(draw):
    """Rows holding at least one entry +-1, at positions hypothesis picks."""
    rows, ncols = draw(entry_rows(min_rows=1))
    cells = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, ncols - 1))
    for i, j in draw(st.lists(cells, min_size=1, max_size=4)):
        rows[i][j] = draw(st.sampled_from((1, -1)))
    return rows, ncols


@st.composite
def rank_deficient_rows(draw):
    """Rows plus zero rows, copies of rows and sums of two rows, shuffled."""
    rows, ncols = draw(entry_rows(min_rows=1, max_dim=5))
    extra = [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    pick = st.integers(0, len(rows) - 1)
    extra += [list(rows[draw(pick)]) for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0 if extra else 1, 2))):
        a, b = rows[draw(pick)], rows[draw(pick)]
        extra.append([x + y for x, y in zip(a, b)])
    return draw(st.permutations(rows + extra)), ncols


FIXED_FACTORS = [
    ([[1, 2], [2, 6]], (1, 2)),
    ([[1, 1], [1, -1]], (1, 2)),
    ([[2, 3], [3, 5]], (1, 1)),
    ([[6, 4], [4, 6]], (2, 10)),
    ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], (1, 1, 6)),
    ([[2, 1], [4, 2], [0, 0]], (1,)),
    ([[-1, 3, 5], [3, -9, -15]], (1,)),
    ([[0, 0], [0, 0]], ()),
]


class TestInvariantFactors:
    """A factor 1 per unit pivot of the recorded elimination, then a Smith
    form of the residual rows, against the diagonal of sympy's Smith normal
    form."""

    @staticmethod
    def assert_matches_sympy(rows, ncols):
        before = [list(r) for r in rows]
        expected = sympy_invariant_factors(rows, ncols)
        assert _invariant_factors(rows, ncols) == expected
        assert rows == before
        assert snf_diagonal(smith_normal_form(mat(rows, ncols))[1]) == expected

    @settings(max_examples=150, deadline=None)
    @given(rows_with_units())
    def test_rows_with_unit_entries(self, case):
        self.assert_matches_sympy(*case)

    @settings(max_examples=150, deadline=None)
    @given(entry_rows(st.sampled_from((0, 2, -2, 3, -3, 4, -4, 6, -6))))
    def test_rows_without_unit_entries(self, case):
        self.assert_matches_sympy(*case)

    @settings(max_examples=150, deadline=None)
    @given(rank_deficient_rows())
    def test_rank_deficient_rows(self, case):
        rows, ncols = case
        self.assert_matches_sympy(rows, ncols)
        assert len(_invariant_factors(rows, ncols)) < len(rows)

    @pytest.mark.parametrize("rows, factors", FIXED_FACTORS)
    def test_fixed_cases(self, rows, factors):
        assert _invariant_factors(rows, len(rows[0])) == factors
        assert sympy_invariant_factors(rows, len(rows[0])) == factors

    def test_a_smith_form_runs_only_on_the_block_left_without_units(self, eliminations):
        cases = {
            ((1, 2), (2, 6)): [(1, 2)],
            ((2, 4), (6, 8)): [(2, 2)],
            ((1, 0, 0), (0, -1, 0), (5, 7, 1)): [],
            ((2, 0, 0, 0), (0, 0, 0, 0)): [(1, 4)],
        }
        for rows, expected in cases.items():
            eliminations.clear()
            _invariant_factors(rows, len(rows[0]))
            forms = [e.result.D for e in eliminations.of("smith")]
            assert [(len(D), len(D[0])) for D in forms] == expected, rows

    def test_residual_forms_build_no_transform(self, eliminations):
        # no entry is a unit, and row-Euclid leaves 2 atop the first column,
        # so both rows are left to one 2 x 24 Smith form, which reads only D
        residual = [[2 * k + 2 for k in range(24)], [6] + [4 * k * k + 2 for k in range(1, 24)]]
        assert _invariant_factors(residual, 24) == sympy_invariant_factors(residual, 24)
        (form,) = (e.result for e in eliminations.of("smith"))
        assert (len(form.D), len(form.D[0])) == (2, 24)
        for rows, _ in FIXED_FACTORS:
            _invariant_factors(rows, len(rows[0]))
        assert len(eliminations.of("smith")) > 1
        for form in (e.result for e in eliminations.of("smith")):
            assert form.U == [[]] * len(form.D) and form.V == []


big_entries = st.integers(min_value=-(2**70), max_value=2**70)


@st.composite
def snf_inputs(draw):
    """Shapes 0..6, zero rows and zero columns included, small or 70-bit entries."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = draw(st.sampled_from([small_entries, big_entries]))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return mat(draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols)


def assert_numpy_transforms(m):
    """The Smith form on rows makes the numpy oracle's every pivot and step,
    and a quotient's free lifts are the last columns of the oracle's U^{-1}."""
    U, D, V, _ = numpy_snf_with_inverses(m)
    assert [a.tolist() for a in smith_normal_form(m)] == [U.tolist(), D.tolist(), V.tolist()]
    relations = image_subgroup(m)
    q = quotient(m.shape[0], relations)
    Uinv = numpy_snf_with_inverses(relations.basis)[3]
    free = range(m.shape[0] - q.free_rank, m.shape[0])
    assert q._free_lifts == tuple(tuple(Uinv[:, i]) for i in free)


class TestTransformsMatchNumpyOracle:
    @settings(max_examples=200, deadline=None)
    @given(snf_inputs())
    def test_random_matrices(self, m):
        assert_numpy_transforms(m)

    def test_differentials_of_the_random_suite(self):
        torsion_sums = tuple(builtin(name) for name in TORSION_SUMS)
        for d in RANDOM_SUITE + POOL_SUITE + torsion_sums:
            for c in (homology_complex(d), dual_complex(d)):
                for m in c.diffs:
                    assert_numpy_transforms(m)


class TestDeterminant:
    def test_known_values(self):
        assert det(mat([[2, 3], [5, 7]])) == -1
        assert det(mat(_identity_rows(4))) == 1
        assert det(zero_matrix(3, 3)) == 0
        assert det(zero_matrix(0, 0)) == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det(zero_matrix(2, 3))

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(max_dim=4))
    def test_matches_sympy(self, m):
        if m.shape[0] != m.shape[1]:
            m = m[: min(m.shape), : min(m.shape)]
        assert det(m) == int(sympy_of(m).det())


class TestKernel:
    def test_row_of_ones(self):
        ker = kernel_basis(mat([[1, 1]]))
        assert ker.columns() == ((1, -1),)

    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(mat(_identity_rows(3))).rank == 0

    def test_zero_map_has_full_kernel(self):
        ker = kernel_basis(zero_matrix(2, 3))
        assert ker == Subgroup.full(3)

    def test_zero_rows(self):
        assert kernel_basis(zero_matrix(0, 2)) == Subgroup.full(2)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(int_matrices(min_dim=0), zero_matrices))
    def test_kernel_is_annihilated_and_saturated(self, m):
        ker = kernel_basis(m)
        assert ker == smith_kernel_basis(m)
        if ker.rank:
            assert not np.any(m @ ker.basis)
        assert ker.rank == m.shape[1] - sympy_of(m).rank()
        assert quotient(m.shape[1], ker).torsion == ()


word_entries = st.integers(min_value=-(2**64), max_value=2**64)


@st.composite
def word_matrices(draw):
    """Shapes 0..5 with entries up to 2^64, near-integer quotients' widest case."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    row = st.lists(word_entries, min_size=ncols, max_size=ncols)
    return mat(draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols)


def is_canonical(sub: Subgroup) -> bool:
    """Pivot rows strictly increase, pivots are positive, and every entry of a
    pivot row left of its pivot lies in [0, pivot)."""
    cols = sub.columns()
    pivots = [next(i for i, x in enumerate(col) if x) for col in cols]
    return (
        pivots == sorted(set(pivots))
        and all(col[p] > 0 for col, p in zip(cols, pivots))
        and all(
            0 <= cols[k][p] < col[p]
            for j, (col, p) in enumerate(zip(cols, pivots))
            for k in range(j)
        )
    )


class TestEliminationWithWordSizedEntries:
    @settings(max_examples=100, deadline=None)
    @given(word_matrices())
    def test_kernel_and_span_match_their_oracles(self, m):
        ker = kernel_basis(m)
        assert ker == smith_kernel_basis(m)
        if ker.rank:
            assert not np.any(m @ ker.basis)
        assert ker.rank == m.shape[1] - sympy_of(m).rank()
        cols = matrix_columns(m)
        span = Subgroup.from_columns(m.shape[0], cols)
        assert is_canonical(span)
        assert all(span.contains(col) for col in cols)
        for col in span.columns():
            integer_solve(m, col)  # raises unless the column lies in the span of m


DENSE_DIAGRAMS = tuple(random_diagram(g, seed) for g in range(8, 13) for seed in (0, 1))


def assert_kernel_matches_smith_oracle(columns, nrows):
    assert _kernel(columns, nrows) == smith_kernel_basis(_column_matrix(columns, nrows))


class TestKernelAtDenseSizes:
    def test_differentials(self):
        for d in DENSE_DIAGRAMS:
            for c in (homology_complex(d), dual_complex(d)):
                for cols, nrows in zip(c.columns, c.ranks[1:]):
                    assert_kernel_matches_smith_oracle(cols, nrows)

    def test_paired_lagrangian_bases(self):
        for d in DENSE_DIAGRAMS:
            for lam in (1, 2, 3):
                left = d.lagrangian_subgroup(lam).columns()
                right = d.lagrangian_subgroup(lam % 3 + 1).columns()
                paired = left + tuple(tuple(-x for x in col) for col in right)
                assert_kernel_matches_smith_oracle(paired, 2 * d.genus)


@st.composite
def members(draw):
    """A subgroup with small or 70-bit generators, and coordinates in its basis."""
    m = draw(snf_inputs())
    sub = Subgroup.from_columns(m.shape[0], matrix_columns(m))
    entries = draw(st.sampled_from([small_entries, big_entries]))
    coords = draw(st.lists(entries, min_size=sub.rank, max_size=sub.rank))
    return sub, tuple(coords)


class TestSubgroup:
    def test_canonical_form_is_representation_independent(self):
        a = Subgroup.from_columns(2, [(2, 0), (0, 1)])
        b = Subgroup.from_columns(2, [(2, 1), (2, 3), (4, 1)])
        # both generate {(x, y) : x even} + (0,1)Z = 2Z x Z
        assert a == b
        assert a.columns() == ((2, 0), (0, 1))

    def test_membership_and_coordinates(self):
        s = Subgroup.from_columns(3, [(1, 2, 0), (0, 0, 5)])
        coords = s.coordinates_of((3, 6, -10))
        assert _combination(s.columns(), coords, 3) == (3, 6, -10)
        assert not s.contains((0, 1, 0))
        with pytest.raises(ValueError):
            s.coordinates_of((0, 0, 1))

    def test_trivial_and_full(self):
        assert Subgroup.from_columns(3, ()).rank == 0
        assert Subgroup.full(3).rank == 3
        assert Subgroup.full(3).contains((7, -2, 9))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Subgroup.from_columns(2, [(1, 2, 3)])

    @pytest.mark.parametrize("n", [-1, True, 2.5], ids=["negative", "bool", "float"])
    def test_ambient_rank_must_be_a_nonnegative_int(self, n):
        with pytest.raises(ValueError, match="ambient rank"):
            Subgroup.from_columns(n, [])
        with pytest.raises(ValueError, match="ambient rank"):
            Subgroup.full(n)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(max_dim=4))
    def test_rebasing_by_unimodular_mix_preserves_canonical_form(self, m):
        cols = matrix_columns(m)
        s = Subgroup.from_columns(m.shape[0], cols)
        mixed = list(cols)
        for i in range(len(mixed) - 1):
            mixed[i] = tuple(x + 3 * y for x, y in zip(mixed[i], mixed[i + 1]))
        mixed.reverse()
        assert Subgroup.from_columns(m.shape[0], mixed) == s

    @settings(max_examples=150, deadline=None)
    @given(members())
    def test_coordinates_of_inverts_the_combination(self, case):
        sub, coords = case
        v = _combination(sub.columns(), coords, sub.ambient_rank)
        assert sub.coordinates_of(v) == coords
        # a nonzero class of the quotient, lifted, is not a member
        q = quotient(sub.ambient_rank, sub)
        for unit in _identity_rows(len(q.torsion) + q.free_rank):
            perturbed = tuple(a + b for a, b in zip(v, quotient_lift(q, unit)))
            with pytest.raises(ValueError, match="not in the subgroup"):
                sub.coordinates_of(perturbed)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(max_dim=4))
    def test_every_generator_is_a_member(self, m):
        s = Subgroup.from_columns(m.shape[0], matrix_columns(m))
        for col in matrix_columns(m):
            assert s.contains(col)


class TestQuotient:
    def test_z2_mod_2z(self):
        q = quotient(2, Subgroup.from_columns(2, [(2, 0)]))
        assert q.free_rank == 1
        assert q.torsion == (2,)

    def test_z2_mod_diag_2_3(self):
        q = quotient(2, Subgroup.from_columns(2, [(2, 0), (0, 3)]))
        assert q.free_rank == 0
        assert q.torsion == (6,)

    def test_primitive_relation_gives_free_quotient(self):
        q = quotient(3, Subgroup.from_columns(3, [(1, 1, 1)]))
        assert q.free_rank == 2
        assert q.torsion == ()

    def test_project_lift_roundtrip(self):
        q = quotient(3, Subgroup.from_columns(3, [(2, 0, 0), (0, 1, 1)]))
        for v in [(1, 0, 0), (0, 1, 0), (5, -3, 2)]:
            coords = q.project(v)
            assert q.project(quotient_lift(q, coords)) == coords

    def test_projection_kills_exactly_the_relations(self):
        rel = Subgroup.from_columns(3, [(2, 4, 0), (0, 6, 0)])
        q = quotient(3, rel)
        for col in rel.columns():
            assert q.is_zero(col)
        assert not q.is_zero((1, 0, 0)) or not q.is_zero((0, 1, 0)) or not q.is_zero((0, 0, 1))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            quotient(3, Subgroup.from_columns(2, [(1, 0)]))

    @settings(max_examples=120, deadline=None)
    @given(int_matrices())
    def test_quotient_by_image_has_snf_invariant_factors(self, m):
        _, D, _ = smith_normal_form(m)
        q = quotient(m.shape[0], image_subgroup(m))
        diag = [int(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0]
        assert q.torsion == tuple(d for d in diag if d >= 2)
        assert q.free_rank == m.shape[0] - len(diag)

    @settings(max_examples=120, deadline=None)
    @given(int_matrices())
    def test_lift_lands_in_the_right_coset(self, m):
        rel = image_subgroup(m)
        q = quotient(m.shape[0], rel)
        v = tuple(range(m.shape[0]))
        lifted = quotient_lift(q, q.project(v))
        diff = tuple(a - b for a, b in zip(lifted, v))
        # lift(project(v)) may differ from v only by a relation plus torsion multiples
        scaled = q.project(diff)
        assert not any(scaled)


class TestIntersectionAndSum:
    def test_intersection_of_scaled_axes(self):
        a = Subgroup.from_columns(2, [(2, 0), (0, 1)])
        b = Subgroup.from_columns(2, [(3, 0), (0, 1)])
        assert subgroup_intersection(a, b) == Subgroup.from_columns(2, [(6, 0), (0, 1)])

    def test_sum_with_index_two_sublattice(self):
        a = Subgroup.from_columns(2, [(0, 1)])
        b = Subgroup.from_columns(2, [(2, 1)])
        total = subgroup_sum(a, b)
        assert total == Subgroup.from_columns(2, [(2, 0), (0, 1)])
        assert not total.contains((1, 0))

    def test_trivial_cases(self):
        full = Subgroup.full(3)
        triv = Subgroup.from_columns(3, ())
        assert subgroup_intersection(full, triv) == triv
        assert subgroup_sum(full, triv) == full

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            subgroup_intersection(Subgroup.full(2), Subgroup.full(3))
        with pytest.raises(ValueError):
            subgroup_sum(Subgroup.full(2), Subgroup.full(3))

    @settings(max_examples=80, deadline=None)
    @given(int_matrices(max_dim=4), int_matrices(max_dim=4))
    def test_lattice_laws(self, m1, m2):
        n = m1.shape[0]
        a = Subgroup.from_columns(n, matrix_columns(m1))
        b = Subgroup.from_columns(n, matrix_columns(m2[:n, :] if m2.shape[0] >= n else np.vstack([m2, zero_matrix(n - m2.shape[0], m2.shape[1])])))
        inter = subgroup_intersection(a, b)
        total = subgroup_sum(a, b)
        assert inter == subgroup_intersection(b, a)
        assert total == subgroup_sum(b, a)
        for col in inter.columns():
            assert a.contains(col) and b.contains(col)
        for col in a.columns() + b.columns():
            assert total.contains(col)
        assert subgroup_sum(a, a) == a
        assert subgroup_intersection(a, a) == a
        # modular rank identity
        assert inter.rank + total.rank == a.rank + b.rank


class TestIntegerSolve:
    def test_diagonal_system(self):
        assert integer_solve(mat([[2, 0], [0, 3]]), [4, -9]) == (2, -3)

    def test_unsolvable_divisibility(self):
        with pytest.raises(ValueError, match="no integer solution"):
            integer_solve(mat([[2]]), [3])

    def test_inconsistent_system(self):
        with pytest.raises(ValueError, match="no integer solution"):
            integer_solve(mat([[1], [1]]), [1, 2])

    def test_underdetermined_picks_some_solution(self):
        m = mat([[1, 1]])
        x = integer_solve(m, [5])
        assert x[0] + x[1] == 5

    def test_empty_system(self):
        assert integer_solve(zero_matrix(0, 0), []) == ()

    @settings(max_examples=80, deadline=None)
    @given(int_matrices(max_dim=4), st.data())
    def test_round_trip_on_solvable_systems(self, m, data):
        ncols = m.shape[1]
        x = data.draw(st.lists(small_entries, min_size=ncols, max_size=ncols))
        rhs = [int(e) for e in (m @ np.array([[v] for v in x], dtype=object))[:, 0]]
        sol = integer_solve(m, rhs)
        back = m @ np.array([[v] for v in sol], dtype=object)
        assert [int(e) for e in back[:, 0]] == rhs

    @settings(max_examples=120, deadline=None)
    @given(int_matrices(max_dim=4), st.data())
    def test_span_coordinates_solve_exactly_what_the_smith_oracle_solves(self, m, data):
        # the columns may be dependent; any solution the solver returns must be exact
        nrows, columns = m.shape[0], matrix_columns(m)
        solve = SpanCoordinates(columns, nrows)
        assert solve.rank == sympy_of(m).rank()
        x = data.draw(st.lists(small_entries, min_size=len(columns), max_size=len(columns)))
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=nrows, max_size=nrows))
        for rhs in (_combination(columns, x, nrows), _combination([shift], [1], nrows)):
            try:
                integer_solve(m, rhs)
            except ValueError:
                with pytest.raises(ValueError, match="not in the span"):
                    solve(rhs)
            else:
                sol = solve(rhs)
                assert len(sol) == len(columns)
                assert _combination(columns, sol, nrows) == rhs


@st.composite
def curve_systems(draw):
    """n vectors of one width, n > width included: random columns, then some
    scaled by 2-5, replaced by a combination of the others or zeroed."""
    width, n = draw(st.integers(0, 7)), draw(st.integers(0, 5))
    entries = st.sampled_from((0, 0, 1, -1, 1, -1, 2, -2, 3, -5))
    columns = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(n)]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else ():
        kind = draw(st.sampled_from(("scaled", "dependent", "zero")))
        if kind == "scaled":
            columns[j] = [draw(st.integers(2, 5)) * x for x in columns[j]]
        elif kind == "dependent":
            coeffs = [0 if k == j else draw(st.integers(-2, 2)) for k in range(n)]
            columns[j] = list(_combination(columns, coeffs, width))
        else:
            columns[j] = [0] * width
    return columns, width


@st.composite
def primitive_systems(draw):
    """The first n columns of a unimodular matrix, a word of row additions
    applied to the identity: always a basis of a primitive sublattice."""
    width = draw(st.integers(0, 7))
    n = draw(st.integers(0, width))
    m = [[int(i == j) for j in range(width)] for i in range(width)]
    if width > 1:
        pairs = st.tuples(st.integers(0, width - 1), st.integers(0, width - 1))
        for i, k in draw(st.lists(pairs, max_size=12)):
            if i != k:
                q = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
                m[i] = [a + q * b for a, b in zip(m[i], m[k])]
    return [[row[j] for row in m] for j in range(n)], width


def unit_echelon(columns, width):
    """The elimination of the width x n matrix with the given columns."""
    return _UnitEchelon(_transpose(columns, width), len(columns))


class TestUnitEchelon:
    """The one recorded elimination: primitivity against sympy's invariant
    factors, coordinates against the tracked-echelon oracle, and lifts by
    their law."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(curve_systems(), primitive_systems()))
    def test_primitive_exactly_when_every_invariant_factor_is_one(self, case):
        columns, width = case
        before = [list(c) for c in columns]
        n = len(columns)
        expected = sympy_invariant_factors(columns, width) == (1,) * n
        assert unit_echelon(columns, width).primitive == expected
        assert columns == before

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(curve_systems(), primitive_systems()), st.data())
    def test_coordinates_and_lifts_on_primitive_systems(self, case, data):
        columns, width = case
        echelon, n = unit_echelon(columns, width), len(columns)
        if not echelon.primitive:
            with pytest.raises(ValueError, match="primitive"):
                echelon.coordinates([0] * width)
            with pytest.raises(ValueError, match="primitive"):
                echelon.transpose_solve([0] * n)
            return
        oracle = SpanCoordinates(columns, width)
        x = data.draw(st.lists(small_entries, min_size=n, max_size=n))
        v = _combination(columns, x, width)
        assert echelon.coordinates(v) == tuple(x) == oracle(v)
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=width, max_size=width))
        moved = tuple(a + b for a, b in zip(v, shift))
        try:
            expected = oracle(moved)
        except ValueError:
            with pytest.raises(ValueError, match="not in the span"):
                echelon.coordinates(moved)
        else:
            assert echelon.coordinates(moved) == expected
        pairings = data.draw(st.lists(small_entries, min_size=n, max_size=n))
        u = echelon.transpose_solve(pairings)
        assert len(u) == width
        assert [sum(a * b for a, b in zip(c, u)) for c in columns] == pairings

    @pytest.mark.parametrize(
        "columns, width, primitive",
        [
            ([(2, 3)], 2, True),  # no unit: row-Euclid leaves 1
            ([(3, -5)], 2, True),  # row-Euclid leaves -1
            ([(2, 4)], 2, False),  # row-Euclid leaves 2
            ([(1, 0), (0, 0)], 2, False),  # a zero column
            ([(1, 1), (1, -1)], 2, False),  # invariant factors 1, 2
            ([(1,), (0,)], 1, False),  # more vectors than the width
            ([], 0, True),
        ],
    )
    def test_fixed_cases(self, columns, width, primitive):
        echelon = unit_echelon(columns, width)
        assert echelon.primitive == primitive
        if primitive and columns:
            v = [3 * x for x in columns[0]]
            assert echelon.coordinates(v) == (3,) + (0,) * (len(columns) - 1)

    def test_builds_no_smith_form_and_no_tracked_echelon(self, eliminations):
        echelon = unit_echelon([(2, 3, 0, 0), (0, 0, 4, 7)], 4)
        assert echelon.primitive
        assert echelon.coordinates((2, 3, 8, 14)) == (1, 2)
        # the unit-pivot elimination needs no other kernel
        assert not eliminations.of("smith", "echelon")


FREE_LINE = quotient(1, Subgroup.from_columns(1, ()))
S1XS3 = builtin("S1xS3")
NOT_A_MATRIX = np.array([1, 2], dtype=object)

# Each public entry point: a call placing one entry x in otherwise valid input
# and returning what x became, plus calls with malformed shapes or lengths.
ENTRY_POINTS = {
    "smith_normal_form": (
        lambda x: smith_normal_form(mat([[x]]))[1][0, 0],
        [lambda: smith_normal_form(NOT_A_MATRIX)],
    ),
    "kernel_basis": (
        lambda x: kernel_basis(mat([[x, -1]])).columns()[0][1],
        [lambda: kernel_basis(NOT_A_MATRIX)],
    ),
    "smith_normal_form nested list": (
        lambda x: smith_normal_form([[x]])[1][0, 0],
        [lambda: smith_normal_form([[1, 2], [3]]), lambda: smith_normal_form([1, 2])],
    ),
    "kernel_basis nested list": (
        lambda x: kernel_basis([[x, -1]]).columns()[0][1],
        [lambda: kernel_basis([[1, 2], [3]]), lambda: kernel_basis([1, 2])],
    ),
    "as_int_vector": (
        lambda x: as_int_vector([1, x, 3], 3)[1],
        [lambda: as_int_vector([1, 2], 3)],
    ),
    "Subgroup.from_columns": (
        lambda x: Subgroup.from_columns(1, [(x,)]).columns()[0][0],
        [lambda: Subgroup.from_columns(2, [(1, 2, 3)])],
    ),
    "coordinates_of": (
        lambda x: Subgroup.full(1).coordinates_of((x,))[0],
        [lambda: Subgroup.full(2).coordinates_of((1,))],
    ),
    "QuotientPresentation.project": (
        lambda x: FREE_LINE.project((x,))[0],
        [lambda: FREE_LINE.project((1, 2))],
    ),
    "integer_solve rhs": (
        lambda x: integer_solve(mat([[1]]), [x])[0],
        [lambda: integer_solve(mat([[1]]), [1, 2])],
    ),
    "diagram_from_curves": (
        lambda x: diagram_from_curves(1, [(x, 1)], [(0, 1)], [(1, 1)]).alpha.curves[0][0],
        [lambda: diagram_from_curves(1, [(1, 0, 0)], [(0, 1)], [(1, 1)])],
    ),
    "pairing_h3_h1": (
        lambda x: pairing_h3_h1(S1XS3, (x, 0), (0, 1)),
        [lambda: pairing_h3_h1(S1XS3, (1, 0, 0), (0, 1))],
    ),
}


class TestHelpers:
    def test_nested_lists_read_as_their_arrays(self):
        rows = [[2, 4, -6], [0, 3, 9]]
        for got, want in zip(smith_normal_form(rows), smith_normal_form(mat(rows))):
            assert got.tolist() == want.tolist()
        assert kernel_basis(rows) == kernel_basis(mat(rows))
        assert kernel_basis((range(3), range(3))) == kernel_basis(mat([[0, 1, 2]] * 2))

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_entry_point_checks_integers(self, name):
        enter, malformed = ENTRY_POINTS[name]
        for bad in (True, np.bool_(True), 1.0, np.float64(1), "1"):
            with pytest.raises(ValueError):
                enter(bad)
        for good in (np.int64(3), np.uint8(3)):
            value = enter(good)
            assert value == 3 and type(value) is int
        for call in malformed:
            with pytest.raises(ValueError):
                call()
