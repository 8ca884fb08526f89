"""Laws on ``helpers.pool_diagram``: prescribed forms summed with torsion,
S1xS3 and stabilization pieces, scrambled and handleslid. Three of them, the
signature as minus Kashiwara's index, Wall's form as the intersection form
up to isometry and Wu's spin count, are also checked on the builtins,
random diagrams, the ladder and spin sums; Wall's form also on the pool
and the torsion sums.

Rokhlin and Donaldson are not asserted: the E8 triple is a valid algebraic
triple of signature 8 with a spin structure, so it need not come from a
smooth manifold.
"""

import pytest

from trihodge.complexes import homology_groups
from trihodge.diagram import builtin, builtin_names, random_diagram
from trihodge.pairings import h3_representatives, intersection_form
from trihodge.spin import spin_count

from helpers import (
    full_width_signature,
    h3_h1_gram,
    kashiwara_signature,
    ladder_diagram,
    pool_diagram,
    spin_sum_diagram,
    sympy_invariant_factors,
    wall_gram,
    wu_spin_count,
)
from test_fingerprint import TORSION_SUMS

POOL_SEEDS = range(25)
POOL_SUITE = tuple(pool_diagram(seed)[0] for seed in POOL_SEEDS)
# the other families the second-route laws run on; every one but
# QS4_Z2 has no 2-torsion in H1, so Wu's formula fixes its spin count
LAW_SUITE = (
    *(builtin(name) for name in builtin_names()),
    random_diagram(4, 1),
    random_diagram(8, 2),
    ladder_diagram(8),
    ladder_diagram(16),
    *(spin_sum_diagram(12, seed)[0] for seed in range(3)),
)


def characteristic_vector(gram) -> list[int]:
    """w with G w = diag G (mod 2), by elimination over F2; G is unimodular,
    so it is invertible mod 2."""
    n = len(gram)
    rows = [[gram[i][j] % 2 for j in range(n)] + [gram[i][i] % 2] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def test_characteristic_vector_of_a_small_odd_form():
    # <1> + <-1>: w = (1, 1), and w.G.w = 0 = signature
    assert characteristic_vector(((1, 0), (0, -1))) == [1, 1]
    # [[3, 1], [1, 0]]: G w = (1, 0) mod 2 gives w = (0, 1), w.G.w = 0
    assert characteristic_vector(((3, 1), (1, 0))) == [0, 1]


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_diagram_laws(seed):
    d, expected = pool_diagram(seed)
    groups = homology_groups(d)
    form = intersection_form(d)
    assert form.rank == expected.rank, d.describe()
    assert (form.signature, form.parity) == (expected.signature, expected.parity), d.describe()
    assert form.unimodular
    # van der Blij: the signature is w.G.w mod 8 for a characteristic w
    w = characteristic_vector(form.gram)
    square = sum(w[i] * form.gram[i][j] * w[j] for i in range(len(w)) for j in range(len(w)))
    positive, negative = form.signature
    assert (positive - negative - square) % 8 == 0
    assert positive - negative == -kashiwara_signature(d)
    assert groups[1] == expected.h1
    even_factors = sum(t % 2 == 0 for t in expected.h1.torsion)
    count = spin_count(d)
    assert count in (0, 2 ** (expected.h1.rank + even_factors))
    # a spin structure makes every square even
    assert count == 0 or form.parity == "even"
    if not even_factors:
        # Wu: without 2-torsion in H1 the form alone fixes the count
        assert count == (2**expected.h1.rank if form.parity == "even" else 0)
        assert count == wu_spin_count(d)
    assert groups[2].torsion == groups[1].torsion
    b1 = expected.h1.rank
    gram = h3_h1_gram(d, h3_representatives(d))
    assert gram.shape == (b1, b1)
    assert gram.tolist() == [[int(i == j) for j in range(b1)] for i in range(b1)]


@pytest.mark.parametrize("d", LAW_SUITE, ids=lambda d: d.describe())
def test_signature_is_minus_the_kashiwara_index(d):
    positive, negative = intersection_form(d).signature
    assert positive - negative == -kashiwara_signature(d)


@pytest.mark.parametrize(
    "d", [d for d in LAW_SUITE if d.label != "QS4_Z2"], ids=lambda d: d.describe()
)
def test_wu_law(d):
    expected = wu_spin_count(d)
    assert expected is not None and spin_count(d) == expected


@pytest.mark.parametrize(
    "d",
    LAW_SUITE + POOL_SUITE + tuple(builtin(name) for name in TORSION_SUMS),
    ids=lambda d: d.describe(),
)
def test_wall_form_is_the_intersection_form_up_to_isometry(d):
    gram = wall_gram(d)
    form = intersection_form(d)
    assert gram == tuple(zip(*gram))
    factors = sympy_invariant_factors(gram, len(gram)) if gram else ()
    assert factors == (1,) * homology_groups(d)[2].rank
    even = all(gram[i][i] % 2 == 0 for i in range(len(gram)))
    assert ("even" if even else "odd") == form.parity
    (positive, negative), _ = full_width_signature(gram)
    assert positive - negative == -(form.signature[0] - form.signature[1])
