"""A seeded sample of the genus-2 census: ordered triples of the 88
canonical rank-2 isotropic subgroups spanned by two vectors of
{-1, 0, 1}^4, 68 of them primitive Lagrangians. About 6% of the triples
are valid diagrams, and each valid one must satisfy the laws that hold on
every closed 4-manifold. None of them is a block sum of builtins moved by a
change of basis, which is how every other generator builds its diagrams.
No H1 in the census has torsion, so Wu's formula fixes every spin count.
"""

import random
from itertools import combinations, product

from trihodge.complexes import HomologyGroup, homology_groups
from trihodge.diagram import _span_quotient, diagram_from_curves, euler_characteristic
from trihodge.lattice import Subgroup
from trihodge.pairings import h3_representatives, intersection_form
from trihodge.spin import spin_count

from helpers import h3_h1_gram, kashiwara_signature, plain_form, wu_spin_count

TRIPLES = 2000


def canonical_lagrangians() -> list[tuple[tuple[int, ...], ...]]:
    """The canonical columns of each rank-2 subgroup of Z^4 spanned by two
    isotropic vectors of {-1, 0, 1}^4, sorted."""
    vectors = [v for v in product((-1, 0, 1), repeat=4) if any(v)]
    spans = set()
    for v, w in combinations(vectors, 2):
        if plain_form(v, w) == 0:
            span = Subgroup.from_columns(4, (v, w))
            if span.rank == 2:
                spans.add(span.columns())
    return sorted(spans)


LAGRANGIANS = canonical_lagrangians()


def census_sample(seed: int) -> list:
    """The valid diagrams among ``TRIPLES`` ordered triples of ``LAGRANGIANS``
    drawn with ``random.Random(seed)``, each system its canonical columns."""
    rng = random.Random(seed)
    diagrams = (diagram_from_curves(2, *rng.choices(LAGRANGIANS, k=3)) for _ in range(TRIPLES))
    return [d for d in diagrams if d.validation.is_valid]


def test_census_enumeration():
    assert len(LAGRANGIANS) == 88


def test_census_sample_laws():
    sample = census_sample(0)
    assert len(sample) > TRIPLES // 25  # about 6% are valid
    for d in sample:
        groups = homology_groups(d)
        b1, torsion = _span_quotient([c for cs in d.systems for c in cs.curves], 4)
        assert groups[1] == HomologyGroup(b1, torsion), d.systems
        assert euler_characteristic(d) == sum((-1) ** k * h.rank for k, h in enumerate(groups))
        assert groups[2].torsion == groups[1].torsion
        positive, negative = intersection_form(d).signature
        assert positive - negative == -kashiwara_signature(d), d.systems
        assert spin_count(d) == wu_spin_count(d), d.systems
        gram = h3_h1_gram(d, h3_representatives(d))
        assert gram.tolist() == [[int(i == j) for j in range(b1)] for i in range(b1)]
