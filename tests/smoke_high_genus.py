"""High-genus smoke: laws no CLI command reaches, on diagrams far above the
tier-1 genera. Run from the root of a checkout:

    PYTHONPATH=src python tests/smoke_high_genus.py

No CLI command reads L1 n L2 n L3, the degree-three lifts or the dual-rep
lifts: they are checked on the genus-64 ladder diagram, where b1 = 3,
against b1, the perfect pairing of the homology complex's degree-three
generators with them and the package's dual basis. Every dual-rep lift
stays within 8 bits (27 bits when lifts were reduced along the canonical
Lagrangians) and gives back its rep. The curve pairing rows and the spin
system's solution space equal their plain oracles, the spin system on a
genus-64 sum of S1xS3 and S2xS2, whose count is not 0 as the ladder's is.
The kernels of the differentials and of the intersection matrices, which
run the row-Euclid step shared with the unit-pivot elimination at a size no
tier-1 input reaches, equal the Smith-form kernels. The ladder's signature
is minus Kashiwara's index of its Lagrangians, and the spin sum's count is
the one Wu's formula gives. The degree-two cokernel that
``homology_with_generators(2)`` presents is rebuilt from the kernel of d2
and the boundary coordinates: U times each free lift, solved along a
unit-pivot elimination of its genus-64 Smith transform U, is exactly the
matching unit vector. Any failed law raises AssertionError.
"""

import sympy

from helpers import comprehension_pairing_rows, dict_scan_solution_space
from helpers import h3_h1_gram, h3_representatives_by_complex, ladder_diagram
from helpers import kashiwara_signature, smith_kernel_basis, spin_sum_diagram, wu_spin_count
from trihodge.complexes import HomologyGroup, betti_numbers, homology_complex
from trihodge.lattice import _cokernel, _column_matrix, _dot, _kernel, _transpose
from trihodge.pairings import H2DualRep, dual_rep_basis, h1_basis, h3_representatives
from trihodge.pairings import intersection_form
from trihodge.spin import _solution_space

d = ladder_diagram(64)
c = homology_complex(d)
for cols, nrows in zip(c.columns, c.ranks[1:]):
    assert _kernel(cols, nrows) == smith_kernel_basis(_column_matrix(cols, nrows))
for q in d._intersection_matrices:
    assert _kernel(q, d.genus) == smith_kernel_basis(_column_matrix(q, d.genus))
cycles = _kernel(c.columns[2], c.ranks[3])
coords = [cycles.coordinates_of(col) for col in c.columns[1]]
q = _cokernel(_transpose(coords, cycles.rank), len(coords))
assert HomologyGroup(q.free_rank, q.torsion) == c.homology_with_generators(2)[0]
n = q.ambient_rank
assert q.free_rank > 0
for i, lift in zip(range(n - q.free_rank, n), q._free_lifts):
    assert [_dot(row, lift) for row in q._U] == [int(k == i) for k in range(n)]
assert d._curve_pairings == tuple(comprehension_pairing_rows(cs.curves) for cs in d.systems)
spin_sum, count = spin_sum_diagram(64, 1)
space = _solution_space(spin_sum)
assert space == dict_scan_solution_space(spin_sum) and 2 ** len(space[1]) == count > 1
assert wu_spin_count(spin_sum) == count
positive, negative = intersection_form(d).signature
assert positive - negative == -kashiwara_signature(d)
assert len(h1_basis(d)) == betti_numbers(d)[1] > 0
gram = h3_h1_gram(d, h3_representatives_by_complex(d))
assert abs(sympy.Matrix(gram.tolist()).det()) == 1
assert sympy.Matrix(h3_h1_gram(d, h3_representatives(d)).tolist()).is_Identity
reps = dual_rep_basis(d)
assert reps
for rep in reps:
    assert max(abs(e) for lift in rep.lifts for e in lift).bit_length() <= 8
    assert H2DualRep.from_lifts(d, rep.lifts) == rep
