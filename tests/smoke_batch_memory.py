"""Batch memory smoke: every public query on 10,000 small block sums with
the cycle collector off. Run from the root of a checkout:

    PYTHONPATH=src python tests/smoke_batch_memory.py

Nothing memoized on a diagram refers back to it, so each is freed as soon
as the next replaces it. Peak RSS reads about 66 MB on Python 3.11 (numpy
and sympy imported); it read 247 MB when memoized cocycles and dual reps
kept every diagram alive. Prints the peak and raises AssertionError at
120 MB or more.
"""

import gc
import resource

gc.disable()

from helpers import full_query, small_sums  # noqa: E402

for d in small_sums(10_000, 1):
    full_query(d)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak RSS {peak:.1f} MB")
assert peak < 120, peak
