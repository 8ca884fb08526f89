"""Seeded benchmark inputs and their expected invariants, in plain Python.

Every input is a block sum (connected sum) of base manifolds from ``BASES``,
scrambled by one word of integral symplectic transvections
``x -> x + <x, v> v`` applied to all three cut systems at once. A global
symplectic map only changes the basis of the surface lattice, so the manifold
is the connected sum of its summands and ``expected`` can predict every
invariant from the table ``EXPECTED`` by additivity. Nothing here imports
trihodge: the expectations are an oracle independent of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

Curves = tuple[tuple[int, ...], ...]

# (genus, alpha, beta, gamma) in the basis a1, b1, ..., ag, bg.
BASES: dict[str, tuple[int, Curves, Curves, Curves]] = {
    "CP2": (1, ((1, 0),), ((0, 1),), ((1, 1),)),
    "CP2bar": (1, ((1, 0),), ((0, 1),), ((1, -1),)),
    "S1xS3": (1, ((0, 1),), ((0, 1),), ((0, 1),)),
    "S2xS2": (
        2,
        ((1, 0, 0, 0), (0, 0, 1, 0)),
        ((0, 1, 0, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 1), (0, 1, 1, 0)),
    ),
    "QS4_Z2": (
        3,
        ((0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)),
        ((-1, 1, 1, 0, 0, 0), (1, 0, -1, 1, 0, 0), (0, 0, 0, 0, 0, 1)),
        ((1, 2, 1, 1, 1, 1), (0, -1, 0, 1, 0, 0), (0, 0, 0, -1, 0, 1)),
    ),
    "QS4_Z3": (
        3,
        ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
        ((0, 1, 0, 0, 0, 0), (0, 0, -1, 0, 0, -1), (0, 0, -1, -1, -1, 1)),
        ((0, 1, 0, 0, 0, -1), (-1, -1, 0, 2, -1, -1), (-1, -1, -1, 2, -1, 1)),
    ),
}


@dataclass(frozen=True)
class Expected:
    """Invariants of a closed 4-manifold that connected sum adds or multiplies.

    ``ranks`` and ``torsion`` cover H_1, H_2, H_3; torsion is a sorted tuple
    of prime powers, so Z/6 and Z/2 + Z/3 compare equal.
    """

    ranks: tuple[int, int, int]
    torsion: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    signature: tuple[int, int]
    spin_count: int
    odd: bool

    def __add__(self, other: "Expected") -> "Expected":
        return Expected(
            ranks=tuple(a + b for a, b in zip(self.ranks, other.ranks)),
            torsion=tuple(tuple(sorted(a + b)) for a, b in zip(self.torsion, other.torsion)),
            signature=(
                self.signature[0] + other.signature[0],
                self.signature[1] + other.signature[1],
            ),
            spin_count=self.spin_count * other.spin_count,
            odd=self.odd or other.odd,
        )


S4 = Expected((0, 0, 0), ((), (), ()), (0, 0), 1, False)

EXPECTED: dict[str, Expected] = {
    "CP2": Expected((0, 1, 0), ((), (), ()), (1, 0), 0, True),
    "CP2bar": Expected((0, 1, 0), ((), (), ()), (0, 1), 0, True),
    "S1xS3": Expected((1, 0, 1), ((), (), ()), (0, 0), 2, False),
    "S2xS2": Expected((0, 2, 0), ((), (), ()), (1, 1), 1, False),
    "QS4_Z2": Expected((0, 0, 0), ((2,), (2,), ()), (0, 0), 0, False),
    "QS4_Z3": Expected((0, 0, 0), ((3,), (3,), ()), (0, 0), 1, False),
}


def expected(summands: tuple[str, ...]) -> Expected:
    total = S4
    for name in summands:
        total = total + EXPECTED[name]
    return total


def prime_powers(factors) -> tuple[int, ...]:
    """Primary decomposition of a list of cyclic orders, sorted."""
    out = []
    for n in factors:
        p = 2
        while n > 1:
            if p * p > n:
                p = n
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                out.append(q)
            p += 1
    return tuple(sorted(out))


def form(x, y) -> int:
    """Surface intersection number <x, y>, blockwise [[0, 1], [-1, 0]]."""
    return sum(x[i] * y[i + 1] - x[i + 1] * y[i] for i in range(0, len(x), 2))


def det(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


@dataclass(frozen=True)
class Case:
    """One benchmark input: what the program receives, plus its summands."""

    summands: tuple[str, ...]
    genus: int
    alpha: Curves
    beta: Curves
    gamma: Curves

    @property
    def key(self) -> tuple[Curves, Curves, Curves]:
        return (self.alpha, self.beta, self.gamma)


def block_sum(summands: tuple[str, ...]) -> tuple[int, list[list[list[int]]]]:
    genus = sum(BASES[s][0] for s in summands)
    systems: list[list[list[int]]] = [[], [], []]
    offset = 0
    for name in summands:
        g, *curves = BASES[name]
        for out, cs in zip(systems, curves):
            for c in cs:
                out.append([0] * offset + list(c) + [0] * (2 * genus - offset - 2 * g))
        offset += 2 * g
    return genus, systems


def scramble(systems, rng: random.Random, moves: int, support: tuple[int, int]) -> None:
    """Apply one random word of transvections x -> x + <x, v> v in place.

    Each v has between ``support[0]`` and ``support[1]`` nonzero entries of
    +-1. Transvections preserve the form, so every validity check survives.
    """
    rank = len(systems[0][0]) if systems[0] else 0
    for _ in range(moves):
        v = [0] * rank
        for idx in rng.sample(range(rank), min(rng.randint(*support), rank)):
            v[idx] = rng.choice((-1, 1))
        for curves in systems:
            for c in curves:
                t = form(c, v)
                if t:
                    for i, vi in enumerate(v):
                        if vi:
                            c[i] += t * vi


def random_summands(rng: random.Random, genus: int, names: tuple[str, ...]) -> tuple[str, ...]:
    """Random multiset of base names whose genera add up to ``genus``."""
    out: list[str] = []
    left = genus
    while left:
        name = rng.choice([n for n in names if BASES[n][0] <= left])
        out.append(name)
        left -= BASES[name][0]
    return tuple(out)


@dataclass(frozen=True)
class Slot:
    """One position of a workload's fixed schedule.

    ``summands`` fixes the manifold; when it is None, ``genus`` and the seed
    choose summands from ``names``. ``support`` bounds the number of nonzero
    entries of each transvection vector; ``moves`` is the word length, or
    None for a seeded length in [g + 1, 3g + 4].
    """

    genus: int
    names: tuple[str, ...] = tuple(BASES)
    summands: tuple[str, ...] | None = None
    support: tuple[int, int] = (1, 2)
    moves: int | None = None


CENSUS = tuple(
    slot
    for g in range(1, 6)
    for slot in (Slot(g, names=("CP2",)), Slot(g))
)
# The first three summands make genus 8; each further one adds a handle.
_DENSE_SUMMANDS = ("S2xS2", "QS4_Z3", "QS4_Z2", "CP2", "S1xS3", "CP2bar", "CP2")
DENSE = tuple(
    Slot(g, summands=_DENSE_SUMMANDS[: g - 5], support=(3, 3), moves=2 * g) for g in range(8, 13)
)
SPIN = (
    Slot(7, summands=("S1xS3", "S1xS3", "S2xS2", "QS4_Z3")),
    Slot(7, summands=("CP2", "S1xS3", "QS4_Z2", "S2xS2")),
    Slot(8, summands=("S1xS3", "S2xS2", "QS4_Z3", "S2xS2")),
)
SCHEDULES = {"census": CENSUS, "dense": DENSE, "spin": SPIN}


def cases(schedule: tuple[Slot, ...], seed: int) -> Iterator[Case]:
    """Endless stream of distinct cases cycling through ``schedule``.

    The schedule fixes genus and work per position; the seed picks summands,
    their order and the scramble. No two cases share a diagram value, so a
    value-keyed cache never turns a later case into a lookup.
    """
    rng = random.Random(seed)
    seen: set = set()
    while True:
        for slot in schedule:
            while True:
                if slot.summands is None:
                    summands = random_summands(rng, slot.genus, slot.names)
                else:
                    summands = tuple(rng.sample(slot.summands, len(slot.summands)))
                genus, systems = block_sum(summands)
                moves = slot.moves or rng.randint(genus + 1, 3 * genus + 4)
                scramble(systems, rng, moves, slot.support)
                case = Case(summands, genus, *(tuple(map(tuple, s)) for s in systems))
                if case.key not in seen:
                    seen.add(case.key)
                    yield case
                    break
