"""Seeded random generators.

Everything here is driven by an explicit ``random.Random`` so runs are
reproducible from a seed.

The table samplers draw in bulk, straight into the packed forms, yet
take the draws the per-proposition loops take, seed for seed, on a
``random.Random``.  ``rng.choice`` of three labels makes tries
``getrandbits(2)``, the top two bits of one 32-bit word of the Mersenne
Twister, until one is below 3; ``getrandbits(32 * n)`` gives the next n
words, the first least significant.  So the top byte of each word, b,
is the index b >> 6 of the label, or a retry from 192 on, and drawing
only as many words as labels are still missing never takes a word the
loop would not.  A selection draws only where S(E) is free, at the
events disjoint from I, in ascending order, as the loop does; the
pinned half, E & I wherever E meets I, draws nothing and is packed by
one AND (``SelectionFunction._pinned``).

Every bounded draw, ``rng.randrange(n)`` or ``rng.randrange(1, n + 1)``
in the loops, is ``_below(rng, n)``: ``Random._randbelow`` on CPython
3.10-3.13 takes ``getrandbits(n.bit_length())`` until a value falls
below n, and ``_below`` takes the same tries in one frame, where
``randrange`` spends two.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from random import Random
from typing import Sequence

from .choice import ChoiceStructure
from .formulas import Atom, Formula, Not, Or
from .revision import CredibilityLabeling, PlausibilityOrder, SelectionFunction
from .worlds import Point, Universe, set_bits, submasks


def random_formula(rng: Random, atoms: Sequence[str], max_depth: int) -> Formula:
    if max_depth <= 0:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(3)
    if kind == 0:
        return Atom(rng.choice(atoms))
    if kind == 1:
        return Not(random_formula(rng, atoms, max_depth - 1))
    return Or(
        random_formula(rng, atoms, max_depth - 1),
        random_formula(rng, atoms, max_depth - 1),
    )


def _below(rng: Random, n: int) -> int:
    """``rng.randrange(n)``, for n > 0, in one frame (module docstring)."""
    bits = n.bit_length()
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return value


def _random_nonempty_submask(rng: Random, mask: int) -> int:
    # spread a random nonzero selector over the bits of ``mask``; this
    # is submasks(mask)[selector] without building all 2**|mask| of them
    positions = list(set_bits(mask))
    selector = 1 + _below(rng, (1 << len(positions)) - 1)
    return sum(1 << position for i, position in enumerate(positions) if selector >> i & 1)


def random_selection_function(rng: Random, universe: Universe) -> SelectionFunction:
    full = universe.full_mask
    initial_mask = 1 + _below(rng, full)
    free = {event: _random_nonempty_submask(rng, event) for event in submasks(full & ~initial_mask)[1:]}
    return SelectionFunction._pinned(universe, initial_mask, free)


# a word's top byte b as the index b >> 6 of the label rng.choice takes
# from tuple(Credibility); from 192 on, a retry
_INDEX_OF_TOP_BYTE = bytes(b >> 6 for b in range(192)).ljust(256)
_RETRIES = bytes(range(192, 256))


def random_labeling(rng: Random, universe: Universe) -> CredibilityLabeling:
    wanted = universe.full_mask - 1  # every proposition but 0 and full
    indices = b""
    while len(indices) < wanted:
        words = wanted - len(indices)
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        indices += top.translate(_INDEX_OF_TOP_BYTE, _RETRIES)
    return CredibilityLabeling._of_indices(universe, indices)


def random_plausibility_order(rng: Random, universe: Universe) -> PlausibilityOrder:
    ranking = {point.id: rng.randrange(universe.size) for point in universe.points}
    return PlausibilityOrder.from_ranks(universe, ranking)


@lru_cache(maxsize=32)
def _cycled_universe(atoms: tuple[str, ...], n_states: int) -> Universe:
    """States ``s0``, ``s1``, ... whose rows cycle through the valuations
    of ``atoms``, so two states share a row only past ``2**len(atoms)``.
    Cached, since a sampler draws many structures of one size."""
    rows = itertools.cycle(itertools.product((False, True), repeat=len(atoms)))
    return Universe(atoms, tuple(Point(f"s{i}", row) for i, row in zip(range(n_states), rows)))


def random_choice_structure(
    rng: Random,
    n_states: int,
    atoms: Sequence[str] = ("p", "q"),
    conforming: bool | None = None,
) -> ChoiceStructure:
    """A structure passing the structural laws by construction.

    With ``conforming`` true the choice map is drawn to satisfy the
    consistency criteria as well; with false it is unconstrained beyond
    the structural laws; None tosses a seeded coin (uniform random maps
    almost never satisfy the exact-equality criteria, so the mix keeps
    both verdicts populated).
    """
    if conforming is None:
        conforming = rng.random() < 0.5
    universe = _cycled_universe(tuple(atoms), n_states)
    full = universe.full_mask
    # every menu but the empty and the full one draws its family:
    # 0 none, 1 credible, 2 allowable, 3 rejected
    families: tuple[set[int], ...] = (set(), {full}, set(), {0})
    for mask in range(1, full):
        families[_below(rng, 4)].add(mask)
    _, credible, allowable, rejected = families
    f_omega = _random_nonempty_submask(rng, full)
    f: dict[int, int] = {full: f_omega}
    for event in sorted((credible | allowable | rejected) - {full}):
        if event in rejected:
            f[event] = f_omega
        elif conforming and event in credible:
            overlap = event & f_omega
            f[event] = overlap if overlap else _random_nonempty_submask(rng, event)
        elif conforming:
            f[event] = f_omega if event & f_omega else f_omega | _random_nonempty_submask(rng, event)
        elif event in credible:
            f[event] = _random_nonempty_submask(rng, event)
        else:
            meet = _random_nonempty_submask(rng, event)
            outside = full & ~event
            rest = _below(rng, outside + 1) & outside if outside else 0
            f[event] = meet | rest
    return ChoiceStructure(universe, frozenset(credible), frozenset(allowable), frozenset(rejected), f)

