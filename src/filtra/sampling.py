"""Seeded random generators and small exhaustive enumerations.

Everything here is driven by an explicit ``random.Random`` so runs are
reproducible from a seed; the ``all_*`` enumerations are the exhaustive
counterparts used at the smallest sizes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from random import Random
from typing import Iterator, Sequence

from .beliefs import BeliefSet
from .choice import ChoiceStructure
from .formulas import Atom, Formula, Not, Or
from .revision import (
    Credibility,
    CredibilityLabeling,
    PlausibilityOrder,
    RevisionTable,
    SelectionFunction,
)
from .worlds import Point, PointSet, SizeLimitError, Universe, set_bits, submasks


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


def _random_nonempty_submask(rng: Random, mask: int) -> int:
    # spread a random nonzero selector over the bits of ``mask``; this
    # is submasks(mask)[selector] without building all 2**|mask| of them
    positions = list(set_bits(mask))
    selector = rng.randrange(1, 1 << len(positions))
    return sum(1 << position for i, position in enumerate(positions) if selector >> i & 1)


def random_selection_function(rng: Random, universe: Universe) -> SelectionFunction:
    full = universe.full_mask
    initial_mask = rng.randrange(1, full + 1)
    choice: dict[int, int] = {}
    for event in range(1, full + 1):
        overlap = event & initial_mask
        choice[event] = overlap if overlap else _random_nonempty_submask(rng, event)
    return SelectionFunction(universe, BeliefSet(PointSet(universe, initial_mask)), choice)


def random_labeling(rng: Random, universe: Universe) -> CredibilityLabeling:
    labels = (Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED)
    draws = {mask: rng.choice(labels) for mask in range(1, universe.full_mask)}
    return CredibilityLabeling.from_overrides(universe, draws)


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
        families[rng.randrange(4)].add(mask)
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
            rest = rng.randrange(0, outside + 1) & outside if outside else 0
            f[event] = meet | rest
    return ChoiceStructure(universe, frozenset(credible), frozenset(allowable), frozenset(rejected), f)


def all_selection_functions(universe: Universe) -> Iterator[SelectionFunction]:
    """Every selection function over ``universe``, each exactly once."""
    full = universe.full_mask
    for initial_mask in range(1, full + 1):
        initial = BeliefSet(PointSet(universe, initial_mask))
        pinned = {e: e & initial_mask for e in range(1, full + 1) if e & initial_mask}
        free_events = [e for e in range(1, full + 1) if e & initial_mask == 0]
        options = [submasks(event)[1:] for event in free_events]
        for picks in itertools.product(*options):
            yield SelectionFunction(universe, initial, {**pinned, **dict(zip(free_events, picks))})


def all_labelings(universe: Universe) -> Iterator[CredibilityLabeling]:
    if universe.size > 2:
        raise SizeLimitError("exhaustive labeling enumeration supports up to 2 points")
    middles = range(1, universe.full_mask)
    for combo in itertools.product(
        (Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED),
        repeat=len(middles),
    ):
        yield CredibilityLabeling.from_overrides(universe, dict(zip(middles, combo)))


def all_revision_tables(universe: Universe) -> Iterator[RevisionTable]:
    """Every total table with a consistent initial theory (tiny
    universes only: the count is (2^m) ** (2^m + ...))."""
    if universe.size > 2:
        raise SizeLimitError("exhaustive table enumeration supports up to 2 points")
    full = universe.full_mask
    for initial_mask in range(1, full + 1):
        for picks in itertools.product(range(full + 1), repeat=full + 1):
            yield RevisionTable.from_masks(universe, initial_mask, picks)


def all_choice_structures(atoms: Sequence[str] = ("p",)) -> Iterator[ChoiceStructure]:
    """Every two-state structure shape: all family assignments for the
    two singleton menus crossed with all choice maps.  Includes shapes
    failing the structural laws; filter with validate_structure."""
    universe = _cycled_universe(tuple(atoms), 2)
    full = universe.full_mask
    for fam0, fam1 in itertools.product(range(4), repeat=2):
        # as random_choice_structure's draws: 0 none, 1 credible, 2 allowable, 3 rejected
        families: tuple[set[int], ...] = (set(), {full}, set(), {0})
        families[fam0].add(1)
        families[fam1].add(2)
        _, credible, allowable, rejected = families
        events = sorted(credible | allowable | rejected)
        for picks in itertools.product(range(full + 1), repeat=len(events)):
            yield ChoiceStructure(
                universe,
                frozenset(credible),
                frozenset(allowable),
                frozenset(rejected),
                dict(zip(events, picks)),
            )
