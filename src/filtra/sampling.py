"""Seeded random generators and small exhaustive enumerations.

Everything here is driven by an explicit ``random.Random`` so runs are
reproducible from a seed; the ``all_*`` enumerations are the exhaustive
counterparts used at the smallest sizes.
"""

from __future__ import annotations

import itertools
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
from .worlds import Point, PointSet, SizeLimitError, Universe, submasks


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


def random_point_set(rng: Random, universe: Universe, nonempty: bool = False) -> PointSet:
    lowest = 1 if nonempty else 0
    return PointSet(universe, rng.randrange(lowest, universe.full_mask + 1))


def _random_nonempty_submask(rng: Random, mask: int) -> int:
    # spread a random nonzero selector over the bits of ``mask``; this
    # is submasks(mask)[selector] without building all 2**|mask| of them
    positions = []
    remaining = mask
    while remaining:
        low = remaining & -remaining
        positions.append(low)
        remaining ^= low
    selector = rng.randrange(1, 1 << len(positions))
    out = 0
    for i, bit in enumerate(positions):
        if selector >> i & 1:
            out |= bit
    return out


def random_selection_function(
    rng: Random, universe: Universe, initial: PointSet | None = None
) -> SelectionFunction:
    full = universe.full_mask
    initial_mask = initial.mask if initial is not None else rng.randrange(1, full + 1)
    choice: dict[int, int] = {}
    for event in range(1, full + 1):
        overlap = event & initial_mask
        choice[event] = overlap if overlap else _random_nonempty_submask(rng, event)
    return SelectionFunction(universe, BeliefSet(PointSet(universe, initial_mask)), choice)


def random_labeling(rng: Random, universe: Universe) -> CredibilityLabeling:
    full = universe.full_mask
    labels = {0: Credibility.REJECTED, full: Credibility.CREDIBLE}
    for mask in range(1, full):
        labels[mask] = rng.choice((Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED))
    return CredibilityLabeling(universe, labels)


def random_revision_table(rng: Random, universe: Universe) -> RevisionTable:
    """Arbitrary total table with a consistent initial theory; makes no
    attempt to satisfy any postulate."""
    full = universe.full_mask
    initial = rng.randrange(1, full + 1)
    masks = [rng.randrange(full + 1) for _ in range(full + 1)]
    return RevisionTable.from_masks(universe, initial, masks)


def random_plausibility_order(rng: Random, universe: Universe) -> PlausibilityOrder:
    ranking = {point.id: rng.randrange(universe.size) for point in universe.points}
    return PlausibilityOrder.from_ranks(universe, ranking)


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
    rows = list(itertools.islice(itertools.cycle(itertools.product((False, True), repeat=len(atoms))), n_states))
    universe = Universe(
        tuple(atoms), tuple(Point(f"s{i}", rows[i]) for i in range(n_states))
    )
    full = universe.full_mask
    credible = {full}
    allowable: set[int] = set()
    rejected = {0}
    for mask in range(1, full):
        draw = rng.randrange(4)
        if draw == 1:
            credible.add(mask)
        elif draw == 2:
            allowable.add(mask)
        elif draw == 3:
            rejected.add(mask)
    f_omega = _random_nonempty_submask(rng, full)
    f: dict[int, int] = {full: f_omega}
    for event in sorted(credible | allowable | rejected):
        if event == full:
            continue
        family = (
            Credibility.CREDIBLE
            if event in credible
            else Credibility.ALLOWABLE
            if event in allowable
            else Credibility.REJECTED
        )
        if family is Credibility.REJECTED:
            f[event] = f_omega
        elif conforming:
            if family is Credibility.CREDIBLE:
                overlap = event & f_omega
                f[event] = overlap if overlap else _random_nonempty_submask(rng, event)
            else:
                f[event] = (
                    f_omega
                    if event & f_omega
                    else f_omega | _random_nonempty_submask(rng, event)
                )
        else:
            if family is Credibility.CREDIBLE:
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
        free_events = [e for e in range(1, full + 1) if e & initial_mask == 0]
        options = [submasks(event)[1:] for event in free_events]
        for picks in itertools.product(*options):
            choice = {
                e: e & initial_mask for e in range(1, full + 1) if e & initial_mask
            }
            choice.update(dict(zip(free_events, picks)))
            yield SelectionFunction(
                universe, BeliefSet(PointSet(universe, initial_mask)), choice
            )


def all_labelings(universe: Universe) -> Iterator[CredibilityLabeling]:
    if universe.size > 2:
        raise SizeLimitError("exhaustive labeling enumeration supports up to 2 points")
    full = universe.full_mask
    middles = list(range(1, full))
    for combo in itertools.product(
        (Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED),
        repeat=len(middles),
    ):
        labels = {0: Credibility.REJECTED, full: Credibility.CREDIBLE}
        labels.update(dict(zip(middles, combo)))
        yield CredibilityLabeling(universe, labels)


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
    rows = list(itertools.islice(itertools.cycle(itertools.product((False, True), repeat=len(atoms))), 2))
    universe = Universe(tuple(atoms), (Point("s0", rows[0]), Point("s1", rows[1])))
    full = universe.full_mask
    for fam0, fam1 in itertools.product(range(4), repeat=2):
        credible = {full}
        allowable: set[int] = set()
        rejected = {0}
        for mask, fam in ((1, fam0), (2, fam1)):
            if fam == 1:
                credible.add(mask)
            elif fam == 2:
                allowable.add(mask)
            elif fam == 3:
                rejected.add(mask)
        events = sorted(credible | allowable | rejected)
        for picks in itertools.product(range(full + 1), repeat=len(events)):
            yield ChoiceStructure(
                universe,
                frozenset(credible),
                frozenset(allowable),
                frozenset(rejected),
                dict(zip(events, picks)),
            )
