"""Round-trip fuzz suites behind the ``fuzz`` command.

A suite is a seeded draw of one case plus a check.  ``run_suites`` is
the one runner: for each suite it draws ``cases`` cases from a
generator seeded with ``f"{seed}:{name}"``, hands each to the check and
counts the failures.

* build-vs-laws: building a filtered table from a random basic table
  and labeling must always satisfy the filter laws.
* recover-roundtrip: for a random table (half of them corrupted copies
  of built ones), the filter laws hold iff a basic table can be
  recovered, and rebuilding from the recovery reproduces the table
  exactly.
* criteria-vs-oracle: the pointwise consistency criteria on a random
  choice structure agree with the brute-force valuation enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .choice import agm_consistency_bruteforce, check_agm_consistency
from .revision import (
    RevisionTable,
    build_filtered,
    check_filtered,
    recover_basic,
    revision_from_selection,
)
from .sampling import random_choice_structure, random_labeling, random_selection_function
from .worlds import Universe, canonical_universe

ATOM_POOL = ("p", "q", "r", "s")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _build_obeys_laws(case) -> bool:
    selection, labeling = case
    table = build_filtered(revision_from_selection(selection), labeling)
    return check_filtered(table, labeling).all_hold


def _draw_table(rng: Random, universe: Universe):
    labeling = random_labeling(rng, universe)
    table = build_filtered(
        revision_from_selection(random_selection_function(rng, universe)), labeling
    )
    if rng.random() < 0.5:
        # corrupt one entry; agreement must still hold either way
        masks = table._masks[:]  # the built table keeps its own array
        target = rng.randrange(universe.full_mask + 1)
        masks[target] = rng.randrange(universe.full_mask + 1)
        table = RevisionTable.from_masks(universe, table.initial.points.mask, masks)
    return table, labeling


def _recovery_agrees(case) -> bool:
    table, labeling = case
    lawful = check_filtered(table, labeling).all_hold
    outcome = recover_basic(table, labeling)
    if lawful != bool(outcome):
        return False
    if lawful:
        return build_filtered(outcome.basic, labeling) == table
    return True


def _criteria_agree(structure) -> bool:
    direct = check_agm_consistency(structure).all_hold
    atoms = len(structure.universe.atoms)
    return direct == agm_consistency_bruteforce(structure, atoms=atoms).consistent


# (name, draw(rng, universe) of one case, check)
_SUITES = (
    (
        "build-vs-laws",
        lambda rng, universe: (
            random_selection_function(rng, universe),
            random_labeling(rng, universe),
        ),
        _build_obeys_laws,
    ),
    ("recover-roundtrip", _draw_table, _recovery_agrees),
    (
        "criteria-vs-oracle",
        lambda rng, universe: random_choice_structure(rng, universe.size, universe.atoms),
        _criteria_agree,
    ),
)


def run_suites(atoms: int, cases: int, seed: int) -> list[SuiteResult]:
    universe = canonical_universe(ATOM_POOL[:atoms])
    results = []
    for name, draw, check in _SUITES:
        rng = Random(f"{seed}:{name}")
        failures = sum(not check(draw(rng, universe)) for _ in range(cases))
        results.append(SuiteResult(name, cases, failures))
    return results
