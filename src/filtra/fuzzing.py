"""Round-trip fuzz suites behind the ``fuzz`` command.

A suite is a case source plus a check.  ``run_suites`` is the one
runner: for each suite it takes the cases from the suite's exhaustive
enumeration (``cases=None``, only tractable at one atom: two states for
the structure suite) or draws ``cases`` of them from a generator seeded
with ``f"{seed}:{name}"``, hands each to the check and tallies the
verdicts.  A check returns True (the case passes), False (a failure) or
None (a structure failing the structural laws, not counted).

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

from collections import Counter
from dataclasses import dataclass
from itertools import product
from random import Random

from .choice import (
    InvalidStructureError,
    agm_consistency_bruteforce,
    check_agm_consistency,
)
from .revision import (
    RevisionTable,
    build_filtered,
    check_filtered,
    recover_basic,
    revision_from_selection,
)
from .sampling import (
    all_choice_structures,
    all_labelings,
    all_revision_tables,
    all_selection_functions,
    random_choice_structure,
    random_labeling,
    random_selection_function,
)
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
        masks = list(table._masks)
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


def _criteria_agree(structure) -> bool | None:
    try:
        direct = check_agm_consistency(structure).all_hold
    except InvalidStructureError:
        return None
    atoms = len(structure.universe.atoms)
    return direct == agm_consistency_bruteforce(structure, atoms=atoms).consistent


# (name, every case, draw(rng, universe) of one case, check)
_SUITES = (
    (
        "build-vs-laws",
        lambda universe: product(all_selection_functions(universe), all_labelings(universe)),
        lambda rng, universe: (
            random_selection_function(rng, universe),
            random_labeling(rng, universe),
        ),
        _build_obeys_laws,
    ),
    (
        "recover-roundtrip",
        lambda universe: product(all_revision_tables(universe), all_labelings(universe)),
        _draw_table,
        _recovery_agrees,
    ),
    (
        "criteria-vs-oracle",
        lambda universe: all_choice_structures(universe.atoms),
        lambda rng, universe: random_choice_structure(rng, universe.size, universe.atoms),
        _criteria_agree,
    ),
)


def run_suites(atoms: int, cases: int | None, seed: int) -> list[SuiteResult]:
    universe = canonical_universe(ATOM_POOL[:atoms])
    results = []
    for name, every_case, draw, check in _SUITES:
        if cases is None:
            source = every_case(universe)
        else:
            rng = Random(f"{seed}:{name}")
            source = (draw(rng, universe) for _ in range(cases))
        verdicts = Counter(check(case) for case in source)
        results.append(SuiteResult(name, verdicts[True] + verdicts[False], verdicts[False]))
    return results
