"""Round-trip fuzz suites behind the ``fuzz`` command.

Three suites, all seeded and deterministic:

* build-vs-laws: building a filtered table from a random basic table
  and labeling must always satisfy the filter laws.
* recover-roundtrip: for a random table (half of them corrupted copies
  of built ones), the filter laws hold iff a basic table can be
  recovered, and rebuilding from the recovery reproduces the table
  exactly.
* criteria-vs-oracle: the pointwise consistency criteria on a random
  choice structure agree with the brute-force valuation enumeration.

``cases=None`` means exhaustive, which is only tractable at one atom
(two states for the structure suite).
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .worlds import canonical_universe

ATOM_POOL = ("p", "q", "r", "s")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _atoms(count: int) -> tuple[str, ...]:
    return ATOM_POOL[:count]


def filter_build_suite(atoms: int, cases: int | None, seed: int) -> SuiteResult:
    universe = canonical_universe(_atoms(atoms))
    ran = failures = 0
    detail = ""

    def run(selection, labeling):
        nonlocal ran, failures, detail
        ran += 1
        table = build_filtered(revision_from_selection(selection), labeling)
        report = check_filtered(table, labeling)
        if not report.all_hold:
            failures += 1
            if not detail:
                detail = report.failures()[0].check

    if cases is None:
        labelings = list(all_labelings(universe))
        for selection in all_selection_functions(universe):
            for labeling in labelings:
                run(selection, labeling)
    else:
        rng = Random(f"{seed}:build-vs-laws")
        for _ in range(cases):
            run(random_selection_function(rng, universe), random_labeling(rng, universe))
    return SuiteResult("build-vs-laws", ran, failures, detail)


def _recovery_agrees(table: RevisionTable, labeling) -> bool:
    lawful = check_filtered(table, labeling).all_hold
    outcome = recover_basic(table, labeling)
    if lawful != bool(outcome):
        return False
    if lawful:
        return build_filtered(outcome.basic, labeling) == table
    return True


def recovery_suite(atoms: int, cases: int | None, seed: int) -> SuiteResult:
    universe = canonical_universe(_atoms(atoms))
    ran = failures = 0

    if cases is None:
        labelings = list(all_labelings(universe))
        for table in all_revision_tables(universe):
            for labeling in labelings:
                ran += 1
                if not _recovery_agrees(table, labeling):
                    failures += 1
    else:
        rng = Random(f"{seed}:recover-roundtrip")
        for _ in range(cases):
            ran += 1
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
            if not _recovery_agrees(table, labeling):
                failures += 1
    return SuiteResult("recover-roundtrip", ran, failures)


def criteria_suite(atoms: int, cases: int | None, seed: int) -> SuiteResult:
    n_states = 2**atoms
    ran = failures = 0

    def run(structure):
        nonlocal ran, failures
        try:
            direct = check_agm_consistency(structure).all_hold
        except InvalidStructureError:
            return
        ran += 1
        brute = agm_consistency_bruteforce(structure, atoms=atoms).consistent
        if direct != brute:
            failures += 1

    if cases is None:
        for structure in all_choice_structures(_atoms(atoms)):
            run(structure)
    else:
        rng = Random(f"{seed}:criteria-vs-oracle")
        for _ in range(cases):
            run(random_choice_structure(rng, n_states, _atoms(atoms)))
    return SuiteResult("criteria-vs-oracle", ran, failures)


def run_suites(atoms: int, cases: int | None, seed: int) -> list[SuiteResult]:
    return [
        filter_build_suite(atoms, cases, seed),
        recovery_suite(atoms, cases, seed),
        criteria_suite(atoms, cases, seed),
    ]
