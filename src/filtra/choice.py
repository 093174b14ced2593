"""Generalized choice structures and their belief-revision readings.

A choice structure fixes a state space, three disjoint families of
menus (credible, allowable, rejected) and a choice map f.  Reading
states as possible worlds, f(omega-full) is what the agent initially
considers possible and f(E) what it considers possible after learning
E, with the menu's family saying how seriously E is taken.

The module validates the structural laws, checks the pointwise
criteria under which every interpretation of the structure extends to
a credibility-filtered revision built from a basic revision table
(``check_agm_consistency``), and cross-checks those criteria against a
brute-force enumeration of interpretations (``agm_consistency_bruteforce``,
which runs the per-proposition extension oracle on one valuation per
partition of the states into rows; the oracle sees a valuation only
through that partition).  The feasibility algebra is worked out in
docs/semantics.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, Mapping, Sequence

from .beliefs import BeliefSet
from .reports import CheckReport, CheckResult, Witness
from .revision import (
    Credibility,
    CredibilityLabeling,
    PlausibilityOrder,
    RevisionTable,
    enumerate_preorders,
    recover_basic,
)
from .worlds import PointSet, SizeLimitError, Universe, canonical_universe


class InvalidStructureError(ValueError):
    """An operation required a structure passing the structural laws."""

    def __init__(self, report: CheckReport):
        failed = ", ".join(result.check for result in report.failures())
        super().__init__(f"choice structure violates clause(s) {failed}")
        self.report = report


@dataclass(frozen=True)
class ChoiceStructure:
    """States, three menu families and a choice map, all as bitmasks."""

    universe: Universe
    credible: frozenset[int]
    allowable: frozenset[int]
    rejected: frozenset[int]
    f: Mapping[int, int]

    def __post_init__(self):
        full = self.universe.full_mask
        for family in (self.credible, self.allowable, self.rejected):
            for mask in family:
                if not 0 <= mask <= full:
                    raise ValueError(f"menu mask {mask:#x} out of range")
        events = self.events
        if set(self.f) != events:
            missing = sorted(events - set(self.f))
            extra = sorted(set(self.f) - events)
            raise ValueError(
                f"choice map must cover the menus exactly (missing {missing}, extra {extra})"
            )
        for mask in self.f.values():
            if not 0 <= mask <= full:
                raise ValueError(f"choice mask {mask:#x} out of range")

    @property
    def events(self) -> frozenset[int]:
        return self.credible | self.allowable | self.rejected

    def family_of(self, mask: int) -> Credibility | None:
        if mask in self.credible:
            return Credibility.CREDIBLE
        if mask in self.allowable:
            return Credibility.ALLOWABLE
        if mask in self.rejected:
            return Credibility.REJECTED
        return None

    def choice(self, menu: PointSet) -> PointSet:
        return PointSet(self.universe, self.f[menu.mask])

    def initial_points(self) -> PointSet:
        return PointSet(self.universe, self.f[self.universe.full_mask])


def with_valuation(
    structure: ChoiceStructure,
    atoms: Sequence[str],
    rows: Sequence[tuple[bool, ...]],
) -> ChoiceStructure:
    """The same structure over a re-valuated universe (same ids, same
    masks, new atom assignments)."""
    universe = structure.universe
    if len(rows) != universe.size:
        raise ValueError(f"expected {universe.size} assignment rows, got {len(rows)}")
    points = tuple(
        type(point)(point.id, tuple(row)) for point, row in zip(universe.points, rows)
    )
    new_universe = Universe(tuple(atoms), points)
    return ChoiceStructure(
        new_universe, structure.credible, structure.allowable, structure.rejected, dict(structure.f)
    )


_CLAUSES = ("2", "3a", "3b", "3c", "3d")

# One witness of a failing clause: the clause, the witness's (name,
# mask) parts and a detail line.
_Fault = tuple[str, tuple[tuple[str, int], ...], str]


def _structure_faults(structure: ChoiceStructure) -> list[_Fault]:
    """Every failing instance of structural laws 2-3d, in clause order
    (empty for a valid structure)."""
    full = structure.universe.full_mask
    f = structure.f
    faults: list[_Fault] = []

    pairs = [
        ("credible", structure.credible, "allowable", structure.allowable),
        ("credible", structure.credible, "rejected", structure.rejected),
        ("allowable", structure.allowable, "rejected", structure.rejected),
    ]
    for name_a, fam_a, name_b, fam_b in pairs:
        for mask in sorted(fam_a & fam_b):
            faults.append(("2", (("E", mask),), f"in both {name_a} and {name_b}"))
    if full not in structure.credible:
        faults.append(("2", (("E", full),), "full menu is not credible"))
    if 0 not in structure.rejected:
        faults.append(("2", (("E", 0),), "empty menu is not rejected"))

    f_omega = f.get(full)
    if f_omega is None:
        faults.append(("3a", (("E", full),), "no choice at the full menu"))
    elif f_omega == 0:
        faults.append(("3a", (("f(omega)", 0),), "nothing is initially possible"))

    menu_clauses = (
        ("3b", [m for m in structure.rejected if f[m] != f_omega], "differs from f(omega)"),
        ("3c", [m for m in structure.credible if f[m] == 0 or f[m] & ~m], "must be nonempty and within E"),
        ("3d", [m for m in structure.allowable if f[m] & m == 0], "must keep part of E possible"),
    )
    for clause, failing, detail in menu_clauses:
        faults.extend((clause, (("E", m), ("f(E)", f[m])), detail) for m in sorted(failing))
    return faults


def _structure_report(structure: ChoiceStructure, faults: list[_Fault]) -> CheckReport:
    universe = structure.universe
    witnesses: dict[str, list[Witness]] = {clause: [] for clause in _CLAUSES}
    for clause, parts, detail in faults:
        witnesses[clause].append(
            Witness.of([(name, PointSet(universe, mask)) for name, mask in parts], detail=detail)
        )
    results = [CheckResult("1", True, note="state space is nonempty by construction")]
    results += [CheckResult(clause, not found, tuple(found)) for clause, found in witnesses.items()]
    return CheckReport("choice structure laws", tuple(results))


def validate_structure(structure: ChoiceStructure) -> CheckReport:
    """Check the structural laws clause by clause.

    1: nonempty state space; 2: disjoint families with the full menu
    credible and the empty menu rejected; 3a: something is initially
    possible; 3b: rejected menus change nothing; 3c: credible menus
    choose nonempty within the menu; 3d: allowable menus keep the menu
    possible.
    """
    return _structure_report(structure, _structure_faults(structure))


def _require_valid(structure: ChoiceStructure) -> None:
    """Raise InvalidStructureError, with the full report, unless the
    structure passes the structural laws; the report is only built on a
    fault."""
    faults = _structure_faults(structure)
    if faults:
        raise InvalidStructureError(_structure_report(structure, faults))


def check_agm_consistency(structure: ChoiceStructure) -> CheckReport:
    """Pointwise criteria equivalent to: every interpretation of the
    structure extends to a filtered revision built from a basic table.

    1a: credible menus overlapping the initial set choose exactly the
    overlap.  1b: allowable menus overlapping it change nothing.
    2: allowable menus disjoint from it choose f(omega) plus a nonempty
    part E' of the menu.  Rejected menus are already pinned by the
    structural laws.
    """
    _require_valid(structure)
    universe = structure.universe
    initial = structure.f[universe.full_mask]

    def ps(mask: int) -> PointSet:
        return PointSet(universe, mask)

    fails: dict[str, list[Witness]] = {"1a": [], "1b": [], "2": []}
    notes: list[str] = []
    for event in sorted(structure.events):
        chosen = structure.f[event]
        family = structure.family_of(event)
        if event & initial:
            if family is Credibility.CREDIBLE and chosen != event & initial:
                fails["1a"].append(
                    Witness.of(
                        [("E", ps(event)), ("f(E)", ps(chosen))],
                        detail=f"required {ps(event & initial).render()}",
                    )
                )
            if family is Credibility.ALLOWABLE and chosen != initial:
                fails["1b"].append(
                    Witness.of(
                        [("E", ps(event)), ("f(E)", ps(chosen))],
                        detail=f"required f(omega) = {ps(initial).render()}",
                    )
                )
        elif family is Credibility.ALLOWABLE:
            extra = chosen & ~initial
            if initial & ~chosen or extra == 0 or extra & ~event:
                fails["2"].append(
                    Witness.of(
                        [("E", ps(event)), ("f(E)", ps(chosen))],
                        detail="must equal f(omega) plus a nonempty part of E",
                    )
                )
            else:
                notes.append(f"clause 2 holds at E = {ps(event).render()} with E' = {ps(extra).render()}")
    results = tuple(
        CheckResult(check, not fails[check], tuple(fails[check])) for check in ("1a", "1b", "2")
    )
    return CheckReport("consistency criteria", results, tuple(notes))


def _union_through(table: Sequence[int], mask: int) -> int:
    """Union of ``table[i]`` over the set bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


class _Quotient:
    """The valuation quotient of a state space: which states share a row.

    State i lies on row ``point_classes[i]`` out of ``n_rows``; rows no
    state lands on are empty.  Three maps, each one table lookup per
    set bit of its argument:

    * ``rows(mask)``: the rows the states in ``mask`` occupy, v(mask);
    * ``states(row_mask)``: the states on those rows, the state-space
      image of a canonical proposition;
    * ``saturate(mask)``: the states sharing a row with some state in
      ``mask``.
    """

    __slots__ = ("rows", "states", "saturate")

    def __init__(self, point_classes: Sequence[int], n_rows: int):
        row_states = [0] * n_rows
        for i, row in enumerate(point_classes):
            row_states[row] |= 1 << i
        self.rows = partial(_union_through, [1 << row for row in point_classes])
        self.states = partial(_union_through, row_states)
        self.saturate = partial(_union_through, [row_states[row] for row in point_classes])


@lru_cache(maxsize=1024)
def _quotient(point_classes: tuple[int, ...], n_rows: int) -> _Quotient:
    # the brute force revisits the same few partitions for every
    # structure, and a model's operations share one quotient
    return _Quotient(point_classes, n_rows)


@dataclass(frozen=True)
class Model:
    """A choice structure read over the worlds of its own valuation.

    ``point_classes`` maps each state to its row in the canonical
    universe over the structure's atoms; ``labeling`` labels every
    canonical proposition by the family of its state-space image
    (defaulting to rejected where no family constrains it; the
    tautology's image is the full menu, which is always credible).
    """

    structure: ChoiceStructure
    canonical: Universe
    labeling: CredibilityLabeling
    point_classes: tuple[int, ...]

    def image_of(self, canonical_mask: int) -> int:
        """State-space truth set of any formula whose canonical truth
        set is ``canonical_mask``."""
        return _quotient(self.point_classes, self.canonical.size).states(canonical_mask)


def build_model(structure: ChoiceStructure, atoms: Sequence[str] | None = None) -> Model:
    """Label every canonical proposition from the structure's families.

    ``atoms``, when given, must match the structure's own atom list
    (the valuation already lives in the universe's assignments).
    """
    if atoms is not None and tuple(atoms) != structure.universe.atoms:
        raise ValueError("atoms must match the structure universe's declared atoms")
    _require_valid(structure)
    universe = structure.universe
    canonical = canonical_universe(universe.atoms)
    point_classes = tuple(universe.valuation_index(i) for i in range(universe.size))
    image = _quotient(point_classes, canonical.size).states
    labels = {
        prop: structure.family_of(image(prop)) or Credibility.REJECTED
        for prop in range(canonical.full_mask + 1)
    }
    return Model(structure, canonical, CredibilityLabeling(canonical, labels), point_classes)


@dataclass(frozen=True)
class PartialRevision:
    """The revision dispositions a model pins down: the initial theory
    and one entry per menu that is the truth set of some formula."""

    initial: BeliefSet
    entries: Mapping[int, BeliefSet]

    def information(self) -> tuple[PointSet, ...]:
        universe = self.initial.universe
        return tuple(PointSet(universe, mask) for mask in sorted(self.entries))


def induced_beliefs(model: Model) -> PartialRevision:
    structure = model.structure
    universe = structure.universe
    initial = BeliefSet(structure.initial_points())
    saturate = _quotient(model.point_classes, model.canonical.size).saturate
    entries = {
        event: BeliefSet(PointSet(universe, structure.f[event]))
        for event in sorted(structure.events)
        if saturate(event) == event
    }
    return PartialRevision(initial, entries)


def _infeasible_event(
    structure: ChoiceStructure, point_classes: tuple[int, ...]
) -> tuple[int, str] | None:
    """First menu (ascending mask order) whose pinned entry admits no
    selection value under the given valuation, or None.

    Only menus that are unions of valuation classes are pinned; the
    rest correspond to no formula and constrain nothing.
    """
    quotient = _quotient(point_classes, max(point_classes) + 1)
    vset = quotient.rows
    saturate = quotient.saturate
    initial = structure.f[structure.universe.full_mask]
    v_initial = vset(initial)
    sat_initial = saturate(initial)

    for event in sorted(structure.events):
        if saturate(event) != event:
            continue
        chosen = structure.f[event]
        family = structure.family_of(event)
        if event & initial:
            if family is Credibility.CREDIBLE:
                if vset(chosen) != vset(event & initial):
                    return event, "credible entry must be the theory of the overlap"
            elif vset(chosen) != v_initial:
                return event, "entry must leave the initial theory unchanged"
        elif family is Credibility.ALLOWABLE:
            if v_initial & ~vset(chosen):
                return event, "allowable entry may not add new beliefs"
            if (chosen & ~sat_initial) & ~event:
                return event, "allowable entry adds worlds outside the information"
        # off f(omega), laws 3c and 3b make credible and rejected menus
        # feasible, and 3d puts a row outside v(f(omega)) into an
        # allowable one's choice (docs/semantics.md, "Choice structures")
    return None


@dataclass(frozen=True)
class ExtensionCertificate:
    """A filtered table extending the model's pinned entries, plus the
    basic table it is built from."""

    basic: RevisionTable
    revision: RevisionTable


@dataclass(frozen=True)
class ExtensionOutcome:
    feasible: bool
    certificate: ExtensionCertificate | None = None
    infeasible_event: PointSet | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.feasible


def extension_oracle(model: Model, build_certificate: bool = True) -> ExtensionOutcome:
    """Decide whether the model's pinned revision dispositions extend
    to a full filtered revision built from a basic table.

    Feasibility decomposes per pinned menu; propositions pinned by no
    menu always admit a selection value, so they never matter.  On
    success (and by default) a witness table pair over the canonical
    universe is constructed: the filtered table takes the theory of
    f(image) where a proposition's image is a menu and the initial
    theory elsewhere, and ``recover_basic`` supplies the basic table it
    is built from.
    """
    structure = model.structure
    found = _infeasible_event(structure, model.point_classes)
    if found is not None:
        event, reason = found
        return ExtensionOutcome(False, None, PointSet(structure.universe, event), reason)
    if not build_certificate:
        return ExtensionOutcome(True)

    canonical = model.canonical
    quotient = _quotient(model.point_classes, canonical.size)
    f = structure.f
    initial = quotient.rows(f[structure.universe.full_mask])
    images = [quotient.states(prop) for prop in range(canonical.full_mask + 1)]
    masks = [quotient.rows(f[image]) if image in f else initial for image in images]
    filtered = RevisionTable.from_masks(canonical, initial, masks)
    recovered = recover_basic(filtered, model.labeling)
    if not recovered:
        raise RuntimeError(
            f"extension check passed but recovery fails at {recovered.infeasible.render()}: "
            f"{recovered.reason}"
        )
    return ExtensionOutcome(True, ExtensionCertificate(recovered.basic, filtered))


@dataclass(frozen=True)
class CounterModel:
    """A valuation under which some pinned menu admits no extension."""

    atoms: tuple[str, ...]
    assignments: tuple[tuple[str, tuple[bool, ...]], ...]
    event: PointSet
    reason: str

    def rows(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(values for _, values in self.assignments)


@dataclass(frozen=True)
class BruteforceOutcome:
    consistent: bool
    valuations_checked: int
    counterexample: CounterModel | None = None

    def __bool__(self) -> bool:
        return self.consistent


def _row_partitions(size: int, max_blocks: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of ``size`` states into at most ``max_blocks``
    blocks, as restricted growth strings in lexicographic order: state
    i lies in block ``rgs[i]``, and each block's first state opens it
    with the next unused number."""

    def extend(rgs: tuple[int, ...], blocks: int) -> Iterator[tuple[int, ...]]:
        if len(rgs) == size:
            yield rgs
            return
        for block in range(min(blocks + 1, max_blocks)):
            yield from extend(rgs + (block,), max(blocks, block + 1))

    return extend((), 0)


def agm_consistency_bruteforce(
    structure: ChoiceStructure,
    atoms: int | None = None,
    state_limit: int = 4,
    atom_limit: int = 4,
) -> BruteforceOutcome:
    """Decide consistency by running the extension feasibility check on
    every valuation of a budget of atoms over the states, one per
    partition of the states into rows.

    The feasibility conditions see a valuation only through which
    states share a row, so valuations with the same kernel get the same
    verdict; each set partition with at most 2**atoms blocks is checked
    once, through the valuation sending block i to row i.
    ``valuations_checked`` counts these representatives.

    The default budget is the smallest one admitting an injective
    valuation (atom count = ceil(log2 of the state count)), which is
    enough to expose every criteria violation.
    """
    _require_valid(structure)
    size = structure.universe.size
    if size > state_limit:
        raise SizeLimitError(f"brute force supports up to {state_limit} states, got {size}")
    n_atoms = atoms if atoms is not None else max(1, math.ceil(math.log2(size)))
    if not 1 <= n_atoms <= atom_limit:
        raise SizeLimitError(f"atom budget must be 1..{atom_limit}, got {n_atoms}")

    atom_names = tuple(f"a{i}" for i in range(n_atoms))
    checked = 0
    for valuation in _row_partitions(size, 1 << n_atoms):
        checked += 1
        found = _infeasible_event(structure, valuation)
        if found is not None:
            event, reason = found
            assignments = tuple(
                (
                    point.id,
                    tuple(bool(cls >> (n_atoms - 1 - j) & 1) for j in range(n_atoms)),
                )
                for point, cls in zip(structure.universe.points, valuation)
            )
            counter = CounterModel(
                atom_names, assignments, PointSet(structure.universe, event), reason
            )
            return BruteforceOutcome(False, checked, counter)
    return BruteforceOutcome(True, checked)


def find_rationalizing_preorder(
    structure: ChoiceStructure, limit: int = 6
) -> PlausibilityOrder | None:
    """A total pre-order whose most-plausible sets reproduce the choice
    map on every credible menu, or None.  Exhaustive over all weak
    orders of the states, first match returned."""
    universe = structure.universe
    if universe.size > limit:
        raise SizeLimitError(
            f"rationalization search supports up to {limit} states, got {universe.size}"
        )
    menus = sorted(structure.credible)
    for order in enumerate_preorders(universe, limit=limit):
        if all(order._lowest(menu) == structure.f[menu] for menu in menus):
            return order
    return None
