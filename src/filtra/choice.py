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
which decides the extension oracle's conditions under every partition
of the states into rows at once; the oracle sees a valuation only
through that partition).  The feasibility algebra is worked out in
docs/semantics.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .beliefs import BeliefSet
from .reports import CheckReport, CheckResult, Witness
from .revision import (
    Credibility,
    CredibilityLabeling,
    PlausibilityOrder,
    RevisionTable,
    recover_basic,
)
from .worlds import PointSet, SizeLimitError, Universe, canonical_universe, set_bits


class InvalidStructureError(ValueError):
    """An operation required a structure passing the structural laws."""

    def __init__(self, report: CheckReport):
        failed = ", ".join(result.check for result in report.failures())
        super().__init__(f"choice structure violates clause(s) {failed}")
        self.report = report


@dataclass(frozen=True)
class ChoiceStructure:
    """States, three menu families and a choice map, all as bitmasks.

    The caller's choice map is checked and copied once, and not kept:
    ``f`` becomes a read-only view of that copy.
    """

    universe: Universe
    credible: frozenset[int]
    allowable: frozenset[int]
    rejected: frozenset[int]
    f: Mapping[int, int]

    def __post_init__(self):
        full = self.universe.full_mask

        def check(kind: str, masks: Iterable[int]) -> None:
            for mask in masks:
                if type(mask) is not int:
                    raise ValueError(f"{kind} mask {mask!r} is not an int")
                if not 0 <= mask <= full:
                    raise ValueError(f"{kind} mask {mask:#x} out of range")

        check("menu", chain(self.credible, self.allowable, self.rejected))
        events = self.events
        if set(self.f) != events:
            missing = sorted(events - set(self.f))
            extra = set(self.f) - events
            for key in self.f:  # mixed key types would not sort
                if key in extra and type(key) is not int:
                    raise ValueError(f"choice key {key!r} is not an int")
            raise ValueError(
                f"choice map must cover the menus exactly (missing {missing}, extra {sorted(extra)})"
            )
        check("choice", self.f.values())
        object.__setattr__(self, "f", MappingProxyType(dict(self.f)))

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


_CLAUSES = ("1", "2", "3a", "3b", "3c", "3d")

# One witness of a failing clause: the clause, the witness's names and
# masks, and a detail line.
_Fault = tuple[str, tuple[str, ...], tuple[int, ...], str]
_E, _EF = ("E",), ("E", "f(E)")

# Passing results carry no witness, so every report shares them.
_HOLDS = {clause: CheckResult(clause, True) for clause in (*_CLAUSES[1:], "1a", "1b")}
_HOLDS["1"] = CheckResult("1", True, note="state space is nonempty by construction")


# A menu as the oracle reads it: E, f(E) and E's family.
_Menu = tuple[int, int, Credibility]


def _menus(structure: ChoiceStructure) -> list[_Menu]:
    """Every menu with its choice and family, in ascending mask order."""
    f = structure.f
    return [(event, f[event], structure.family_of(event)) for event in sorted(structure.events)]


def _structure_faults(structure: ChoiceStructure) -> list[_Fault]:
    """Every failing instance of structural laws 2-3d, in clause order;
    a valid structure's [] costs set and mask tests only."""
    full, f = structure.universe.full_mask, structure.f
    credible, allowable, rejected = structure.credible, structure.allowable, structure.rejected
    f_omega = f.get(full)
    shared = (credible & allowable, credible & rejected, allowable & rejected)
    failing = (  # the menus failing 3b, 3c and 3d
        [m for m in rejected if f[m] != f_omega],
        [m for m in credible if f[m] == 0 or f[m] & ~m],
        [m for m in allowable if f[m] & m == 0],
    )
    if f_omega and full in credible and 0 in rejected and not any(shared) and not any(failing):
        return []
    faults: list[_Fault] = [
        ("2", _E, (mask,), f"in both {name_a} and {name_b}")
        for (name_a, name_b), both in zip(combinations(("credible", "allowable", "rejected"), 2), shared)
        for mask in sorted(both)
    ]
    if full not in credible:
        faults.append(("2", _E, (full,), "full menu is not credible"))
    if 0 not in rejected:
        faults.append(("2", _E, (0,), "empty menu is not rejected"))
    if f_omega is None:
        faults.append(("3a", _E, (full,), "no choice at the full menu"))
    elif f_omega == 0:
        faults.append(("3a", ("f(omega)",), (0,), "nothing is initially possible"))
    details = ("differs from f(omega)", "must be nonempty and within E", "must keep part of E possible")
    for clause, menus, detail in zip(_CLAUSES[3:], failing, details):
        faults.extend((clause, _EF, (m, f[m]), detail) for m in sorted(menus))
    return faults


def _fault_report(
    structure: ChoiceStructure,
    title: str,
    clauses: Sequence[str],
    faults: list[_Fault],
    notes: Sequence[str] = (),
) -> CheckReport:
    """One result per clause: the shared passing one, or a failing one
    with its witnesses (the only point sets built) in ``faults``."""
    witnesses: dict[str, list[Witness]] = {}
    for clause, names, masks, detail in faults:
        sets = tuple([PointSet(structure.universe, mask) for mask in masks])
        witnesses.setdefault(clause, []).append(Witness(names, sets, detail))
    results = [
        CheckResult(clause, False, tuple(witnesses[clause])) if clause in witnesses else _HOLDS[clause]
        for clause in clauses
    ]
    return CheckReport(title, tuple(results), tuple(notes))


def validate_structure(structure: ChoiceStructure) -> CheckReport:
    """Check the structural laws clause by clause.

    1: nonempty state space; 2: disjoint families with the full menu
    credible and the empty menu rejected; 3a: something is initially
    possible; 3b: rejected menus change nothing; 3c: credible menus
    choose nonempty within the menu; 3d: allowable menus keep the menu
    possible.
    """
    return _fault_report(structure, "choice structure laws", _CLAUSES, _structure_faults(structure))


def _require_valid(structure: ChoiceStructure) -> None:
    """Raise InvalidStructureError, with the full report (built only on
    a fault), unless the structure passes the structural laws."""
    if _structure_faults(structure):
        raise InvalidStructureError(validate_structure(structure))


def check_agm_consistency(structure: ChoiceStructure) -> CheckReport:
    """Pointwise criteria equivalent to: every interpretation of the
    structure extends to a filtered revision built from a basic table.

    1a: credible menus overlapping the initial set choose exactly the
    overlap.  1b: allowable menus overlapping it change nothing.
    2: allowable menus disjoint from it choose f(omega) plus a nonempty
    part E' of the menu.  Rejected menus, pinned by law 3b, never fail;
    a passing menu costs mask tests only (and a clause-2 note).
    """
    _require_valid(structure)
    f, credible, universe = structure.f, structure.credible, structure.universe
    initial = f[universe.full_mask]
    faults: list[_Fault] = []
    notes: list[str] = []
    for event in sorted(credible | structure.allowable):
        chosen = f[event]
        if event & initial:
            if event in credible:
                if chosen != event & initial:
                    faults.append(("1a", _EF, (event, chosen), f"required {universe.render(event & initial)}"))
            elif chosen != initial:
                faults.append(("1b", _EF, (event, chosen), f"required f(omega) = {universe.render(initial)}"))
        elif event not in credible:
            extra = chosen & ~initial
            if initial & ~chosen or extra == 0 or extra & ~event:
                faults.append(("2", _EF, (event, chosen), "must equal f(omega) plus a nonempty part of E"))
            else:
                notes.append(f"clause 2 holds at E = {universe.render(event)} with E' = {universe.render(extra)}")
    return _fault_report(structure, "consistency criteria", ("1a", "1b", "2"), faults, notes)


def _union_through(table: Sequence[int]) -> Callable[[int], int]:
    """The map sending a mask to the union of ``table[i]`` over its set
    bits i, tabulated once.  Each run of 8 indices gets a lookup list
    whose entry m is the union over the set bits of m, so a query is
    one list index per 8 bits of the mask."""
    chunks = []
    for start in range(0, len(table), 8):
        lookup = [0]
        for value in table[start : start + 8]:
            lookup += [out | value for out in lookup]
        chunks.append(lookup)

    def union(mask: int) -> int:
        out = 0
        for lookup in chunks:
            out |= lookup[mask & 0xFF]
            mask >>= 8
        return out

    return union


class _Quotient:
    """The valuation quotient of a state space: which states share a row.

    State i lies on row ``point_classes[i]`` out of ``n_rows``; rows no
    state lands on are empty.  Three maps, each tabulated once by
    ``_union_through`` so that a query is one list index per 8 bits of
    its argument:

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
        self.rows = _union_through([1 << row for row in point_classes])
        self.states = _union_through(row_states)
        self.saturate = _union_through([row_states[row] for row in point_classes])


@lru_cache(maxsize=256)
def _quotient(point_classes: tuple[int, ...], n_rows: int) -> _Quotient:
    # a model's operations (image_of, induced_beliefs, the extension
    # oracle) share one quotient; the bound caps the memory the lookup
    # tables hold
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
        set is ``canonical_mask``.  Kept as API: the map from a formula to
        its event."""
        return _quotient(self.point_classes, self.canonical.size).states(canonical_mask)


def build_model(structure: ChoiceStructure) -> Model:
    """Label every canonical proposition from the structure's families,
    under the valuation the universe's assignments declare."""
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


def induced_beliefs(model: Model) -> PartialRevision:
    structure = model.structure
    universe = structure.universe
    initial = BeliefSet(PointSet(universe, structure.f[universe.full_mask]))
    saturate = _quotient(model.point_classes, model.canonical.size).saturate
    entries = {
        event: BeliefSet(PointSet(universe, structure.f[event]))
        for event in sorted(structure.events)
        if saturate(event) == event
    }
    return PartialRevision(initial, entries)


# Why a pinned menu admits no selection value, one per failing condition.
_NOT_OVERLAP = "credible entry must be the theory of the overlap"
_NOT_UNCHANGED = "entry must leave the initial theory unchanged"
_NEW_BELIEFS = "allowable entry may not add new beliefs"
_OUTSIDE = "allowable entry adds worlds outside the information"


def _infeasible_event(
    menus: Sequence[_Menu], initial: int, saturate: Callable[[int], int]
) -> tuple[int, str] | None:
    """First of ``menus`` whose pinned entry admits no selection value
    under the valuation with saturation map ``saturate``, or None;
    ``initial`` is f(omega).

    Only menus that are unions of valuation classes are pinned; the
    rest correspond to no formula and constrain nothing.  Rows are
    compared through saturation alone: every realized row holds a
    state, so v(a) = v(b) iff sat(a) = sat(b), and v(a) is within v(b)
    iff sat(a) is within sat(b).
    """
    sat_initial = saturate(initial)
    for event, chosen, family in menus:
        if saturate(event) != event:
            continue
        if event & initial:
            if family is Credibility.CREDIBLE:
                if saturate(chosen) != saturate(event & initial):
                    return event, _NOT_OVERLAP
            elif saturate(chosen) != sat_initial:
                return event, _NOT_UNCHANGED
        elif family is Credibility.ALLOWABLE:
            if sat_initial & ~saturate(chosen):
                return event, _NEW_BELIEFS
            if (chosen & ~sat_initial) & ~event:
                return event, _OUTSIDE
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
    canonical = model.canonical
    quotient = _quotient(model.point_classes, canonical.size)
    f = structure.f
    f_omega = f[structure.universe.full_mask]
    found = _infeasible_event(_menus(structure), f_omega, quotient.saturate)
    if found is not None:
        event, reason = found
        return ExtensionOutcome(False, None, PointSet(structure.universe, event), reason)
    if not build_certificate:
        return ExtensionOutcome(True)

    initial = quotient.rows(f_omega)
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


# Set partitions of the states, each a restricted growth string.
_Partitions = tuple[tuple[int, ...], ...]


def _row_partitions(size: int, max_blocks: int) -> _Partitions:
    """Set partitions of ``size`` states into at most ``max_blocks``
    blocks, as restricted growth strings in lexicographic order: state
    i lies in block ``rgs[i]``, and each block's first state opens it
    with the next unused number."""
    partitions: list[tuple[int, ...]] = [()]
    for _ in range(size):
        partitions = [
            rgs + (block,)
            for rgs in partitions
            for block in range(min(max(rgs, default=-1) + 2, max_blocks))
        ]
    return tuple(partitions)


# The brute force's size caps; they bound its tables at 4**4 mask pairs.
_STATE_LIMIT = 4
_ATOM_LIMIT = 4


@lru_cache(maxsize=None)
def _partition_tables(
    size: int, max_blocks: int
) -> tuple[_Partitions, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``_row_partitions(size, max_blocks)`` and saturation facts over
    them, one bit per partition (bit k for partition k): ``closed[m]``
    holds the partitions under which sat(m) = m, and ``within[x][y]``
    those under which x lies within sat(y).  Built once per argument
    pair, which the size caps keep to 16."""
    partitions = _row_partitions(size, max_blocks)
    closed = [0] * (1 << size)
    within = [[0] * (1 << size) for _ in range(1 << size)]
    for k, rgs in enumerate(partitions):
        bit = 1 << k
        saturate = _Quotient(rgs, max(rgs) + 1).saturate
        for y in range(1 << size):
            sat = saturate(y)
            if sat == y:
                closed[y] |= bit
            x = sat  # walk the submasks of sat(y), ending at 0
            while True:
                within[x][y] |= bit
                if not x:
                    break
                x = (x - 1) & sat
    return partitions, tuple(closed), tuple(map(tuple, within))


def agm_consistency_bruteforce(
    structure: ChoiceStructure, atoms: int | None = None
) -> BruteforceOutcome:
    """Decide consistency by checking extension feasibility under every
    valuation of a budget of atoms over the states, one per partition
    of the states into rows.

    The feasibility conditions see a valuation only through which
    states share a row, so valuations with the same kernel get the same
    verdict; each set partition with at most 2**atoms blocks is checked
    once, through the valuation sending block i to row i.  All of them
    are checked at once: each menu's conditions become ANDs of cached
    per-partition bitsets (``_partition_tables``), one bit per
    partition, and a menu's failure bitset holds the partitions under
    which it is infeasible.  The lowest failing bit is the first
    partition the one-at-a-time walk of ``_infeasible_event`` would
    reject, and ``valuations_checked`` counts the partitions up to it
    (all of them on a pass), as that walk did.

    The default budget is the smallest one admitting an injective
    valuation (atom count = ceil(log2 of the state count)), which is
    enough to expose every criteria violation.
    """
    _require_valid(structure)
    universe = structure.universe
    size = universe.size
    if size > _STATE_LIMIT:
        raise SizeLimitError(f"brute force supports up to {_STATE_LIMIT} states, got {size}")
    n_atoms = atoms if atoms is not None else max(1, math.ceil(math.log2(size)))
    if not 1 <= n_atoms <= _ATOM_LIMIT:
        raise SizeLimitError(f"atom budget must be 1..{_ATOM_LIMIT}, got {n_atoms}")

    partitions, closed, within = _partition_tables(size, 1 << n_atoms)
    f = structure.f
    initial = f[universe.full_mask]
    # (event, reason, partitions under which the menu is pinned and
    # fails the condition), a menu's conditions in the order
    # _infeasible_event tests them.  Law 3b pins a rejected menu's
    # choice to f(omega), so only credible menus meeting f(omega) and
    # allowable menus can fail.  sat(a) = sat(b) iff a lies within
    # sat(b) and b within sat(a).
    failures: list[tuple[int, str, int]] = []
    for event in structure.credible:
        overlap, chosen = event & initial, f[event]
        if overlap:
            holds = within[chosen][overlap] & within[overlap][chosen]
            failures.append((event, _NOT_OVERLAP, closed[event] & ~holds))
    for event in structure.allowable:
        chosen, pinned = f[event], closed[event]
        if event & initial:
            holds = within[chosen][initial] & within[initial][chosen]
            failures.append((event, _NOT_UNCHANGED, pinned & ~holds))
        else:
            failures.append((event, _NEW_BELIEFS, pinned & ~within[initial][chosen]))
            failures.append((event, _OUTSIDE, pinned & ~within[chosen & ~event][initial]))
    failing = 0
    for _, _, bad in failures:
        failing |= bad

    if not failing:
        return BruteforceOutcome(True, len(partitions))
    first = failing & -failing
    # the lowest menu failing there; min keeps the first of a menu's
    # two allowable conditions when both fail
    event, reason, _ = min((item for item in failures if item[2] & first), key=lambda item: item[0])
    checked = first.bit_length()
    atom_names = tuple(f"a{i}" for i in range(n_atoms))
    assignments = tuple(
        (point.id, tuple(bool(cls >> (n_atoms - 1 - j) & 1) for j in range(n_atoms)))
        for point, cls in zip(universe.points, partitions[checked - 1])
    )
    counter = CounterModel(atom_names, assignments, PointSet(universe, event), reason)
    return BruteforceOutcome(False, checked, counter)


def find_rationalizing_preorder(structure: ChoiceStructure) -> PlausibilityOrder | None:
    """A total pre-order whose most-plausible sets reproduce the choice
    map on every credible menu, or None; the structure must pass the
    structural laws.

    The order is peeled one rank at a time (``_least_rank``), and the
    credible menus a rank meets are settled and dropped.  The result is
    the first match of a walk over all weak orders as ordered set
    partitions, first blocks in ascending mask order (docs/semantics.md,
    "Rationalization").
    """
    _require_valid(structure)
    universe = structure.universe
    menus = [(menu, structure.f[menu]) for menu in structure.credible]
    ranks = [0] * universe.size
    left, rank = universe.full_mask, 0
    while left:
        block = _least_rank(menus, left)
        if not block:
            return None
        for i in set_bits(block):
            ranks[i] = rank
        left, rank = left & ~block, rank + 1
        menus = [(menu, chosen) for menu, chosen in menus if not menu & block]
    return PlausibilityOrder(universe, tuple(ranks))


def _least_rank(menus: list[tuple[int, int]], left: int) -> int:
    """The numerically smallest nonempty B within ``left`` that every
    (menu, choice) pair meets not at all or exactly in its choice, or 0
    if there is none.

    B may hold no state a menu leaves unchosen.  The least such set
    holding a state s closes {s} under the choices of the menus it
    meets; B is the smallest of these, and the one for s is at least
    ``1 << s``, so the scan stops there.
    """
    unchosen = 0
    for menu, chosen in menus:
        unchosen |= menu & ~chosen
    best = 0
    for s in set_bits(left & ~unchosen):
        if best and 1 << s > best:
            break
        block, grown = 1 << s, True
        while grown and not block & unchosen:
            grown = False
            for menu, chosen in menus:
                if menu & block and chosen & ~block:
                    block |= chosen
                    grown = True
        if not block & unchosen and (not best or block < best):
            best = block
    return best
