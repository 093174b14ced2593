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
which decides the filter laws, rewritten over saturation, under every
partition of the states into rows at once; the laws see a valuation
only through that partition).  ``extension_oracle`` decides one
valuation by the filter laws themselves.  The feasibility algebra is
worked out in docs/semantics.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .beliefs import BeliefSet
from .reports import CheckReport, CheckResult, Witness, _Deferrable
from .revision import (
    Credibility,
    CredibilityLabeling,
    PlausibilityOrder,
    RevisionTable,
    _filter_faults,
    recover_basic,
)
from .worlds import PointSet, SizeLimitError, Universe, _cached_property, canonical_universe, set_bits


class InvalidStructureError(ValueError):
    """An operation required a structure passing the structural laws."""

    def __init__(self, report: CheckReport):
        failed = ", ".join(result.check for result in report.failures())
        super().__init__(f"choice structure violates clause(s) {failed}")
        self.report = report


@dataclass(frozen=True)
class ChoiceStructure:
    """States, three menu families and a choice map, all as bitmasks.

    The caller's families and choice map are checked and copied once,
    and not kept: the families become frozensets and ``f`` a read-only
    view of its copy.  So the structural verdict, computed on first use
    (``_faults``), holds for the structure's lifetime.  ``f`` is left
    out of the hash (a view is unhashable); equality still compares it.
    """

    universe: Universe
    credible: frozenset[int]
    allowable: frozenset[int]
    rejected: frozenset[int]
    f: Mapping[int, int] = field(hash=False)

    def __post_init__(self):
        full = self.universe.full_mask

        def check(kind: str, masks: Iterable[int]) -> None:
            for mask in masks:
                if type(mask) is not int:
                    raise ValueError(f"{kind} mask {mask!r} is not an int")
                if not 0 <= mask <= full:
                    raise ValueError(f"{kind} mask {mask:#x} out of range")

        check("menu", chain(self.credible, self.allowable, self.rejected))
        for name in ("credible", "allowable", "rejected"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        for key in self.f:  # before the comparison, where 3.0 == 3 and True == 1
            if type(key) is not int:
                raise ValueError(f"choice key {key!r} is not an int")
        events = self.events
        if set(self.f) != events:
            missing = sorted(events - set(self.f))
            extra = set(self.f) - events
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

    @_cached_property
    def _faults(self) -> tuple[_Fault, ...]:
        return _structure_faults(self)


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

# A line of report text as a template and the masks whose ids fill its
# {} fields, rendered only when the report is read.
_Text = tuple  # (str, *int)
# One witness of a failing clause: the clause, the witness's names and
# masks, and a detail line.
_Fault = tuple[str, tuple[str, ...], tuple[int, ...], _Text]
_E, _EF = ("E",), ("E", "f(E)")

# Passing results carry no witness, so every report shares them.
_HOLDS = {clause: CheckResult(clause, True) for clause in (*_CLAUSES[1:], "1a", "1b")}
_HOLDS["1"] = CheckResult("1", True, note="state space is nonempty by construction")


def _structure_faults(structure: ChoiceStructure) -> tuple[_Fault, ...]:
    """Every failing instance of structural laws 2-3d, in clause order;
    a valid structure's () costs set and mask tests only.  Read it as
    ``structure._faults``, which computes it once per structure."""
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
        return ()
    faults: list[_Fault] = [
        ("2", _E, (mask,), (f"in both {name_a} and {name_b}",))
        for (name_a, name_b), both in zip(combinations(("credible", "allowable", "rejected"), 2), shared)
        for mask in sorted(both)
    ]
    if full not in credible:
        faults.append(("2", _E, (full,), ("full menu is not credible",)))
    if 0 not in rejected:
        faults.append(("2", _E, (0,), ("empty menu is not rejected",)))
    if f_omega is None:
        faults.append(("3a", _E, (full,), ("no choice at the full menu",)))
    elif f_omega == 0:
        faults.append(("3a", ("f(omega)",), (0,), ("nothing is initially possible",)))
    details = ("differs from f(omega)", "must be nonempty and within E", "must keep part of E possible")
    for clause, menus, detail in zip(_CLAUSES[3:], failing, details):
        faults.extend((clause, _EF, (m, f[m]), (detail,)) for m in sorted(menus))
    return tuple(faults)


def _fault_report(
    structure: ChoiceStructure,
    title: str,
    clauses: Sequence[str],
    faults: Sequence[_Fault],
    notes: Sequence[_Text] = (),
) -> CheckReport:
    """One result per clause: the shared passing one, or a failing one
    with its witnesses in ``faults``.  The verdict is read off the bare
    faults; the witnesses (the only point sets built) and the text of
    every detail and note are made on the report's first read."""
    universe = structure.universe

    def text(template: str, *masks: int) -> str:
        return template.format(*map(universe.render, masks))

    def build() -> tuple[tuple[CheckResult, ...], tuple[str, ...]]:
        witnesses: dict[str, list[Witness]] = {}
        for clause, names, masks, detail in faults:
            sets = tuple([PointSet(universe, mask) for mask in masks])
            witnesses.setdefault(clause, []).append(Witness(names, sets, text(*detail)))
        results = [
            CheckResult(clause, False, tuple(witnesses[clause])) if clause in witnesses else _HOLDS[clause]
            for clause in clauses
        ]
        return tuple(results), tuple([text(*note) for note in notes])

    return CheckReport._deferred(build, title=title, all_hold=not faults)


_LAWS_TITLE = "choice structure laws"
# every valid structure's validate_structure returns this one report; it is frozen
_LAWS_HOLD = CheckReport(_LAWS_TITLE, tuple(_HOLDS[clause] for clause in _CLAUSES))


def validate_structure(structure: ChoiceStructure) -> CheckReport:
    """Check the structural laws clause by clause.

    1: nonempty state space; 2: disjoint families with the full menu
    credible and the empty menu rejected; 3a: something is initially
    possible; 3b: rejected menus change nothing; 3c: credible menus
    choose nonempty within the menu; 3d: allowable menus keep the menu
    possible.  A valid structure gets the one shared passing report.
    """
    faults = structure._faults
    return _fault_report(structure, _LAWS_TITLE, _CLAUSES, faults) if faults else _LAWS_HOLD


def _require_valid(structure: ChoiceStructure) -> None:
    """Raise InvalidStructureError, with the full report (built only on
    a fault), unless the structure passes the structural laws."""
    if structure._faults:
        raise InvalidStructureError(validate_structure(structure))


def check_agm_consistency(structure: ChoiceStructure) -> CheckReport:
    """Pointwise criteria equivalent to: every interpretation of the
    structure extends to a filtered revision built from a basic table.

    1a: credible menus overlapping the initial set choose exactly the
    overlap.  1b: allowable menus overlapping it change nothing.
    2: allowable menus disjoint from it choose f(omega) plus a nonempty
    part E' of the menu.  Rejected menus, pinned by law 3b, never fail.
    The verdict costs mask tests only; the witnesses, details and
    clause-2 notes are made on the report's first read.
    """
    _require_valid(structure)
    f, credible = structure.f, structure.credible
    initial = f[structure.universe.full_mask]
    faults: list[_Fault] = []
    notes: list[_Text] = []
    for event in sorted(credible | structure.allowable):
        chosen = f[event]
        if event & initial:
            if event in credible:
                if chosen != event & initial:
                    faults.append(("1a", _EF, (event, chosen), ("required {}", event & initial)))
            elif chosen != initial:
                faults.append(("1b", _EF, (event, chosen), ("required f(omega) = {}", initial)))
        elif event not in credible:
            extra = chosen & ~initial
            if initial & ~chosen or extra == 0 or extra & ~event:
                faults.append(("2", _EF, (event, chosen), ("must equal f(omega) plus a nonempty part of E",)))
            else:
                notes.append(("clause 2 holds at E = {} with E' = {}", event, extra))
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
    images = [0]  # per canonical proposition, doubled row by row
    for row in range(canonical.size):
        states = image(1 << row)
        images += [event | states for event in images]
    labels = list(Credibility)
    index_of = {event: labels.index(structure.family_of(event) or Credibility.REJECTED) for event in set(images)}
    # a valid structure labels the empty menu rejected and the full one credible
    labeling = CredibilityLabeling._of_indices(canonical, bytes(map(index_of.__getitem__, images[1:-1])))
    return Model(structure, canonical, labeling, point_classes)


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

    That holds iff the filter laws F1-F3b hold on the table the model
    pins (docs/semantics.md, "Recovery arithmetic"), and they are
    evaluated at one proposition per pinned menu E: v(E), with the
    initial points v(f(omega)), E's family and the entry v(f(E)).  Any
    other proposition whose image is E differs from v(E) only in rows
    no state lands on, which neither the initial points nor the entry
    hold, so it gets the same verdict; one whose image is no menu holds
    the initial points under label R, which no law refuses.  The lowest
    failing menu is reported with the laws it fails.

    On success (and by default) a witness table pair over the canonical
    universe is constructed: the filtered table takes the theory of
    f(image) where a proposition's image is a menu and the initial
    theory elsewhere, and ``recover_basic`` supplies the basic table it
    is built from.
    """
    structure = model.structure
    canonical = model.canonical
    quotient = _quotient(model.point_classes, canonical.size)
    f = structure.f
    initial = quotient.rows(f[structure.universe.full_mask])
    for event in sorted(structure.events):
        if quotient.saturate(event) != event:
            continue
        failing = _filter_faults(
            initial, quotient.rows(event), structure.family_of(event), quotient.rows(f[event])
        )
        if failing:
            reason = f"pinned entry fails {', '.join(failing)}"
            return ExtensionOutcome(False, None, PointSet(structure.universe, event), reason)
    if not build_certificate:
        return ExtensionOutcome(True)

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


@dataclass(frozen=True, init=False)
class BruteforceOutcome(_Deferrable):
    """The oracle's verdict, the valuations it checked and, when it
    fails, a counter-model, which a deferred outcome
    (``_deferred(build, consistent=..., valuations_checked=...)``) makes
    on the first read of ``counterexample``."""

    consistent: bool
    valuations_checked: int
    counterexample: CounterModel | None

    _LAZY = ("counterexample",)

    def __init__(self, consistent: bool, valuations_checked: int, counterexample: CounterModel | None = None):
        # counterexample's default lives here, not on the class, so that a
        # deferred outcome's missing counter-model reaches __getattr__
        self.__dict__.update(
            consistent=consistent, valuations_checked=valuations_checked, counterexample=counterexample
        )

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


@lru_cache(maxsize=None)
def _valuation_rows(n_atoms: int) -> tuple[tuple[str, ...], tuple[tuple[bool, ...], ...]]:
    """A counter-model's atom names under a budget of ``n_atoms``, and
    the assignment of each row, in ``canonical_universe``'s
    binary-counting order (a partition's block i lies on row i).  Built
    once per budget."""
    names = tuple(f"a{j}" for j in range(n_atoms))
    return names, tuple(point.values for point in canonical_universe(names).points)


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
    partition that a walk over the partitions in order would reject,
    and ``valuations_checked`` counts the partitions up to it (all of
    them on a pass), as that walk would.  The verdict and the count
    cost those ANDs only: a failing outcome makes its counter-model
    (the menu, the valuation's rows and the reason) on the first read
    of ``counterexample``.

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
    if type(n_atoms) is not int or not 1 <= n_atoms <= _ATOM_LIMIT:  # a bool or 2.0 is no budget
        raise SizeLimitError(f"atom budget must be 1..{_ATOM_LIMIT}, got {n_atoms!r}")

    partitions, closed, within = _partition_tables(size, 1 << n_atoms)
    f = structure.f
    initial = f[universe.full_mask]
    # (event, law, partitions under which the menu is pinned and fails
    # the law): the filter laws at the menu's proposition, rewritten over
    # saturation (docs/semantics.md, "Every partition at once").  Laws
    # 3b-3d leave each kind of pinned menu one law that can fail: none
    # for a rejected menu or a credible one missing f(omega), F2a for a
    # credible one meeting it, F2b or F3b for an allowable one meeting it
    # or not.  sat(a) = sat(b) iff a lies within sat(b) and b within sat(a).
    failures: list[tuple[int, str, int]] = []
    for event in structure.credible:
        overlap, chosen = event & initial, f[event]
        if overlap:
            holds = within[chosen][overlap] & within[overlap][chosen]
            failures.append((event, "F2a", closed[event] & ~holds))
    for event in structure.allowable:
        chosen, pinned = f[event], closed[event]
        if event & initial:
            holds = within[chosen][initial] & within[initial][chosen]
            failures.append((event, "F2b", pinned & ~holds))
        else:
            holds = within[initial][chosen] & within[chosen & ~event][initial]
            failures.append((event, "F3b", pinned & ~holds))
    failing = 0
    for _, _, bad in failures:
        failing |= bad

    if not failing:
        return BruteforceOutcome(True, len(partitions))
    first = failing & -failing
    checked = first.bit_length()

    def build() -> tuple[CounterModel]:
        # the lowest menu failing there, as extension_oracle reports it
        event, law, _ = min(item for item in failures if item[2] & first)
        atom_names, rows = _valuation_rows(n_atoms)
        ids = [point.id for point in universe.points]
        assignments = tuple(zip(ids, map(rows.__getitem__, partitions[checked - 1])))
        reason = f"pinned entry fails {law}"
        return (CounterModel(atom_names, assignments, PointSet(universe, event), reason),)

    return BruteforceOutcome._deferred(build, consistent=False, valuations_checked=checked)


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
