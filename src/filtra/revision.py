"""Full-domain belief revision on the semantic quotient.

A revision function is stored as a total table from propositions
(point sets over a fixed universe) to belief sets, so every postulate
becomes a finite quantification and extensionality holds by
construction.  The module provides two constructors (from a
plausibility pre-order and from a selection function), checkers for
the eight classical revision postulates and for the credibility-
filtered laws F1-F4, the builder that turns a basic table plus a
credibility labeling into a filtered table, and the reverse decision
procedure that recovers a basic table from a filtered one or proves
none exists.

Point-set forms of the postulates and filter laws are derived in
docs/semantics.md; the checkers implement those forms literally.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .beliefs import BeliefSet
from .reports import CheckReport, CheckResult, Witness
from .worlds import (
    PointSet,
    SizeLimitError,
    Universe,
    UniverseMismatchError,
    submasks,
    truth_set,
)


class SelectionError(ValueError):
    """A selection function violates one of its invariants."""

    def __init__(self, message: str, event: PointSet | None = None):
        if event is not None:
            message = f"{message} at E = {event.render()}"
        super().__init__(message)
        self.event = event


class PostulateViolation(ValueError):
    """An operation required a table satisfying postulates it fails."""

    def __init__(self, report: CheckReport):
        failed = ", ".join(result.check for result in report.failures())
        super().__init__(f"input table violates {failed}")
        self.report = report


@dataclass(frozen=True)
class PlausibilityOrder:
    """Total pre-order on a universe's points; lower rank = more plausible.

    Ranks are dense: they form the contiguous range 0..m.
    """

    universe: Universe
    ranks: tuple[int, ...]

    def __post_init__(self):
        if len(self.ranks) != self.universe.size:
            raise ValueError("one rank per point required")
        levels = set(self.ranks)
        if levels != set(range(len(levels))):
            raise ValueError(f"ranks must form a contiguous range from 0, got {sorted(levels)}")

    @classmethod
    def from_levels(cls, universe: Universe, levels: Sequence[Iterable[str]]) -> "PlausibilityOrder":
        ranks: dict[str, int] = {}
        for rank, level in enumerate(levels):
            for point_id in level:
                if point_id in ranks:
                    raise ValueError(f"point {point_id!r} appears in two levels")
                ranks[point_id] = rank
        return cls.from_ranks(universe, ranks)

    @classmethod
    def from_ranks(cls, universe: Universe, ranking: Mapping[str, int]) -> "PlausibilityOrder":
        """Build from any integer ranking; values are densified, only
        their relative order matters."""
        ids = {point.id for point in universe.points}
        if set(ranking) != ids:
            missing = sorted(ids - set(ranking))
            extra = sorted(set(ranking) - ids)
            raise ValueError(f"ranking must cover the points exactly (missing {missing}, extra {extra})")
        dense = {value: i for i, value in enumerate(sorted(set(ranking.values())))}
        return cls(universe, tuple(dense[ranking[point.id]] for point in universe.points))

    @functools.cached_property
    def _levels(self) -> tuple[int, ...]:
        masks = [0] * (max(self.ranks) + 1)
        for i, rank in enumerate(self.ranks):
            masks[rank] |= 1 << i
        return tuple(masks)

    def _lowest(self, mask: int) -> int:
        """The lowest-rank points of ``mask`` (0 for 0)."""
        return next((mask & level for level in self._levels if mask & level), 0)

    def level_sets(self) -> tuple[PointSet, ...]:
        return tuple(PointSet(self.universe, mask) for mask in self._levels)

    def most_plausible(self, among: PointSet) -> PointSet:
        """The lowest-rank members of ``among`` (empty for the empty set)."""
        if among.universe != self.universe:
            raise UniverseMismatchError("point set over a different universe")
        return PointSet(self.universe, self._lowest(among.mask))


@dataclass(frozen=True)
class SelectionFunction:
    """A choice of nonempty S(E) <= E for every nonempty proposition E,
    pinned to E & initial whenever that overlap is nonempty.

    ``choice`` is keyed by proposition bitmask.
    """

    universe: Universe
    initial: BeliefSet
    choice: Mapping[int, int]

    def __post_init__(self):
        if self.initial.universe != self.universe:
            raise UniverseMismatchError("initial beliefs over a different universe")
        if not self.initial.is_consistent:
            raise SelectionError("initial beliefs must be consistent")
        full = self.universe.full_mask
        expected = set(range(1, full + 1))
        if set(self.choice) != expected:
            raise SelectionError("choice must cover every nonempty proposition exactly")
        initial_mask = self.initial.points.mask
        for event in range(1, full + 1):
            selected = self.choice[event]
            if selected == 0:
                raise SelectionError("S(E) must be nonempty", PointSet(self.universe, event))
            if selected & ~event:
                raise SelectionError("S(E) must be a subset of E", PointSet(self.universe, event))
            overlap = event & initial_mask
            if overlap and selected != overlap:
                raise SelectionError(
                    "S(E) must equal E & initial when they overlap", PointSet(self.universe, event)
                )

    def select(self, event: PointSet) -> PointSet:
        return PointSet(self.universe, self.choice[event.mask])


@dataclass(frozen=True)
class RevisionTable:
    """Total map from every proposition over the universe to a belief set."""

    universe: Universe
    initial: BeliefSet
    entries: Mapping[int, BeliefSet]

    def __post_init__(self):
        if self.initial.universe != self.universe:
            raise UniverseMismatchError("initial beliefs over a different universe")
        if not self.initial.is_consistent:
            raise ValueError("initial beliefs must be consistent")
        expected = set(range(self.universe.full_mask + 1))
        if set(self.entries) != expected:
            raise ValueError("entries must cover every proposition exactly once")
        # equal entries usually share one object; check each object once
        for belief in {id(belief): belief for belief in self.entries.values()}.values():
            if belief.universe != self.universe:
                raise UniverseMismatchError("entry belief set over a different universe")

    @classmethod
    def from_masks(
        cls, universe: Universe, initial_mask: int, masks: Sequence[int]
    ) -> "RevisionTable":
        """The table whose entry at proposition ``i`` is the theory of
        the points in ``masks[i]``.  Equal entries share one BeliefSet."""
        theories = {mask: BeliefSet(PointSet(universe, mask)) for mask in {initial_mask, *masks}}
        entries = {prop: theories[mask] for prop, mask in enumerate(masks)}
        return cls(universe, theories[initial_mask], entries)

    @functools.cached_property
    def _masks(self) -> tuple[int, ...]:
        # entry point sets as one flat sequence indexed by proposition
        return tuple(self.entries[mask].points.mask for mask in range(self.universe.full_mask + 1))

    def entry(self, proposition: PointSet) -> BeliefSet:
        if proposition.universe != self.universe:
            raise UniverseMismatchError("proposition over a different universe")
        return self.entries[proposition.mask]

    def revise(self, formula) -> BeliefSet:
        return self.entry(truth_set(formula, self.universe))


class Credibility(enum.Enum):
    CREDIBLE = "C"
    ALLOWABLE = "A"
    REJECTED = "R"


@dataclass(frozen=True)
class CredibilityLabeling:
    """Total credibility label per proposition.

    The full proposition (the tautology class) is always credible and
    the empty one (the contradiction class) always rejected; credible
    and allowable labels are reserved for nonempty propositions.
    """

    universe: Universe
    labels: Mapping[int, Credibility]

    def __post_init__(self):
        full = self.universe.full_mask
        if set(self.labels) != set(range(full + 1)):
            raise ValueError("labels must cover every proposition exactly once")
        if self.labels[full] is not Credibility.CREDIBLE:
            raise ValueError("the full proposition must be labeled credible")
        if self.labels[0] is not Credibility.REJECTED:
            raise ValueError("the empty proposition must be labeled rejected")

    @classmethod
    def all_credible(cls, universe: Universe) -> "CredibilityLabeling":
        labels = {mask: Credibility.CREDIBLE for mask in range(1, universe.full_mask + 1)}
        labels[0] = Credibility.REJECTED
        return cls(universe, labels)

    @classmethod
    def from_overrides(
        cls, universe: Universe, overrides: Mapping[int, Credibility]
    ) -> "CredibilityLabeling":
        base = dict(cls.all_credible(universe).labels)
        for mask, label in overrides.items():
            base[mask] = label
        return cls(universe, base)

    def label(self, proposition: PointSet) -> Credibility:
        if proposition.universe != self.universe:
            raise UniverseMismatchError("proposition over a different universe")
        return self.labels[proposition.mask]


def revision_from_preorder(order: PlausibilityOrder) -> RevisionTable:
    """Revision by minimizing rank: each proposition maps to the theory
    of its most plausible points; the empty proposition maps to the
    absurd theory."""
    masks = [order._lowest(mask) for mask in range(order.universe.full_mask + 1)]
    return RevisionTable.from_masks(order.universe, masks[-1], masks)


def revision_from_selection(selection: SelectionFunction) -> RevisionTable:
    """Table with entries Th(S(E)) and the absurd theory at the empty
    proposition.  Satisfies AGM1-AGM6 by construction (not necessarily
    AGM7/AGM8)."""
    choice = selection.choice
    masks = [0] + [choice[mask] for mask in range(1, selection.universe.full_mask + 1)]
    return RevisionTable.from_masks(selection.universe, selection.initial.points.mask, masks)


ALL_POSTULATES = (1, 2, 3, 4, 5, 6, 7, 8)

_AGM_NOTES = {
    1: "by representation: entries are deductively closed point-set theories",
    6: "by representation: entries are keyed by truth sets",
}

_MAX_WITNESSES = 5


def _agm_mask_holds(
    entries: Sequence[int], initial: int, postulate: int, e: int, f: int = 0
) -> bool:
    entry = entries[e]
    if postulate in (1, 6):
        return True
    if postulate == 2:
        return e == 0 or entry & ~e == 0
    if postulate == 3:
        return (e & initial) & ~entry == 0
    if postulate == 4:
        return e & initial == 0 or entry & ~(e & initial) == 0
    if postulate == 5:
        return (entry == 0) == (e == 0)
    if postulate == 7:
        return (entry & f) & ~entries[e & f] == 0
    if postulate == 8:
        return entry & f == 0 or entries[e & f] & ~(entry & f) == 0
    raise ValueError(f"unknown postulate {postulate}")


def agm_holds_at(
    table: RevisionTable, postulate: int, e: PointSet, f: PointSet | None = None
) -> bool:
    """Evaluate one postulate at a single proposition (pair, for 7/8).

    This is the same predicate ``check_agm`` quantifies, so a reported
    witness always reproduces its failure here.
    """
    if postulate in (7, 8) and f is None:
        raise ValueError(f"postulate {postulate} needs a pair of propositions")
    f_mask = 0 if f is None else f.mask
    return _agm_mask_holds(table._masks, table.initial.points.mask, postulate, e.mask, f_mask)


def _agm78_failure_counts(table: RevisionTable) -> dict[int, list[int]]:
    """Per postulate 7 and 8, the number of failing pairs (E, F) for
    each E, indexed by E's mask.

    Each F is split as G | H with G = E & F and H disjoint from E.  For
    a fixed (E, G) the failing H have a closed-form count (derived in
    docs/semantics.md), so one pass over the 3^m pairs (E, G <= E)
    replaces the scan over all 4^m pairs (E, F).  No other postulate is
    assumed to hold.
    """
    size = table.universe.size
    entries = table._masks
    counts7 = [0] * len(entries)
    counts8 = [0] * len(entries)
    for e, b in enumerate(entries):
        every = 1 << (size - e.bit_count())  # 2^n choices of H
        out = b & ~e
        # H meeting out: where AGM8's antecedent can hold through H alone
        meets_out = every - (every >> out.bit_count())
        if out:
            groups = submasks(e)
        else:
            # with B(E) <= E, a G that misses B(E), or with
            # B(G) = B(E) & G, fails neither postulate for any H
            groups = []
            rest = submasks(e & ~b)
            for kept in submasks(b)[1:]:
                groups += [kept | r for r in rest if entries[kept | r] != kept]
        fail7 = fail8 = 0
        for g in groups:
            bg = entries[g]
            kept = b & g
            if kept & ~bg:
                fail7 += every
            else:
                fail7 += every - (every >> (out & ~bg).bit_count())
            if kept:
                z = bg & ~kept
                if z & ~out:
                    fail8 += every
                else:
                    fail8 += every - (every >> z.bit_count())
            elif bg & ~out:
                fail8 += meets_out
            elif bg:
                fail8 += meets_out - (every >> bg.bit_count())
        counts7[e] = fail7
        counts8[e] = fail8
    return {7: counts7, 8: counts8}


def check_agm(
    table: RevisionTable, postulates: Iterable[int] = ALL_POSTULATES
) -> CheckReport:
    """Check the requested postulates over every proposition (and every
    pair of propositions for 7/8, the pair standing for a conjunction).

    AGM7/AGM8 are decided by counting failing pairs per (E, G <= E) in
    closed form (``_agm78_failure_counts``), which costs 3^m instead of
    the 4^m pair scan and yields the same exact count.  Witnesses are
    the first failing pairs in ascending (E, F) order, found by scanning
    F only for the first E's with a nonzero count, so reports match a
    full pair scan exactly.
    """
    wanted = sorted(set(postulates))
    if not wanted or not set(wanted) <= set(ALL_POSTULATES):
        raise ValueError(f"postulates must be a nonempty subset of 1..8, got {wanted}")
    universe = table.universe
    holds = functools.partial(_agm_mask_holds, table._masks, table.initial.points.mask)
    masks = range(universe.full_mask + 1)
    pair_counts = _agm78_failure_counts(table) if {7, 8} & set(wanted) else {}
    results = []
    for postulate in wanted:
        name = f"AGM{postulate}"
        if postulate in (1, 6):
            results.append(CheckResult(name, True, note=_AGM_NOTES[postulate]))
            continue
        failing: list[tuple[int, int | None]] = []
        if postulate in (7, 8):
            counts = pair_counts[postulate]
            total = sum(counts)
            for e in masks:
                if len(failing) >= _MAX_WITNESSES:
                    break
                if counts[e]:
                    failing.extend((e, f) for f in masks if not holds(postulate, e, f))
        else:
            failing = [(e, None) for e in masks if not holds(postulate, e)]
            total = len(failing)
        witnesses = tuple(
            Witness.of(
                [("E", PointSet(universe, e))]
                + ([("F", PointSet(universe, f))] if f is not None else [])
            )
            for e, f in failing[:_MAX_WITNESSES]
        )
        note = f"{total} failing propositions" if total > _MAX_WITNESSES else ""
        results.append(CheckResult(name, not total, witnesses, note))
    return CheckReport("AGM postulates", tuple(results))


_FILTER_CHECKS = ("F1", "F2a", "F2b", "F3", "F3a", "F3b")


def _filter_mask_holds(
    entries: Sequence[int], initial: int, labels: Mapping[int, Credibility], check: str, e: int
) -> bool:
    entry = entries[e]
    label = labels[e]
    overlap = e & initial
    full = len(entries) - 1
    if check == "F1":
        return label is not Credibility.REJECTED or entry == initial
    if check == "F2a":
        if overlap == 0 or label is not Credibility.CREDIBLE:
            return True
        return entry == overlap
    if check == "F2b":
        if overlap == 0 or label is not Credibility.ALLOWABLE:
            return True
        return entry == initial
    if check == "F3":
        return overlap != 0 or entry != 0
    if check == "F3a":
        if overlap != 0 or label is not Credibility.CREDIBLE:
            return True
        return entry & ~e == 0
    if check == "F3b":
        if overlap != 0 or label is not Credibility.ALLOWABLE:
            return True
        # entry within the initial theory minus the refuting formula, and
        # re-adding that formula recovers the initial theory exactly
        return (
            initial & ~entry == 0
            and entry & e != 0
            and entry & (full & ~e) == initial
        )
    raise ValueError(f"unknown filter check {check!r}")


def filter_holds_at(
    table: RevisionTable, labeling: CredibilityLabeling, check: str, e: PointSet
) -> bool:
    """Evaluate one filter law at a single proposition (see check_filtered)."""
    return _filter_mask_holds(
        table._masks, table.initial.points.mask, labeling.labels, check, e.mask
    )


def check_filtered(table: RevisionTable, labeling: CredibilityLabeling) -> CheckReport:
    """Check the credibility-filtered revision laws.

    F1: rejected information leaves the initial beliefs untouched.
    F2a/F2b: information compatible with the initial beliefs expands
    them when credible and changes nothing when allowable.
    F3: revising by initially-disbelieved information stays consistent;
    F3a: when credible, the information is believed afterwards;
    F3b: when allowable, the result drops the disbelief minimally (no
    new beliefs, the disbelief itself gone, re-adding it restores the
    initial theory).
    F4 (extensionality) holds by representation.
    """
    if labeling.universe != table.universe:
        raise UniverseMismatchError("labeling over a different universe")
    universe = table.universe
    holds = functools.partial(
        _filter_mask_holds, table._masks, table.initial.points.mask, labeling.labels
    )
    results = []
    for check in _FILTER_CHECKS:
        failing = [e for e in range(universe.full_mask + 1) if not holds(check, e)]
        witnesses = tuple(
            Witness.of([("E", PointSet(universe, e))], detail=f"label {labeling.labels[e].value}")
            for e in failing[:_MAX_WITNESSES]
        )
        note = f"{len(failing)} failing propositions" if len(failing) > _MAX_WITNESSES else ""
        results.append(CheckResult(check, not failing, witnesses, note))
    results.append(
        CheckResult("F4", True, note="by representation: entries are keyed by truth sets")
    )
    return CheckReport("filtered revision laws", tuple(results))


def build_filtered(star: RevisionTable, labeling: CredibilityLabeling) -> RevisionTable:
    """Route each proposition through its credibility label: rejected
    propositions keep the initial beliefs, credible ones take the basic
    revision, allowable ones take the intersection of the two.

    Requires ``star`` to satisfy AGM1-AGM6 (PostulateViolation otherwise).
    """
    if labeling.universe != star.universe:
        raise UniverseMismatchError("labeling over a different universe")
    entries, initial = star._masks, star.initial.points.mask
    holds = functools.partial(_agm_mask_holds, entries, initial)
    # AGM1 and AGM6 hold by representation; a report is built only on a failure
    if not all(holds(p, e) for p in (2, 3, 4, 5) for e in range(len(entries))):
        raise PostulateViolation(check_agm(star, (1, 2, 3, 4, 5, 6)))
    masks = []
    for mask, entry in enumerate(entries):
        label = labeling.labels[mask]
        if label is Credibility.REJECTED:
            entry = initial
        elif label is Credibility.ALLOWABLE:
            entry |= initial
        masks.append(entry)
    return RevisionTable.from_masks(star.universe, initial, masks)


@dataclass(frozen=True)
class RecoveryOutcome:
    """Result of recover_basic: either a basic table whose filtered
    build reproduces the input, or the first infeasible proposition."""

    basic: RevisionTable | None
    infeasible: PointSet | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.basic is not None


def recover_basic(filtered: RevisionTable, labeling: CredibilityLabeling) -> RecoveryOutcome:
    """Decide whether some basic table builds to ``filtered`` under
    ``labeling``, and produce one if so.

    Feasibility decomposes per proposition: where the information
    overlaps the initial beliefs the selection value is forced to that
    overlap; elsewhere the filtered entry pins it (credible: the entry
    itself; allowable: the entry minus the initial points).  Where the
    label leaves the choice free, the largest admissible set is chosen,
    deterministically.  Propositions are scanned in ascending bitmask
    order, so the reported infeasible proposition is the first one.
    """
    if labeling.universe != filtered.universe:
        raise UniverseMismatchError("labeling over a different universe")
    universe = filtered.universe
    initial = filtered.initial.points.mask

    def fail(mask: int, reason: str) -> RecoveryOutcome:
        return RecoveryOutcome(None, PointSet(universe, mask), reason)

    entries = filtered._masks
    if entries[0] != initial:
        return fail(0, "revision by a contradiction must preserve the initial beliefs")

    choice: dict[int, int] = {}
    for event in range(1, len(entries)):
        got = entries[event]
        label = labeling.labels[event]
        overlap = event & initial
        if overlap:
            required = overlap if label is Credibility.CREDIBLE else initial
            if got != required:
                return fail(event, f"entry incompatible with label {label.value} on overlapping information")
            choice[event] = overlap
        elif label is Credibility.CREDIBLE:
            if got == 0 or got & ~event:
                return fail(event, "credible entry must be a consistent theory of points within the information")
            choice[event] = got
        elif label is Credibility.ALLOWABLE:
            extra = got & ~initial
            if initial & ~got or extra == 0 or extra & ~event:
                return fail(
                    event,
                    "allowable entry must add a nonempty set of information points to the initial ones",
                )
            choice[event] = extra
        else:
            if got != initial:
                return fail(event, "rejected information must preserve the initial beliefs")
            choice[event] = event
    selection = SelectionFunction(universe, filtered.initial, choice)
    return RecoveryOutcome(revision_from_selection(selection))


def _ordered_partitions(mask: int) -> Iterator[tuple[int, ...]]:
    if mask == 0:
        yield ()
        return
    for first in submasks(mask)[1:]:
        for rest in _ordered_partitions(mask & ~first):
            yield (first,) + rest


def enumerate_preorders(universe: Universe, limit: int = 5) -> Iterator[PlausibilityOrder]:
    """All total pre-orders of the universe's points, each exactly once,
    as ordered set partitions (first block = most plausible)."""
    if universe.size > limit:
        raise SizeLimitError(
            f"exhaustive pre-order enumeration supports up to {limit} points, got {universe.size}"
        )
    for blocks in _ordered_partitions(universe.full_mask):
        ranks = [0] * universe.size
        for rank, block in enumerate(blocks):
            for i in PointSet(universe, block).indices():
                ranks[i] = rank
        yield PlausibilityOrder(universe, tuple(ranks))
