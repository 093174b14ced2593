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
docs/semantics.md.  ``agm_holds_at`` and ``filter_holds_at`` evaluate
them at one proposition; the whole-table checks, the ``build_filtered``
gate and the ``recover_basic`` scan evaluate the same forms bit-sliced,
as a few operations on one int per state whose bit E stands for
proposition E (``_agm_failures``, ``_filter_failures``; recovery reads
the latter).  A table's entry view (``_Entries``) keeps it as one
packed array with a native word per proposition, as those per-state
ints, or both, either made from the other on first read.  The pre-order
constructor, ``build_filtered`` and ``recover_basic`` compute their
tables as per-state ints, keep them and pack them (``_untranspose``)
only when the array is read; a table given masks transposes them on the
first law read.  A seeded selection's pinned entries take one AND, not
a transpose (``SelectionFunction._pinned``).  ``_pack`` checks only
masks from outside.  A selection function keeps only its packed table
and a labeling one code byte per proposition, each behind a read-only
view (``_Packed``).
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
import sys
from array import array
from collections.abc import Iterable, Iterator, KeysView, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .beliefs import BeliefSet
from .reports import CheckReport, CheckResult, Witness
from .worlds import (
    PointSet,
    Universe,
    _cached_property,
    _require_same,
    set_bits,
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
        for rank in self.ranks:  # before the comparison, where 1.0 == 1 and True == 1
            if type(rank) is not int:
                raise ValueError(f"rank {rank!r} is not an int")
        levels = set(self.ranks)
        if levels != set(range(len(levels))):
            raise ValueError(f"ranks must form a contiguous range from 0, got {sorted(levels)}")

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

    @_cached_property
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
        """The lowest-rank members of ``among`` (empty for the empty set).
        Kept as API: Grove's selection, the subject of acceptance criterion 7."""
        _require_same(self.universe, among.universe, "point set")
        return PointSet(self.universe, self._lowest(among.mask))


@dataclass(frozen=True)
class SelectionFunction:
    """A choice of nonempty S(E) <= E for every nonempty proposition E,
    pinned to E & initial whenever that overlap is nonempty.

    ``choice`` is keyed by proposition bitmask.  It is packed once, with
    0 at 0, into the table that is checked and kept as its revision;
    the caller's mapping is not kept, and ``choice`` becomes a read-only
    view over that table's array for keys 1..full.  ``choice`` is left
    out of the hash, so functions that differ only in it share one;
    equality still compares it.
    """

    universe: Universe
    initial: BeliefSet
    choice: Mapping[int, int] = field(hash=False)

    def __post_init__(self):
        _require_same(self.universe, self.initial.universe, "initial beliefs")
        if not self.initial.is_consistent:
            raise SelectionError("initial beliefs must be consistent")
        full, choice = self.universe.full_mask, self.choice
        packed = type(choice) is _Packed and choice._first == 1  # a table, as _pinned packs it
        if len(choice) != full or not (packed or all(map(choice.__contains__, range(1, full + 1)))):
            raise SelectionError("choice must cover every nonempty proposition exactly")
        values = choice.data if packed else [0, *map(choice.__getitem__, range(1, full + 1))]
        outside = 0  # bit E set iff S(E) is no mask of the universe, so not within E
        try:
            masks = _pack(self.universe, values)
        except ValueError:
            values = list(values)
            for event, value in enumerate(values):
                if value & ~full:  # a non-int S(E) raises TypeError here
                    outside |= 1 << event
                    values[event] = 0
            masks = _pack(self.universe, values)
        table = RevisionTable(self.universe, self.initial, _Entries(self.universe, self.initial, masks))
        _check_selection(table, outside)
        self.__dict__["_table"] = table
        object.__setattr__(self, "choice", _Packed(table._masks, first=1))

    @classmethod
    def _pinned(
        cls, universe: Universe, initial_mask: int, free: Mapping[int, int]
    ) -> "SelectionFunction":
        """S(E) = E & I wherever E meets I, and ``free[E]`` at each E
        in ``free``, packed as a table from the start: the identity
        table AND I in every word, both read as one int, gives E & I at
        every E, and the free values overwrite it where E misses I."""
        layout, full = _layout(universe.size), universe.full_mask
        pinned = layout.identity & layout.fulls // full * initial_mask  # I in every word
        masks = array(layout.code, pinned.to_bytes((full + 1) * layout.width, sys.byteorder))
        for event, value in free.items():
            masks[event] = value
        return cls(universe, BeliefSet(PointSet(universe, initial_mask)), _Packed(masks, first=1))


class _Packed(Mapping):
    """A read-only mapping from proposition mask E to ``data[E]``, over
    data packed one item per proposition, for E from ``first`` up to its
    stored stop; each item is read through ``decode`` when that is given.
    A key is found exactly when it is an int in range."""

    __slots__ = ("data", "_first", "_stop", "_decode")

    def __init__(self, data: Sequence, first: int = 0, decode: Mapping | None = None):
        self.data = data
        self._first = first
        self._stop = len(data)
        self._decode = decode

    def __getitem__(self, proposition):
        try:
            # keys start at first; a bare index would also wrap a negative one
            if proposition >= self._first:
                item = self.data[proposition]
                return item if self._decode is None else self._decode[item]
        except (TypeError, IndexError):
            pass
        raise KeyError(proposition)

    def __contains__(self, proposition) -> bool:
        return isinstance(proposition, int) and self._first <= proposition < self._stop

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._first, self._stop))

    def keys(self) -> KeysView:
        return _Keys(self)

    def __len__(self) -> int:
        return self._stop - self._first

    def __eq__(self, other) -> bool:
        first = self._first
        if type(other) is type(self) and (other._first, other._decode) == (first, self._decode):
            return self.data[first:] == other.data[first:]
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class _Keys(KeysView):
    """A packed view's keys, iterated by the view's own range iterator:
    the mixin's generator resumes one Python frame per key, which
    ``dict(view)`` would pay on top of its ``__getitem__`` call."""

    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        return iter(self._mapping)


class _Entries(_Packed):
    """A table's entries as a read-only mapping from proposition mask to
    BeliefSet, over the table's two layouts, either made from the other
    on its first read and then kept: ``masks``, one packed array of
    entry masks indexed by proposition, a native word of
    ``_layout(size)``'s type each; and ``slices``, the table transposed,
    S_s per state s with bit E set iff s is in B(E).  Until slices are
    packed ``data`` is unset, so a lookup's hit path stays one slot read.

    Each distinct theory is made once, on first lookup (the initial one
    is given), so equal entries share one BeliefSet.  Two views compare
    by their slices when both keep them, else by their masks.
    """

    __slots__ = ("universe", "_slices", "_theories")

    def __init__(
        self,
        universe: Universe,
        initial: BeliefSet,
        masks: array | None = None,
        slices: list[int] | None = None,
    ):
        if masks is None:  # packed from the slices on first read
            self._first, self._stop, self._decode = 0, 1 << universe.size, None
        else:
            super().__init__(masks)
        self.universe = universe
        self._slices = slices
        self._theories = {initial.points.mask: initial}

    @property
    def masks(self) -> array:
        if not hasattr(self, "data"):
            self.data = _untranspose(self._slices, self.universe.size)
        return self.data

    @property
    def slices(self) -> list[int]:
        if self._slices is None:
            self._slices = _transpose(self.data, self.universe.size)
        return self._slices

    def __getitem__(self, proposition: int) -> BeliefSet:
        try:
            # a bare array index would wrap a negative key
            if proposition >= 0:
                return self._theories[self.data[proposition]]
        except KeyError:  # the first lookup of this theory
            mask = self.data[proposition]
            theory = self._theories[mask] = BeliefSet(PointSet(self.universe, mask))
            return theory
        except (TypeError, IndexError):
            pass
        except AttributeError:  # the first read of a table given as slices
            self.masks  # packs them
            return self[proposition]
        raise KeyError(proposition)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Entries):
            if self._slices is not None and other._slices is not None:
                same = self._slices == other._slices  # neither side packs
            else:
                same = self.masks == other.masks
            return same and self.universe == other.universe
        return super().__eq__(other)

    __repr__ = object.__repr__


@dataclass(frozen=True)
class RevisionTable:
    """Total map from every proposition over the universe to a belief set.

    ``entries`` is a read-only view (``_Entries``) that stores the table
    and wraps each distinct entry in a BeliefSet on first lookup; a
    caller's mapping passed as ``entries`` is checked and packed into
    that view once.  When its keys come in proposition order it is read
    in one pass, through its ``values()``; otherwise it is read
    proposition by proposition.  The refusals are the same either way.
    ``entries`` is left out of the hash, so tables that differ only in
    their entries share one; equality still compares them.
    """

    universe: Universe
    initial: BeliefSet
    entries: Mapping[int, BeliefSet] = field(hash=False)

    def __post_init__(self):
        universe = self.universe
        _require_same(universe, self.initial.universe, "initial beliefs")
        if not self.initial.is_consistent:
            raise ValueError("initial beliefs must be consistent")
        entries = self.entries
        if type(entries) is _Entries:
            if entries._stop != 1 << universe.size:  # its keys start at 0
                raise ValueError("entries must cover every proposition exactly once")
            _require_same(universe, entries.universe, "entry belief set")
            return
        propositions = range(universe.full_mask + 1)
        # keys in proposition order are read in one pass, any others proposition by proposition
        in_order = len(entries) == len(propositions) and all(map(operator.eq, entries, propositions))
        beliefs = list(entries.values()) if in_order else []
        if len(beliefs) != len(propositions):
            if len(entries) != len(propositions) or not all(map(entries.__contains__, propositions)):
                raise ValueError("entries must cover every proposition exactly once")
            beliefs = list(map(entries.__getitem__, propositions))
        try:
            # only entries over this very universe; the loop below checks the rest
            masks = [belief.points.mask for belief in beliefs if belief.points.universe is universe]
        except AttributeError:  # not a BeliefSet; the loop below names it
            masks = []
        if len(masks) != len(beliefs):
            # the first fault in proposition order, as an entry-by-entry check finds it
            for belief in beliefs:
                _require_same(universe, belief.universe, "entry belief set")
            masks = [belief.points.mask for belief in beliefs]
        masks = _pack(universe, masks)
        object.__setattr__(self, "entries", _Entries(universe, self.initial, masks))

    @classmethod
    def from_masks(
        cls, universe: Universe, initial_mask: int, masks: Sequence[int]
    ) -> "RevisionTable":
        """The table whose entry at proposition ``i`` is the theory of
        the points in ``masks[i]``.

        The masks are packed into one array and checked in bulk on it
        (one per proposition, each an int within the universe, a
        consistent initial one); no BeliefSet or other per-entry object
        is made but the initial one.
        """
        initial = BeliefSet(PointSet(universe, initial_mask))
        return cls(universe, initial, _Entries(universe, initial, _pack(universe, masks)))

    @classmethod
    def _of_slices(
        cls, universe: Universe, initial: BeliefSet, slices: list[int]
    ) -> "RevisionTable":
        """The table whose per-state slices are ``slices``, kept, so it
        is never transposed, and packed on first read."""
        return cls(universe, initial, _Entries(universe, initial, slices=slices))

    @property
    def _masks(self) -> array:
        return self.entries.masks

    @property
    def _slices(self) -> list[int]:
        return self.entries.slices

    @_cached_property
    def _terms(self) -> "_Terms":
        return _Terms.of(self._slices, self.initial.points.mask, self.universe.size)

    def entry(self, proposition: PointSet) -> BeliefSet:
        _require_same(self.universe, proposition.universe, "proposition")
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

    The caller's mapping is checked and encoded once as one code byte
    per proposition (b"C", b"A" or b"R"), and not kept: ``labels``
    becomes a read-only view over those codes.  ``labels`` is left out
    of the hash, so labelings of one universe share one; equality still
    compares the labels.
    """

    universe: Universe
    labels: Mapping[int, Credibility] = field(hash=False)

    def __post_init__(self):
        labels, full = self.labels, self.universe.full_mask
        packed = type(labels) is _Packed and labels._decode is _LABEL_OF_CODE  # as _of_indices packs it
        if len(labels) != full + 1 or not (packed or all(map(labels.__contains__, range(full + 1)))):
            raise ValueError("labels must cover every proposition exactly once")
        if not packed:
            if list(map(type, labels.values())).count(Credibility) != len(labels):
                mask = next(mask for mask in range(full + 1) if type(labels[mask]) is not Credibility)
                event = PointSet(self.universe, mask).render()
                raise ValueError(_NOT_A_LABEL.format(labels[mask], event))
            codes = "".join(map(_VALUE, map(labels.__getitem__, range(full + 1)))).encode()
            labels = _Packed(codes, decode=_LABEL_OF_CODE)
        codes = labels.data
        if codes.translate(None, b"CAR"):  # a byte that is no code shows as itself
            mask = next(mask for mask, code in enumerate(codes) if code not in b"CAR")
            event = PointSet(self.universe, mask).render()
            raise ValueError(_NOT_A_LABEL.format(codes[mask : mask + 1], event))
        if labels[full] is not Credibility.CREDIBLE:
            raise ValueError("the full proposition must be labeled credible")
        if labels[0] is not Credibility.REJECTED:
            raise ValueError("the empty proposition must be labeled rejected")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def all_credible(cls, universe: Universe) -> "CredibilityLabeling":
        return cls.from_overrides(universe, {})

    @classmethod
    def from_overrides(
        cls, universe: Universe, overrides: Mapping[int, Credibility]
    ) -> "CredibilityLabeling":
        labels = dict.fromkeys(range(universe.full_mask + 1), Credibility.CREDIBLE)
        labels[0] = Credibility.REJECTED
        labels.update(overrides)
        return cls(universe, labels)

    @classmethod
    def _of_indices(cls, universe: Universe, indices: bytes) -> "CredibilityLabeling":
        """The labeling whose label at each E strictly between the empty
        and the full proposition is ``tuple(Credibility)[indices[E - 1]]``."""
        codes = b"R" + indices.translate(_CODE_OF_INDEX) + b"C"
        return cls(universe, _Packed(codes, decode=_LABEL_OF_CODE))

    @property
    def _codes(self) -> bytes:
        # one code byte per proposition, b"C", b"A" or b"R"
        return self.labels.data

    @_cached_property
    def _view(self) -> "_Labels":
        # the labels as one bitset per label, bit E for proposition E
        return _Labels.of(self._codes)


# Bit-sliced evaluation (docs/semantics.md): a law at every proposition
# at once, as a few operations on ints whose bit E stands for proposition E.

_VALUE = operator.attrgetter("_value_")  # not .value or a member hash: both run Python code
_LABEL_OF_CODE = {ord(member.value): member for member in Credibility}
_CODE_OF_INDEX = "".join(member.value for member in Credibility).encode().ljust(256, b"?")  # "?" is no code
_NOT_A_LABEL = "label {!r} at E = {} is not a Credibility member"


class _Labels(NamedTuple):
    """A labeling as, per label, the int whose bit E is set iff E
    carries that label."""

    credible: int
    allowable: int
    rejected: int

    @classmethod
    def of(cls, codes: bytes) -> "_Labels":
        """From one "CAR" code byte per proposition."""
        text = codes[::-1]  # int(., 2) reads the highest proposition first
        credible, allowable = [int(text.translate(bits), 2) for bits in _LABEL_BITS]
        return cls(credible, allowable, (1 << len(codes)) - 1 ^ credible ^ allowable)


_LABEL_BITS = (bytes.maketrans(b"CAR", b"100"), bytes.maketrans(b"CAR", b"010"))
# the delta swaps (shift, mask) that transpose a 64-bit int read as an
# 8x8 bit matrix, byte r its row r: bit c of byte r goes to bit r of byte c
_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


class _Layout(NamedTuple):
    """How tables over one universe size are packed, with the constants
    of their transpose."""

    code: str  # the array type of one word
    width: int  # its bytes
    # per byte of the word that holds states: its index in a native-order
    # word and the states whose bits it holds (bit j of byte k: 8k + j)
    planes: tuple[tuple[int, range], ...]
    swaps: tuple[tuple[int, int], ...]  # _SWAPS over every 8 propositions
    fulls: int  # the packed table of full masks, read as an int
    identity: int  # the packed table whose entry E is E, read as an int


@functools.lru_cache(maxsize=None)
def _layout(size: int) -> _Layout:
    code = next(code for code in "BHLQ" if array(code).itemsize * 8 >= size)
    width = array(code).itemsize
    byte = range(width) if sys.byteorder == "little" else range(width - 1, -1, -1)
    planes = tuple((byte[k], range(min(8, size - 8 * k))) for k in range(-(-size // 8)))
    count = 1 << size
    lanes = int.from_bytes(b"\1\0\0\0\0\0\0\0" * -(-count // 8), "little")
    swaps = tuple((shift, mask * lanes) for shift, mask in _SWAPS)
    fulls = int.from_bytes(array(code, [count - 1]) * count, sys.byteorder)
    identity = int.from_bytes(array(code, range(count)), sys.byteorder)
    return _Layout(code, width, planes, swaps, fulls, identity)


def _pack(universe: Universe, masks: Sequence[int]) -> array:
    """``masks`` as one packed array, each checked to be an int within
    the universe; the first that is not is reported."""
    layout = _layout(universe.size)
    try:
        packed = array(layout.code, masks)
    except (TypeError, OverflowError):  # not an int, or too wide for the word
        packed = None
    if packed is None or int.from_bytes(packed, sys.byteorder) | layout.fulls != layout.fulls:
        full = universe.full_mask
        bad = next(m for m in masks if not isinstance(m, int) or not 0 <= m <= full)
        shown = f"{bad:#x}" if isinstance(bad, int) else repr(bad)
        raise ValueError(f"mask {shown} out of range for universe")
    return packed


def _swap_lanes(x: int, swaps: Sequence[tuple[int, int]]) -> int:
    """``x`` with the delta swaps applied in order: each exchanges the
    bits under ``mask`` with those ``shift`` above them."""
    for shift, mask in swaps:
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x


def _transpose(masks: array, size: int) -> list[int]:
    """One int per state s whose bit E is set iff s is in ``masks[E]``.

    A byte of the word, taken across the array and read as one int, is
    a run of 64-bit lanes of 8 propositions each.  Transposing every
    lane as an 8x8 bit matrix at once puts state j's bits of the lane's
    propositions in its byte j, so every 8th byte is state j's slice.
    """
    layout = _layout(size)
    raw = masks.tobytes()
    slices = []
    for byte, states in layout.planes:
        x = _swap_lanes(int.from_bytes(raw[byte :: layout.width], "little"), layout.swaps)
        lanes = x.to_bytes(len(masks) + 7 & ~7, "little")
        slices += [int.from_bytes(lanes[j::8], "little") for j in states]
    return slices


def _untranspose(slices: Sequence[int], size: int) -> array:
    """The packed array whose entry E holds state s iff bit E of
    ``slices[s]`` is set: ``_transpose`` run backwards.

    Every 8th byte of a run of lanes takes one state's slice, the delta
    swaps are undone in reverse order, and the lanes' bytes go to their
    byte of every word.
    """
    layout = _layout(size)
    count = 1 << size
    span = count + 7 & ~7  # the propositions, rounded up to whole lanes
    raw = bytearray(count * layout.width)
    first = 0  # the plane's first state
    for byte, states in layout.planes:
        lanes = bytearray(span)
        for j in states:
            lanes[j::8] = slices[first + j].to_bytes(span >> 3, "little")
        first += 8
        x = _swap_lanes(int.from_bytes(lanes, "little"), layout.swaps[::-1])
        raw[byte :: layout.width] = x.to_bytes(span, "little")[:count]
    return array(layout.code, raw)


@functools.lru_cache(maxsize=None)
def _containment(size: int) -> tuple[int, ...]:
    """P_s per state s: bit E set iff s is in E, over the 2^size
    propositions.  Blocks of 2^s clear bits then 2^s set bits repeat."""
    everything = (1 << (1 << size)) - 1
    patterns = []
    for s in range(size):
        block = 1 << s
        patterns.append(everything // ((1 << 2 * block) - 1) * (((1 << block) - 1) << block))
    return tuple(patterns)


class _Terms(NamedTuple):
    """A table's per-state reductions: bit E of each field is set iff
    the condition holds at proposition E.  Every law below is a few
    operations on these (docs/semantics.md, "Bit-sliced evaluation")."""

    everything: int  # always
    nonempty: int  # B(E) != 0
    outside: int  # B(E) - E != 0
    meets: int  # B(E) & E != 0
    overlap: int  # E & I != 0
    missed: int  # (E & I) - B(E) != 0
    beyond: int  # B(E) - (E & I) != 0
    changed: int  # B(E) != I
    off_overlap: int  # B(E) != E & I
    off_rest: int  # B(E) - E != I

    @classmethod
    def of(cls, slices: Sequence[int], initial: int, size: int) -> "_Terms":
        """Each term is an OR over states s of S_s (s in B(E)) against
        P_s (s in E) and the constant s in I."""
        everything = (1 << (1 << size)) - 1
        nonempty = outside = meets = overlap = missed = beyond = 0
        changed = off_overlap = off_rest = 0
        state = 1  # the bit of state s in I
        for entry, member in zip(slices, _containment(size)):
            out = entry & ~member
            nonempty |= entry
            outside |= out
            meets |= entry & member
            if initial & state:
                overlap |= member
                missed |= member & ~entry
                beyond |= out
                changed |= entry ^ everything
                off_overlap |= entry ^ member
                off_rest |= out ^ everything
            else:
                beyond |= entry
                changed |= entry
                off_overlap |= entry
                off_rest |= out
            state <<= 1
        return cls(
            everything, nonempty, outside, meets, overlap, missed, beyond,
            changed, off_overlap, off_rest,
        )  # fmt: skip


def _agm_failures(table: RevisionTable) -> dict[str, int]:
    """AGM2-AGM5's failing propositions, each as one int: bit E is set
    iff the postulate fails at E."""
    t = table._terms
    return {
        "AGM2": t.outside & ~1,
        "AGM3": t.missed,
        "AGM4": t.overlap & t.beyond,
        "AGM5": t.nonempty ^ t.everything ^ 1,
    }


def _check_selection(table: RevisionTable, outside: int = 0) -> None:
    """Raise SelectionError at the lowest E where S(E) = B(E) of a table
    with 0 at 0 is empty (AGM5), not within E (AGM2, or bit E of
    ``outside``) or not E & I on overlap (AGM3+4), in that order."""
    fails = _agm_failures(table)
    laws = {
        "S(E) must be nonempty": fails["AGM5"] & ~outside,
        "S(E) must be a subset of E": fails["AGM2"] | outside,
        "S(E) must equal E & initial when they overlap": fails["AGM3"] | fails["AGM4"],
    }
    failing = functools.reduce(operator.or_, laws.values())
    if failing:
        low = failing & -failing
        message = next(message for message, bits in laws.items() if bits & low)
        raise SelectionError(message, PointSet(table.universe, low.bit_length() - 1))


def _filter_failures(table: RevisionTable, labels: _Labels) -> dict[str, int]:
    """F1-F3b's failing propositions, each as one int: bit E is set iff
    the law fails at E."""
    t = table._terms
    disjoint = t.everything ^ t.overlap
    return {
        "F1": labels.rejected & t.changed,
        "F2a": t.overlap & labels.credible & t.off_overlap,
        "F2b": t.overlap & labels.allowable & t.changed,
        "F3": disjoint & ~t.nonempty,
        "F3a": disjoint & labels.credible & t.outside,
        # with E & I = 0, B(E) - E = I already puts I inside B(E)
        "F3b": disjoint & labels.allowable & (t.off_rest | ~t.meets),
    }


def revision_from_preorder(order: PlausibilityOrder) -> RevisionTable:
    """Revision by minimizing rank: each proposition maps to the theory
    of its most plausible points; the empty proposition maps to the
    absurd theory.

    Computed per state: s is in B(E) iff s is in E and no point of E
    ranks below s, so S_s = P_s & ~beaten[rank(s)], where bit E of
    ``beaten[r]`` is set iff E holds a point ranked below r.
    """
    size = order.universe.size
    containment = _containment(size)
    ranked = [0] * len(order._levels)  # per rank r, E holds a point of rank r
    for member, rank in zip(containment, order.ranks):
        ranked[rank] |= member
    beaten = [0, *itertools.accumulate(ranked, operator.or_)]
    slices = [member & ~beaten[rank] for member, rank in zip(containment, order.ranks)]
    initial = BeliefSet(PointSet(order.universe, order._levels[0]))
    return RevisionTable._of_slices(order.universe, initial, slices)


def revision_from_selection(selection: SelectionFunction) -> RevisionTable:
    """Table with entries Th(S(E)) and the absurd theory at the empty
    proposition.  Satisfies AGM1-AGM6 by construction (not necessarily
    AGM7/AGM8).  It is the table the selection packed and checked when
    it was made."""
    return selection._table


ALL_POSTULATES = (1, 2, 3, 4, 5, 6, 7, 8)

_AGM_NOTES = {
    1: "by representation: entries are deductively closed point-set theories",
    6: "by representation: entries are keyed by truth sets",
}

_MAX_WITNESSES = 5


def _law_result(
    universe: Universe, law: str, total: int, failing: Iterable[tuple[int, ...]], detail=None
) -> CheckResult:
    """A table law's result from its failure count and its failing E
    (pairs (E, F) for AGM7/8), ascending: the first ``_MAX_WITNESSES``
    are witnesses, with ``detail(E)`` if given; a larger count is noted."""
    witnesses = []
    for masks in itertools.islice(failing, _MAX_WITNESSES):
        sets = tuple(PointSet(universe, mask) for mask in masks)
        witnesses.append(Witness(("E", "F")[: len(sets)], sets, detail(masks[0]) if detail else ""))
    unit = "pairs" if law in ("AGM7", "AGM8") else "propositions"
    note = f"{total} failing {unit}" if total > _MAX_WITNESSES else ""
    return CheckResult(law, not total, tuple(witnesses), note)


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
    return entry & f == 0 or entries[e & f] & ~(entry & f) == 0  # 8


def agm_holds_at(
    table: RevisionTable, postulate: int, e: PointSet, f: PointSet | None = None
) -> bool:
    """Evaluate one postulate at a single proposition (pair, for 7/8).

    This is the same predicate ``check_agm`` quantifies, so a reported
    witness always reproduces its failure here.
    """
    if type(postulate) is not int or postulate not in ALL_POSTULATES:  # a bool or 2.0 is no postulate
        raise ValueError(f"unknown postulate {postulate!r}")
    if postulate in (7, 8) and f is None:
        raise ValueError(f"postulate {postulate} needs a pair of propositions")
    _require_same(table.universe, e.universe, "proposition")
    if f is not None:
        _require_same(table.universe, f.universe, "proposition")
    f_mask = 0 if f is None else f.mask
    return _agm_mask_holds(table._masks, table.initial.points.mask, postulate, e.mask, f_mask)


def _agm78_failure_counts(table: RevisionTable, postulates: set[int]) -> dict[int, list[int]]:
    """Per postulate 7 and 8 in ``postulates``, the number of failing
    pairs (E, F) for each E, indexed by E's mask.

    Each F is split as G | H with G = E & F and H disjoint from E.  For
    a fixed (E, G) the failing H have a closed-form count (derived in
    docs/semantics.md), so one pass over the 3^m pairs (E, G <= E)
    replaces the scan over all 4^m pairs (E, F).  No other postulate is
    assumed to hold.
    """
    size = table.universe.size
    entries = table._masks.tolist()
    want7, want8 = 7 in postulates, 8 in postulates
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
            if want7:
                fail7 += every if kept & ~bg else every - (every >> (out & ~bg).bit_count())
            if not want8:
                continue
            if kept:
                z = bg & ~kept
                fail8 += every if z & ~out else every - (every >> z.bit_count())
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

    AGM2-AGM5 are read off their bit-sliced failure sets
    (``_agm_failures``): the count is the number of set bits and the
    witnesses are the lowest ones, i.e. the first failing propositions
    in ascending order.  AGM7/AGM8 are decided by counting failing pairs
    per (E, G <= E) in closed form (``_agm78_failure_counts``), which
    costs 3^m instead of the 4^m pair scan and yields the same exact
    count.  Witnesses are the first failing pairs in ascending (E, F)
    order, found by scanning F only for the first E's with a nonzero
    count, so reports match a full pair scan exactly.
    """
    given = list(postulates)
    # by type, not equality: True == 1 and 2.0 == 2, but neither names a postulate
    if any(type(p) is not int for p in given):
        raise ValueError(f"postulates must be a nonempty subset of 1..8, got {given}")
    wanted = sorted(set(given))
    if not wanted or not set(wanted) <= set(ALL_POSTULATES):
        raise ValueError(f"postulates must be a nonempty subset of 1..8, got {wanted}")
    universe = table.universe
    props = range(universe.full_mask + 1)
    pairs = {7, 8} & set(wanted)
    pair_counts = _agm78_failure_counts(table, pairs) if pairs else {}
    fails = _agm_failures(table) if {2, 3, 4, 5} & set(wanted) else {}
    results = []
    for postulate in wanted:
        name = f"AGM{postulate}"
        if postulate in (1, 6):
            results.append(CheckResult(name, True, note=_AGM_NOTES[postulate]))
        elif postulate in (7, 8):
            counts = pair_counts[postulate]
            # bound here, as AGM1-6 read no packed array; F is scanned only
            # for an E with failing pairs, and only up to the last witness
            holds = functools.partial(_agm_mask_holds, table._masks, table.initial.points.mask)
            failing = ((e, f) for e in props if counts[e] for f in props if not holds(postulate, e, f))
            results.append(_law_result(universe, name, sum(counts), failing))
        else:
            bits = fails[name]
            failing = ((e,) for e in set_bits(bits))
            results.append(_law_result(universe, name, bits.bit_count(), failing))
    return CheckReport("AGM postulates", tuple(results))


_FILTER_CHECKS = ("F1", "F2a", "F2b", "F3", "F3a", "F3b")
_FILTER_TITLE = "filtered revision laws"
_F4 = CheckResult("F4", True, note="by representation: entries are keyed by truth sets")
# every passing check_filtered returns this one report; it is frozen
_FILTER_HOLDS = CheckReport(
    _FILTER_TITLE, (*(CheckResult(check, True) for check in _FILTER_CHECKS), _F4)
)


def _filter_faults(initial: int, e: int, label: Credibility, entry: int) -> tuple[str, ...]:
    """The filter laws the tuple (I, E, label, entry) fails, in
    ``_FILTER_CHECKS`` order, each as docs/semantics.md writes it ("The
    filter laws"; "One proposition at a time" says why a tuple suffices)."""
    overlap = e & initial
    credible, allowable = label is Credibility.CREDIBLE, label is Credibility.ALLOWABLE
    fails = (
        label is Credibility.REJECTED and entry != initial,
        overlap and credible and entry != overlap,
        overlap and allowable and entry != initial,
        not overlap and entry == 0,
        not overlap and credible and entry & ~e != 0,
        # entry within the initial theory minus the refuting formula, and
        # re-adding that formula recovers the initial theory exactly
        not overlap and allowable and not (initial & ~entry == 0 and entry & e != 0 and entry & ~e == initial),
    )
    return tuple(itertools.compress(_FILTER_CHECKS, fails))


def filter_holds_at(
    table: RevisionTable, labeling: CredibilityLabeling, check: str, e: PointSet
) -> bool:
    """Evaluate one filter law, F4 included, at a single proposition (see check_filtered)."""
    if check not in (*_FILTER_CHECKS, "F4"):
        raise ValueError(f"unknown filter check {check!r}")
    _require_same(table.universe, labeling.universe, "labeling")
    _require_same(table.universe, e.universe, "proposition")
    initial = table.initial.points.mask
    return check not in _filter_faults(initial, e.mask, labeling.labels[e.mask], table._masks[e.mask])


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

    Each law is read off its bit-sliced failure set (``_filter_failures``):
    the count is its number of set bits, the witnesses its lowest ones.
    When every set is empty the one shared passing report is returned.
    A verdict costs those sets only: a failing report makes its results,
    witnesses and label details on the first read of ``results``.
    """
    _require_same(table.universe, labeling.universe, "labeling")
    fails = _filter_failures(table, labeling._view)
    if not any(fails.values()):
        return _FILTER_HOLDS

    def build() -> tuple[tuple[CheckResult, ...], tuple[str, ...]]:
        detail = lambda e: f"label {labeling.labels[e].value}"
        results = []
        for check in _FILTER_CHECKS:
            bits = fails[check]
            failing = ((e,) for e in set_bits(bits))
            results.append(_law_result(table.universe, check, bits.bit_count(), failing, detail))
        return (*results, _F4), ()

    return CheckReport._deferred(build, title=_FILTER_TITLE, all_hold=False)


def build_filtered(star: RevisionTable, labeling: CredibilityLabeling) -> RevisionTable:
    """Route each proposition through its credibility label: rejected
    propositions keep the initial beliefs, credible ones take the basic
    revision, allowable ones take the intersection of the two.

    The routing is per state (docs/semantics.md, "Bit-sliced
    evaluation"): a state of I is in every entry not labeled C, any
    other state only in entries not labeled R, so the built table's
    slices are ``S_s | A | R`` and ``S_s & ~R``.  They are kept, so the
    built table is never transposed, and packed on first read.

    Requires ``star`` to satisfy AGM1-AGM6 (PostulateViolation otherwise).
    """
    _require_same(star.universe, labeling.universe, "labeling")
    # AGM1 and AGM6 hold by representation; a report is built only on a failure
    if any(_agm_failures(star).values()):
        raise PostulateViolation(check_agm(star, (1, 2, 3, 4, 5, 6)))
    initial = star.initial.points.mask
    view = labeling._view
    kept = view.allowable | view.rejected
    slices = [
        entry | kept if initial >> s & 1 else entry & ~view.rejected
        for s, entry in enumerate(star._slices)
    ]
    # the input's initial BeliefSet is reused, not made again
    return RevisionTable._of_slices(star.universe, star.initial, slices)


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
    deterministically.  A proposition is infeasible exactly where a
    filter law fails (docs/semantics.md, "Recovery arithmetic"), so the
    infeasible set is the union of ``_filter_failures``; the reported
    proposition is its lowest bit, i.e. the first in ascending bitmask
    order, with the laws whose failure sets hold it.

    The basic table is built straight from those selection values, one
    slice per state (docs/semantics.md, "Bit-sliced evaluation"), and
    keeps them, as every table the package computes does.
    ``_check_selection`` reads those slices; a failure there means the
    routing is wrong and raises SelectionError.
    """
    _require_same(filtered.universe, labeling.universe, "labeling")
    universe = filtered.universe
    initial = filtered.initial.points.mask
    view = labeling._view
    fails = _filter_failures(filtered, view)
    infeasible = functools.reduce(operator.or_, fails.values())
    if infeasible:
        low = infeasible & -infeasible
        failing = ", ".join(law for law, bits in fails.items() if bits & low)
        return RecoveryOutcome(None, PointSet(universe, low.bit_length() - 1), f"entry fails {failing}")
    # S(E) is E & I on overlap; off it, the entry (C), the entry minus I
    # (A) or E itself (R)
    t = filtered._terms
    disjoint = t.everything ^ t.overlap
    credible, free = disjoint & view.credible, disjoint & view.rejected
    slices = [
        t.overlap & member | credible & entry
        if initial >> s & 1
        else (disjoint ^ free) & entry | free & member
        for s, (entry, member) in enumerate(zip(filtered._slices, _containment(universe.size)))
    ]
    recovered = RevisionTable._of_slices(universe, filtered.initial, slices)
    _check_selection(recovered)
    return RecoveryOutcome(recovered)

