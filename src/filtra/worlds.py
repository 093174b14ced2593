"""Finite universes of valuation-carrying points and exact set algebra.

A Universe fixes an ordered atom list and an ordered list of points;
each point assigns every atom.  Duplicate assignments and partial
coverage of the truth table are both allowed (arbitrary state spaces
need them); ``canonical_universe`` builds the exhaustive,
duplicate-free one.

A PointSet is an integer bitmask over a fixed universe, so all set
operations are exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .formulas import ATOM_NAME, Atom, Formula, FormulaError, Not, UnknownAtomError


class _cached_property:
    """``functools.cached_property`` without the lock it takes on 3.10
    and 3.11, which can cost more than computing the value it caches."""

    def __init__(self, method):
        self.method, self.name = method, method.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


class UniverseMismatchError(ValueError):
    """Two values built over different universes were combined."""


def _require_same(universe: "Universe", other: "Universe", what: str) -> None:
    """Refuse ``other`` unless it is ``universe`` or equal to it, with
    UniverseMismatchError("<what> over a different universe")."""
    if other is not universe and other != universe:
        raise UniverseMismatchError(f"{what} over a different universe")


class SizeLimitError(ValueError):
    """An enumeration was requested beyond its configured size limit."""


@dataclass(frozen=True)
class Point:
    """A state: an id plus one truth value per universe atom."""

    id: str
    values: tuple[bool, ...]


@dataclass(frozen=True)
class Universe:
    """Atoms and points, with ``size`` (the point count) and
    ``full_mask`` (the mask of every point) stored once at construction;
    neither is a field, so equality, hashing and repr see only these
    two."""

    atoms: tuple[str, ...]
    points: tuple[Point, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a universe needs at least one atom")
        seen_atoms = set()
        for atom in self.atoms:
            if not ATOM_NAME.fullmatch(atom):
                raise ValueError(f"invalid atom name {atom!r}")
            if atom in seen_atoms:
                raise ValueError(f"duplicate atom {atom!r}")
            seen_atoms.add(atom)
        if not self.points:
            raise ValueError("a universe needs at least one point")
        seen_ids = set()
        for point in self.points:
            if not point.id:
                raise ValueError("point ids must be nonempty")
            if point.id in seen_ids:
                raise ValueError(f"duplicate point id {point.id!r}")
            seen_ids.add(point.id)
            if len(point.values) != len(self.atoms):
                raise ValueError(
                    f"point {point.id!r} assigns {len(point.values)} atoms, "
                    f"expected {len(self.atoms)}"
                )
        object.__setattr__(self, "size", len(self.points))
        object.__setattr__(self, "full_mask", (1 << len(self.points)) - 1)

    @classmethod
    def from_assignments(
        cls,
        atoms: Sequence[str],
        assignments: Iterable[tuple[str, Mapping[str, bool]]],
    ) -> "Universe":
        atoms = tuple(atoms)
        points = []
        for point_id, assignment in assignments:
            extra = set(assignment) - set(atoms)
            if extra:
                raise ValueError(
                    f"point {point_id!r} assigns undeclared atoms {sorted(extra)}"
                )
            points.append(Point(point_id, tuple(bool(assignment.get(a, False)) for a in atoms)))
        return cls(atoms, tuple(points))

    @_cached_property
    def _index(self) -> dict[str, int]:
        # point id -> position, for loaders that resolve ids by the thousand
        return {point.id: i for i, point in enumerate(self.points)}

    def render(self, mask: int) -> str:
        """The points in ``mask`` as ``{id, ...}``, in point order."""
        return "{" + ", ".join([point.id for i, point in enumerate(self.points) if mask >> i & 1]) + "}"

    def valuation_index(self, index: int) -> int:
        """Row number of the point's assignment in binary-counting order
        (first atom most significant)."""
        value = 0
        for bit in self.points[index].values:
            value = (value << 1) | int(bit)
        return value


# canonical_universe's cap: 4 atoms give 16 points and 65,536 propositions.
_CANONICAL_LIMIT = 4


def canonical_universe(atoms: Sequence[str]) -> Universe:
    """The 2^n points of all truth assignments over ``atoms``.

    Ids are "w0".."w{2^n-1}" in binary-counting order of the atom list
    (first atom most significant): for atoms (p,) the point w0 makes p
    false and w1 makes p true.
    """
    atoms = tuple(atoms)
    if not 1 <= len(atoms) <= _CANONICAL_LIMIT:
        raise SizeLimitError(
            f"canonical universe supports 1..{_CANONICAL_LIMIT} atoms, got {len(atoms)}"
        )
    points = tuple(
        Point(f"w{i}", values)
        for i, values in enumerate(itertools.product((False, True), repeat=len(atoms)))
    )
    return Universe(atoms, points)


@dataclass(frozen=True)
class PointSet:
    """An exact subset of a universe's points, stored as a bitmask.

    Bit i corresponds to ``universe.points[i]``.
    """

    universe: Universe
    mask: int

    def __post_init__(self):
        if type(self.mask) is not int:  # before the range test, where True == 1
            raise ValueError(f"mask {self.mask!r} is not an int")
        if not 0 <= self.mask <= self.universe.full_mask:
            raise ValueError(f"mask {self.mask:#x} out of range for universe")

    @classmethod
    def empty(cls, universe: Universe) -> "PointSet":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: Universe) -> "PointSet":
        return cls(universe, universe.full_mask)

    def _check(self, other: "PointSet") -> None:
        if self.universe != other.universe:
            raise UniverseMismatchError("point sets belong to different universes")

    def __or__(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.universe, self.mask | other.mask)

    def __and__(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.universe, self.mask & ~other.mask)

    def __le__(self, other: "PointSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __bool__(self) -> bool:
        return self.mask != 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> Iterator[int]:
        return set_bits(self.mask)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.universe.points[i].id for i in self.indices())

    def render(self) -> str:
        return self.universe.render(self.mask)


def set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> list[int]:
    """Every submask of ``mask`` in ascending order (the empty one
    first)."""
    subs = [0]
    while mask:
        low = mask & -mask
        subs += [sub | low for sub in subs]
        mask ^= low
    return subs


def _atom_mask(universe: Universe, name: str) -> int:
    try:
        column = universe.atoms.index(name)
    except ValueError:
        raise UnknownAtomError(name) from None
    mask = 0
    for i, point in enumerate(universe.points):
        if point.values[column]:
            mask |= 1 << i
    return mask


def truth_set(formula: Formula, universe: Universe) -> PointSet:
    """Exactly the points of ``universe`` satisfying ``formula``.

    Each connective is evaluated once, keyed by identity: ``iff`` shares
    both sides, so a parsed ``<->`` chain is a DAG whose tree size
    doubles per ``<->``.  A formula nested too deeply for the recursion
    raises FormulaError.
    """
    full = universe.full_mask
    made: dict[int, int] = {}

    def walk(node: Formula) -> int:
        if isinstance(node, Atom):
            return _atom_mask(universe, node.name)
        mask = made.get(id(node))
        if mask is None:
            if isinstance(node, Not):
                mask = full & ~walk(node.operand)
            else:
                mask = walk(node.left) | walk(node.right)
            made[id(node)] = mask
        return mask

    try:
        return PointSet(universe, walk(formula))
    except RecursionError:
        raise FormulaError("formula nested too deeply to evaluate") from None


def dnf_of(points: PointSet) -> str | None:
    """A representative formula for ``points``, by greedy cube cover.

    A cube fixes each atom to unconstrained, ``~a`` or ``a``; its
    points are the intersection of those literals' truth sets.  Each
    step takes, among the cubes inside ``points``, the one covering the
    most points not yet covered; ties go to the fewest literals, then
    to the first in code order, atom by atom with unconstrained < ``~a``
    < ``a``.  Returns None when no formula has exactly this truth set
    (possible when the universe carries duplicate assignments and the
    set splits a duplicate class).  The result parses back to the same
    point set.
    """
    universe = points.universe
    atoms = universe.atoms
    first = atoms[0]
    target = points.mask
    full = universe.full_mask
    if target == 0:
        return f"{first} & ~{first}"
    if target == full:
        return f"{first} | ~{first}"

    literals = []  # per atom, (code, truth set, text) of: unconstrained, ~a, a
    for name in atoms:
        mask = _atom_mask(universe, name)
        literals.append(((0, full, ""), (1, full & ~mask, f"~{name}"), (2, mask, name)))
    cubes = []  # ((literal count, codes), points, text) of each nonempty cube inside the set
    for cube in itertools.product(*literals):
        codes, masks, texts = zip(*cube)
        mask = functools.reduce(int.__and__, masks)
        if mask and mask & ~target == 0:
            key = (len(codes) - codes.count(0), codes)
            cubes.append((key, mask, " & ".join(filter(None, texts))))
    if functools.reduce(int.__or__, (mask for _, mask, _ in cubes), 0) != target:
        return None

    covered = 0
    parts = []
    while covered != target:
        _, mask, text = min(cubes, key=lambda cube: (-(cube[1] & ~covered).bit_count(), cube[0]))
        parts.append(text)
        covered |= mask
    return " | ".join(parts)
