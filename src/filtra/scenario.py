"""Scenario files: the JSON interchange format.

A scenario declares an atom list and a state list, and optionally a
choice structure, a plausibility pre-order, credibility labeling
overrides, and a revision table.  Events are written as lists of state
ids; wherever events key a JSON object the key is the canonical event
key: the member ids sorted lexicographically and joined with commas
(the empty event's key is the empty string).

Serialization is canonical and deterministic: fixed field order,
sorted event keys and id lists, two-space indent, trailing newline.
A labeling lists the labels off the loader's default (C, and R at the
empty event) and every key its ``labeling_overrides`` names, so
``dumps(load(x))`` is byte-identical for inputs already in that form.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping

from .choice import ChoiceStructure
from .formulas import ATOM_NAME
from .revision import (
    Credibility,
    CredibilityLabeling,
    PlausibilityOrder,
    RevisionTable,
    revision_from_preorder,
)
from .worlds import PointSet, Universe, _require_same

ATOM_LIMIT = 6
# a labeling, pre-order or table section stands for one entry per
# subset of the states; 16 states is 65,536 of them, as at 4 atoms
STATE_LIMIT = 16

_TOP_KEYS = {"atoms", "states", "gcs", "preorder", "labeling", "table", "comments"}
_GCS_KEYS = {"credible", "allowable", "rejected", "f"}
_TABLE_KEYS = {"initial", "entries"}


class ScenarioError(ValueError):
    """A scenario file violates the schema; ``field`` locates the spot."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def event_key(ids: Iterable[str]) -> str:
    return ",".join(sorted(ids))


def ids_of_mask(universe: Universe, mask: int) -> list[str]:
    return sorted(PointSet(universe, mask).ids)


@dataclass
class Scenario:
    atoms: tuple[str, ...]
    universe: Universe
    structure: ChoiceStructure | None = None
    preorder: PlausibilityOrder | None = None
    labeling: CredibilityLabeling | None = None
    labeling_overrides: dict[str, str] | None = None
    table: RevisionTable | None = None
    comments: Any = None

    def require_structure(self) -> ChoiceStructure:
        if self.structure is None:
            raise ScenarioError("gcs", "this command needs a 'gcs' section")
        return self.structure

    def revision_table(self) -> RevisionTable:
        """The declared table, or one built from the pre-order; with
        neither, ScenarioError on "table"."""
        if self.table is not None:
            return self.table
        if self.preorder is None:
            raise ScenarioError("table", "this command needs a 'table' or 'preorder' section")
        return revision_from_preorder(self.preorder)

    def credibility(self) -> CredibilityLabeling:
        """Declared labeling, defaulting to everything-credible."""
        if self.labeling is not None:
            return self.labeling
        return CredibilityLabeling.all_credible(self.universe)


def _expect_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(field, f"expected a list, got {type(value).__name__}")
    return value


def _expect_object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(field, f"expected an object, got {type(value).__name__}")
    return value


def _parse_atoms(payload: Mapping) -> tuple[str, ...]:
    atoms = _expect_list(payload.get("atoms"), "atoms")
    if not atoms:
        raise ScenarioError("atoms", "at least one atom is required")
    if len(atoms) > ATOM_LIMIT:
        raise ScenarioError("atoms", f"at most {ATOM_LIMIT} atoms are supported")
    seen = set()
    for i, atom in enumerate(atoms):
        if not isinstance(atom, str) or not ATOM_NAME.fullmatch(atom):
            raise ScenarioError(f"atoms[{i}]", f"invalid atom name {atom!r}")
        if atom in seen:
            raise ScenarioError(f"atoms[{i}]", f"duplicate atom {atom!r}")
        seen.add(atom)
    return tuple(atoms)


def _parse_states(payload: Mapping, atoms: tuple[str, ...]) -> Universe:
    states = _expect_list(payload.get("states"), "states")
    if not states:
        raise ScenarioError("states", "at least one state is required")
    assignments = []
    seen = set()
    for i, state in enumerate(states):
        state = _expect_object(state, f"states[{i}]")
        extra = set(state) - {"id", "true_atoms"}
        if extra:
            raise ScenarioError(f"states[{i}]", f"unknown field(s) {sorted(extra)}")
        state_id = state.get("id")
        if not isinstance(state_id, str) or not state_id:
            raise ScenarioError(f"states[{i}].id", "state id must be a nonempty string")
        if "," in state_id or any(ch.isspace() for ch in state_id):
            raise ScenarioError(
                f"states[{i}].id", f"state id {state_id!r} may not contain commas or whitespace"
            )
        if state_id in seen:
            raise ScenarioError(f"states[{i}].id", f"duplicate state id {state_id!r}")
        seen.add(state_id)
        true_atoms = _expect_list(state.get("true_atoms"), f"states[{i}].true_atoms")
        for atom in true_atoms:
            if atom not in atoms:
                raise ScenarioError(f"states[{i}].true_atoms", f"undeclared atom {atom!r}")
        if len(set(true_atoms)) != len(true_atoms):
            raise ScenarioError(f"states[{i}].true_atoms", "duplicate atom")
        assignments.append((state_id, {atom: True for atom in true_atoms}))
    return Universe.from_assignments(atoms, assignments)


def _parse_event_list(value, universe: Universe, field: str) -> int:
    ids = _expect_list(value, field)
    index = universe._index
    mask = 0
    for j, state_id in enumerate(ids):
        if not isinstance(state_id, str):
            raise ScenarioError(f"{field}[{j}]", "state id must be a string")
        if state_id not in index:
            raise ScenarioError(f"{field}[{j}]", f"unknown state id {state_id!r}")
        bit = 1 << index[state_id]
        if mask & bit:
            raise ScenarioError(f"{field}[{j}]", f"duplicate state id {state_id!r}")
        mask |= bit
    return mask


def _parse_event_key(key: str, universe: Universe, field: str) -> int:
    ids = key.split(",") if key else []
    if len(set(ids)) != len(ids):
        raise ScenarioError(field, f"duplicate state id in event key {key!r}")
    canonical = event_key(ids)
    if key != canonical:
        raise ScenarioError(field, f"non-canonical event key {key!r}; expected {canonical!r}")
    index = universe._index
    mask = 0
    for state_id in ids:
        if state_id not in index:
            raise ScenarioError(field, f"unknown state id {state_id!r} in event key {key!r}")
        mask |= 1 << index[state_id]
    return mask


def _id_lists(universe: Universe) -> list[list[str]]:
    """Every proposition's sorted id list, indexed by its mask.

    Ids are added in sorted order, each appended to every list made
    before it, so each list comes out sorted.
    """
    index = universe._index
    made: dict[int, list[str]] = {0: []}
    for state_id in sorted(index):
        bit = 1 << index[state_id]
        made.update([(mask | bit, [*prior, state_id]) for mask, prior in made.items()])
    return list(map(made.__getitem__, range(len(made))))


def _event_keys(universe: Universe) -> list[str]:
    """Every proposition's canonical event key, indexed by its mask:
    the id lists of ``_id_lists``, each joined as it is made."""
    index = universe._index
    made: dict[int, str] = {0: ""}
    for state_id in sorted(index):
        bit = 1 << index[state_id]
        made.update(
            [(mask | bit, f"{prior},{state_id}" if mask else state_id) for mask, prior in made.items()]
        )
    return list(map(made.__getitem__, range(len(made))))


def _key_masks(universe: Universe) -> dict[str, int]:
    """Every proposition's canonical event key, mapped to its mask."""
    keys = _event_keys(universe)
    return dict(zip(keys, range(len(keys))))


def _lookup_list(value, keys: Mapping[str, int]) -> int | None:
    """An id list's mask by one lookup in ``keys`` of its ids joined, or
    None for the validating parse.  A hit counts only with as many ids
    as the list has items, so none of them holds a comma or is empty."""
    if not isinstance(value, list):
        return None
    try:
        mask = keys.get(",".join(value))
    except TypeError:  # an item is not a string
        return None
    return mask if mask is not None and len(value) == mask.bit_count() else None


def _parse_gcs(payload: Mapping, universe: Universe) -> ChoiceStructure:
    section = _expect_object(payload, "gcs")
    extra = set(section) - _GCS_KEYS
    if extra:
        raise ScenarioError("gcs", f"unknown field(s) {sorted(extra)}")
    families: dict[str, set[int]] = {}
    for family in ("credible", "allowable", "rejected"):
        events = _expect_list(section.get(family), f"gcs.{family}")
        masks: set[int] = set()
        for i, event in enumerate(events):
            mask = _parse_event_list(event, universe, f"gcs.{family}[{i}]")
            if mask in masks:
                raise ScenarioError(f"gcs.{family}[{i}]", "duplicate event in family")
            masks.add(mask)
        families[family] = masks
    all_events = families["credible"] | families["allowable"] | families["rejected"]
    f_section = _expect_object(section.get("f"), "gcs.f")
    f: dict[int, int] = {}
    for key, value in f_section.items():
        mask = _parse_event_key(key, universe, f"gcs.f[{key!r}]")
        if mask not in all_events:
            raise ScenarioError(f"gcs.f[{key!r}]", "event is in no family")
        f[mask] = _parse_event_list(value, universe, f"gcs.f[{key!r}]")
    missing = all_events - set(f)
    if missing:
        keys = sorted(event_key(ids_of_mask(universe, mask)) for mask in missing)
        raise ScenarioError("gcs.f", f"missing entries for event key(s) {keys}")
    return ChoiceStructure(
        universe,
        frozenset(families["credible"]),
        frozenset(families["allowable"]),
        frozenset(families["rejected"]),
        f,
    )


def _parse_preorder(payload, universe: Universe) -> PlausibilityOrder:
    section = _expect_object(payload, "preorder")
    ranking: dict[str, int] = {}
    index = universe._index
    for state_id, rank in section.items():
        if state_id not in index:
            raise ScenarioError(f"preorder[{state_id!r}]", f"unknown state id {state_id!r}")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise ScenarioError(f"preorder[{state_id!r}]", "rank must be a nonnegative integer")
        ranking[state_id] = rank
    try:
        return PlausibilityOrder.from_ranks(universe, ranking)
    except ValueError as exc:
        raise ScenarioError("preorder", str(exc)) from None


def _parse_labeling(
    payload, universe: Universe, keys: Mapping[str, int]
) -> tuple[CredibilityLabeling, dict[str, str]]:
    section = _expect_object(payload, "labeling")
    overrides: dict[int, Credibility] = {}
    letters = {item.value: item for item in Credibility}
    for key, letter in section.items():
        mask = keys.get(key)
        if mask is None:  # the validating parse names what is wrong
            mask = _parse_event_key(key, universe, f"labeling[{key!r}]")
        if not isinstance(letter, str) or letter not in letters:
            raise ScenarioError(f"labeling[{key!r}]", f"label must be one of C, A, R, got {letter!r}")
        overrides[mask] = letters[letter]
    try:
        return CredibilityLabeling.from_overrides(universe, overrides), dict(section)
    except ValueError as exc:
        raise ScenarioError("labeling", str(exc)) from None


def _parse_table(payload, universe: Universe, keys: Mapping[str, int]) -> RevisionTable:
    section = _expect_object(payload, "table")
    extra = set(section) - _TABLE_KEYS
    if extra:
        raise ScenarioError("table", f"unknown field(s) {sorted(extra)}")
    initial_mask = _parse_event_list(section.get("initial"), universe, "table.initial")
    entries_section = _expect_object(section.get("entries"), "table.entries")
    entries: dict[int, int] = {}
    for key, value in entries_section.items():
        mask = keys.get(key)
        if mask is None:
            mask = _parse_event_key(key, universe, f"table.entries[{key!r}]")
        entry = _lookup_list(value, keys)
        if entry is None:
            entry = _parse_event_list(value, universe, f"table.entries[{key!r}]")
        entries[mask] = entry
    expected = range(universe.full_mask + 1)
    if set(entries) != set(expected):
        raise ScenarioError(
            "table.entries",
            f"entries must cover all {len(expected)} propositions over the states, got {len(entries)}",
        )
    try:
        return RevisionTable.from_masks(universe, initial_mask, [entries[mask] for mask in expected])
    except ValueError as exc:
        raise ScenarioError("table", str(exc)) from None


def scenario_from_payload(payload) -> Scenario:
    payload = _expect_object(payload, "<root>")
    extra = set(payload) - _TOP_KEYS
    if extra:
        raise ScenarioError("<root>", f"unknown field(s) {sorted(extra)}")
    atoms = _parse_atoms(payload)
    universe = _parse_states(payload, atoms)
    for section in ("preorder", "labeling", "table"):
        if section in payload and universe.size > STATE_LIMIT:
            message = f"a {section} section supports at most {STATE_LIMIT} states"
            raise ScenarioError(section, f"{message}, got {universe.size}")
    scenario = Scenario(atoms, universe)
    # a table keys every proposition and a full labeling does too; a
    # labeling of fewer than a quarter of them parses faster key by key
    labeling = payload.get("labeling")
    many = isinstance(labeling, dict) and 4 * len(labeling) > universe.full_mask
    keys = _key_masks(universe) if many or "table" in payload else {}
    if "gcs" in payload:
        scenario.structure = _parse_gcs(payload["gcs"], universe)
    if "preorder" in payload:
        scenario.preorder = _parse_preorder(payload["preorder"], universe)
    if "labeling" in payload:
        scenario.labeling, scenario.labeling_overrides = _parse_labeling(
            labeling, universe, keys
        )
    if "table" in payload:
        scenario.table = _parse_table(payload["table"], universe, keys)
    if "comments" in payload:
        comments = payload["comments"]
        if not (
            isinstance(comments, str)
            or (isinstance(comments, list) and all(isinstance(c, str) for c in comments))
        ):
            raise ScenarioError("comments", "comments must be a string or a list of strings")
        scenario.comments = comments
    return scenario


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """One JSON object as a dict; ``json`` alone lets a repeated key's last value win."""
    payload = dict(pairs)
    if len(payload) < len(pairs):
        repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ScenarioError("<file>", f"a JSON object repeats the key {repeated!r}")
    return payload


def loads(text: str) -> Scenario:
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError("<file>", f"invalid JSON: {exc}") from None
    except ScenarioError:
        raise
    except RecursionError:
        raise ScenarioError("<file>", "JSON nested too deeply to parse") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ScenarioError("<file>", "JSON integer literal too long to parse") from None
    return scenario_from_payload(payload)


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError("<file>", f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return loads(text)


def scenario_to_payload(scenario: Scenario) -> dict:
    universe = scenario.universe
    if tuple(scenario.atoms) != universe.atoms:
        raise ScenarioError("atoms", f"{list(scenario.atoms)} differ from the universe's {list(universe.atoms)}")
    for what, section in (
        ("choice structure", scenario.structure),
        ("pre-order", scenario.preorder),
        ("labeling", scenario.labeling),
        ("table", scenario.table),
    ):
        if section is not None:
            _require_same(universe, section.universe, what)
    payload: dict[str, Any] = {
        "atoms": list(scenario.atoms),
        "states": [
            {
                "id": point.id,
                "true_atoms": [atom for atom, value in zip(scenario.atoms, point.values) if value],
            }
            for point in universe.points
        ],
    }
    if scenario.structure is not None:
        structure = scenario.structure

        def family(masks: frozenset[int]) -> list[list[str]]:
            events = [ids_of_mask(universe, mask) for mask in masks]
            return sorted(events, key=event_key)

        payload["gcs"] = {
            "credible": family(structure.credible),
            "allowable": family(structure.allowable),
            "rejected": family(structure.rejected),
            "f": {
                event_key(ids_of_mask(universe, mask)): ids_of_mask(universe, structure.f[mask])
                for mask in sorted(structure.events, key=lambda m: event_key(ids_of_mask(universe, m)))
            },
        }
    if scenario.preorder is not None:
        payload["preorder"] = {
            point.id: scenario.preorder.ranks[i] for i, point in enumerate(universe.points)
        }
    overrides = scenario.labeling_overrides
    labeling = scenario.labeling if overrides is None else scenario.credibility()
    if labeling is not None or scenario.table is not None:
        # each proposition's key and id list, made once: the key is a
        # key and a sort key, the list the value of every entry with
        # those points.  The lists get their own doubling, since
        # splitting the keys back costs more and would misread a state
        # id holding a comma, which only the loader refuses
        keys = _event_keys(universe)
        ids = _id_lists(universe)
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
    if labeling is not None:
        # the keys the overrides name, and every key whose label is not
        # the loader's default (C, and R at the empty proposition); a
        # key not in ``mask_of`` gets the loader's validating parse
        codes = labeling._codes.decode()
        mask_of = dict(zip(keys, range(len(keys))))
        listed = {
            mask_of[key] if key in mask_of else _parse_event_key(key, universe, f"labeling[{key!r}]")
            for key in overrides or ()
        }
        listed.update(mask for mask, code in enumerate(codes) if code != ("C" if mask else "R"))
        payload["labeling"] = {keys[mask]: codes[mask] for mask in by_key if mask in listed}
    if scenario.table is not None:
        table = scenario.table
        masks = table._masks
        payload["table"] = {
            "initial": ids[table.initial.points.mask],
            "entries": {keys[mask]: ids[masks[mask]] for mask in by_key},
        }
    if scenario.comments is not None:
        payload["comments"] = scenario.comments
    return payload


def dumps(scenario: Scenario) -> str:
    return json.dumps(scenario_to_payload(scenario), indent=2) + "\n"


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(dumps(scenario), encoding="utf-8")


def detective_scenario() -> Scenario:
    """The bundled three-suspect example."""
    text = resources.files("filtra").joinpath("data/detective.json").read_text(encoding="utf-8")
    return loads(text)
