"""Scenario files: the JSON interchange format.

A scenario declares an atom list and a state list, and optionally a
choice structure, a plausibility pre-order, credibility labeling
overrides, and a revision table.  Events are written as lists of state
ids; wherever events key a JSON object the key is the canonical event
key: the member ids sorted lexicographically and joined with commas
(the empty event's key is the empty string).

Serialization is canonical and deterministic: fixed field order,
sorted event keys and id lists, two-space indent, trailing newline.
``dumps(load(x))`` is byte-identical for inputs already in that form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping

from .beliefs import BeliefSet
from .choice import ChoiceStructure
from .formulas import ATOM_NAME
from .revision import (
    Credibility,
    CredibilityLabeling,
    PlausibilityOrder,
    RevisionTable,
    revision_from_preorder,
)
from .worlds import PointSet, Universe

ATOM_LIMIT = 6

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

    def revision_table(self) -> RevisionTable | None:
        """The declared table, or one built from the pre-order."""
        if self.table is not None:
            return self.table
        if self.preorder is not None:
            return revision_from_preorder(self.preorder)
        return None

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
    mask = 0
    for j, state_id in enumerate(ids):
        if not isinstance(state_id, str):
            raise ScenarioError(f"{field}[{j}]", "state id must be a string")
        try:
            index = universe.index_of(state_id)
        except KeyError:
            raise ScenarioError(f"{field}[{j}]", f"unknown state id {state_id!r}") from None
        bit = 1 << index
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
    mask = 0
    for state_id in ids:
        try:
            mask |= 1 << universe.index_of(state_id)
        except KeyError:
            raise ScenarioError(field, f"unknown state id {state_id!r} in event key {key!r}") from None
    return mask


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
        if mask in f:
            raise ScenarioError(f"gcs.f[{key!r}]", "duplicate event key")
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
    for state_id, rank in section.items():
        if not any(point.id == state_id for point in universe.points):
            raise ScenarioError(f"preorder[{state_id!r}]", f"unknown state id {state_id!r}")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise ScenarioError(f"preorder[{state_id!r}]", "rank must be a nonnegative integer")
        ranking[state_id] = rank
    try:
        return PlausibilityOrder.from_ranks(universe, ranking)
    except ValueError as exc:
        raise ScenarioError("preorder", str(exc)) from None


def _parse_labeling(
    payload, universe: Universe
) -> tuple[CredibilityLabeling, dict[str, str]]:
    section = _expect_object(payload, "labeling")
    overrides: dict[int, Credibility] = {}
    raw: dict[str, str] = {}
    letters = {item.value: item for item in Credibility}
    for key, letter in section.items():
        mask = _parse_event_key(key, universe, f"labeling[{key!r}]")
        if not isinstance(letter, str) or letter not in letters:
            raise ScenarioError(f"labeling[{key!r}]", f"label must be one of C, A, R, got {letter!r}")
        overrides[mask] = letters[letter]
        raw[key] = letter
    try:
        return CredibilityLabeling.from_overrides(universe, overrides), raw
    except ValueError as exc:
        raise ScenarioError("labeling", str(exc)) from None


def _parse_table(payload, universe: Universe) -> RevisionTable:
    section = _expect_object(payload, "table")
    extra = set(section) - _TABLE_KEYS
    if extra:
        raise ScenarioError("table", f"unknown field(s) {sorted(extra)}")
    initial_mask = _parse_event_list(section.get("initial"), universe, "table.initial")
    entries_section = _expect_object(section.get("entries"), "table.entries")
    entries: dict[int, BeliefSet] = {}
    for key, value in entries_section.items():
        mask = _parse_event_key(key, universe, f"table.entries[{key!r}]")
        if mask in entries:
            raise ScenarioError(f"table.entries[{key!r}]", "duplicate event key")
        entries[mask] = BeliefSet(
            PointSet(universe, _parse_event_list(value, universe, f"table.entries[{key!r}]"))
        )
    expected = set(range(universe.full_mask + 1))
    if set(entries) != expected:
        raise ScenarioError(
            "table.entries",
            f"entries must cover all {len(expected)} propositions over the states, got {len(entries)}",
        )
    try:
        return RevisionTable(universe, BeliefSet(PointSet(universe, initial_mask)), entries)
    except ValueError as exc:
        raise ScenarioError("table", str(exc)) from None


def scenario_from_payload(payload) -> Scenario:
    payload = _expect_object(payload, "<root>")
    extra = set(payload) - _TOP_KEYS
    if extra:
        raise ScenarioError("<root>", f"unknown field(s) {sorted(extra)}")
    atoms = _parse_atoms(payload)
    universe = _parse_states(payload, atoms)
    scenario = Scenario(atoms, universe)
    if "gcs" in payload:
        scenario.structure = _parse_gcs(payload["gcs"], universe)
    if "preorder" in payload:
        scenario.preorder = _parse_preorder(payload["preorder"], universe)
    if "labeling" in payload:
        scenario.labeling, scenario.labeling_overrides = _parse_labeling(
            payload["labeling"], universe
        )
    if "table" in payload:
        scenario.table = _parse_table(payload["table"], universe)
    if "comments" in payload:
        comments = payload["comments"]
        if not (
            isinstance(comments, str)
            or (isinstance(comments, list) and all(isinstance(c, str) for c in comments))
        ):
            raise ScenarioError("comments", "comments must be a string or a list of strings")
        scenario.comments = comments
    return scenario


def loads(text: str) -> Scenario:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("<file>", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioError("<file>", "JSON nested too deeply to parse") from None
    return scenario_from_payload(payload)


def load_scenario(path) -> Scenario:
    return loads(Path(path).read_text(encoding="utf-8"))


def scenario_to_payload(scenario: Scenario) -> dict:
    universe = scenario.universe
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
    if scenario.labeling_overrides is not None:
        payload["labeling"] = {
            key: scenario.labeling_overrides[key] for key in sorted(scenario.labeling_overrides)
        }
    if scenario.table is not None:
        table = scenario.table
        payload["table"] = {
            "initial": ids_of_mask(universe, table.initial.points.mask),
            "entries": {
                event_key(ids_of_mask(universe, mask)): ids_of_mask(
                    universe, table.entries[mask].points.mask
                )
                for mask in sorted(
                    table.entries, key=lambda m: event_key(ids_of_mask(universe, m))
                )
            },
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
