import json
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

from filtra import scenario as scenario_module
from filtra.cli import main
from filtra.revision import Credibility, CredibilityLabeling, PlausibilityOrder, revision_from_selection
from filtra.sampling import random_choice_structure, random_labeling, random_selection_function
from filtra.scenario import (
    Scenario,
    STATE_LIMIT,
    ScenarioError,
    detective_scenario,
    dumps,
    event_key,
    ids_of_mask,
    loads,
    save_scenario,
    scenario_to_payload,
)
from filtra.scenario import _key_masks, _parse_event_key, _parse_event_list
from filtra.worlds import PointSet, Universe, UniverseMismatchError, canonical_universe

from conftest import of_ids, random_revision_table


def payload_text(**overrides):
    payload = {
        "atoms": ["p"],
        "states": [
            {"id": "a", "true_atoms": ["p"]},
            {"id": "b", "true_atoms": []},
        ],
        "gcs": {
            "credible": [["a", "b"]],
            "allowable": [],
            "rejected": [[]],
            "f": {"": ["a"], "a,b": ["a"]},
        },
    }
    payload.update(overrides)
    return json.dumps(payload)


class TestLoading:
    def test_detective_scenario_loads_to_the_expected_structure(self):
        scenario = detective_scenario()
        g = scenario.require_structure()
        universe = g.universe
        assert [point.id for point in universe.points] == ["a", "b", "c"]
        mask_a = of_ids(universe, ["a"]).mask
        assert g.allowable == frozenset({mask_a})
        assert g.credible == frozenset({universe.full_mask})
        assert g.f[mask_a] == universe.full_mask
        assert PointSet(universe, g.f[universe.full_mask]).ids == ("b", "c")

    def test_minimal_gcs(self):
        scenario = loads(payload_text())
        assert scenario.require_structure().f[0] == 1

    def test_empty_states_rejected(self):
        with pytest.raises(ScenarioError) as err:
            loads(payload_text(states=[]))
        assert err.value.field == "states"

    def test_noncanonical_event_key_suggests_the_sorted_form(self):
        bad = {
            "credible": [["a", "b"]],
            "allowable": [],
            "rejected": [[]],
            "f": {"": ["a"], "b,a": ["a"]},
        }
        with pytest.raises(ScenarioError) as err:
            loads(payload_text(gcs=bad))
        assert "expected 'a,b'" in str(err.value)

    def test_dangling_state_id(self):
        bad = {
            "credible": [["a", "z"]],
            "allowable": [],
            "rejected": [[]],
            "f": {"": ["a"], "a,z": ["a"]},
        }
        with pytest.raises(ScenarioError) as err:
            loads(payload_text(gcs=bad))
        assert str(err.value) == "gcs.credible[0][1]: unknown state id 'z'"
        bad["credible"] = [["a", "b"]]
        bad["f"]["a,b"] = ["a"]
        with pytest.raises(ScenarioError) as err:
            loads(payload_text(gcs=bad))
        assert str(err.value) == "gcs.f['a,z']: unknown state id 'z' in event key 'a,z'"

    def test_missing_choice_entry(self):
        bad = {
            "credible": [["a", "b"]],
            "allowable": [["a"]],
            "rejected": [[]],
            "f": {"": ["a"], "a,b": ["a"]},
        }
        with pytest.raises(ScenarioError) as err:
            loads(payload_text(gcs=bad))
        assert "missing entries" in str(err.value)

    def test_invalid_json_reports_position(self):
        with pytest.raises(ScenarioError) as err:
            loads("{not json")
        assert "invalid JSON" in str(err.value)

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError):
            loads(payload_text(surprise=1))

    def test_preorder_and_labeling(self):
        text = payload_text(
            preorder={"a": 0, "b": 2},
            labeling={"a": "A"},
        )
        scenario = loads(text)
        assert scenario.preorder.ranks == (0, 1)  # densified
        labeling = scenario.credibility()
        assert labeling.labels[1] is Credibility.ALLOWABLE
        assert labeling.labels[2] is Credibility.CREDIBLE  # default
        assert labeling.labels[0] is Credibility.REJECTED

    def test_preorder_must_cover_every_state(self):
        with pytest.raises(ScenarioError) as err:
            loads(payload_text(preorder={"a": 0}))
        assert err.value.field == "preorder"

    def test_preorder_entries_name_states_and_ranks(self):
        with pytest.raises(ScenarioError) as err:
            loads(payload_text(preorder={"a": 0, "z": 1}))
        assert str(err.value) == "preorder['z']: unknown state id 'z'"
        for rank in (-1, 1.5, True, "0", None):
            with pytest.raises(ScenarioError) as err:
                loads(payload_text(preorder={"a": 0, "b": rank}))
            assert str(err.value) == "preorder['b']: rank must be a nonnegative integer"

    def test_labeling_cannot_unseat_the_forced_labels(self):
        with pytest.raises(ScenarioError):
            loads(payload_text(labeling={"": "C"}))
        with pytest.raises(ScenarioError):
            loads(payload_text(labeling={"a,b": "R"}))

    def test_table_round_trips_through_the_loader(self):
        text = payload_text(
            table={
                "initial": ["a"],
                "entries": {"": [], "a": ["a"], "a,b": ["a"], "b": ["b"]},
            }
        )
        table = loads(text).revision_table()
        assert table is not None
        assert table.initial.points.ids == ("a",)
        assert table.entries[0].points.mask == 0

    def test_table_must_be_total(self):
        with pytest.raises(ScenarioError) as err:
            loads(
                payload_text(
                    table={"initial": ["a"], "entries": {"": [], "a": ["a"]}}
                )
            )
        assert "cover all 4 propositions" in str(err.value)

    def test_state_budget_admits_its_limit(self):
        ids = [f"s{i:02d}" for i in range(STATE_LIMIT)]
        text = json.dumps(
            {
                "atoms": ["p"],
                "states": [{"id": i, "true_atoms": []} for i in ids],
                "preorder": {i: 0 for i in ids},
                "labeling": {"s00": "A"},
            }
        )
        scenario = loads(text)
        assert scenario.universe.size == STATE_LIMIT
        assert scenario.preorder is not None and scenario.labeling is not None

    def test_state_budget_leaves_gcs_only_files_unlimited(self):
        ids = [f"s{i:02d}" for i in range(STATE_LIMIT + 1)]
        gcs = {
            "credible": [ids],
            "allowable": [],
            "rejected": [[]],
            "f": {"": ["s00"], event_key(ids): ["s00"]},
        }
        text = json.dumps(
            {"atoms": ["p"], "states": [{"id": i, "true_atoms": []} for i in ids], "gcs": gcs}
        )
        assert loads(text).universe.size == STATE_LIMIT + 1


def _states(*extra):
    return [{"id": "a", "true_atoms": ["p"]}, {"id": "b", "true_atoms": []}, *extra]


_GCS = json.loads(payload_text())["gcs"]
_ENTRIES = {"": [], "a": ["a"], "a,b": ["a"], "b": ["b"]}


@pytest.mark.parametrize(
    ("section", "message"),
    [
        ({"atoms": []}, "atoms: at least one atom is required"),
        ({"atoms": list("pqrstuv")}, "atoms: at most 6 atoms are supported"),
        ({"atoms": ["p q"]}, "atoms[0]: invalid atom name 'p q'"),
        ({"atoms": ["p", "p"]}, "atoms[1]: duplicate atom 'p'"),
        ({"states": [1]}, "states[0]: expected an object, got int"),
        ({"states": _states({"id": "c", "true_atoms": [], "rank": 0})}, "states[2]: unknown field(s) ['rank']"),
        ({"states": _states({"id": "", "true_atoms": []})}, "states[2].id: state id must be a nonempty string"),
        (
            {"states": _states({"id": "c,d", "true_atoms": []})},
            "states[2].id: state id 'c,d' may not contain commas or whitespace",
        ),
        ({"states": _states({"id": "a", "true_atoms": []})}, "states[2].id: duplicate state id 'a'"),
        ({"states": _states({"id": "c", "true_atoms": ["q"]})}, "states[2].true_atoms: undeclared atom 'q'"),
        ({"states": _states({"id": "c", "true_atoms": ["p", "p"]})}, "states[2].true_atoms: duplicate atom"),
        ({"gcs": {**_GCS, "g": []}}, "gcs: unknown field(s) ['g']"),
        ({"gcs": {**_GCS, "rejected": [[], []]}}, "gcs.rejected[1]: duplicate event in family"),
        ({"gcs": {**_GCS, "f": {**_GCS["f"], "b": ["b"]}}}, "gcs.f['b']: event is in no family"),
        ({"table": {"initial": ["a"], "entries": _ENTRIES, "basic": {}}}, "table: unknown field(s) ['basic']"),
        ({"table": {"initial": [], "entries": _ENTRIES}}, "table: initial beliefs must be consistent"),
        ({"comments": ["ok", 1]}, "comments: comments must be a string or a list of strings"),
    ],
    ids=[
        "no-atoms", "seven-atoms", "atom-name", "repeated-atom", "state-object", "state-field", "empty-id", "comma-id", "repeated-id",
        "undeclared-atom", "repeated-true-atom", "gcs-field", "repeated-event", "unlisted-menu", "table-field",
        "inconsistent-table", "comments",
    ],  # fmt: skip
)
def test_every_schema_refusal_is_a_usage_error_naming_the_field(tmp_path, section, message):
    path = tmp_path / "refused.json"
    path.write_text(payload_text(**section), encoding="utf-8")
    with pytest.raises(ScenarioError) as raised:
        scenario_module.load_scenario(path)
    assert str(raised.value) == message
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1] == f"Error: {path}: {message}"
    assert "Traceback" not in result.output


def repeating(path, key):
    """A valid scenario's text with ``key`` written twice, same value,
    in the object at ``path`` (a tuple of keys and indices)."""
    payload = json.loads(
        payload_text(
            preorder={"a": 0, "b": 1},
            labeling={"a": "A"},
            table={"initial": ["a"], "entries": {"": [], "a": ["a"], "a,b": ["a"], "b": ["b"]}},
        )
    )
    target = payload
    for step in path:
        target = target[step]
    target["~"] = 0  # a placeholder for the repeat, once in the text
    pair = f"{json.dumps(key)}: {json.dumps(target[key])}"
    return json.dumps(payload).replace('"~": 0', pair)


class TestRepeatedKeys:
    """``json`` keeps the last of two equal keys; a scenario file may
    not rely on that, so a repeated key anywhere is an input error."""

    @pytest.mark.parametrize(
        "path,key",
        [
            ((), "atoms"),
            (("states", 0), "id"),
            (("gcs",), "credible"),
            (("gcs", "f"), "a,b"),
            (("preorder",), "a"),
            (("labeling",), "a"),
            (("table",), "initial"),
            (("table", "entries"), "a"),
        ],
        ids=["root", "state", "gcs", "gcs.f", "preorder", "labeling", "table", "table.entries"],
    )
    def test_the_cli_refuses_it_naming_the_key(self, tmp_path, path, key):
        text = repeating(path, key)
        assert '"~"' not in text
        file = tmp_path / "repeated.json"
        file.write_text(text)
        result = CliRunner().invoke(main, ["check", "filtered", str(file)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"{file}: <file>: a JSON object repeats the key {key!r}" in result.output
        assert "Traceback" not in result.output

    def test_a_repeat_with_another_value_is_refused(self):
        text = payload_text(preorder={"a": 0, "b": 1}, labeling={"a": "C"})
        text = text.replace('"a": 0', '"a": 0, "b": 1, "a": 2').replace('"a": "C"', '"a": "C", "a": "R"')
        with pytest.raises(ScenarioError, match="repeats the key 'a'"):
            loads(text)
        # the text parses once its repeats are dropped
        assert loads(text.replace(', "b": 1, "a": 2', "").replace(', "a": "R"', ""))


class TestSaving:
    def test_detective_file_is_byte_stable(self):
        from importlib import resources

        text = resources.files("filtra").joinpath("data/detective.json").read_text("utf-8")
        assert dumps(loads(text)) == text

    def test_round_trip_with_all_sections(self):
        text = payload_text(
            preorder={"a": 0, "b": 1},
            labeling={"a": "A"},
            comments="hello",
        )
        once = dumps(loads(text))
        assert dumps(loads(once)) == once

    @pytest.mark.parametrize("n_atoms", [1, 2, 3])
    def test_table_section_equals_the_per_entry_rendering(self, n_atoms):
        from random import Random

        rng = Random(40 + n_atoms)
        size = 2**n_atoms
        # ids out of index order, and "s10" sorting before "s2", so the
        # key order is not the mask order
        ids = [f"s{i}" for i in rng.sample(range(3 * size), size)]
        shuffled = Universe.from_assignments(("p",), [(i, {"p": k % 2}) for k, i in enumerate(ids)])
        for universe in (canonical_universe(("p", "q", "r")[:n_atoms]), shuffled):
            table = random_revision_table(rng, universe)
            scenario = Scenario(universe.atoms, universe, table=table)
            payload = scenario_to_payload(scenario)
            # the rendering before each id list was computed once
            old = {
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
            assert payload["table"] == old
            assert list(payload["table"]["entries"]) == list(old["entries"])
            assert dumps(scenario) == json.dumps({**payload, "table": old}, indent=2) + "\n"

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_a_saved_labeling_lists_its_non_default_labels_and_the_override_keys(self, n_atoms):
        # one rule, whether the overrides were read from a file, set by
        # hand or left out: every label off the loader's default (C, and
        # R at the empty proposition), and every key the overrides name
        rng = Random(30 + n_atoms)
        universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
        key_masks = _key_masks(universe)
        default = CredibilityLabeling.all_credible(universe)
        for labeling in (default, random_labeling(rng, universe)):
            off_default = {
                key for key, mask in key_masks.items() if labeling.labels[mask] is not default.labels[mask]
            }
            named = rng.sample(sorted(key_masks), rng.randrange(len(key_masks) + 1))
            for overrides in (None, {key: rng.choice("CAR") for key in named}):
                scenario = Scenario(universe.atoms, universe, labeling=labeling, labeling_overrides=overrides)
                saved = loads(dumps(scenario))
                assert saved.labeling == labeling
                assert saved.labeling_overrides.keys() == off_default | set(overrides or ())

    @pytest.mark.parametrize("name", ["preorder_3atoms.json", "failing_laws_3atoms.json"])
    def test_overrides_list_keys_and_the_labeling_gives_their_letters(self, name):
        # a labeling set after loading is written, not the letters read:
        # the kept keys and every key off the loader's default are listed
        scenario = scenario_module.load_scenario(Path(__file__).parent / "golden" / name)
        kept = dict(scenario.labeling_overrides)
        key_masks = _key_masks(scenario.universe)
        default = CredibilityLabeling.from_overrides(scenario.universe, {})
        for labeling in (
            CredibilityLabeling.all_credible(scenario.universe),
            random_labeling(Random(5), scenario.universe),
        ):
            scenario.labeling = labeling
            saved = loads(dumps(scenario))
            assert saved.labeling == labeling
            assert saved.labeling_overrides.keys() == kept.keys() | {
                key for key, mask in key_masks.items() if labeling.labels[mask] is not default.labels[mask]
            }
            assert dumps(saved) == dumps(scenario)
        assert scenario.labeling_overrides == kept

    @pytest.mark.parametrize(
        ("make", "error", "message"),
        [
            # a bigger universe's table used to raise a bare IndexError,
            # and one of the same size over other atoms misstated them
            (
                lambda p, pq, pr: Scenario(p.atoms, p, table=random_revision_table(Random(1), pq)),
                UniverseMismatchError,
                "table over a different universe",
            ),
            (
                lambda p, pq, pr: Scenario(pq.atoms, pq, table=random_revision_table(Random(1), pr)),
                UniverseMismatchError,
                "table over a different universe",
            ),
            (
                lambda p, pq, pr: Scenario(pq.atoms, pq, labeling=CredibilityLabeling.all_credible(pr)),
                UniverseMismatchError,
                "labeling over a different universe",
            ),
            (
                lambda p, pq, pr: Scenario(pq.atoms, pq, preorder=PlausibilityOrder(pr, (0, 1, 2, 3))),
                UniverseMismatchError,
                "pre-order over a different universe",
            ),
            (
                # two states over (p, q), as the one-atom universe's two
                lambda p, pq, pr: Scenario(p.atoms, p, structure=random_choice_structure(Random(1), 2)),
                UniverseMismatchError,
                "choice structure over a different universe",
            ),
            (
                lambda p, pq, pr: Scenario(pr.atoms, pq),
                ScenarioError,
                "atoms: ['p', 'r'] differ from the universe's ['p', 'q']",
            ),
        ],
        ids=["table-bigger", "table-other-atoms", "labeling", "preorder", "structure", "atoms"],
    )
    def test_a_section_over_another_universe_is_refused_before_writing(self, tmp_path, make, error, message):
        p, pq, pr = (canonical_universe(atoms) for atoms in (("p",), ("p", "q"), ("p", "r")))
        path = tmp_path / "saved.json"
        with pytest.raises(ValueError) as raised:
            save_scenario(make(p, pq, pr), path)
        assert type(raised.value) is error and str(raised.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("key", ["zz", "a,zz", "b,a", "a,a"])
    def test_an_override_key_naming_no_proposition_is_refused(self, key):
        scenario = loads(payload_text(labeling={"a": "A"}))
        scenario.labeling_overrides[key] = "C"
        with pytest.raises(ValueError, match=f"labeling\\[{key!r}\\]: .*{key!r}"):
            dumps(scenario)

    def test_event_key_helper(self):
        assert event_key([]) == ""
        assert event_key(["b", "a"]) == "a,b"

    def test_canonical_form_is_a_fixed_point_on_random_scenarios(self):
        from random import Random

        from filtra.revision import build_filtered
        from filtra.sampling import (
            random_choice_structure,
            random_labeling,
            random_selection_function,
        )
        from filtra.worlds import canonical_universe

        rng = Random(13)
        for _ in range(25):
            structure = random_choice_structure(rng, rng.randrange(2, 5))
            scenario = Scenario(
                structure.universe.atoms, structure.universe, structure=structure
            )
            once = dumps(scenario)
            assert dumps(loads(once)) == once

        universe = canonical_universe(("p", "q"))
        for _ in range(25):
            labeling = random_labeling(rng, universe)
            from filtra.revision import revision_from_selection

            table = build_filtered(
                revision_from_selection(random_selection_function(rng, universe)), labeling
            )
            overrides = {
                event_key(sorted(PointSet(universe, mask).ids)): label.value
                for mask, label in labeling.labels.items()
            }
            scenario = Scenario(
                universe.atoms,
                universe,
                table=table,
                labeling=labeling,
                labeling_overrides=overrides,
            )
            once = dumps(scenario)
            assert dumps(loads(once)) == once


# canonical universes at 1-4 atoms (w10 sorts before w2 from 3 atoms
# on), and point order the reverse of string order
KEY_UNIVERSES = {
    **{f"{n}atoms": canonical_universe(("p", "q", "r", "s")[:n]) for n in range(1, 5)},
    "reversed": Universe.from_assignments(("p",), [(i, {}) for i in ("e", "d", "c", "b", "a")]),
}


def full_scenario(universe, seed):
    """A scenario with a random table and every label written: its
    overrides name every key."""
    rng = Random(seed)
    labeling = random_labeling(rng, universe)
    table = revision_from_selection(random_selection_function(rng, universe))
    overrides = {key: labeling.labels[mask].value for key, mask in _key_masks(universe).items()}
    return Scenario(universe.atoms, universe, table=table, labeling=labeling, labeling_overrides=overrides)


def full_scenario_text(universe, seed):
    # unindented, which json encodes in C: loading ignores the layout
    return json.dumps(scenario_to_payload(full_scenario(universe, seed)))


class TestKeyTable:
    """The loader resolves canonical keys and id lists through one key ->
    mask table; a miss falls back to the validating parser, so what loads
    and every refusal message are the parser's."""

    @pytest.mark.parametrize("name", list(KEY_UNIVERSES))
    def test_every_canonical_key_resolves_as_the_parser_does(self, name):
        universe = KEY_UNIVERSES[name]
        keys = _key_masks(universe)
        masks = range(universe.full_mask + 1)
        assert keys == {event_key(ids_of_mask(universe, mask)): mask for mask in masks}
        for key, mask in keys.items():
            assert _parse_event_key(key, universe, "key") == mask
            assert _parse_event_list(key.split(",") if key else [], universe, "list") == mask

    @pytest.mark.parametrize("name", list(KEY_UNIVERSES))
    def test_tables_round_trip_through_either_path(self, name, monkeypatch):
        universe = KEY_UNIVERSES[name]
        original = full_scenario(universe, seed=universe.size)
        text = json.dumps(scenario_to_payload(original))
        loaded = loads(text)
        assert loaded.table == original.table
        assert loaded.labeling.labels == original.labeling.labels
        if universe.size == 16:
            return  # the parser alone takes ~1 s here
        assert dumps(loaded) == dumps(original)
        monkeypatch.setattr(scenario_module, "_key_masks", lambda universe: {})
        parsed = loads(text)
        assert parsed.table == loaded.table
        assert parsed.labeling.labels == loaded.labeling.labels
        assert parsed.labeling_overrides == loaded.labeling_overrides

    def test_a_few_overrides_parse_key_by_key(self, monkeypatch):
        # fewer than a quarter of the propositions: no table is built
        universe = KEY_UNIVERSES["4atoms"]
        payload = scenario_to_payload(Scenario(universe.atoms, universe))
        payload["labeling"] = {"w0,w10,w3": "A", "w5": "R"}
        built = []
        monkeypatch.setattr(scenario_module, "_key_masks", lambda universe: built.append(1) or {})
        labeling = loads(json.dumps(payload)).labeling
        assert not built
        assert labeling.labels[1 | 1 << 3 | 1 << 10] is Credibility.ALLOWABLE
        assert labeling.labels[1 << 5] is Credibility.REJECTED

    @pytest.mark.parametrize(
        "key", ["w1,w0", "w0,w0", "w9", "w0,", ",w0", " w0", "w0,w1,"], ids=repr
    )
    @pytest.mark.parametrize("section", ["labeling", "table"])
    def test_a_key_miss_keeps_the_parser_message(self, key, section):
        universe = KEY_UNIVERSES["2atoms"]
        payload = json.loads(full_scenario_text(universe, seed=7))
        items = payload[section] if section == "labeling" else payload["table"]["entries"]
        items[key] = items.pop("w1")
        field = "labeling" if section == "labeling" else "table.entries"
        with pytest.raises(ScenarioError) as expected:
            _parse_event_key(key, universe, f"{field}[{key!r}]")
        with pytest.raises(ScenarioError) as err:
            loads(json.dumps(payload))
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize(
        "value",
        [
            ["w0,w1"], [""], ["", "w0"], ["w0", ""], [1], ["w0", 1], ["w0", "w0"], ["w9"],
            "w0", "w0,w1", {"w0": 1}, None,
        ],  # fmt: skip
        ids=repr,
    )
    def test_a_value_miss_keeps_the_parser_message(self, value):
        universe = KEY_UNIVERSES["2atoms"]
        payload = json.loads(full_scenario_text(universe, seed=7))
        payload["table"]["entries"]["w1"] = value
        with pytest.raises(ScenarioError) as expected:
            _parse_event_list(value, universe, "table.entries['w1']")
        with pytest.raises(ScenarioError) as err:
            loads(json.dumps(payload))
        assert str(err.value) == str(expected.value)

    def test_an_unsorted_value_still_loads(self):
        universe = KEY_UNIVERSES["3atoms"]
        payload = json.loads(full_scenario_text(universe, seed=9))
        payload["table"]["entries"]["w1"] = ["w7", "w1", "w0"]
        assert loads(json.dumps(payload)).table.entries[1 << 1].points.mask == 0b10000011
