import json
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

from filtra.cli import main
from filtra.revision import revision_from_selection
from filtra.sampling import random_selection_function
from filtra.scenario import Scenario, detective_scenario, dumps, load_scenario
from filtra.worlds import canonical_universe

from test_choice import three_state_structure
from test_revision import pair_scan_report

GOLDEN = Path(__file__).parent / "golden"
DETECTIVE = json.loads(dumps(detective_scenario()))


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("FILTRA_SEED", raising=False)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def detective_file(tmp_path):
    path = tmp_path / "detective.json"
    path.write_text(dumps(detective_scenario()), encoding="utf-8")
    return str(path)


@pytest.fixture
def preorder_file(tmp_path):
    payload = {
        "atoms": ["p", "q"],
        "states": [
            {"id": "w0", "true_atoms": []},
            {"id": "w1", "true_atoms": ["q"]},
            {"id": "w2", "true_atoms": ["p"]},
            {"id": "w3", "true_atoms": ["p", "q"]},
        ],
        "preorder": {"w0": 3, "w1": 2, "w2": 1, "w3": 0},
        "labeling": {"w2": "A", "w0,w1": "R"},
    }
    path = tmp_path / "preorder.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def cyclic_file(tmp_path):
    structure = three_state_structure(
        credible=[["s1", "s2"], ["s2", "s3"], ["s1", "s3"]],
        allowable=[],
        f_map={
            ("s1", "s2", "s3"): ["s1"],
            ("s1", "s2"): ["s1"],
            ("s2", "s3"): ["s2"],
            ("s1", "s3"): ["s3"],
        },
    )
    scenario = Scenario(structure.universe.atoms, structure.universe, structure=structure)
    path = tmp_path / "cycle.json"
    path.write_text(dumps(scenario), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_validate_passes(self, runner, detective_file):
        result = runner.invoke(main, ["validate", detective_file])
        assert result.exit_code == 0
        assert "verdict: pass" in result.output

    def test_validate_reports_failing_clause(self, runner, tmp_path, detective_file):
        payload = json.loads(Path(detective_file).read_text())
        payload["gcs"]["f"]["a,b,c"] = []
        payload["gcs"]["f"][""] = []
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1
        assert "3a: FAILS" in result.output

    def test_missing_section_is_a_usage_error(self, runner, preorder_file):
        result = runner.invoke(main, ["validate", preorder_file])
        assert result.exit_code == 2

    def test_missing_file_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["validate", "nowhere.json"])
        assert result.exit_code == 2

    def test_malformed_json_is_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        result = runner.invoke(main, ["check", "prop2", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        ("text", "field"),
        [
            (json.dumps({**DETECTIVE, "labeling": {"a": ["C"]}}), "labeling['a']"),
            (json.dumps({**DETECTIVE, "labeling": {"a": {"C": 1}}}), "labeling['a']"),
            ("[" * 5000 + "]" * 5000, "<file>"),
            (b"\xff\xfe{}", "<file>"),
        ],
        ids=["labeling-list", "labeling-object", "deep-nesting", "not-utf-8"],
    )
    def test_malformed_input_is_a_usage_error_naming_the_field(self, runner, tmp_path, text, field):
        path = tmp_path / "malformed.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"{path}: {field}: " in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "section",
        [
            ("preorder", {f"s{i:02d}": 0 for i in range(17)}),
            ("labeling", {"s00": "A"}),
            ("table", {"initial": ["s00"], "entries": {}}),
        ],
        ids=["preorder", "labeling", "table"],
    )
    def test_state_budget_refuses_seventeen_states(self, runner, tmp_path, section):
        name, value = section
        states = [{"id": f"s{i:02d}", "true_atoms": []} for i in range(17)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"atoms": ["p"], "states": states, name: value}))
        result = runner.invoke(main, ["check", "filtered", str(path)])
        assert result.exit_code == 2
        assert f"{path}: {name}: a {name} section supports at most 16 states, got 17" in result.output
        assert "Traceback" not in result.output


class TestCheckCommands:
    def test_prop2_cites_clause_two(self, runner, detective_file):
        result = runner.invoke(main, ["check", "prop2", detective_file])
        assert result.exit_code == 0
        assert "clause 2 holds at E = {a} with E' = {a}" in result.output

    def test_prop2_failure(self, runner, tmp_path, detective_file):
        payload = json.loads(Path(detective_file).read_text())
        payload["gcs"]["f"]["a"] = ["a"]  # drops the initial worlds
        path = tmp_path / "violating.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["check", "prop2", str(path)])
        assert result.exit_code == 1
        assert "2: FAILS" in result.output

    def test_agm_on_preorder_table(self, runner, preorder_file):
        result = runner.invoke(main, ["check", "agm", preorder_file])
        assert result.exit_code == 0
        assert "AGM8: holds" in result.output

    def test_agm_postulate_selection(self, runner, preorder_file):
        result = runner.invoke(main, ["check", "agm", preorder_file, "--postulates", "2,5"])
        assert result.exit_code == 0
        assert "AGM2" in result.output and "AGM7" not in result.output

    def test_agm_postulate_parse_error(self, runner, preorder_file):
        # a reversed range is refused by name, not read as empty
        for selection, message in [
            ("9", "postulates must be within 1..8"),
            ("8-1,2", "postulate range '8-1' is reversed, write '1-8'"),
            ("8-1", "postulate range '8-1' is reversed, write '1-8'"),
        ]:
            result = runner.invoke(main, ["check", "agm", preorder_file, "--postulates", selection])
            assert result.exit_code == 2
            assert message in result.output

    # a range is refused from its ends, without building it
    @pytest.mark.parametrize("selection", ["0-3", "2,7-99", "1-10000000", "1-1000000000000"])
    def test_agm_postulate_range_outside_the_postulates(self, runner, preorder_file, selection):
        result = runner.invoke(main, ["check", "agm", preorder_file, "--postulates", selection])
        assert result.exit_code == 2
        assert "postulates must be within 1..8, e.g. '1-6' or '1,2,5'" in result.output

    def test_agm_on_mutated_table(self, runner, tmp_path):
        payload = {
            "atoms": ["p"],
            "states": [
                {"id": "w0", "true_atoms": []},
                {"id": "w1", "true_atoms": ["p"]},
            ],
            "table": {
                "initial": ["w1"],
                "entries": {"": [], "w0": ["w1"], "w1": ["w1"], "w0,w1": ["w1"]},
            },
        }
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["check", "agm", str(path)])
        assert result.exit_code == 1
        assert "AGM2: FAILS" in result.output
        assert "witness: E = {w0}" in result.output

    def test_agm_reports_match_the_pair_scan(self, runner, tmp_path):
        # a 3-atom selection table failing AGM7 and AGM8 on hundreds of
        # pairs: text and JSON output equal the report whose AGM7/8
        # verdicts, witnesses and counts come from the 4^m pair scan
        universe = canonical_universe(("p", "q", "r"))
        table = revision_from_selection(random_selection_function(Random(1), universe))
        expected = pair_scan_report(table)
        assert expected.result("AGM7").note == "848 failing propositions"
        assert expected.result("AGM8").note == "824 failing propositions"
        path = tmp_path / "selection.json"
        path.write_text(dumps(Scenario(universe.atoms, universe, table=table)), encoding="utf-8")
        text = runner.invoke(main, ["check", "agm", str(path)])
        assert text.exit_code == 1
        assert text.output == expected.render_text() + "\n"
        as_json = runner.invoke(main, ["check", "agm", str(path), "--json"])
        assert as_json.exit_code == 1
        payload = {"command": "check agm", **expected.to_json()}
        assert as_json.output == json.dumps(payload, indent=2) + "\n"

    def test_table_needed(self, runner, detective_file):
        result = runner.invoke(main, ["check", "agm", detective_file])
        assert result.exit_code == 2


class TestBuildFiltered:
    def test_pipeline(self, runner, preorder_file, tmp_path):
        out = tmp_path / "filtered.json"
        result = runner.invoke(main, ["build", "filtered", preorder_file, "-o", str(out)])
        assert result.exit_code == 0
        text = out.read_text(encoding="utf-8")
        assert dumps(load_scenario(out)) == text  # canonical output
        check = runner.invoke(main, ["check", "filtered", str(out)])
        assert check.exit_code == 0
        # the filtered table is not a basic table: success fails at the
        # rejected and allowable entries
        agm = runner.invoke(main, ["check", "agm", str(out), "--postulates", "2"])
        assert agm.exit_code == 1

    def test_unwritable_output_is_a_usage_error(self, runner, preorder_file, tmp_path):
        out = tmp_path / "missing_dir" / "out.json"
        result = runner.invoke(main, ["build", "filtered", preorder_file, "-o", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"cannot write {out}: " in result.output

    def test_non_basic_input_reports_the_postulate(self, runner, tmp_path):
        payload = {
            "atoms": ["p"],
            "states": [
                {"id": "w0", "true_atoms": []},
                {"id": "w1", "true_atoms": ["p"]},
            ],
            "table": {
                "initial": ["w1"],
                "entries": {"": [], "w0": ["w1"], "w1": ["w1"], "w0,w1": ["w1"]},
            },
        }
        path = tmp_path / "bad_star.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(
            main, ["build", "filtered", str(path), "-o", str(tmp_path / "out.json")]
        )
        assert result.exit_code == 1
        assert "AGM2" in result.output


class TestOracleAndRationalize:
    def test_oracle_on_detective(self, runner, detective_file):
        result = runner.invoke(main, ["oracle", "def6", detective_file])
        assert result.exit_code == 0
        assert "valuations checked: 5" in result.output

    def test_oracle_counterexample(self, runner, tmp_path):
        payload = {
            "atoms": ["p"],
            "states": [
                {"id": "s0", "true_atoms": ["p"]},
                {"id": "s1", "true_atoms": []},
            ],
            "gcs": {
                "credible": [["s0", "s1"]],
                "allowable": [["s0"]],
                "rejected": [[]],
                "f": {"": ["s0"], "s0": ["s0", "s1"], "s0,s1": ["s0"]},
            },
        }
        path = tmp_path / "violating.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["oracle", "def6", str(path)])
        assert result.exit_code == 1
        assert "counterexample valuation" in result.output
        assert "verdict: not consistent" in result.output

    def test_oracle_atom_budget_flag(self, runner, detective_file):
        result = runner.invoke(main, ["oracle", "def6", detective_file, "--atoms", "1"])
        assert result.exit_code == 0
        assert "valuations checked: 4" in result.output

    def test_rationalize_detective(self, runner, detective_file):
        result = runner.invoke(main, ["rationalize", detective_file])
        assert result.exit_code == 0
        assert "rank 0: {b, c}" in result.output

    def test_rationalize_cycle(self, runner, cyclic_file):
        result = runner.invoke(main, ["rationalize", cyclic_file])
        assert result.exit_code == 1
        assert "no rationalizing pre-order" in result.output

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", [["oracle", "def6"], ["rationalize"]], ids=["oracle", "rationalize"])
    def test_invalid_structures_get_the_validation_report(self, runner, command, as_json):
        # the searches never run on a structure failing laws 2-3d
        path = str(GOLDEN / "gcs_failing_structure.json")
        result = runner.invoke(main, [*command, *(["--json"] if as_json else []), path])
        assert result.exit_code == 1
        golden = (GOLDEN / f"validate_failing_structure.{'json' if as_json else 'txt'}").read_text(
            encoding="utf-8"
        )
        if as_json:
            assert json.loads(result.output) == {**json.loads(golden), "command": " ".join(command)}
        else:
            assert result.output == golden


class TestJsonMode:
    def test_check_prop2_json(self, runner, detective_file):
        result = runner.invoke(main, ["check", "prop2", detective_file, "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["command"] == "check prop2"
        assert payload["verdict"] == "pass"

    def test_demo_json(self, runner):
        result = runner.invoke(main, ["demo", "detective", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["believes_initially"]["~ann"] is True
        assert payload["believes_after"] == {"ann": False, "~ann": False}
        assert payload["suspended"] is True

    def test_fuzz_json(self, runner):
        result = runner.invoke(main, ["fuzz", "--cases", "20", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert [suite["result"] for suite in payload["suites"]] == ["pass"] * 3


class TestDeterminism:
    def test_demo_matches_golden(self, runner):
        result = runner.invoke(main, ["demo", "detective"])
        assert result.exit_code == 0
        assert result.output == (GOLDEN / "demo_detective.txt").read_text(encoding="utf-8")

    def test_fuzz_matches_golden(self, runner):
        args = ["fuzz", "--atoms", "1", "--cases", "200", "--seed", "0"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output == (GOLDEN / "fuzz_atoms1_cases200_seed0.txt").read_text(
            encoding="utf-8"
        )

    def test_exhaustive_fuzz_matches_golden(self, runner):
        # pins all_selection_functions, all_revision_tables and all_labelings
        result = runner.invoke(main, ["fuzz", "--atoms", "1", "--cases", "all"])
        assert result.exit_code == 0
        assert result.output == (GOLDEN / "fuzz_atoms1_casesall_seed0.txt").read_text(
            encoding="utf-8"
        )

    @pytest.mark.parametrize(
        ("args", "golden"),
        [
            (["check", "agm"], "check_agm_failing_laws.txt"),
            (["check", "agm", "--json"], "check_agm_failing_laws.json"),
            (["check", "filtered"], "check_filtered_failing_laws.txt"),
            (["check", "filtered", "--json"], "check_filtered_failing_laws.json"),
        ],
        ids=["agm", "agm-json", "filtered", "filtered-json"],
    )
    def test_failing_reports_match_golden(self, runner, args, golden):
        # an arbitrary 3-atom table on which every AGM2-8 postulate and
        # every filter law F1-F3b fails more than five times
        result = runner.invoke(main, [*args, str(GOLDEN / "failing_laws_3atoms.json")])
        assert result.exit_code == 1
        assert result.output == (GOLDEN / golden).read_text(encoding="utf-8")
        notes = [line for line in result.output.splitlines() if "failing propositions" in line]
        assert len(notes) == 6

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize(
        ("command", "scenario", "exit_code"),
        [
            (["validate"], "structure", 1),
            (["check", "prop2"], "structure", 1),
            (["validate"], "criteria", 0),
            (["check", "prop2"], "criteria", 1),
            (["oracle", "def6"], "criteria", 1),
            (["rationalize"], "criteria", 1),
        ],
        ids=[
            "validate-structure",
            "prop2-structure",
            "validate-criteria",
            "prop2-criteria",
            "oracle-criteria",
            "rationalize-criteria",
        ],
    )
    def test_choice_reports_match_golden(self, runner, command, scenario, exit_code, as_json):
        # gcs_failing_structure fails laws 2, 3b, 3c and 3d (two of its
        # witness sets have no formula); gcs_failing_criteria is valid
        # but fails criteria 1a, 1b and 2 and holds clause 2 at one menu,
        # the oracle's third valuation is a counter-model at E = {c}, and
        # no pre-order rationalizes its credible menus
        args = [*command, *(["--json"] if as_json else [])]
        result = runner.invoke(main, [*args, str(GOLDEN / f"gcs_failing_{scenario}.json")])
        assert result.exit_code == exit_code
        golden = f"{'_'.join(command)}_failing_{scenario}.{'json' if as_json else 'txt'}"
        assert result.output == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_build_matches_golden(self, runner, tmp_path):
        # a 3-atom pre-order whose labeling uses C, A and R, both on
        # information overlapping the initial beliefs and off it
        out = tmp_path / "filtered.json"
        args = ["build", "filtered", str(GOLDEN / "preorder_3atoms.json"), "-o", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        golden = GOLDEN / "build_filtered_preorder_3atoms.json"
        assert out.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")

    def test_repeated_runs_are_byte_identical(self, runner):
        args = ["fuzz", "--atoms", "1", "--cases", "150", "--seed", "7"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_env_seed_overrides_flag(self, runner, monkeypatch):
        monkeypatch.setenv("FILTRA_SEED", "42")
        result = runner.invoke(main, ["fuzz", "--cases", "20", "--seed", "0"])
        assert result.exit_code == 0
        assert "seed=42" in result.output

    def test_env_seed_must_be_an_integer(self, runner, monkeypatch):
        monkeypatch.setenv("FILTRA_SEED", "soon")
        result = runner.invoke(main, ["fuzz", "--cases", "20"])
        assert result.exit_code == 2
