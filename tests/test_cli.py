import json
from dataclasses import replace
from importlib import resources
from pathlib import Path
from random import Random
from typing import NamedTuple

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from filtra import cli, fuzzing
from filtra.cli import main
from filtra.revision import revision_from_selection
from filtra.sampling import random_plausibility_order, random_selection_function
from filtra.scenario import Scenario, detective_scenario, dumps, event_key, load_scenario
from filtra.worlds import canonical_universe

from conftest import result_of
from test_choice import full_domain_structure, three_state_structure
from test_revision import reference_agm_report

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("filtra") / "data"
DETECTIVE = json.loads(dumps(detective_scenario()))
HELP_COMMANDS = [
    [],
    ["validate"],
    ["check"],
    ["check", "prop2"],
    ["check", "agm"],
    ["check", "filtered"],
    ["build"],
    ["build", "filtered"],
    ["oracle"],
    ["oracle", "def6"],
    ["rationalize"],
    ["fuzz"],
    ["demo"],
]


class Golden(NamedTuple):
    """One CLI run whose output tests/golden pins.  In ``argv``,
    "{golden}/NAME" names a file in tests/golden and "{data}/NAME" one
    that the filtra package ships."""

    argv: str
    stdout: str | None  # None when only the written file is pinned
    exit_code: int
    written: str | None = None  # the golden of the file named by -o


# Every golden run, once; a new golden is one more entry.
GOLDENS = [
    Golden("demo detective", "demo_detective.txt", 0),
    Golden("demo detective --json", "demo_detective.json", 0),
    Golden("fuzz --atoms 1 --cases 200 --seed 0", "fuzz_atoms1_cases200_seed0.txt", 0),
    Golden("fuzz --atoms 1 --cases 200 --seed 0 --json", "fuzz_atoms1_cases200_seed0.json", 0),
    Golden("fuzz --atoms 2 --cases 100 --seed 0", "fuzz_atoms2_cases100_seed0.txt", 0),
    Golden("fuzz --atoms 2 --cases 100 --seed 0 --json", "fuzz_atoms2_cases100_seed0.json", 0),
    # the pre-order table passes AGM1-8 and, being basic, fails four
    # filter laws at a few propositions; the table built from it passes
    # every filter law, so its report is the shared passing one
    Golden("check agm {golden}/preorder_3atoms.json", "check_agm_preorder_3atoms.txt", 0),
    Golden("check agm --json {golden}/preorder_3atoms.json", "check_agm_preorder_3atoms.json", 0),
    Golden("check filtered {golden}/preorder_3atoms.json", "check_filtered_preorder_3atoms.txt", 1),
    Golden("check filtered --json {golden}/preorder_3atoms.json", "check_filtered_preorder_3atoms.json", 1),
    Golden("check filtered {golden}/build_filtered_preorder_3atoms.json", "check_filtered_built_3atoms.txt", 0),
    Golden(
        "check filtered --json {golden}/build_filtered_preorder_3atoms.json", "check_filtered_built_3atoms.json", 0
    ),
    # AGM1-6 on a pre-order table read only its slices; AGM7/8 read its
    # packed entries, both for the count and the witness scan
    Golden(
        "check agm --postulates 1-6 {golden}/preorder_3atoms.json", "check_agm_postulates1-6_preorder_3atoms.txt", 0
    ),
    Golden(
        "check agm --postulates 1-6 --json {golden}/preorder_3atoms.json",
        "check_agm_postulates1-6_preorder_3atoms.json",
        0,
    ),
    Golden(
        "check agm --postulates 7-8 {golden}/failing_laws_3atoms.json", "check_agm_postulates7-8_failing_laws.txt", 1
    ),
    Golden(
        "check agm --postulates 7-8 --json {golden}/failing_laws_3atoms.json",
        "check_agm_postulates7-8_failing_laws.json",
        1,
    ),
    # an arbitrary 3-atom table failing every law that does not hold by
    # representation (all but AGM1, AGM6 and F4)
    Golden("check agm {golden}/failing_laws_3atoms.json", "check_agm_failing_laws.txt", 1),
    Golden("check agm --json {golden}/failing_laws_3atoms.json", "check_agm_failing_laws.json", 1),
    Golden("check filtered {golden}/failing_laws_3atoms.json", "check_filtered_failing_laws.txt", 1),
    Golden("check filtered --json {golden}/failing_laws_3atoms.json", "check_filtered_failing_laws.json", 1),
    # a 3-atom pre-order whose labeling uses C, A and R, both on
    # information overlapping the initial beliefs and off it; the report
    # names the output path as given, here a relative one
    Golden(
        "build filtered {golden}/preorder_3atoms.json -o built.json --json",
        "build_filtered_stdout.json",
        0,
        written="build_filtered_preorder_3atoms.json",
    ),
    Golden(
        "build filtered {golden}/preorder_3atoms.json -o built.json",
        None,
        0,
        written="build_filtered_preorder_3atoms.json",
    ),
    # validate's all-passing laws and prop2's clause-2 note come from the
    # shared passing results and the bare-mask criteria
    Golden("validate {data}/detective.json", "validate_detective.txt", 0),
    Golden("validate --json {data}/detective.json", "validate_detective.json", 0),
    Golden("check prop2 {data}/detective.json", "check_prop2_detective.txt", 0),
    Golden("check prop2 --json {data}/detective.json", "check_prop2_detective.json", 0),
    Golden("oracle def6 {data}/detective.json", "oracle_def6_detective.txt", 0),
    Golden("oracle def6 --json {data}/detective.json", "oracle_def6_detective.json", 0),
    Golden("rationalize {data}/detective.json", "rationalize_detective.txt", 0),
    Golden("rationalize --json {data}/detective.json", "rationalize_detective.json", 0),
    # gcs_failing_structure fails laws 2, 3b, 3c and 3d (two of its
    # witness sets have no formula), and the searches report just that
    Golden("validate {golden}/gcs_failing_structure.json", "validate_failing_structure.txt", 1),
    Golden("validate --json {golden}/gcs_failing_structure.json", "validate_failing_structure.json", 1),
    Golden("check prop2 {golden}/gcs_failing_structure.json", "check_prop2_failing_structure.txt", 1),
    Golden("check prop2 --json {golden}/gcs_failing_structure.json", "check_prop2_failing_structure.json", 1),
    Golden("oracle def6 {golden}/gcs_failing_structure.json", "validate_failing_structure.txt", 1),
    Golden("rationalize {golden}/gcs_failing_structure.json", "validate_failing_structure.txt", 1),
    # gcs_failing_criteria is valid but fails criteria 1a, 1b and 2 and
    # holds clause 2 at one menu, the oracle's third valuation is a
    # counter-model at E = {c}, and no pre-order rationalizes its
    # credible menus
    Golden("validate {golden}/gcs_failing_criteria.json", "validate_failing_criteria.txt", 0),
    Golden("validate --json {golden}/gcs_failing_criteria.json", "validate_failing_criteria.json", 0),
    Golden("check prop2 {golden}/gcs_failing_criteria.json", "check_prop2_failing_criteria.txt", 1),
    Golden("check prop2 --json {golden}/gcs_failing_criteria.json", "check_prop2_failing_criteria.json", 1),
    Golden("oracle def6 {golden}/gcs_failing_criteria.json", "oracle_def6_failing_criteria.txt", 1),
    Golden("oracle def6 --json {golden}/gcs_failing_criteria.json", "oracle_def6_failing_criteria.json", 1),
    Golden("rationalize {golden}/gcs_failing_criteria.json", "rationalize_failing_criteria.txt", 1),
    Golden("rationalize --json {golden}/gcs_failing_criteria.json", "rationalize_failing_criteria.json", 1),
    # the same third valuation at E = {c}, written in one atom's rows
    # and in four atoms' rows, not the default budget's two
    Golden("oracle def6 --atoms 1 {golden}/gcs_failing_criteria.json", "oracle_def6_atoms1_failing_criteria.txt", 1),
    Golden(
        "oracle def6 --atoms 1 --json {golden}/gcs_failing_criteria.json",
        "oracle_def6_atoms1_failing_criteria.json",
        1,
    ),
    Golden("oracle def6 --atoms 4 {golden}/gcs_failing_criteria.json", "oracle_def6_atoms4_failing_criteria.txt", 1),
    Golden(
        "oracle def6 --atoms 4 --json {golden}/gcs_failing_criteria.json",
        "oracle_def6_atoms4_failing_criteria.json",
        1,
    ),
]


def _golden_id(golden: Golden) -> str:
    """The run's words without their dashes or directories, e.g.
    "check-agm-json-preorder_3atoms.json"."""
    return "-".join(Path(word).name.lstrip("-") for word in golden.argv.split())


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

    def test_a_file_that_cannot_be_read_is_a_usage_error(self, runner, detective_file, monkeypatch):
        # click has checked that the file exists; a read can still fail,
        # as for a file without read permission (which root reads anyway)
        def unreadable(path):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "load_scenario", unreadable)
        result = runner.invoke(main, ["validate", detective_file])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1] == f"Error: cannot read {detective_file}: [Errno 13] Permission denied"

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
            # past the interpreter's 4,300-digit limit on int parsing
            (json.dumps({**DETECTIVE, "preorder": {"a": "rank"}}).replace('"rank"', "9" * 5000), "<file>"),
        ],
        ids=["labeling-list", "labeling-object", "deep-nesting", "not-utf-8", "long-integer"],
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


    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["oracle", "def6", "FIVE"], "brute force supports up to 4 states, got 5"),
            (["check", "agm", "PREORDER", "--postulates", "x"], "cannot parse postulate selection 'x'"),
            (["fuzz", "--atoms", "3"], "fuzz supports --atoms 1 or 2"),
            (["fuzz", "--atoms", "0"], "fuzz supports --atoms 1 or 2"),
            (["fuzz", "--cases", "all", "--atoms", "1"], "Invalid value for '--cases': 'all' is not a valid integer range."),
            (["fuzz", "--cases", "all", "--atoms", "2"], "Invalid value for '--cases': 'all' is not a valid integer range."),
            (["fuzz", "--cases", "x"], "Invalid value for '--cases': 'x' is not a valid integer range."),
            (["fuzz", "--cases", "0"], "Invalid value for '--cases': 0 is not in the range x>=1."),
        ],
        ids=[
            "five-state-oracle",
            "postulate-word",
            "fuzz-atoms-3",
            "fuzz-atoms-0",
            "all-cases-1-atom",
            "all-cases-2-atoms",
            "cases-word",
            "cases-0",
        ],
    )
    def test_every_documented_refusal_is_a_usage_error(self, runner, tmp_path, preorder_file, argv, message):
        states = [{"id": f"s{i}", "true_atoms": []} for i in range(5)]
        ids = [state["id"] for state in states]
        gcs = {"credible": [ids], "allowable": [], "rejected": [[]], "f": {"": ["s0"], ",".join(ids): ["s0"]}}
        five = tmp_path / "five.json"
        five.write_text(json.dumps({"atoms": ["p"], "states": states, "gcs": gcs}), encoding="utf-8")
        files = {"FIVE": str(five), "PREORDER": preorder_file}
        result = runner.invoke(main, [files.get(word, word) for word in argv])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1] == f"Error: {message}"
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
            # no hint where the reversed range would itself be refused
            ("1--3", "postulates must be within 1..8"),
            ("9-2", "postulates must be within 1..8"),
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
        expected = reference_agm_report(table)
        assert result_of(expected, "AGM7").note == "848 failing pairs"
        assert result_of(expected, "AGM8").note == "824 failing pairs"
        path = tmp_path / "selection.json"
        path.write_text(dumps(Scenario(universe.atoms, universe, table=table)), encoding="utf-8")
        text = runner.invoke(main, ["check", "agm", str(path)])
        assert text.exit_code == 1
        assert text.output == expected.render_text() + "\n"
        as_json = runner.invoke(main, ["check", "agm", str(path), "--json"])
        assert as_json.exit_code == 1
        payload = {"command": "check agm", **expected.to_json()}
        assert as_json.output == json.dumps(payload, indent=2) + "\n"

    def test_table_needed(self, runner, detective_file, tmp_path):
        message = f"Error: {detective_file}: table: this command needs a 'table' or 'preorder' section"
        out = str(tmp_path / "out.json")
        for command in [["check", "agm"], ["check", "filtered"], ["build", "filtered", "-o", out]]:
            result = runner.invoke(main, [*command, detective_file])
            assert result.exit_code == 2
            assert result.output.splitlines()[-1] == message


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

    def test_rationalize_eight_states(self, runner, tmp_path):
        # the levels the report lists reproduce every credible choice
        universe = canonical_universe(("p", "q", "r"))
        structure = full_domain_structure(random_plausibility_order(Random(8), universe))
        path = tmp_path / "eight.json"
        path.write_text(dumps(Scenario(universe.atoms, universe, structure=structure)), encoding="utf-8")
        result = runner.invoke(main, ["rationalize", "--json", str(path)])
        assert result.exit_code == 0
        levels = json.loads(result.output)["levels"]
        rank = {state: r for r, level in enumerate(levels) for state in level}
        gcs = json.loads(path.read_text(encoding="utf-8"))["gcs"]
        assert len(rank) == 8 and len(gcs["credible"]) == 255
        for menu in gcs["credible"]:
            best = min(rank[state] for state in menu)
            assert [state for state in menu if rank[state] == best] == gcs["f"][event_key(menu)]

    def test_rationalize_cycle(self, runner, cyclic_file):
        result = runner.invoke(main, ["rationalize", cyclic_file])
        assert result.exit_code == 1
        assert "no rationalizing pre-order" in result.output

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", [["oracle", "def6"], ["rationalize"]], ids=["oracle", "rationalize"])
    def test_invalid_structures_get_the_validation_report(self, runner, command, as_json):
        # the searches never run on a structure failing laws 2-3d: the text
        # report is validate's, and the JSON one is validate's relabelled
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

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_a_failing_suite_fails_the_run(self, runner, monkeypatch, as_json):
        # the oracle contradicts the criteria on the first structure only
        oracle = fuzzing.agm_consistency_bruteforce
        calls = []

        def contradicting_once(structure, **kwargs):
            outcome = oracle(structure, **kwargs)
            calls.append(structure)
            return replace(outcome, consistent=not outcome.consistent) if len(calls) == 1 else outcome

        monkeypatch.setattr(fuzzing, "agm_consistency_bruteforce", contradicting_once)
        result = runner.invoke(main, ["fuzz", "--cases", "20", *(["--json"] if as_json else [])])
        assert result.exit_code == 1
        rows = [("build-vs-laws", 0, "pass"), ("recover-roundtrip", 0, "pass"), ("criteria-vs-oracle", 1, "fail")]
        if as_json:
            payload = json.loads(result.output)
            assert payload["verdict"] == "fail"
            assert [(suite["name"], suite["failures"], suite["result"]) for suite in payload["suites"]] == rows
        else:
            lines = result.output.splitlines()
            assert [(name, int(failures), status) for name, _, failures, status in map(str.split, lines[2:5])] == rows
            assert lines[5] == "verdict: fail"


class TestDeterminism:
    @pytest.mark.parametrize("golden", GOLDENS, ids=_golden_id)
    def test_golden(self, runner, tmp_path, monkeypatch, golden):
        # a build writes its -o file, and its report names it, relative
        # to the working directory
        monkeypatch.chdir(tmp_path)
        args = [word.format(golden=GOLDEN, data=DATA) for word in golden.argv.split()]
        result = runner.invoke(main, args)
        assert result.exit_code == golden.exit_code
        if golden.stdout is not None:
            assert result.output == (GOLDEN / golden.stdout).read_text(encoding="utf-8")
        if golden.written is not None:
            written = Path(args[args.index("-o") + 1]).read_text(encoding="utf-8")
            assert written == (GOLDEN / golden.written).read_text(encoding="utf-8")

    @pytest.mark.parametrize("suffix", ["txt", "json"])
    @pytest.mark.parametrize("check", ["agm", "filtered"])
    def test_failing_law_notes(self, check, suffix):
        # on failing_laws_3atoms, each of the six failing laws of either
        # report fails more than five times, so each has a count: of
        # propositions, and of pairs for AGM7/8
        text = (GOLDEN / f"check_{check}_failing_laws.{suffix}").read_text(encoding="utf-8")
        lines = text.splitlines()
        pairs = 2 if check == "agm" else 0
        assert sum("failing propositions" in line for line in lines) == 6 - pairs
        assert sum("failing pairs" in line for line in lines) == pairs

    def test_help_matches_golden(self, runner):
        # 78 columns, the most click uses on a console or a pipe
        text = ""
        for command in HELP_COMMANDS:
            args = [*command, "--help"]
            result = runner.invoke(main, args, prog_name="filtra", terminal_width=78)
            assert result.exit_code == 0
            text += f"$ filtra {' '.join(args)}\n{result.output}"
        assert text == (GOLDEN / "help.txt").read_text(encoding="utf-8")

    def test_repeated_runs_are_byte_identical(self, runner):
        args = ["fuzz", "--atoms", "1", "--cases", "150", "--seed", "7"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_env_seed_overrides_flag(self, runner, monkeypatch):
        for as_json in ([], ["--json"]):
            expected = runner.invoke(main, ["fuzz", "--cases", "20", "--seed", "7", *as_json])
            monkeypatch.setenv("FILTRA_SEED", "7")
            result = runner.invoke(main, ["fuzz", "--cases", "20", "--seed", "0", *as_json])
            monkeypatch.delenv("FILTRA_SEED")
            assert result.exit_code == expected.exit_code == 0
            assert result.output == expected.output
            assert ("seed=7" if not as_json else '"seed": 7') in result.output

    def test_env_seed_must_be_an_integer(self, runner, monkeypatch):
        for value in ["soon", "x"]:
            monkeypatch.setenv("FILTRA_SEED", value)
            result = runner.invoke(main, ["fuzz", "--cases", "20"])
            assert result.exit_code == 2
            assert result.output.splitlines()[-1] == f"Error: FILTRA_SEED must be an integer, got {value!r}"


def _fields(value, path=()):
    """Every field of a JSON value: its path of keys and indices, and its value."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield (*path, key), item
            yield from _fields(item, (*path, key))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


MUTABLE = {
    name: json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    for name in ("gcs_failing_structure.json", "gcs_failing_criteria.json", "failing_laws_3atoms.json")
}
FIELDS = {name: list(_fields(payload)) for name, payload in MUTABLE.items()}
# the files' own keys and strings make near-valid replacements (ids,
# atoms, labels), and so does the value of another field of the same file
WORDS = sorted(
    {
        word
        for fields in FIELDS.values()
        for path, value in fields
        for word in (path[-1], value)
        if isinstance(word, str)
    }
)
# lists stay short, so no replacement adds states past a search's size limit
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
    | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text() | st.sampled_from(WORDS), inner, max_size=4),
    max_leaves=10,
)


class TestMutatedScenarios:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_exit_is_documented(self, tmp_path_factory, data):
        # a golden scenario with one field replaced by an arbitrary JSON
        # value: every command reading it exits 0, 1 or 2, never by an
        # uncaught exception, and a refusal names the offending field
        name = data.draw(st.sampled_from(sorted(MUTABLE)))
        field, _ = data.draw(st.sampled_from(FIELDS[name]))
        value = data.draw(JSON_VALUES | st.sampled_from([value for _, value in FIELDS[name]]))
        payload = _replaced(MUTABLE[name], field, value)
        as_json = data.draw(st.booleans())
        directory = tmp_path_factory.getbasetemp() / "mutated"
        directory.mkdir(exist_ok=True)
        file = directory / name
        file.write_text(json.dumps(payload), encoding="utf-8")
        out = str(directory / "built.json")
        commands = [["validate"], ["check", "prop2"], ["oracle", "def6"], ["rationalize"]]
        commands += [["check", "agm"], ["check", "filtered"], ["build", "filtered", "-o", out]]
        runner = CliRunner()
        for command in commands:
            result = runner.invoke(main, [*command, *(["--json"] if as_json else []), str(file)])
            assert result.exception is None or isinstance(result.exception, SystemExit), command
            assert result.exit_code in (0, 1, 2)
            if result.exit_code == 2:
                prefix = f"Error: {file}: "
                line = result.output.splitlines()[-1]
                assert line.startswith(prefix) and ": " in line[len(prefix) :], result.output
