"""Self-test of the benchmark harness.

    python3 -m pytest perfbench

Runs one case of every workload, traced and untraced, and checks
that each metric BENCHMARK.json names is emitted with its unit, that
the correctness gate runs and rejects a wrong outcome, and that the
harness refuses to run without the filtra sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_names()
    assert set(run.CLI_KINDS) == {kind for kind, _ in workloads.Cli.CYCLE}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    # --seconds 0 runs exactly one case (untraced, then traced when tracing)
    done = _run("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 1 + trace
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in metrics}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["failed"] == 0
    if workload == "cli" and trace:  # the first session's malformed file is the list-valued labeling
        assert result["metrics"]["error_frac"]["value"] == 1.0


def test_tables4_gate_rejects_wrong_outcomes():
    workload = workloads.Tables4(3, Path("unused"))
    corrupted, clean = workload.run_case(0)  # the pre-order table has an entry corrupted
    assert workload.verify(0, [corrupted, clean]) is None
    assert workload.verify(0, [{**corrupted, "infeasible": corrupted["infeasible"] ^ 1}, clean]) is not None
    assert workload.verify(0, [corrupted, {**clean, "laws": False, "recovered": False}]) is not None
    assert workload.verify(0, [corrupted, {**clean, "rebuilt_equal": False}]) is not None
    mask, contains = clean["answers"][0]
    answers = [(mask, not contains)] + clean["answers"][1:]
    assert workload.verify(0, [corrupted, {**clean, "answers": answers}]) is not None


def test_crosscheck_gate_rejects_wrong_outcomes():
    workload = workloads.Crosscheck(3, Path("unused"))
    for i in range(5):
        outcome = workload.run_case(i)
        assert workload.verify(i, outcome) is None
        laws, criteria, oracle = outcome[0]
        assert workload.verify(i, [(laws, not criteria, oracle)] + outcome[1:]) is not None


def test_cli_gate_checks_exit_codes_and_goldens(tmp_path):
    workload = workloads.Cli(3, tmp_path)
    demo = [kind for kind, _ in workload.CYCLE].index("demo_detective")
    # one session per malformed file: only the known defects fail the gate
    for i, (label, _) in enumerate(workload.malformed):
        results = workload.run_case(i)
        if label in workloads.KNOWN_DEFECTS:
            with pytest.raises(workloads.KnownDefect):
                workload.verify(i, results)
        else:
            assert workload.verify(i, results) is None
        # any other failure in the session is not excused by a known defect
        altered = SimpleNamespace(exception=None, exit_code=0, output=results[demo].output + "extra\n")
        results[demo] = altered
        assert "golden" in workload.verify(i, results)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "crosscheck", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
