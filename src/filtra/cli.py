"""Command-line front end.

Exit codes: 0 all checks passed, 1 a check failed (witnesses printed),
2 usage or input error.  All output is deterministic for fixed inputs
and seeds; ``--json`` switches every command to a machine-readable
report.  The FILTRA_SEED environment variable, when set, overrides the
``--seed`` option of ``fuzz``.
"""

from __future__ import annotations

import json as jsonlib
import os
from typing import NoReturn

import click

from .choice import (
    InvalidStructureError,
    agm_consistency_bruteforce,
    build_model,
    check_agm_consistency,
    find_rationalizing_preorder,
    induced_beliefs,
    validate_structure,
)
from .formulas import parse_formula
from .fuzzing import run_suites
from .reports import CheckReport
from .revision import PostulateViolation, build_filtered, check_agm, check_filtered
from .scenario import (
    Scenario,
    ScenarioError,
    detective_scenario,
    event_key,
    ids_of_mask,
    load_scenario,
    save_scenario,
)
from .worlds import SizeLimitError, truth_set


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    except ScenarioError as exc:
        raise click.UsageError(f"{path}: {exc}")


def _emit_report(command: str, report: CheckReport, as_json: bool) -> NoReturn:
    if as_json:
        click.echo(jsonlib.dumps({"command": command, **report.to_json()}, indent=2))
    else:
        click.echo(report.render_text())
    raise SystemExit(0 if report.all_hold else 1)


def _parse_postulates(text: str) -> tuple[int, ...]:
    chosen: set[int] = set()
    try:
        for part in filter(None, map(str.strip, text.split(","))):
            low, dash, high = part.partition("-")
            low = int(low)
            high = int(high) if dash else low
            if low > high:
                raise click.UsageError(f"postulate range {part!r} is reversed, write '{high}-{low}'")
            # its ends alone decide whether the range leaves 1..8
            chosen.update(range(low, high + 1) if 1 <= low and high <= 8 else (low, high))
    except ValueError:
        raise click.UsageError(f"cannot parse postulate selection {text!r}")
    if not chosen or not chosen <= set(range(1, 9)):
        raise click.UsageError("postulates must be within 1..8, e.g. '1-6' or '1,2,5'")
    return tuple(sorted(chosen))


def _require_structure(scenario: Scenario, path: str):
    try:
        return scenario.require_structure()
    except ScenarioError as exc:
        raise click.UsageError(f"{path}: {exc}")


def _require_table(scenario: Scenario, path: str):
    table = scenario.revision_table()
    if table is None:
        raise click.UsageError(f"{path}: this command needs a 'table' or 'preorder' section")
    return table


@click.group()
def main():
    """Belief revision with credibility-filtered information."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def validate(file: str, as_json: bool):
    """Check the structural laws of the scenario's choice structure."""
    structure = _require_structure(_load(file), file)
    _emit_report("validate", validate_structure(structure), as_json)


@main.group()
def check():
    """Checkers for structures and revision tables."""


@check.command("prop2")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def check_prop2(file: str, as_json: bool):
    """Check the pointwise consistency criteria of the choice structure."""
    structure = _require_structure(_load(file), file)
    try:
        report = check_agm_consistency(structure)
    except InvalidStructureError as exc:
        report = exc.report
    _emit_report("check prop2", report, as_json)


@check.command("agm")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--postulates", default="1-8", show_default=True, help="e.g. '1-6' or '1,2,5'")
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def check_agm_cmd(file: str, postulates: str, as_json: bool):
    """Check revision postulates on the file's table (or pre-order)."""
    scenario = _load(file)
    table = _require_table(scenario, file)
    report = check_agm(table, _parse_postulates(postulates))
    _emit_report("check agm", report, as_json)


@check.command("filtered")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def check_filtered_cmd(file: str, as_json: bool):
    """Check the filter laws on the file's table under its labeling."""
    scenario = _load(file)
    table = _require_table(scenario, file)
    report = check_filtered(table, scenario.credibility())
    _emit_report("check filtered", report, as_json)


@main.group()
def build():
    """Builders that write new scenario files."""


@build.command("filtered")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False, writable=True))
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def build_filtered_cmd(file: str, output: str, as_json: bool):
    """Build the filtered table from the file's basic table and labeling."""
    scenario = _load(file)
    table = _require_table(scenario, file)
    labeling = scenario.credibility()
    try:
        filtered = build_filtered(table, labeling)
    except PostulateViolation as exc:
        _emit_report("build filtered", exc.report, as_json)
    overrides = {
        event_key(ids_of_mask(scenario.universe, mask)): label.value
        for mask, label in labeling.labels.items()
    }
    result = Scenario(
        scenario.atoms,
        scenario.universe,
        table=filtered,
        labeling=labeling,
        labeling_overrides=overrides,
    )
    try:
        save_scenario(result, output)
    except OSError as exc:
        raise click.UsageError(f"cannot write {output}: {exc}")
    if as_json:
        click.echo(jsonlib.dumps({"command": "build filtered", "output": output, "verdict": "pass"}, indent=2))
    else:
        click.echo(f"filtered table written to {output}")
    raise SystemExit(0)


@main.group()
def oracle():
    """Brute-force oracles."""


@oracle.command("def6")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--atoms", type=int, default=None, help="atom budget (default: smallest injective)")
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def oracle_def6(file: str, atoms: int | None, as_json: bool):
    """Test extension feasibility under every valuation.

    Valuations that put the same states in one row get the same
    verdict, so one is checked per partition of the states into rows.
    """
    structure = _require_structure(_load(file), file)
    try:
        outcome = agm_consistency_bruteforce(structure, atoms=atoms)
    except InvalidStructureError as exc:
        _emit_report("oracle def6", exc.report, as_json)
    except SizeLimitError as exc:
        raise click.UsageError(str(exc))
    if as_json:
        payload = {
            "command": "oracle def6",
            "verdict": "pass" if outcome.consistent else "fail",
            "consistent": outcome.consistent,
            "valuations_checked": outcome.valuations_checked,
        }
        if outcome.counterexample is not None:
            counter = outcome.counterexample
            payload["counterexample"] = {
                "atoms": list(counter.atoms),
                "valuation": {
                    point_id: dict(zip(counter.atoms, map(bool, values)))
                    for point_id, values in counter.assignments
                },
                "event": list(counter.event.ids),
                "reason": counter.reason,
            }
        click.echo(jsonlib.dumps(payload, indent=2))
    else:
        click.echo("extension oracle over all valuations")
        click.echo(f"  valuations checked: {outcome.valuations_checked}")
        if outcome.counterexample is not None:
            counter = outcome.counterexample
            click.echo("  counterexample valuation:")
            for point_id, values in counter.assignments:
                cells = " ".join(
                    f"{atom}={'T' if value else 'F'}" for atom, value in zip(counter.atoms, values)
                )
                click.echo(f"    {point_id}: {cells}")
            click.echo(f"  infeasible information: E = {counter.event.render()} ({counter.reason})")
        click.echo(f"  verdict: {'consistent' if outcome.consistent else 'not consistent'}")
    raise SystemExit(0 if outcome.consistent else 1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def rationalize(file: str, as_json: bool):
    """Search for a pre-order reproducing the credible choices."""
    structure = _require_structure(_load(file), file)
    try:
        order = find_rationalizing_preorder(structure)
    except InvalidStructureError as exc:
        _emit_report("rationalize", exc.report, as_json)
    except SizeLimitError as exc:
        raise click.UsageError(str(exc))
    if as_json:
        payload: dict = {"command": "rationalize", "verdict": "pass" if order else "fail"}
        if order is not None:
            payload["levels"] = [list(level.ids) for level in order.level_sets()]
        click.echo(jsonlib.dumps(payload, indent=2))
    else:
        if order is None:
            click.echo("no rationalizing pre-order exists for the credible menus")
        else:
            for rank, level in enumerate(order.level_sets()):
                click.echo(f"rank {rank}: {level.render()}")
    raise SystemExit(0 if order is not None else 1)


@main.command()
@click.option("--atoms", type=int, default=1, show_default=True)
@click.option("--cases", default="200", show_default=True, help="case count, or 'all'")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def fuzz(atoms: int, cases: str, seed: int, as_json: bool):
    """Run the seeded round-trip suites and print a summary table."""
    env_seed = os.environ.get("FILTRA_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise click.UsageError(f"FILTRA_SEED must be an integer, got {env_seed!r}")
    if not 1 <= atoms <= 2:
        raise click.UsageError("fuzz supports --atoms 1 or 2")
    if cases.lower() == "all":
        if atoms != 1:
            raise click.UsageError("--cases all is only tractable with --atoms 1")
        case_count = None
    else:
        try:
            case_count = int(cases)
        except ValueError:
            raise click.UsageError(f"--cases must be a positive integer or 'all', got {cases!r}")
        if case_count <= 0:
            raise click.UsageError("--cases must be positive")
    results = run_suites(atoms, case_count, seed)
    passed = all(result.passed for result in results)
    if as_json:
        payload = {
            "command": "fuzz",
            "atoms": atoms,
            "cases": "all" if case_count is None else case_count,
            "seed": seed,
            "verdict": "pass" if passed else "fail",
            "suites": [
                {
                    "name": result.name,
                    "cases": result.cases,
                    "failures": result.failures,
                    "result": "pass" if result.passed else "fail",
                }
                for result in results
            ],
        }
        click.echo(jsonlib.dumps(payload, indent=2))
    else:
        shown = "all" if case_count is None else str(case_count)
        click.echo(f"fuzz report (atoms={atoms}, cases={shown}, seed={seed})")
        click.echo(f"{'suite':<20}{'cases':>8}{'failures':>10}  result")
        for result in results:
            status = "pass" if result.passed else "fail"
            click.echo(f"{result.name:<20}{result.cases:>8}{result.failures:>10}  {status}")
        click.echo(f"verdict: {'pass' if passed else 'fail'}")
    raise SystemExit(0 if passed else 1)


def _detective_facts():
    scenario = detective_scenario()
    structure = scenario.require_structure()
    universe = structure.universe
    model = build_model(structure)
    partial = induced_beliefs(model)
    ann = parse_formula("ann", universe.atoms)
    not_ann = parse_formula("~ann", universe.atoms)
    info = truth_set(ann, universe)
    entry = partial.entries[info.mask]
    return {
        "scenario": scenario,
        "universe": universe,
        "initial": partial.initial,
        "info": info,
        "entry": entry,
        "believes_initially": {
            "ann": partial.initial.contains(ann),
            "~ann": partial.initial.contains(not_ann),
        },
        "believes_after": {"ann": entry.contains(ann), "~ann": entry.contains(not_ann)},
        "validation": validate_structure(structure),
        "criteria": check_agm_consistency(structure),
        "oracle": agm_consistency_bruteforce(structure),
    }


@main.command()
@click.argument("name", type=click.Choice(["detective"]))
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def demo(name: str, as_json: bool):
    """Walk through a bundled scenario end to end."""
    facts = _detective_facts()
    suspended = not facts["believes_after"]["ann"] and not facts["believes_after"]["~ann"]
    ok = (
        facts["validation"].all_hold
        and facts["criteria"].all_hold
        and facts["oracle"].consistent
    )
    if as_json:
        payload = {
            "command": "demo detective",
            "initially_possible": list(facts["initial"].points.ids),
            "believes_initially": facts["believes_initially"],
            "information": list(facts["info"].ids),
            "revised_possible": list(facts["entry"].points.ids),
            "believes_after": facts["believes_after"],
            "suspended": suspended,
            "structure_laws": "pass" if facts["validation"].all_hold else "fail",
            "criteria": facts["criteria"].to_json(),
            "oracle_valuations_checked": facts["oracle"].valuations_checked,
            "oracle_consistent": facts["oracle"].consistent,
            "verdict": "pass" if ok else "fail",
        }
        click.echo(jsonlib.dumps(payload, indent=2))
        raise SystemExit(0 if ok else 1)
    universe = facts["universe"]
    lines = ["detective scenario", "=================="]
    described = []
    for point in universe.points:
        true_atoms = [atom for atom, value in zip(universe.atoms, point.values) if value]
        described.append(f"{point.id} ({', '.join(true_atoms) or '-'})")
    lines.append("states: " + "; ".join(described))
    lines.append(f"initially possible: {facts['initial'].points.render()}")
    for text, value in facts["believes_initially"].items():
        lines.append(f'  believes "{text}": {"yes" if value else "no"}')
    lines.append("")
    lines.append(f'information "ann" is allowable, truth set {facts["info"].render()}')
    lines.append(f"revised possible states: {facts['entry'].points.render()}")
    for text, value in facts["believes_after"].items():
        lines.append(f'  believes "{text}": {"yes" if value else "no"}')
    if suspended:
        lines.append('judgment on "ann" is suspended')
    lines.append("")
    lines.append(f"structure laws: {'pass' if facts['validation'].all_hold else 'fail'}")
    lines.append(f"consistency criteria: {'pass' if facts['criteria'].all_hold else 'fail'}")
    for note in facts["criteria"].notes:
        lines.append(f"  {note}")
    oracle_word = "consistent" if facts["oracle"].consistent else "not consistent"
    lines.append(
        f"oracle over all valuations ({facts['oracle'].valuations_checked} checked): {oracle_word}"
    )
    lines.append(f"verdict: {'pass' if ok else 'fail'}")
    click.echo("\n".join(lines))
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
