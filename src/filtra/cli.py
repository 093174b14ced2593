"""Command-line front end.

Exit codes: 0 all checks passed, 1 a check failed (witnesses printed),
2 usage or input error.  All output is deterministic for fixed inputs
and seeds; ``--json`` switches every command to a machine-readable
report.  The FILTRA_SEED environment variable, when set, overrides the
``--seed`` option of ``fuzz``.

Each command only computes its verdict; ``_Command.invoke`` prints it
and exits.  The library's refusals end there too: an
``InvalidStructureError`` (a structure failing laws 2-3d) or a
``PostulateViolation`` (a table ``build filtered`` cannot filter)
prints the report it carries and exits 1; a ``SizeLimitError`` (an
input too large to search) is a usage error and exits 2, as is a
``ScenarioError`` (a malformed scenario file, or one without the
section the command reads).
"""

from __future__ import annotations

import json as jsonlib
import os
from typing import Callable, NamedTuple, NoReturn

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
from .revision import PostulateViolation, build_filtered, check_agm, check_filtered
from .scenario import (
    Scenario,
    ScenarioError,
    detective_scenario,
    load_scenario,
    save_scenario,
)
from .worlds import SizeLimitError, truth_set


class _Verdict(NamedTuple):
    """A command's verdict in the shape of a ``CheckReport``: each
    format is rendered only when it is the one selected."""

    all_hold: bool
    render_text: Callable[[], str]
    to_json: Callable[[], dict]


class _Command(click.Command):
    """A command whose callback returns its report (a ``CheckReport`` or
    a ``_Verdict``).  It prints the report as text or, with ``--json``,
    as JSON headed by ``label`` (default: the command's path), then
    exits 0 if every check held and 1 if not."""

    def __init__(self, *args, label: str | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.label = label
        self.params.append(
            click.Option(["--json", "as_json"], is_flag=True, help="machine-readable report")
        )

    def invoke(self, ctx: click.Context) -> NoReturn:
        as_json = ctx.params.pop("as_json")
        try:
            report = super().invoke(ctx)
        except (InvalidStructureError, PostulateViolation) as exc:
            report = exc.report
        except SizeLimitError as exc:
            raise click.UsageError(str(exc), ctx)
        except ScenarioError as exc:  # FILE is malformed or lacks the section a command reads
            raise click.UsageError(f"{ctx.params['file']}: {exc}", ctx)
        if as_json:
            label = self.label or ctx.command_path[len(ctx.find_root().command_path) + 1 :]
            click.echo(jsonlib.dumps({"command": label, **report.to_json()}, indent=2))
        else:
            click.echo(report.render_text())
        raise SystemExit(0 if report.all_hold else 1)


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Groups too


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _parse_postulates(text: str) -> tuple[int, ...]:
    chosen: set[int] = set()
    try:
        for part in filter(None, map(str.strip, text.split(","))):
            low, dash, high = part.partition("-")
            low = int(low)
            high = int(high) if dash else low
            # a reversed range gets a hint only when the hint is itself valid
            if 1 <= high < low <= 8:
                raise click.UsageError(f"postulate range {part!r} is reversed, write '{high}-{low}'")
            # its ends alone decide whether the range leaves 1..8
            chosen.update(range(low, high + 1) if 1 <= low <= high <= 8 else (low, high))
    except ValueError:
        raise click.UsageError(f"cannot parse postulate selection {text!r}")
    if not chosen or not chosen <= set(range(1, 9)):
        raise click.UsageError("postulates must be within 1..8, e.g. '1-6' or '1,2,5'")
    return tuple(sorted(chosen))


@click.group(cls=_Group)
def main():
    """Belief revision with credibility-filtered information."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def validate(file: str):
    """Check the structural laws of the scenario's choice structure."""
    return validate_structure(_load(file).require_structure())


@main.group()
def check():
    """Checkers for structures and revision tables."""


@check.command("prop2")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def check_prop2(file: str):
    """Check the pointwise consistency criteria of the choice structure."""
    return check_agm_consistency(_load(file).require_structure())


@check.command("agm")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--postulates", default="1-8", show_default=True, help="e.g. '1-6' or '1,2,5'")
def check_agm_cmd(file: str, postulates: str):
    """Check revision postulates on the file's table (or pre-order)."""
    table = _load(file).revision_table()
    return check_agm(table, _parse_postulates(postulates))


@check.command("filtered")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def check_filtered_cmd(file: str):
    """Check the filter laws on the file's table under its labeling."""
    scenario = _load(file)
    return check_filtered(scenario.revision_table(), scenario.credibility())


@main.group()
def build():
    """Builders that write new scenario files."""


@build.command("filtered")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False, writable=True))
def build_filtered_cmd(file: str, output: str):
    """Build the filtered table from the file's basic table and labeling."""
    scenario = _load(file)
    labeling = scenario.credibility()
    filtered = build_filtered(scenario.revision_table(), labeling)
    result = Scenario(scenario.atoms, scenario.universe, table=filtered, labeling=labeling)
    try:
        save_scenario(result, output)
    except OSError as exc:
        raise click.UsageError(f"cannot write {output}: {exc}")
    return _Verdict(
        True,
        lambda: f"filtered table written to {output}",
        lambda: {"output": output, "verdict": "pass"},
    )


@main.group()
def oracle():
    """Brute-force oracles."""


@oracle.command("def6")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--atoms", type=int, default=None, help="atom budget (default: smallest injective)")
def oracle_def6(file: str, atoms: int | None):
    """Test extension feasibility under every valuation.

    Valuations that put the same states in one row get the same
    verdict, so one is checked per partition of the states into rows.
    """
    structure = _load(file).require_structure()
    outcome = agm_consistency_bruteforce(structure, atoms=atoms)
    counter = outcome.counterexample

    def text() -> str:
        lines = [
            "extension oracle over all valuations",
            f"  valuations checked: {outcome.valuations_checked}",
        ]
        if counter is not None:
            lines.append("  counterexample valuation:")
            for point_id, values in counter.assignments:
                cells = " ".join(
                    f"{atom}={'T' if value else 'F'}" for atom, value in zip(counter.atoms, values)
                )
                lines.append(f"    {point_id}: {cells}")
            lines.append(f"  infeasible information: E = {counter.event.render()} ({counter.reason})")
        lines.append(f"  verdict: {'consistent' if outcome.consistent else 'not consistent'}")
        return "\n".join(lines)

    def payload() -> dict:
        payload = {
            "verdict": "pass" if outcome.consistent else "fail",
            "consistent": outcome.consistent,
            "valuations_checked": outcome.valuations_checked,
        }
        if counter is not None:
            payload["counterexample"] = {
                "atoms": list(counter.atoms),
                "valuation": {
                    point_id: dict(zip(counter.atoms, map(bool, values)))
                    for point_id, values in counter.assignments
                },
                "event": list(counter.event.ids),
                "reason": counter.reason,
            }
        return payload

    return _Verdict(outcome.consistent, text, payload)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def rationalize(file: str):
    """Search for a pre-order reproducing the credible choices."""
    order = find_rationalizing_preorder(_load(file).require_structure())

    def text() -> str:
        if order is None:
            return "no rationalizing pre-order exists for the credible menus"
        levels = enumerate(order.level_sets())
        return "\n".join(f"rank {rank}: {level.render()}" for rank, level in levels)

    def payload() -> dict:
        if order is None:
            return {"verdict": "fail"}
        return {"verdict": "pass", "levels": [list(level.ids) for level in order.level_sets()]}

    return _Verdict(order is not None, text, payload)


@main.command()
@click.option("--atoms", type=int, default=1, show_default=True)
@click.option("--cases", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def fuzz(atoms: int, cases: int, seed: int):
    """Run the seeded round-trip suites and print a summary table."""
    env_seed = os.environ.get("FILTRA_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise click.UsageError(f"FILTRA_SEED must be an integer, got {env_seed!r}")
    if not 1 <= atoms <= 2:
        raise click.UsageError("fuzz supports --atoms 1 or 2")
    results = run_suites(atoms, cases, seed)
    passed = all(result.passed for result in results)

    def text() -> str:
        lines = [
            f"fuzz report (atoms={atoms}, cases={cases}, seed={seed})",
            f"{'suite':<20}{'cases':>8}{'failures':>10}  result",
        ]
        for result in results:
            status = "pass" if result.passed else "fail"
            lines.append(f"{result.name:<20}{result.cases:>8}{result.failures:>10}  {status}")
        lines.append(f"verdict: {'pass' if passed else 'fail'}")
        return "\n".join(lines)

    def payload() -> dict:
        return {
            "atoms": atoms,
            "cases": cases,
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

    return _Verdict(passed, text, payload)


@main.command(label="demo detective")
@click.argument("name", type=click.Choice(["detective"]))
def demo(name: str):
    """Walk through a bundled scenario end to end."""
    structure = detective_scenario().require_structure()
    universe = structure.universe
    partial = induced_beliefs(build_model(structure))
    formulas = {source: parse_formula(source, universe.atoms) for source in ("ann", "~ann")}
    info = truth_set(formulas["ann"], universe)
    entry = partial.entries[info.mask]
    believes_initially = {source: partial.initial.contains(f) for source, f in formulas.items()}
    believes_after = {source: entry.contains(f) for source, f in formulas.items()}
    validation = validate_structure(structure)
    criteria = check_agm_consistency(structure)
    outcome = agm_consistency_bruteforce(structure)
    suspended = not any(believes_after.values())
    ok = validation.all_hold and criteria.all_hold and outcome.consistent

    def text() -> str:
        lines = ["detective scenario", "=================="]
        described = []
        for point in universe.points:
            true_atoms = [atom for atom, value in zip(universe.atoms, point.values) if value]
            described.append(f"{point.id} ({', '.join(true_atoms) or '-'})")
        lines.append("states: " + "; ".join(described))
        lines.append(f"initially possible: {partial.initial.points.render()}")
        for formula, value in believes_initially.items():
            lines.append(f'  believes "{formula}": {"yes" if value else "no"}')
        lines.append("")
        lines.append(f'information "ann" is allowable, truth set {info.render()}')
        lines.append(f"revised possible states: {entry.points.render()}")
        for formula, value in believes_after.items():
            lines.append(f'  believes "{formula}": {"yes" if value else "no"}')
        if suspended:
            lines.append('judgment on "ann" is suspended')
        lines.append("")
        lines.append(f"structure laws: {'pass' if validation.all_hold else 'fail'}")
        lines.append(f"consistency criteria: {'pass' if criteria.all_hold else 'fail'}")
        for note in criteria.notes:
            lines.append(f"  {note}")
        oracle_word = "consistent" if outcome.consistent else "not consistent"
        lines.append(
            f"oracle over all valuations ({outcome.valuations_checked} checked): {oracle_word}"
        )
        lines.append(f"verdict: {'pass' if ok else 'fail'}")
        return "\n".join(lines)

    def payload() -> dict:
        return {
            "initially_possible": list(partial.initial.points.ids),
            "believes_initially": believes_initially,
            "information": list(info.ids),
            "revised_possible": list(entry.points.ids),
            "believes_after": believes_after,
            "suspended": suspended,
            "structure_laws": "pass" if validation.all_hold else "fail",
            "criteria": criteria.to_json(),
            "oracle_valuations_checked": outcome.valuations_checked,
            "oracle_consistent": outcome.consistent,
            "verdict": "pass" if ok else "fail",
        }

    return _Verdict(ok, text, payload)


if __name__ == "__main__":
    main()
