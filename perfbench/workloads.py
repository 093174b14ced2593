"""The three seeded, closed-loop workloads.

Each workload is a class whose constructor is the set-up (it draws
every input from the seed with ``filtra.sampling`` and writes any
scenario files), ``run_case(i)`` is the timed work of case ``i`` and
``verify(i, outcome)`` is the untimed correctness gate, returning a
failure message or None, or raising ``KnownDefect`` when the failure
is a documented program defect.  ``kind(i)`` names the case's kind.
One caller, one thread: the harness starts case ``i + 1`` only after
case ``i`` and its verification finish.

The workloads touch filtra only through public functions of its
modules, always looked up as module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random
from types import SimpleNamespace

from filtra import beliefs, choice, cli, formulas, revision, sampling, scenario, worlds


class KnownDefect(Exception):
    """A case failed on a documented program defect (see KNOWN_DEFECTS)."""

    def __init__(self, label: str, message: str):
        super().__init__(f"{message} (known defect {label})")
        self.label = label


def _holds(node, values: tuple[bool, ...], atoms: tuple[str, ...]) -> bool:
    """Truth of a formula AST at one assignment, evaluated without point sets."""
    if isinstance(node, formulas.Atom):
        return values[atoms.index(node.name)]
    if isinstance(node, formulas.Not):
        return not _holds(node.operand, values, atoms)
    return _holds(node.left, values, atoms) or _holds(node.right, values, atoms)


def _models(node, universe) -> int:
    mask = 0
    for i, point in enumerate(universe.points):
        if _holds(node, point.values, universe.atoms):
            mask |= 1 << i
    return mask


class Tables4:
    """4-atom table round trips on the canonical universe (16 points,
    65,536 propositions).

    A case is two round trips, one on a pre-order table and one on a
    selection table, and exactly one of the two has an entry corrupted:
    the pre-order one in even cases, the selection one in odd cases.
    Single round trips come in two costs (pre-order tables take longer),
    so the median of single round trips falls between the two and jumps
    with noise; every case here does the same mix of work.

    A round trip builds the table, checks AGM1-6, builds the filtered
    table under a labeling, runs ``check_filtered`` and ``recover_basic``
    on it (or, when corrupted, on a copy with one entry made absurd,
    which must fail at exactly that entry), round-trips the clean
    filtered table through ``recover_basic`` and ``build_filtered``, and
    finally answers a batch of ``parse_formula`` -> ``revise`` ->
    ``contains`` queries on it.
    """

    name = "tables4"
    ATOMS = ("a", "b", "c", "d")
    POOL = 4
    QUERIES_PER_TRIP = 16
    QUERY_POOL = 256
    KINDS = ("preorder-corrupt", "selection-corrupt")

    def __init__(self, seed: int, workdir: Path):
        rng = Random(seed)
        self.universe = worlds.canonical_universe(self.ATOMS)
        u = self.universe
        self.orders = [sampling.random_plausibility_order(rng, u) for _ in range(self.POOL)]
        self.selections = [sampling.random_selection_function(rng, u) for _ in range(self.POOL)]
        self.labelings = [sampling.random_labeling(rng, u) for _ in range(self.POOL)]
        self.corrupt_at = [rng.randrange(u.full_mask + 1) for _ in range(64)]
        self.queries = []
        for _ in range(self.QUERY_POOL):
            info = sampling.random_formula(rng, self.ATOMS, 4)
            query = sampling.random_formula(rng, self.ATOMS, 4)
            self.queries.append(
                (formulas.print_formula(info), formulas.print_formula(query), info, query)
            )

    def kind(self, i: int) -> str:
        return self.KINDS[i % 2]

    def _trips(self, i: int) -> list[tuple]:
        """Case ``i``'s round trips: (pre-order or selection function,
        labeling, corrupted entry or None, query batch)."""
        trips = []
        for k, sources in enumerate((self.orders, self.selections)):
            j = 2 * i + k
            labeling = self.labelings[(j // self.POOL + j) % self.POOL]
            corrupt = self.corrupt_at[i % len(self.corrupt_at)] if i % 2 == k else None
            first = j * self.QUERIES_PER_TRIP
            batch = [self.queries[(first + q) % self.QUERY_POOL] for q in range(self.QUERIES_PER_TRIP)]
            trips.append((sources[i % self.POOL], labeling, corrupt, batch))
        return trips

    def run_case(self, i: int) -> list[dict]:
        builders = (revision.revision_from_preorder, revision.revision_from_selection)
        return [
            self._round_trip(build(source), labeling, corrupt, batch)
            for build, (source, labeling, corrupt, batch) in zip(builders, self._trips(i))
        ]

    def _round_trip(self, star, labeling, corrupt: int | None, batch: list) -> dict:
        agm = revision.check_agm(star, (1, 2, 3, 4, 5, 6))
        filtered = revision.build_filtered(star, labeling)
        subject = filtered
        if corrupt is not None:
            entries = dict(filtered.entries)
            entries[corrupt] = beliefs.BeliefSet.absurd(self.universe)
            subject = revision.RevisionTable(self.universe, filtered.initial, entries)
        laws = revision.check_filtered(subject, labeling)
        recovered = revision.recover_basic(subject, labeling)
        clean = revision.recover_basic(filtered, labeling) if corrupt is not None else recovered
        rebuilt_equal = (
            bool(clean) and revision.build_filtered(clean.basic, labeling).entries == filtered.entries
        )
        answers = []
        for info_text, query_text, _, _ in batch:
            revised = filtered.revise(formulas.parse_formula(info_text, self.ATOMS))
            answers.append(
                (revised.points.mask, revised.contains(formulas.parse_formula(query_text, self.ATOMS)))
            )
        return {
            "agm": agm.all_hold,
            "laws": laws.all_hold,
            "recovered": bool(recovered),
            "infeasible": None if recovered.infeasible is None else recovered.infeasible.mask,
            "clean_recovered": bool(clean),
            "rebuilt_equal": rebuilt_equal,
            "answers": answers,
            "filtered": filtered,
        }

    def verify(self, i: int, outcome: list[dict]) -> str | None:
        for (_, _, corrupt, batch), trip in zip(self._trips(i), outcome):
            failure = self._verify_trip(corrupt, batch, trip)
            if failure is not None:
                return failure
        return None

    def _verify_trip(self, corrupt: int | None, batch: list, outcome: dict) -> str | None:
        if not outcome["agm"]:
            return "check_agm 1-6 fails on a pre-order or selection table"
        if outcome["laws"] != outcome["recovered"]:
            return "recover_basic disagrees with the filter laws"
        if corrupt is not None:
            if outcome["laws"]:
                return "corrupted table passes check_filtered"
            if outcome["infeasible"] != corrupt:
                return "recover_basic reports another entry than the corrupted one"
        elif not outcome["laws"]:
            return "built table fails check_filtered"
        if not outcome["clean_recovered"] or not outcome["rebuilt_equal"]:
            return "rebuild from the recovered basic table differs from the filtered table"
        entries = outcome["filtered"].entries
        for (_, _, info, query), (got_mask, got_contains) in zip(batch, outcome["answers"]):
            expected = entries[_models(info, self.universe)].points.mask
            if got_mask != expected:
                return "revise returned the wrong entry"
            if got_contains != (expected & ~_models(query, self.universe) == 0):
                return "contains gave the wrong answer"
        return None


class Crosscheck:
    """Criterion-4 traffic: pointwise criteria against the brute-force
    oracle on seeded 3-state and 4-state choice structures
    (``random_choice_structure`` tosses a seeded coin between conforming
    and unconstrained maps, so both verdicts occur).

    A case is a batch of PAIRS_PER_CASE (3-state, 4-state) pairs.  One
    pair's time is bimodal (a consistent structure makes the oracle
    visit every valuation orbit, an inconsistent one stops at its first
    counter-model), so its median falls between the modes and jumps with
    noise; the time of a batch of four pairs is unimodal.
    """

    name = "crosscheck"
    PAIRS = 1000
    PAIRS_PER_CASE = 4

    def __init__(self, seed: int, workdir: Path):
        rng = Random(seed)
        self.pairs = [
            (sampling.random_choice_structure(rng, 3), sampling.random_choice_structure(rng, 4))
            for _ in range(self.PAIRS)
        ]

    def kind(self, i: int) -> str:
        return "batch"

    def _structures(self, i: int) -> list:
        first = i * self.PAIRS_PER_CASE
        return [s for k in range(self.PAIRS_PER_CASE) for s in self.pairs[(first + k) % self.PAIRS]]

    def run_case(self, i: int) -> list:
        outcome = []
        for structure in self._structures(i):
            laws = choice.validate_structure(structure)
            criteria = choice.check_agm_consistency(structure)
            oracle = choice.agm_consistency_bruteforce(structure)
            outcome.append((laws.all_hold, criteria.all_hold, oracle))
        return outcome

    def verify(self, i: int, outcome: list) -> str | None:
        for structure, (laws, criteria, oracle) in zip(self._structures(i), outcome):
            if not laws:
                return "a generated structure fails the structural laws"
            if criteria != oracle.consistent:
                return "the criteria disagree with the brute-force oracle"
            if oracle.valuations_checked < 1:
                return "the oracle checked no valuation"
            counter = oracle.counterexample
            if (counter is None) != oracle.consistent:
                return "the oracle verdict and its counter-model disagree"
            if counter is not None:
                revalued = choice.with_valuation(structure, counter.atoms, counter.rows())
                replay = choice.extension_oracle(choice.build_model(revalued), build_certificate=False)
                if replay.feasible or replay.infeasible_event.mask != counter.event.mask:
                    return "a counter-model does not replay as infeasible"
        return None


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

# Malformed scenario files; each must exit 2.  The ones named in
# KNOWN_DEFECTS crash today (exit 1 with a traceback) and are counted
# as errors until the scenario loader rejects them.
KNOWN_DEFECTS = {
    "labeling-list": "list-valued labeling: TypeError unhashable 'list' in scenario._parse_labeling",
    "labeling-object": "object-valued labeling: TypeError unhashable 'dict' in scenario._parse_labeling",
    "deep-nesting": "deeply nested JSON: RecursionError escapes the JSONDecodeError handler",
}


def _malformed_payloads(valid: dict) -> dict[str, str]:
    def mutated(**changes) -> str:
        return json.dumps({**valid, **changes}, indent=2)

    states = [dict(state) for state in valid["states"]]
    states[0]["true_atoms"] = ["zz"]
    first = valid["states"][0]["id"]
    gcs = dict(valid["gcs"])
    gcs["f"] = {",".join(reversed(key.split(","))) if "," in key else key: value for key, value in gcs["f"].items()}
    return {
        "labeling-list": mutated(labeling={first: ["C"]}),
        "invalid-json": json.dumps(valid)[:-7],
        "labeling-object": mutated(labeling={first: {"C": 1}}),
        "unknown-field": mutated(extra=1),
        "deep-nesting": "[" * 5000 + "]" * 5000,
        "undeclared-atom": mutated(states=states),
        "noncanonical-key": mutated(gcs=gcs),
    }


class Cli:
    """In-process ``filtra.cli.main`` invocations on seeded scenario files.

    A case is one session: the ``len(CYCLE)`` invocations below, in
    order.  They cover the read commands on 3-atom pre-order and
    explicit-table scenarios and on 3-4-state ``gcs`` scenarios, one
    ``build filtered -o`` followed by ``check filtered`` on the written
    file, the golden ``demo detective`` and ``fuzz`` runs, and one
    malformed file.  Single invocations range from 1 ms to 100 ms, so
    the median of single invocations sits on the edge of a cluster and
    jumps with noise; a session's time is unimodal.
    """

    name = "cli"
    ATOMS = ("p", "q", "r")
    # Pools large enough that a run's mix of file properties (AGM7/8
    # verdicts, consistent or not) hardly depends on the seed.
    TABLE_POOL = 8
    STRUCTURE_POOL = 32
    # (kind, argv template); P/T/G/M are pre-order, table, gcs and
    # malformed files, G1 the next gcs file, OUT the build output.
    CYCLE = (
        ("check_agm", ("check", "agm", "P")),
        ("check_agm", ("check", "agm", "T", "--json")),
        ("check_filtered", ("check", "filtered", "P")),
        ("check_filtered", ("check", "filtered", "T", "--json")),
        ("build_filtered", ("build", "filtered", "P", "-o", "OUT")),
        ("check_filtered", ("check", "filtered", "OUT")),
        ("validate", ("validate", "G")),
        ("validate", ("validate", "G1", "--json")),
        ("check_prop2", ("check", "prop2", "G")),
        ("check_prop2", ("check", "prop2", "G1", "--json")),
        ("oracle_def6", ("oracle", "def6", "G")),
        ("oracle_def6", ("oracle", "def6", "G1", "--json")),
        ("rationalize", ("rationalize", "G")),
        ("demo_detective", ("demo", "detective")),
        ("fuzz", ("fuzz", "--atoms", "1", "--cases", "200", "--seed", "0")),
        ("malformed", ("validate", "M")),
    )
    GOLDEN = {
        "demo_detective": "demo_detective.txt",
        "fuzz": "fuzz_atoms1_cases200_seed0.txt",
    }

    def __init__(self, seed: int, workdir: Path):
        rng = Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.tracer = None
        self.stdout, self.stderr = io.StringIO(), io.StringIO()
        os.environ.pop("FILTRA_SEED", None)  # it would override the fuzz seed
        self.golden = {
            kind: (GOLDEN_DIR / name).read_text(encoding="utf-8") for kind, name in self.GOLDEN.items()
        }
        u = worlds.canonical_universe(self.ATOMS)
        self.files: dict[str, list[str]] = {"P": [], "T": [], "G": []}
        self.by_path: dict[str, scenario.Scenario] = {}

        def write(key: str, item: scenario.Scenario) -> None:
            path = str(workdir / f"{key}{len(self.files[key])}.json")
            scenario.save_scenario(item, path)
            self.files[key].append(path)
            self.by_path[path] = item

        for _ in range(self.TABLE_POOL):
            labeling = sampling.random_labeling(rng, u)
            overrides = {
                scenario.event_key(scenario.ids_of_mask(u, mask)): label.value
                for mask, label in labeling.labels.items()
            }
            order = sampling.random_plausibility_order(rng, u)
            table = revision.revision_from_selection(sampling.random_selection_function(rng, u))
            write("P", scenario.Scenario(self.ATOMS, u, preorder=order, labeling=labeling, labeling_overrides=overrides))
            write("T", scenario.Scenario(self.ATOMS, u, table=table, labeling=labeling, labeling_overrides=overrides))
        for k in range(self.STRUCTURE_POOL):
            structure = sampling.random_choice_structure(rng, 3 + k % 2)
            write("G", scenario.Scenario(structure.universe.atoms, structure.universe, structure=structure))
        valid = json.loads(scenario.dumps(self.by_path[self.files["G"][0]]))
        self.malformed = []
        for label, text in _malformed_payloads(valid).items():
            path = workdir / f"M-{label}.json"
            path.write_text(text, encoding="utf-8")
            self.malformed.append((label, str(path)))
        self.out = str(workdir / "built.json")
        self._expected: dict[tuple[str, ...], int] = {}

    def kind(self, i: int) -> str:
        return "session"

    def argv(self, i: int, slot: int) -> list[str]:
        files = {
            "P": self.files["P"][i % self.TABLE_POOL],
            "T": self.files["T"][i % self.TABLE_POOL],
            "G": self.files["G"][i % self.STRUCTURE_POOL],
            "G1": self.files["G"][(i + 1) % self.STRUCTURE_POOL],
            "M": self.malformed[i % len(self.malformed)][1],
            "OUT": self.out,
        }
        return [files.get(part, part) for part in self.CYCLE[slot][1]]

    def invoke(self, i: int, slot: int) -> SimpleNamespace:
        """Run ``filtra`` in standalone mode, as the console script does.

        The capture buffers are reused: click caches a wrapper per
        output stream for the life of the process, so a fresh buffer
        per call (as click.testing.CliRunner makes) grows the heap by
        every call's output and would skew ``peak_rss_mb``.
        """
        exception = None
        for buffer in (self.stdout, self.stderr):
            buffer.seek(0)
            buffer.truncate()
        with redirect_stdout(self.stdout), redirect_stderr(self.stderr):
            try:
                cli.main.main(args=self.argv(i, slot), prog_name="filtra")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
            except Exception as exc:  # what a user would see as a traceback and exit 1
                code, exception = 1, exc
        if self.tracer is not None and self.tracer.active:
            self.tracer.counts[f"cli.exit_{code}"] += 1
        return SimpleNamespace(exit_code=code, output=self.stdout.getvalue(), exception=exception)

    def run_case(self, i: int) -> list:
        if self.tracer is None or not self.tracer.active:
            return [self.invoke(i, slot) for slot in range(len(self.CYCLE))]
        results = []
        for slot, (kind, _) in enumerate(self.CYCLE):
            with self.tracer.span(f"cli.{kind}"):
                results.append(self.invoke(i, slot))
        return results

    def _expected_exit(self, i: int, slot: int) -> int:
        """Exit code the library's own verdict implies (cached per argv)."""
        argv = tuple(self.argv(i, slot))
        if argv in self._expected:
            return self._expected[argv]
        kind = self.CYCLE[slot][0]
        item = next((self.by_path[arg] for arg in argv if arg in self.by_path), None)
        if kind == "malformed":
            code = 2
        elif kind in ("build_filtered", "demo_detective", "fuzz") or item is None:
            code = 0  # item is None only for the check of the built file
        else:
            if kind == "check_agm":
                holds = revision.check_agm(item.revision_table()).all_hold
            elif kind == "check_filtered":
                holds = revision.check_filtered(item.revision_table(), item.credibility()).all_hold
            elif kind == "validate":
                holds = choice.validate_structure(item.structure).all_hold
            elif kind == "check_prop2":
                holds = choice.check_agm_consistency(item.structure).all_hold
            elif kind == "oracle_def6":
                holds = choice.agm_consistency_bruteforce(item.structure).consistent
            else:
                holds = choice.find_rationalizing_preorder(item.structure) is not None
            code = 0 if holds else 1
        self._expected[argv] = code
        return code

    def verify(self, i: int, results: list) -> str | None:
        failures = [
            (slot, failure)
            for slot, result in enumerate(results)
            if (failure := self._verify_invocation(i, slot, result)) is not None
        ]
        if not failures:
            return None
        slot, failure = failures[0]
        message = f"{' '.join(self.CYCLE[slot][1])}: {failure}"
        label = self.malformed[i % len(self.malformed)][0]
        if len(failures) == 1 and self.CYCLE[slot][0] == "malformed" and label in KNOWN_DEFECTS:
            raise KnownDefect(label, message)
        return message

    def _verify_invocation(self, i: int, slot: int, result) -> str | None:
        kind, template = self.CYCLE[slot]
        if result.exception is not None:
            return f"uncaught {type(result.exception).__name__}: {result.exception}"
        expected = self._expected_exit(i, slot)
        if result.exit_code != expected:
            return f"exit {result.exit_code}, expected {expected}"
        if kind in self.golden and result.output != self.golden[kind]:
            return f"{kind} output differs from its golden file"
        if "--json" in template:
            verdict = json.loads(result.output)["verdict"]
            if verdict != ("pass" if expected == 0 else "fail"):
                return f"JSON verdict {verdict!r} contradicts exit {expected}"
        if kind == "build_filtered":
            item = self.by_path[self.argv(i, slot)[2]]
            expected_table = revision.build_filtered(item.revision_table(), item.credibility())
            if scenario.load_scenario(self.out).table.entries != expected_table.entries:
                return "build filtered wrote another table than build_filtered returns"
        return None


WORKLOADS = {workload.name: workload for workload in (Tables4, Crosscheck, Cli)}
