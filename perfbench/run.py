"""filtra benchmark: seeded closed-loop workloads with a correctness gate.

    python3 perfbench/run.py --workload {tables4,crosscheck,cli} \\
        --seed N --seconds S --trace {0,1}

filtra is imported from the ``src/`` beside ``perfbench/``, never from an
installed copy.  With
``--trace 0`` the last stdout line is the JSON result carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run.  Metric definitions are in perfbench/BENCHMARK.md.
Every run also writes a detailed record (environment stamp, tail
percentile, failures) under ``.perfbench_out/results/``; traced runs
write their spans there too.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Bytecode of everything imported from here on (the harness, filtra,
# click) lives in a cache of the benchmark's own.  The measuring process
# imports all of it before the set-up children start, so every child
# reads a warm cache that matches the sources, whatever else has run in
# the tree.
sys.pycache_prefix = str(OUT / "pycache")

from tracing import TRACED, Tracer  # noqa: E402

SETUP_REPEATS = 3  # set-up children before the timed loop, and again after it
TAIL_BEYOND = 10
# After each case, outside its timed interval, the reference runs for at
# least this share of the case's time, so that a 3 s case is bracketed by enough reference
# samples to average out the host's sub-second swings.
REFERENCE_SHARE = 0.25

END_TO_END = {"setup_s": "s", "cases_per_kref": "1/kref", "case_ref_p50": "ref", "peak_rss_mb": "MB"}
CLI_KINDS = (
    "validate", "check_prop2", "check_agm", "check_filtered", "build_filtered",
    "oracle_def6", "rationalize", "demo_detective", "fuzz", "malformed",
)  # fmt: skip
PER_CASE_COUNTS = {
    "revision.witnesses": "count",
    "scenario.bytes_read": "B",
    "scenario.bytes_written": "B",
}


def per_layer_names() -> dict[str, str]:
    names = {f"{prefix}_{unit}": unit for prefix, (_, _, unit) in TRACED.items()}
    names.update(PER_CASE_COUNTS)
    names["choice.valuations_checked"] = "count"
    names["choice.oracle_us_per_valuation"] = "us"
    names.update({f"cli.{kind}_ms": "ms" for kind in CLI_KINDS})
    names.update({f"cli.exit_{code}": "count" for code in (0, 1, 2)})
    names["trace.overhead_ms_p50"] = "ms"
    names["trace.overhead_frac"] = "ratio"
    names["error_frac"] = "ratio"
    return names


class _Point:
    __slots__ = ("mask", "rank")

    def __init__(self, mask: int, rank: int):
        self.mask, self.rank = mask, rank


def reference() -> int:
    """A fixed pure-Python computation in the style of filtra's inner
    loops (slotted objects, bit masks, tuple-keyed dicts, generators).
    It never changes and calls no filtra code, so a case time divided by
    the time of this, measured next to it, cancels the speed of the host
    (which swings by up to 2x on a shared machine) and keeps the program's."""
    points = [_Point(m, m.bit_count()) for m in range(2048)]
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for point in points:
        m = point.mask
        low = m & -m
        key = (m >> 1, low)
        seen[key] = seen.get(key, 0) + point.rank
        acc ^= sum(1 for q in points[:16] if q.mask & m == q.mask) * low
    return acc + len(seen)


def reference_block(min_seconds: float) -> float:
    """Run ``reference`` at least once and for at least ``min_seconds``;
    return its mean time per call."""
    calls = 0
    start = time.perf_counter()
    while True:
        reference()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls


def tail(times: list[float]) -> dict:
    """The case time at the highest percentile with TAIL_BEYOND samples
    beyond it.  Below 10 * TAIL_BEYOND cases that percentile is under p90,
    which is no tail, so the value is omitted."""
    n = len(times)
    if n < 10 * TAIL_BEYOND:
        return {"samples": n, "omitted": f"fewer than {10 * TAIL_BEYOND} cases"}
    rank = n - TAIL_BEYOND  # 1-based order statistic with exactly TAIL_BEYOND above it
    return {
        "case_ms_tail": sorted(times)[rank - 1] * 1e3,
        "percentile": 100.0 * rank / n,
        "samples": n,
        "beyond": TAIL_BEYOND,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def setup_times(workload: str, seed: int) -> list[float]:
    """Seconds from process start to inputs ready, once per fresh child
    process: interpreter start, importing filtra, drawing the inputs and
    writing the scenario files."""
    times = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only"]  # fmt: skip
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip() == "ready"
            times.append(time.perf_counter() - start)
            child.stdout.read()
        if not ready or child.returncode != 0:
            raise RuntimeError(f"set-up child exited with {child.returncode}")
    return times


def run_case(workload, i: int, tracer: Tracer | None) -> tuple[float, dict | None]:
    """Run case ``i`` (traced when a tracer is given), time it, then
    verify it untimed.  Returns the case time and the failure, if any."""
    from workloads import KnownDefect

    failure = defect = None
    if tracer is not None:
        tracer.patch()
        tracer.case, tracer.active = i, True
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.run_case(i)
        else:
            with tracer.span(f"case:{workload.kind(i)}"):
                outcome = workload.run_case(i)
    except Exception as exc:
        failure = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.restore()
    if failure is None:
        try:
            failure = workload.verify(i, outcome)
        except KnownDefect as exc:
            failure, defect = str(exc), exc.label
        except Exception as exc:
            failure = f"verification raised {type(exc).__name__}: {exc}"
    if failure is None:
        return seconds, None
    return seconds, {"case": i, "failure": failure, "known_defect": defect}


def run_loop(workload, seconds: float, tracers: tuple) -> tuple[list[list[float]], list[dict]]:
    """Closed loop over cases 0, 1, ... until the time is up (at least one
    case).  Each case runs once per entry of ``tracers`` (None: untraced),
    in turn.  Returns the case times per entry and the failures."""
    times: list[list[float]] = [[] for _ in tracers]
    failures: list[dict] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        for k, tracer in enumerate(tracers):
            elapsed, failure = run_case(workload, i, tracer)
            times[k].append(elapsed)
            if failure is not None:
                failures.append(failure)
        i += 1
    return times, failures


def run_referenced_loop(workload, seconds: float) -> tuple[list[float], list[float], list[dict]]:
    """Closed loop over untraced cases until the time is up (at least one
    case), with a reference block after each case.  Returns the case
    times, each case time in units of the reference (mean time per call
    over the blocks just before and just after it), and the failures."""
    times: list[float] = []
    ratios: list[float] = []
    failures: list[dict] = []
    before = reference_block(0.0)
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        elapsed, failure = run_case(workload, i, None)
        after = reference_block(REFERENCE_SHARE * elapsed)
        times.append(elapsed)
        ratios.append(elapsed / ((before + after) / 2))
        if failure is not None:
            failures.append(failure)
        before = after
        i += 1
    return times, ratios, failures


def per_layer(tracer: Tracer, untraced: list[float], traced: list[float], error_frac: float) -> dict:
    n = len(traced)
    traced_cases = set(range(n))
    in_cases = tracer.self_seconds(traced_cases)
    in_setup = tracer.self_seconds({-1})
    scale = {"ms": 1e3, "us": 1e6}
    metrics = {}
    for prefix, (_, _, unit) in TRACED.items():
        if prefix.startswith("sampling."):  # set-up layer: mean self time per call
            calls, seconds = in_setup.get(prefix, (0, 0.0))
            value = seconds / calls if calls else 0.0
        else:  # workload layers: self time per traced case
            value = in_cases.get(prefix, (0, 0.0))[1] / n
        metrics[f"{prefix}_{unit}"] = value * scale[unit]
    for name in PER_CASE_COUNTS:
        metrics[name] = tracer.counts[name] / n
    oracle_calls, oracle_seconds = in_cases.get("choice.agm_consistency_bruteforce", (0, 0.0))
    valuations = tracer.counts["choice.valuations_checked"]
    metrics["choice.valuations_checked"] = valuations / oracle_calls if oracle_calls else 0.0
    metrics["choice.oracle_us_per_valuation"] = oracle_seconds / valuations * 1e6 if valuations else 0.0
    for kind in CLI_KINDS:
        durations = tracer.durations(f"cli.{kind}")
        metrics[f"cli.{kind}_ms"] = statistics.fmean(durations) * 1e3 if durations else 0.0
    for code in (0, 1, 2):
        metrics[f"cli.exit_{code}"] = tracer.counts[f"cli.exit_{code}"]
    # each case ran untraced and then traced, back to back
    differences = [b - a for a, b in zip(untraced, traced)]
    metrics["trace.overhead_ms_p50"] = statistics.median(differences) * 1e3
    metrics["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    metrics["error_frac"] = error_frac
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from workloads import WORKLOADS  # imports filtra, so only after main() has checked SRC

    cls = WORKLOADS[name]
    record: dict = {"workload": name, "trace": int(trace), "seconds": seconds, "environment": environment(seed)}
    if not trace:
        setups = setup_times(name, seed)
        workload = cls(seed, workdir)
        times, ratios, failures = run_referenced_loop(workload, seconds)
        # samples on both sides of the loop, so no one slow spell of the host takes them all
        setups += setup_times(name, seed)
        metrics = {
            "setup_s": statistics.median(setups),
            "cases_per_kref": 1e3 / statistics.fmean(ratios),
            "case_ref_p50": statistics.median(ratios),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["setup_repeats_s"] = setups
        # the same figures in host seconds, which swing with the host's speed
        record["wall"] = {"cases_per_s": len(times) / sum(times), "case_ms_p50": statistics.median(times) * 1e3}
        record["tail"] = tail(times)
        units = END_TO_END
    else:
        tracer = Tracer()
        tracer.patch()
        workload = cls(seed, workdir)
        tracer.restore()
        tracer.counts.clear()  # keep only the traced cases' counts
        tracer.active = False
        workload.tracer = tracer
        (untraced, traced), failures = run_loop(workload, seconds, (None, tracer))
        times = untraced + traced
        metrics = per_layer(tracer, untraced, traced, len(failures) / len(times))
        record["traced_cases"] = len(traced)
        record["tail_untraced"] = tail(untraced)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / "results" / f"spans-{name}.jsonl")
        units = per_layer_names()
    # A case that hits a known defect is an error (error_frac, known_defects)
    # but not a failed operation: it failed in exactly the documented way.
    unknown = [item for item in failures if item["known_defect"] is None]
    record.update({
        "attempted": len(times),
        "failed": len(unknown),
        "known_defects": dict(Counter(item["known_defect"] for item in failures if item["known_defect"])),
        "unknown_failures": unknown[:20],
    })  # fmt: skip
    record["metrics"] = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
    record["correct"] = not unknown
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables4", "crosscheck", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")

    if not (SRC / "filtra" / "__init__.py").is_file():
        print(f"perfbench: no filtra sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import filtra

    if not Path(filtra.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: filtra was imported from {filtra.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_only:
        from workloads import WORKLOADS

        try:
            WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key, metric in record["metrics"].items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    for key in ("wall", "tail", "tail_untraced"):
        if key in record:
            print(f"{key}: {json.dumps(record[key])}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"known defects (cases): {json.dumps(record['known_defects'])}")
    for item in record["unknown_failures"]:
        print(f"failure: {json.dumps(item)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
