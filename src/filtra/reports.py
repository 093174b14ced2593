"""Verdict reports shared by all checkers.

A report is a flat list of named checks, each holding or failing with
witnesses.  A witness names the offending point set(s) and, when one
exists, a representative formula, so a failure can be replayed against
the checker in isolation.  Rendering is deterministic: fixed ordering,
ASCII only.

A checker may decide its verdict from bare masks and return a deferred
report (``CheckReport._deferred``): its witnesses, details and notes
are made on the first read of its results or notes, so a caller that
reads only ``all_hold`` pays for none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .worlds import PointSet, _cached_property, dnf_of


@dataclass(frozen=True)
class Witness:
    names: tuple[str, ...]
    point_sets: tuple[PointSet, ...]
    detail: str = ""

    @_cached_property
    def formulas(self) -> tuple[str | None, ...]:
        """A representative formula per point set, built on first use
        (rendering), since most witnesses are only counted."""
        return tuple(dnf_of(ps) for ps in self.point_sets)

    def render(self) -> str:
        parts = []
        for name, ps, formula in zip(self.names, self.point_sets, self.formulas):
            text = f"{name} = {ps.render()}"
            if formula is not None:
                text += f" ({formula})"
            parts.append(text)
        line = ", ".join(parts)
        if self.detail:
            line = f"{line}: {self.detail}" if line else self.detail
        return line

    def to_json(self) -> dict:
        return {
            "events": [
                {"name": name, "ids": list(ps.ids), "formula": formula}
                for name, ps, formula in zip(self.names, self.point_sets, self.formulas)
            ],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CheckResult:
    check: str
    holds: bool
    witnesses: tuple[Witness, ...] = ()
    note: str = ""


@dataclass(frozen=True, init=False)
class CheckReport:
    title: str
    results: tuple[CheckResult, ...]
    notes: tuple[str, ...]

    def __init__(self, title: str, results: tuple[CheckResult, ...], notes: tuple[str, ...] = ()):
        # notes' default lives here, not on the class, so that a deferred
        # report's missing notes reach __getattr__
        self.__dict__.update(title=title, results=results, notes=notes)

    @classmethod
    def _deferred(
        cls, title: str, holds: bool, build: Callable[[], tuple[tuple[CheckResult, ...], tuple[str, ...]]]
    ) -> CheckReport:
        """A report with verdict ``holds`` whose results and notes are
        ``build()``, called on the first read of either."""
        report = cls.__new__(cls)
        report.__dict__.update(title=title, all_hold=holds, _build=build)
        return report

    def __getattr__(self, name: str):
        # reached only for a missing attribute: a deferred report's fields
        # before their first read.  The builder stays, so a second thread
        # that missed them too builds equal ones rather than failing
        build = self.__dict__.get("_build") if name in ("results", "notes") else None
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        results, notes = build()
        self.__dict__.update(results=results, notes=notes)
        return results if name == "results" else notes

    def __getstate__(self) -> dict:
        # the fields alone: never a builder, nor a cached verdict
        return {"title": self.title, "results": self.results, "notes": self.notes}

    @_cached_property
    def all_hold(self) -> bool:
        return all(result.holds for result in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(result for result in self.results if not result.holds)

    def render_text(self) -> str:
        lines = [self.title]
        for result in self.results:
            status = "holds" if result.holds else "FAILS"
            line = f"  {result.check}: {status}"
            if result.note:
                line += f" ({result.note})"
            lines.append(line)
            for witness in result.witnesses:
                lines.append(f"    witness: {witness.render()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        verdict = "pass" if self.all_hold else "fail"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "verdict": "pass" if self.all_hold else "fail",
            "checks": [
                {
                    "check": result.check,
                    "holds": result.holds,
                    "note": result.note,
                    "witnesses": [w.to_json() for w in result.witnesses],
                }
                for result in self.results
            ],
            "notes": list(self.notes),
        }
