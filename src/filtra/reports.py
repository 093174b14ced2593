"""Verdict reports shared by all checkers.

A report is a flat list of named checks, each holding or failing with
witnesses.  A witness names the offending point set(s) and, when one
exists, a representative formula, so a failure can be replayed against
the checker in isolation.  Rendering is deterministic: fixed ordering,
ASCII only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

from .worlds import PointSet, dnf_of


@dataclass(frozen=True)
class Witness:
    names: tuple[str, ...]
    point_sets: tuple[PointSet, ...]
    detail: str = ""

    @classmethod
    def of(cls, pairs: Sequence[tuple[str, PointSet]], detail: str = "") -> "Witness":
        names = tuple(name for name, _ in pairs)
        sets = tuple(ps for _, ps in pairs)
        return cls(names, sets, detail)

    @functools.cached_property
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


@dataclass(frozen=True)
class CheckReport:
    title: str
    results: tuple[CheckResult, ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def all_hold(self) -> bool:
        return all(result.holds for result in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(result for result in self.results if not result.holds)

    def result(self, check: str) -> CheckResult:
        for item in self.results:
            if item.check == check:
                return item
        raise KeyError(check)

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
