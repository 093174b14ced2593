"""Verdict reports shared by all checkers.

A report is a flat list of named checks, each holding or failing with
witnesses.  A witness names the offending point set(s) and, when one
exists, a representative formula, so a failure can be replayed against
the checker in isolation.  Rendering is deterministic: fixed ordering,
ASCII only.

A checker may decide its verdict from bare masks and return a deferred
report: its witnesses, details and notes are made on the first read of
its results or notes, so a caller that reads only ``all_hold`` pays for
none of them.  The one helper behind it, ``_Deferrable``, serves any
frozen dataclass; the brute-force oracle's outcome uses it too, for its
counter-model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar

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


class _Deferrable:
    """Base of a frozen dataclass whose fields named in ``_LAZY`` may be
    made on first read.

    ``cls._deferred(build, **known)`` makes an instance holding the
    ``known`` attributes (the other fields, and any cached property's
    value) and ``build``; the first read of any lazy field calls
    ``build()``, which returns every lazy field's value in ``_LAZY``
    order.  Pickle and deepcopy see the fields alone, so a copy is the
    eagerly made instance.  A lazy field may have no default on the
    class, where it would hide the missing attribute: a class giving it
    one does so in its own ``__init__``.
    """

    _LAZY: ClassVar[tuple[str, ...]] = ()

    @classmethod
    def _deferred(cls, build: Callable[[], tuple], **known: Any):
        instance = cls.__new__(cls)
        instance.__dict__.update(known, _build=build)
        return instance

    def __getattr__(self, name: str):
        # reached only for a missing attribute: a deferred instance's lazy
        # fields before their first read.  The builder stays, so a second
        # thread that missed them too builds equal ones rather than failing
        build = self.__dict__.get("_build") if name in self._LAZY else None
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = dict(zip(self._LAZY, build()))
        self.__dict__.update(values)
        return values[name]

    def __getstate__(self) -> dict:
        # the fields alone: never a builder, nor a cached value
        return {field.name: getattr(self, field.name) for field in fields(self)}


@dataclass(frozen=True, init=False)
class CheckReport(_Deferrable):
    """A titled list of results and notes.  A deferred report
    (``_deferred(build, title=..., all_hold=...)``) stores its verdict
    and makes its results and notes with one ``build()``."""

    title: str
    results: tuple[CheckResult, ...]
    notes: tuple[str, ...]

    _LAZY = ("results", "notes")

    def __init__(self, title: str, results: tuple[CheckResult, ...], notes: tuple[str, ...] = ()):
        # notes' default lives here, not on the class, so that a deferred
        # report's missing notes reach __getattr__
        self.__dict__.update(title=title, results=results, notes=notes)

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
