"""Belief sets: deductively closed theories represented by their models.

A BeliefSet stores the set of points at which every member formula is
true; a formula belongs to the theory iff that point set is contained
in its truth set.  Deductive closure is therefore automatic, and the
empty point set represents the absurd theory containing every formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import Formula
from .worlds import PointSet, Universe, truth_set


@dataclass(frozen=True)
class BeliefSet:
    points: PointSet

    @property
    def universe(self) -> Universe:
        return self.points.universe

    @property
    def is_consistent(self) -> bool:
        return bool(self.points)

    @classmethod
    def absurd(cls, universe: Universe) -> "BeliefSet":
        """The inconsistent theory of every formula (no models)."""
        return cls(PointSet.empty(universe))

    def contains(self, formula: Formula) -> bool:
        return self.points <= truth_set(formula, self.universe)

    def expand(self, formula: Formula) -> "BeliefSet":
        """Add ``formula`` and close under consequence (no retraction).
        Kept as API: AGM expansion, the subject of acceptance criterion 5."""
        return BeliefSet(self.points & truth_set(formula, self.universe))
