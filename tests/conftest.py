import functools
import itertools

import pytest

from filtra.formulas import Atom, Not, Or
from filtra.revision import PlausibilityOrder, RevisionTable
from filtra.worlds import PointSet, Universe, canonical_universe, set_bits, submasks


@pytest.fixture
def u1():
    return canonical_universe(("p",))


@pytest.fixture
def u2():
    return canonical_universe(("p", "q"))


def of_ids(universe, ids):
    """The point set of the named points (KeyError on an unknown id)."""
    position = {point.id: i for i, point in enumerate(universe.points)}
    mask = 0
    for point_id in ids:
        mask |= 1 << position[point_id]
    return PointSet(universe, mask)


def result_of(report, check):
    """The named check's result in a report (KeyError if absent)."""
    for item in report.results:
        if item.check == check:
            return item
    raise KeyError(check)


def permute(perm, mask):
    """``mask`` with each state i moved to position ``perm[i]``."""
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def permuted_universe(universe, perm):
    """``universe`` with each point i moved to position ``perm[i]``."""
    points = [None] * universe.size
    for i, point in enumerate(universe.points):
        points[perm[i]] = point
    return Universe(universe.atoms, tuple(points))


def random_revision_table(rng, universe):
    """An arbitrary total table with a consistent initial theory; it
    makes no attempt to satisfy any postulate."""
    full = universe.full_mask
    initial = rng.randrange(1, full + 1)
    return RevisionTable.from_masks(universe, initial, [rng.randrange(full + 1) for _ in range(full + 1)])


@functools.cache
def ordered_partitions(mask):
    """Every ordered set partition of ``mask``'s bits as a tuple of
    blocks, first blocks in ascending mask order."""
    if mask == 0:
        return ((),)
    return tuple((first, *rest) for first in submasks(mask)[1:] for rest in ordered_partitions(mask & ~first))


def order_of_blocks(universe, blocks):
    """The pre-order ranking block i at rank i."""
    ranks = [0] * universe.size
    for rank, block in enumerate(blocks):
        for i in set_bits(block):
            ranks[i] = rank
    return PlausibilityOrder(universe, tuple(ranks))


def enumerate_preorders(universe):
    """All total pre-orders of the universe's points, each exactly once,
    as ordered set partitions (first block = most plausible)."""
    for blocks in ordered_partitions(universe.full_mask):
        yield order_of_blocks(universe, blocks)


def first_rationalizing_preorder(structure):
    """The exhaustive oracle for ``find_rationalizing_preorder``: the
    first weak order, in ``ordered_partitions`` order, whose lowest
    points reproduce every credible choice, or None."""
    menus = [(menu, structure.f[menu]) for menu in sorted(structure.credible)]
    for blocks in ordered_partitions(structure.universe.full_mask):
        if all(next(menu & block for block in blocks if menu & block) == chosen for menu, chosen in menus):
            return order_of_blocks(structure.universe, blocks)
    return None


def eval_formula(formula, assignment):
    """Independent truth evaluator used as an oracle (no point sets)."""
    if isinstance(formula, Atom):
        return assignment[formula.name]
    if isinstance(formula, Not):
        return not eval_formula(formula.operand, assignment)
    return eval_formula(formula.left, assignment) or eval_formula(formula.right, assignment)


def brute_entails(premises, conclusion, atoms):
    """Truth-table entailment: every assignment satisfying all premises
    satisfies the conclusion."""
    for values in itertools.product((False, True), repeat=len(atoms)):
        assignment = dict(zip(atoms, values))
        if all(eval_formula(p, assignment) for p in premises):
            if not eval_formula(conclusion, assignment):
                return False
    return True


def enumerate_formulas(atoms, max_depth):
    """Every formula AST up to the given depth (oracle-side enumeration)."""
    layers = [[Atom(a) for a in atoms]]
    for _ in range(max_depth):
        previous = [f for layer in layers for f in layer]
        fresh = [Not(f) for f in layers[-1]]
        fresh.extend(Or(left, right) for left in layers[-1] for right in previous)
        fresh.extend(Or(left, right) for left in previous for right in layers[-1])
        # deduplicate while keeping order stable
        seen = set()
        layer = []
        for f in fresh:
            if f not in seen:
                seen.add(f)
                layer.append(f)
        layers.append(layer)
    return [f for layer in layers for f in layer]
