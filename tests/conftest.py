import copy
import dataclasses
import functools
import itertools
import pickle
from collections import Counter

import pytest

from filtra import choice, revision
from filtra.beliefs import BeliefSet
from filtra.choice import ChoiceStructure, CounterModel
from filtra.formulas import Atom, Not, Or
from filtra.reports import _Deferrable
from filtra.revision import (
    Credibility,
    CredibilityLabeling,
    PlausibilityOrder,
    RevisionTable,
    SelectionFunction,
)
from filtra.sampling import _cycled_universe
from filtra.worlds import PointSet, Universe, canonical_universe, set_bits, submasks


@pytest.fixture
def u1():
    return canonical_universe(("p",))


@pytest.fixture
def u2():
    return canonical_universe(("p", "q"))


@pytest.fixture
def made(monkeypatch):
    """Counts what the choice and revision checks make: ids rendered,
    witnesses, point sets, results and counter-models built, and builds
    of a deferred report's or outcome's lazy fields."""
    made = Counter()

    def counting(kind, make):
        def counted(*args):
            made[kind] += 1
            return make(*args)

        return counted

    monkeypatch.setattr(Universe, "render", counting("render", Universe.render))
    for module in (choice, revision):
        for name in ("Witness", "PointSet", "CheckResult"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # counted where it is made, not where it is named: pickle finds
    # CounterModel by its module's name for it
    monkeypatch.setattr(CounterModel, "__init__", counting("CounterModel", CounterModel.__init__))
    deferred = _Deferrable._deferred.__func__
    monkeypatch.setattr(
        _Deferrable,
        "_deferred",
        classmethod(lambda cls, build, **known: deferred(cls, counting("build", build), **known)),
    )
    return made


def assert_same_as_eager(fresh, shared):
    """What ``fresh()`` returns, a report or outcome that may be
    deferred, is the eager instance of its fields: unread, read, and
    through pickle and deepcopy (keeping the objects in ``shared``), to
    ``type``, ``==`` both ways, ``hash`` and ``repr``.  A copy holds no
    builder and no cached value.  Returns the eager instance."""
    read = fresh()
    cls = type(read)
    values = [getattr(read, field.name) for field in dataclasses.fields(read)]
    eager = cls(*values)
    copies = (pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh(), shared))
    for other in copies:
        assert vars(other) == vars(cls(*values))
    # each comparison of an unread instance reads a fresh one
    assert type(fresh()) is cls and fresh() == eager and eager == fresh()
    assert (hash(fresh()), repr(fresh())) == (hash(eager), repr(eager))
    for other in (read, *copies):
        assert type(other) is cls and other == eager and eager == other
        assert (hash(other), repr(other)) == (hash(eager), repr(eager))
    return eager


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


def all_selection_functions(universe):
    """Every selection function over ``universe``, each exactly once."""
    full = universe.full_mask
    for initial_mask in range(1, full + 1):
        initial = BeliefSet(PointSet(universe, initial_mask))
        pinned = {e: e & initial_mask for e in range(1, full + 1) if e & initial_mask}
        free_events = [e for e in range(1, full + 1) if e & initial_mask == 0]
        options = [submasks(event)[1:] for event in free_events]
        for picks in itertools.product(*options):
            yield SelectionFunction(universe, initial, {**pinned, **dict(zip(free_events, picks))})


def all_labelings(universe):
    """Every labeling: each proposition but the empty and the full one
    takes C, A or R (tiny universes only: 3 ** (2^m - 2) of them)."""
    middles = range(1, universe.full_mask)
    for combo in itertools.product(
        (Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED),
        repeat=len(middles),
    ):
        yield CredibilityLabeling.from_overrides(universe, dict(zip(middles, combo)))


def all_revision_tables(universe):
    """Every total table with a consistent initial theory (tiny
    universes only: the count is (2^m) ** (2^m + ...))."""
    full = universe.full_mask
    for initial_mask in range(1, full + 1):
        for picks in itertools.product(range(full + 1), repeat=full + 1):
            yield RevisionTable.from_masks(universe, initial_mask, picks)


def all_choice_structures(atoms=("p",)):
    """Every two-state structure shape: all family assignments for the
    two singleton menus crossed with all choice maps.  Includes shapes
    failing the structural laws; filter with validate_structure."""
    universe = _cycled_universe(tuple(atoms), 2)
    full = universe.full_mask
    for fam0, fam1 in itertools.product(range(4), repeat=2):
        # as random_choice_structure's draws: 0 none, 1 credible, 2 allowable, 3 rejected
        families = (set(), {full}, set(), {0})
        families[fam0].add(1)
        families[fam1].add(2)
        _, credible, allowable, rejected = families
        events = sorted(credible | allowable | rejected)
        for picks in itertools.product(range(full + 1), repeat=len(events)):
            yield ChoiceStructure(
                universe,
                frozenset(credible),
                frozenset(allowable),
                frozenset(rejected),
                dict(zip(events, picks)),
            )


def per_draw_nonempty_submask(rng, mask):
    """The reference for ``sampling._random_nonempty_submask``: the
    submask picked by a nonzero ``rng.randrange`` selector, bit i of the
    selector for the i-th lowest bit of ``mask``."""
    positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
    selector = rng.randrange(1, 1 << len(positions))
    return sum(1 << position for i, position in enumerate(positions) if selector >> i & 1)


def per_draw_selection_function(rng, universe):
    """The reference for ``random_selection_function``: one pass over
    every nonempty E, ascending, drawing S(E) only where E misses I."""
    full = universe.full_mask
    initial_mask = rng.randrange(1, full + 1)
    choice = {}
    for event in range(1, full + 1):
        overlap = event & initial_mask
        choice[event] = overlap if overlap else per_draw_nonempty_submask(rng, event)
    return SelectionFunction(universe, BeliefSet(PointSet(universe, initial_mask)), choice)


def per_draw_labeling(rng, universe):
    """The reference for ``random_labeling``: one ``rng.choice`` per
    proposition but the empty and the full one, ascending."""
    labels = (Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED)
    draws = {mask: rng.choice(labels) for mask in range(1, universe.full_mask)}
    return CredibilityLabeling.from_overrides(universe, draws)


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
