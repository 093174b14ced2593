import gc
import itertools
import math
import re
import sys
import tracemalloc
from array import array
from collections.abc import KeysView
from random import Random
from types import SimpleNamespace

import pytest

from filtra import revision
from filtra.beliefs import BeliefSet
from filtra.choice import build_model, extension_oracle
from filtra.formulas import parse_formula
from filtra.reports import CheckReport, CheckResult, Witness
from filtra.revision import (
    Credibility,
    CredibilityLabeling,
    PlausibilityOrder,
    RevisionTable,
    SelectionError,
    SelectionFunction,
    agm_holds_at,
    build_filtered,
    check_agm,
    check_filtered,
    filter_holds_at,
    recover_basic,
    revision_from_preorder,
    revision_from_selection,
)
from filtra.revision import (
    _agm78_failure_counts,
    _agm_failures,
    _agm_mask_holds,
    _containment,
    _layout,
    _pack,
    _transpose,
    _untranspose,
)
from filtra.sampling import random_labeling, random_plausibility_order, random_selection_function
from filtra.scenario import Scenario, detective_scenario, dumps, loads
from filtra.worlds import (
    PointSet,
    Universe,
    UniverseMismatchError,
    canonical_universe,
    submasks,
)

from conftest import all_revision_tables, enumerate_preorders, of_ids, random_revision_table, result_of

ATOMS = ("p", "q")

# canonical {p,q}: w0 = neither, w1 = q only, w2 = p only, w3 = both


def word_universe(size):
    """A universe of ``size`` states over four atoms; state i makes the
    atoms of i's set bits true."""
    atoms = ("p", "q", "r", "s")
    return Universe.from_assignments(
        atoms,
        [(f"s{i}", {a: bool(i >> k & 1) for k, a in enumerate(atoms)}) for i in range(size)],
    )


def spec_order(u2):
    # most plausible: both true; then p only; then q only; then neither
    return PlausibilityOrder.from_ranks(u2, {"w3": 0, "w2": 1, "w1": 2, "w0": 3})


def brute_min(order, ids):
    """Independent minimum: sort by rank, keep the ties at the front."""
    rank = {point.id: r for point, r in zip(order.universe.points, order.ranks)}
    ranked = sorted((rank[i], i) for i in ids)
    if not ranked:
        return set()
    best = ranked[0][0]
    return {i for rank, i in ranked if rank == best}


class TestPlausibilityOrder:
    def test_ranks_normalized(self, u2):
        order = PlausibilityOrder.from_ranks(u2, {"w0": 10, "w1": 10, "w2": 0, "w3": 99})
        assert order.ranks == (1, 1, 0, 2)

    def test_contiguity_enforced(self, u2):
        with pytest.raises(ValueError):
            PlausibilityOrder(u2, (0, 2, 2, 0))

    def test_levels(self, u2):
        order = spec_order(u2)
        assert [level.ids for level in order.level_sets()] == [
            ("w3",),
            ("w2",),
            ("w1",),
            ("w0",),
        ]

    def test_most_plausible_matches_brute_min(self, u2):
        rng = Random(0)
        for _ in range(100):
            order = random_plausibility_order(rng, u2)
            for mask in range(u2.full_mask + 1):
                ps = PointSet(u2, mask)
                assert set(order.most_plausible(ps).ids) == brute_min(order, ps.ids)


class TestPreorderRevision:
    def test_revise_by_not_p(self, u2):
        table = revision_from_preorder(spec_order(u2))
        entry = table.revise(parse_formula("~p", ATOMS))
        # most plausible ~p-world is w1 (q only), so q is believed
        assert entry.points.ids == ("w1",)
        assert entry.contains(parse_formula("q", ATOMS))

    def test_revise_by_everything_returns_initial(self, u2):
        table = revision_from_preorder(spec_order(u2))
        assert table.entry(PointSet.full(u2)) == table.initial

    def test_revise_by_contradiction_is_absurd(self, u2):
        table = revision_from_preorder(spec_order(u2))
        assert table.entry(PointSet.empty(u2)) == BeliefSet.absurd(u2)

    def test_preorder_tables_pass_all_postulates(self, u2):
        rng = Random(1)
        for _ in range(25):
            table = revision_from_preorder(random_plausibility_order(rng, u2))
            assert check_agm(table).all_hold


class TestSelectionRevision:
    def test_matches_preorder_construction(self, u2):
        order = spec_order(u2)
        choice = {
            mask: order.most_plausible(PointSet(u2, mask)).mask
            for mask in range(1, u2.full_mask + 1)
        }
        selection = SelectionFunction(
            u2, BeliefSet(order.most_plausible(PointSet.full(u2))), choice
        )
        assert revision_from_selection(selection) == revision_from_preorder(order)

    def test_drastic_selection_passes_basic_postulates(self, u2):
        # with everything initially possible, choosing the whole menu is legal
        initial = BeliefSet(PointSet.full(u2))
        choice = {mask: mask for mask in range(1, u2.full_mask + 1)}
        table = revision_from_selection(SelectionFunction(u2, initial, choice))
        assert check_agm(table, (1, 2, 3, 4, 5, 6)).all_hold

    def test_selection_outside_menu_rejected(self, u2):
        choice = {mask: mask for mask in range(1, u2.full_mask + 1)}
        choice[1] = 2  # S(E) not a subset of E
        with pytest.raises(SelectionError):
            SelectionFunction(u2, BeliefSet(PointSet.full(u2)), choice)

    def test_overlap_rule_enforced(self, u2):
        initial = BeliefSet(of_ids(u2, ["w0"]))
        choice = {mask: mask for mask in range(1, u2.full_mask + 1)}
        with pytest.raises(SelectionError):
            SelectionFunction(u2, initial, choice)

    def test_the_table_is_packed_once(self, u2):
        selection = random_selection_function(Random(3), u2)
        assert revision_from_selection(selection) is revision_from_selection(selection)

    def test_the_table_shares_the_initial_theory(self, u2):
        # S(I) = I, so the entry at I is the selection's own initial theory
        for seed in range(5):
            selection = random_selection_function(Random(seed), u2)
            table = revision_from_selection(selection)
            assert table.initial is selection.initial
            assert table.entries[selection.initial.points.mask] is selection.initial


def naive_selection_error(universe, initial, choice):
    """SelectionFunction's invariant check as it was, one event at a
    time in ascending order: the error it raised, or None."""
    initial_mask = initial.points.mask
    try:
        for event in range(1, universe.full_mask + 1):
            selected = choice[event]
            if selected == 0:
                raise SelectionError("S(E) must be nonempty", PointSet(universe, event))
            if selected & ~event:
                raise SelectionError("S(E) must be a subset of E", PointSet(universe, event))
            overlap = event & initial_mask
            if overlap and selected != overlap:
                raise SelectionError(
                    "S(E) must equal E & initial when they overlap", PointSet(universe, event)
                )
    except (SelectionError, TypeError) as exc:
        return exc
    return None


def selection_error(universe, initial, choice):
    try:
        SelectionFunction(universe, initial, choice)
    except (SelectionError, TypeError) as exc:
        return exc
    return None


def assert_same_error(got, want):
    """Same exception type, message and event (or both None)."""
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert getattr(got, "event", None) == getattr(want, "event", None)


class TestSelectionInvariants:
    """The invariants are checked once, on the packed table; the
    per-event loop they replaced is the reference."""

    def test_every_choice_at_one_atom_fails_as_the_loop_did(self, u1):
        full = u1.full_mask
        values = range(-1, full + 2)
        for initial_mask in range(1, full + 1):
            initial = BeliefSet(PointSet(u1, initial_mask))
            for picks in itertools.product(values, repeat=full):
                choice = dict(zip(range(1, full + 1), picks))
                want = naive_selection_error(u1, initial, choice)
                assert_same_error(selection_error(u1, initial, choice), want)

    def test_seeded_choices_at_two_atoms_fail_as_the_loop_did(self, u2):
        rng = Random(11)
        full = u2.full_mask
        values = [*range(-1, full + 2), 1 << 64, -(1 << 70)]
        seen = set()
        for _ in range(4000):
            selection = random_selection_function(rng, u2)
            choice = dict(selection.choice)
            for event in rng.sample(range(1, full + 1), rng.randrange(3)):
                choice[event] = rng.choice(values)
            want = naive_selection_error(u2, selection.initial, choice)
            assert_same_error(selection_error(u2, selection.initial, choice), want)
            seen.add(str(want).partition(" at ")[0])
        assert len(seen) == 4  # every invariant failed, and some choices passed

    @pytest.mark.parametrize("value", ["w0", 1.0, None])
    def test_a_non_int_value_raises_type_error(self, u2, value):
        selection = random_selection_function(Random(5), u2)
        choice = {**selection.choice, 6: value}
        want = naive_selection_error(u2, selection.initial, choice)
        assert isinstance(want, TypeError)
        assert_same_error(selection_error(u2, selection.initial, choice), want)

    def test_packed_choices_fail_as_mappings_do(self, u2):
        # the packed front door: every S(E) given as a free value, each
        # within the array's word but not always within the universe
        rng = Random(12)
        full = u2.full_mask
        seen = set()
        for _ in range(2000):
            selection = random_selection_function(rng, u2)
            choice = dict(selection.choice)
            for event in rng.sample(range(1, full + 1), rng.randrange(3)):
                choice[event] = rng.choice([*range(full + 2), 255])
            initial_mask = selection.initial.points.mask
            try:
                packed = SelectionFunction._pinned(u2, initial_mask, choice)
            except SelectionError as exc:
                packed = exc
            want = selection_error(u2, selection.initial, choice)
            if want is None:
                reference = SelectionFunction(u2, selection.initial, choice)
                assert (packed.initial, packed.choice) == (reference.initial, reference.choice)
            else:
                assert_same_error(packed, want)
            seen.add(str(want).partition(" at ")[0])
        assert len(seen) == 4  # every invariant failed, and some choices passed

    def test_cover_is_checked_first(self, u1):
        initial = BeliefSet(PointSet(u1, 1))
        for choice in ({1: 1, 2: 2}, {1: 1, 2: 2, 3: 1, 4: 0}, {1: 1, 2: 2, "3": 1}):
            with pytest.raises(SelectionError, match="^choice must cover every nonempty"):
                SelectionFunction(u1, initial, choice)


def independent_agm_simulation(table, postulate, e_ids, f_ids=None):
    """Hand simulation over id sets, sharing nothing with the checker."""
    universe = table.universe
    all_ids = {point.id for point in universe.points}
    initial = set(table.initial.points.ids)

    def entry(ids):
        return set(table.entries[of_ids(universe, ids).mask].points.ids)

    e = set(e_ids)
    if postulate == 2:
        return not e or entry(e) <= e
    if postulate == 3:
        return (e & initial) <= entry(e)
    if postulate == 4:
        return not (e & initial) or entry(e) <= (e & initial)
    if postulate == 5:
        return (entry(e) == set()) == (e == set())
    if postulate == 7:
        f = set(f_ids)
        return (entry(e) & f) <= entry(e & f)
    if postulate == 8:
        f = set(f_ids)
        return not (entry(e) & f) or entry(e & f) <= (entry(e) & f)
    raise AssertionError(postulate)


def _table(u):
    return revision_from_preorder(PlausibilityOrder(u, tuple(range(u.size))))


def _theory(u, mask):
    return BeliefSet(PointSet(u, mask))


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [
        (lambda u1, u2: PlausibilityOrder(u2, (0, 1)), ValueError, "one rank per point required"),
        # before the range test, where {1.0, 0.0} == {True, False} == {0, 1}
        (lambda u1, u2: PlausibilityOrder(u1, (1.0, 0.0)), ValueError, "rank 1.0 is not an int"),
        (lambda u1, u2: PlausibilityOrder(u1, (True, False)), ValueError, "rank True is not an int"),
        (lambda u1, u2: PlausibilityOrder(u1, ("1", "0")), ValueError, "rank '1' is not an int"),
        (
            lambda u1, u2: spec_order(u2).most_plausible(PointSet(u1, 1)),
            UniverseMismatchError,
            "point set over a different universe",
        ),
        (
            lambda u1, u2: SelectionFunction(u2, _theory(u1, 1), {}),
            UniverseMismatchError,
            "initial beliefs over a different universe",
        ),
        (lambda u1, u2: SelectionFunction(u2, _theory(u2, 0), {}), SelectionError, "initial beliefs must be consistent"),
        (
            lambda u1, u2: RevisionTable(u2, _theory(u1, 1), {}),
            UniverseMismatchError,
            "initial beliefs over a different universe",
        ),
        (lambda u1, u2: RevisionTable(u2, _theory(u2, 0), {}), ValueError, "initial beliefs must be consistent"),
        (
            # an entry view of the same size over other atoms
            lambda u1, u2: RevisionTable(u2, _theory(u2, 1), _table(canonical_universe(("p", "r"))).entries),
            UniverseMismatchError,
            "entry belief set over a different universe",
        ),
        (
            # the first foreign entry of a caller's mapping
            lambda u1, u2: RevisionTable(
                u1, _theory(u1, 1), dict.fromkeys(range(4), _theory(u1, 1)) | {2: _theory(u2, 1)}
            ),
            UniverseMismatchError,
            "entry belief set over a different universe",
        ),
        (lambda u1, u2: _table(u2).entry(PointSet(u1, 1)), UniverseMismatchError, "proposition over a different universe"),
        (
            lambda u1, u2: agm_holds_at(_table(u2), 1, PointSet(u1, 1)),
            UniverseMismatchError,
            "proposition over a different universe",
        ),
        (
            lambda u1, u2: agm_holds_at(_table(u2), 7, PointSet(u2, 1), PointSet(u1, 1)),
            UniverseMismatchError,
            "proposition over a different universe",
        ),
        (
            lambda u1, u2: filter_holds_at(_table(u2), CredibilityLabeling.all_credible(u1), "F1", PointSet(u2, 1)),
            UniverseMismatchError,
            "labeling over a different universe",
        ),
        (
            lambda u1, u2: filter_holds_at(_table(u2), CredibilityLabeling.all_credible(u2), "F1", PointSet(u1, 1)),
            UniverseMismatchError,
            "proposition over a different universe",
        ),
        (lambda u1, u2: check_agm(_table(u2), ()), ValueError, "postulates must be a nonempty subset of 1..8, got []"),
        (lambda u1, u2: check_agm(_table(u2), (0, 9)), ValueError, "postulates must be a nonempty subset of 1..8, got [0, 9]"),
        *(
            (
                lambda u1, u2, check=check: check(_table(u2), CredibilityLabeling.all_credible(u1)),
                UniverseMismatchError,
                "labeling over a different universe",
            )
            for check in (check_filtered, build_filtered, recover_basic)
        ),
    ],
    ids=[
        "rank-count", "rank-float", "rank-bool", "rank-str", "plausible-among", "selection-universe",
        "selection-inconsistent", "table-universe", "table-inconsistent", "entries-view-universe",
        "entry-belief-universe", "entry-universe", "agm-at-e-universe", "agm-at-f-universe",
        "filter-at-labeling", "filter-at-proposition", "no-postulates", "unknown-postulates",
        "check-filtered-labeling", "build-filtered-labeling", "recover-basic-labeling",
    ],  # fmt: skip
)
def test_every_documented_refusal_is_raised(u1, u2, call, error, message):
    with pytest.raises(error) as raised:
        call(u1, u2)
    assert type(raised.value) is error and str(raised.value) == message


class TestAgmChecker:
    def test_constructed_supplementary_failure(self, u2):
        # initial disjoint from the menus, so both selections are free;
        # picking them incoherently breaks the conjunction postulates
        initial = BeliefSet(of_ids(u2, ["w3"]))
        choice = {}
        for mask in range(1, u2.full_mask + 1):
            choice[mask] = mask & 8 if mask & 8 else (mask & -mask)
        choice[of_ids(u2, ["w1", "w2"]).mask] = of_ids(u2, ["w2"]).mask
        choice[of_ids(u2, ["w0", "w1", "w2"]).mask] = of_ids(u2, ["w1"]).mask
        table = revision_from_selection(SelectionFunction(u2, initial, choice))
        report = check_agm(table)
        assert check_agm(table, (1, 2, 3, 4, 5, 6)).all_hold
        failed = {result.check for result in report.failures()}
        assert failed & {"AGM7", "AGM8"}
        # every reported witness re-verifies through the public
        # single-instance predicate and an independent simulation
        for result in report.failures():
            postulate = int(result.check[-1])
            for witness in result.witnesses:
                sets = dict(zip(witness.names, witness.point_sets))
                assert not agm_holds_at(table, postulate, sets["E"], sets.get("F"))
                assert not independent_agm_simulation(
                    table, postulate, sets["E"].ids, sets["F"].ids if "F" in sets else None
                )

    @pytest.mark.parametrize(
        "postulate,message",
        [
            (0, "unknown postulate 0"),
            (9, "unknown postulate 9"),
            # 2.0 was answered as postulate 2, True as postulate 1
            (2.0, "unknown postulate 2.0"),
            (7.0, "unknown postulate 7.0"),
            (True, "unknown postulate True"),
            ("2", "unknown postulate '2'"),
            (7, "postulate 7 needs a pair"),
            (8, "postulate 8 needs a pair"),
        ],
    )
    def test_agm_holds_at_refuses_a_bad_request(self, u2, postulate, message):
        table = revision_from_preorder(spec_order(u2))
        with pytest.raises(ValueError, match=message):
            agm_holds_at(table, postulate, PointSet(u2, 1))

    @pytest.mark.parametrize("postulates", [(2.0,), (7.0,), (True,), (1, True), (2, None), ("2",)])
    def test_check_agm_refuses_postulates_that_are_no_ints(self, u2, postulates):
        # 2.0 == 2 and True == 1, yet neither names a postulate: (2.0,)
        # raised KeyError, and (True,) and (7.0,) named results AGMTrue
        # and AGM7.0
        table = revision_from_preorder(spec_order(u2))
        with pytest.raises(ValueError) as raised:
            check_agm(table, postulates)
        assert str(raised.value) == f"postulates must be a nonempty subset of 1..8, got {list(postulates)}"

    def test_agm_holds_at_refuses_another_universe(self, u1, u2):
        # as RevisionTable.entry refuses it; the first call answered True
        table = revision_from_selection(random_selection_function(Random(8), u2))
        requests = (
            (2, PointSet(u1, 3), None),
            (7, PointSet(u1, 1), PointSet(u2, 1)),
            (8, PointSet(u2, 1), PointSet(u1, 1)),
        )
        for postulate, e, f in requests:
            with pytest.raises(UniverseMismatchError, match="^proposition over a different universe$"):
                agm_holds_at(table, postulate, e, f)

    def test_mutated_entry_breaks_success_postulate(self, u2):
        table = revision_from_preorder(spec_order(u2))
        entries = dict(table.entries)
        target = of_ids(u2, ["w0"]).mask
        entries[target] = BeliefSet(of_ids(u2, ["w3"]))  # outside E
        mutated = RevisionTable(u2, table.initial, entries)
        report = check_agm(mutated, (2,))
        assert not report.all_hold
        witness = result_of(report, "AGM2").witnesses[0]
        assert witness.point_sets[0].mask == target

    def test_random_tables_agree_with_simulation(self, u2):
        rng = Random(2)
        for _ in range(40):
            table = revision_from_selection(random_selection_function(rng, u2))
            report = check_agm(table)
            # the basic postulates hold for every selection table
            assert check_agm(table, (1, 2, 3, 4, 5, 6)).all_hold
            for result in report.results:
                if result.check in ("AGM1", "AGM6"):
                    continue
                postulate = int(result.check[-1])
                masks = range(u2.full_mask + 1)
                if postulate in (7, 8):
                    simulated = all(
                        independent_agm_simulation(
                            table, postulate, PointSet(u2, e).ids, PointSet(u2, f).ids
                        )
                        for e in masks
                        for f in masks
                    )
                else:
                    simulated = all(
                        independent_agm_simulation(table, postulate, PointSet(u2, e).ids)
                        for e in masks
                    )
                assert result.holds == simulated


def pair_scan(table, postulate):
    """Reference oracle for AGM7/8: every pair (E, F) through the public
    single-pair predicate, in ascending (E, F) order, 4^m evaluations."""
    sets = [PointSet(table.universe, mask) for mask in range(table.universe.full_mask + 1)]
    return [
        (e.mask, f.mask)
        for e in sets
        for f in sets
        if not agm_holds_at(table, postulate, e, f)
    ]


BY_REPRESENTATION = {
    1: "by representation: entries are deductively closed point-set theories",
    6: "by representation: entries are keyed by truth sets",
}


def reference_agm_report(table, postulates=range(1, 9)):
    """check_agm's report at the specification level: AGM1 and AGM6 hold
    by representation, AGM2-5 take one predicate call per proposition,
    AGM7/8 the pair scan; witnesses are the first five failures in
    ascending order, the exact count in the note."""
    universe = table.universe
    initial = table.initial.points.mask
    results = []
    for postulate in postulates:
        name = f"AGM{postulate}"
        if postulate in BY_REPRESENTATION:
            results.append(CheckResult(name, True, note=BY_REPRESENTATION[postulate]))
            continue
        if postulate in (7, 8):
            failing, unit = pair_scan(table, postulate), "pairs"
        else:
            props = range(universe.full_mask + 1)
            failing = [(e,) for e in props if not _agm_mask_holds(table._masks, initial, postulate, e)]
            unit = "propositions"
        witnesses = tuple(
            Witness(("E", "F")[: len(masks)], tuple(PointSet(universe, mask) for mask in masks))
            for masks in failing[:5]
        )
        note = f"{len(failing)} failing {unit}" if len(failing) > 5 else ""
        results.append(CheckResult(name, not failing, witnesses, note))
    return CheckReport("AGM postulates", tuple(results))


def seeded_tables(n_atoms, per_kind, seed):
    """Pre-order tables (AGM1-8 hold), selection tables (AGM1-6 hold)
    and arbitrary tables (AGM2 and more fail), drawn from one seed."""
    universe = canonical_universe(("p", "q", "r")[:n_atoms])
    full = universe.full_mask
    rng = Random(seed)
    for _ in range(per_kind):
        yield "preorder", revision_from_preorder(random_plausibility_order(rng, universe))
        yield "selection", revision_from_selection(random_selection_function(rng, universe))
        entries = {
            mask: BeliefSet(PointSet(universe, rng.randrange(full + 1))) for mask in range(full + 1)
        }
        initial = BeliefSet(PointSet(universe, rng.randrange(1, full + 1)))
        yield "arbitrary", RevisionTable(universe, initial, entries)


class TestAgmSupplementaryOracle:
    """check_agm decides AGM7/8 per (E, G = E & F) in closed form; the
    pair scan over all (E, F) is its reference at up to 3 atoms."""

    @pytest.mark.parametrize("n_atoms,per_kind", [(1, 40), (2, 12), (3, 2)])
    def test_matches_pair_scan(self, n_atoms, per_kind):
        noted = set()
        for kind, table in seeded_tables(n_atoms, per_kind, seed=30 + n_atoms):
            report = check_agm(table)
            counts = _agm78_failure_counts(table, {7, 8})
            for postulate in (7, 8):
                failing = pair_scan(table, postulate)
                result = result_of(report, f"AGM{postulate}")
                assert result.holds == (not failing)
                per_event = [0] * (table.universe.full_mask + 1)
                for e, _ in failing:
                    per_event[e] += 1
                assert counts[postulate] == per_event
                expected_note = f"{len(failing)} failing pairs" if len(failing) > 5 else ""
                assert result.note == expected_note
                pairs = [(w.point_sets[0].mask, w.point_sets[1].mask) for w in result.witnesses]
                assert pairs == failing[:5]
                for witness in result.witnesses:
                    assert not agm_holds_at(table, postulate, *witness.point_sets)
                if result.note:
                    noted.add(kind)
                if kind == "preorder":
                    assert result.holds
        assert noted  # some case fails more than five times, so the note shows

    @pytest.mark.parametrize("n_atoms,per_kind", [(1, 20), (2, 6), (3, 2)])
    def test_each_postulate_alone_reports_as_in_the_full_report(self, n_atoms, per_kind):
        # pre-order, selection, arbitrary and built tables; only the
        # requested postulate's pairs are counted
        rng = Random(40 + n_atoms)
        tables = [table for _, table in seeded_tables(n_atoms, per_kind, seed=50 + n_atoms)]
        tables += [build_filtered(table, random_labeling(rng, table.universe)) for table in tables[1::3]]
        for table in tables:
            report = check_agm(table)
            both = _agm78_failure_counts(table, {7, 8})
            for postulate, other in ((7, 8), (8, 7)):
                assert check_agm(table, (postulate,)).results == (result_of(report, f"AGM{postulate}"),)
                alone = _agm78_failure_counts(table, {postulate})
                assert alone[postulate] == both[postulate]
                assert not any(alone[other])

    def test_single_postulate_requests(self):
        universe = canonical_universe(("p", "q", "r"))
        table = revision_from_selection(random_selection_function(Random(1), universe))
        both = check_agm(table, (7, 8))
        assert not any(result.holds for result in both.results)
        assert check_agm(table, (7,)).results == both.results[:1]
        assert check_agm(table, (8,)).results == both.results[1:]

    def test_four_atom_preorder_table_passes_every_postulate(self):
        # Grove / Katsuno-Mendelzon: a pre-order (faithful assignment)
        # table satisfies AGM1-8; 65,536 propositions, 4^16 pairs
        universe = canonical_universe(("p", "q", "r", "s"))
        table = revision_from_preorder(random_plausibility_order(Random(4), universe))
        report = check_agm(table)
        assert report.all_hold
        assert all(not result.witnesses for result in report.results)
        assert result_of(report, "AGM7").note == result_of(report, "AGM8").note == ""


def rank_loop_min(order, mask):
    """The per-point rank loop most_plausible ran before the level scan."""
    best, out = None, 0
    for i in range(order.universe.size):
        if mask >> i & 1:
            rank = order.ranks[i]
            if best is None or rank < best:
                best, out = rank, 1 << i
            elif rank == best:
                out |= 1 << i
    return out


def naive_preorder_table(order):
    """revision_from_preorder as it was: one PointSet and one BeliefSet
    per proposition, through most_plausible."""
    u = order.universe
    entries = {
        mask: BeliefSet(order.most_plausible(PointSet(u, mask))) for mask in range(u.full_mask + 1)
    }
    return RevisionTable(u, BeliefSet(order.most_plausible(PointSet.full(u))), entries)


def naive_selection_table(selection):
    """revision_from_selection as it was: entries wrapped from the
    choice dict one by one."""
    u = selection.universe
    entries = {0: BeliefSet.absurd(u)}
    for mask in range(1, u.full_mask + 1):
        entries[mask] = BeliefSet(PointSet(u, selection.choice[mask]))
    return RevisionTable(u, selection.initial, entries)


def assert_entries_shared(table):
    """Equal entries are one object: as many objects as distinct masks;
    and the table's storage is one packed array of the entry masks."""
    beliefs = table.entries.values()
    assert len({id(belief) for belief in beliefs}) == len({b.points.mask for b in beliefs})
    assert type(table._masks) is array
    assert table._masks.typecode == _layout(table.universe.size)[0]
    assert table._masks.tolist() == [belief.points.mask for belief in beliefs]


class TestMaskConstructors:
    """revision_from_preorder and revision_from_selection compute masks
    and wrap each distinct one once; the per-proposition constructions
    they replaced are the reference."""

    @pytest.mark.parametrize("n_atoms,draws", [(1, 12), (2, 12), (3, 4), (4, 1)])
    def test_tables_equal_the_naive_constructions(self, n_atoms, draws):
        universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
        rng = Random(60 + n_atoms)
        for _ in range(draws):
            order = random_plausibility_order(rng, universe)
            for mask in range(universe.full_mask + 1):
                got = order.most_plausible(PointSet(universe, mask)).mask
                assert got == rank_loop_min(order, mask)
            table = revision_from_preorder(order)
            assert table == naive_preorder_table(order)
            assert_entries_shared(table)
            selection = random_selection_function(rng, universe)
            table = revision_from_selection(selection)
            assert table == naive_selection_table(selection)
            assert_entries_shared(table)

    def test_every_table_producer_shares_equal_entries(self, u1, u2):
        rng = Random(8)
        assert_entries_shared(random_revision_table(rng, u2))
        for table in all_revision_tables(u1):
            assert_entries_shared(table)
        labeling = random_labeling(rng, u2)
        star = revision_from_selection(random_selection_function(rng, u2))
        filtered = build_filtered(star, labeling)
        assert_entries_shared(filtered)
        assert_entries_shared(recover_basic(filtered, labeling).basic)
        loaded = loads(dumps(Scenario(u2.atoms, u2, table=filtered))).table
        assert loaded == filtered
        assert_entries_shared(loaded)
        model = build_model(detective_scenario().require_structure())
        certificate = extension_oracle(model).certificate
        assert_entries_shared(certificate.basic)
        assert_entries_shared(certificate.revision)

    @pytest.mark.parametrize("n_atoms,draws", [(1, 0), (2, 0), (3, 6), (4, 2)])
    def test_preorder_tables_equal_the_naive_construction(self, n_atoms, draws):
        # every pre-order on 2 and 4 points, seeded ones on 8 and 16
        universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
        if draws:
            rng = Random(70 + n_atoms)
            orders = [random_plausibility_order(rng, universe) for _ in range(draws)]
            orders.append(PlausibilityOrder(universe, (0,) * universe.size))
        else:
            orders = list(enumerate_preorders(universe))
        for order in orders:
            table = revision_from_preorder(order)
            assert table == naive_preorder_table(order)
            assert_entries_shared(table)

    def test_from_masks_keeps_the_table_checks(self, u2):
        with pytest.raises(ValueError, match="cover every proposition"):
            RevisionTable.from_masks(u2, 1, [0] * u2.full_mask)
        with pytest.raises(ValueError, match="out of range"):
            RevisionTable.from_masks(u2, 1, [0] * u2.full_mask + [u2.full_mask + 1])
        with pytest.raises(ValueError, match="mask -0x1 out of range"):
            RevisionTable.from_masks(u2, 1, [-1] + [0] * u2.full_mask)
        with pytest.raises(ValueError, match="consistent"):
            RevisionTable.from_masks(u2, 0, [0] * (u2.full_mask + 1))

    @pytest.mark.parametrize("size", [3, 9, 16])
    def test_from_masks_checks_the_range_at_every_word_width(self, size):
        # the word (B at 3 states, H at 9) is wider than the universe, so
        # a too-high mask fits it; at 16 states the word is full
        universe = word_universe(size)
        full = universe.full_mask
        masks = [(e * 5 + 3) & full for e in range(full + 1)]
        assert RevisionTable.from_masks(universe, 1, masks)._masks.tolist() == masks
        too_high = (full + 1, f"{full + 1:#x}"), (1 << 70, f"{1 << 70:#x}")
        for bad, shown in (*too_high, (-1, "-0x1"), (1.5, "1.5"), ("3", "'3'")):
            broken = masks.copy()
            broken[full // 2] = bad
            broken[full // 2 + 1] = full + 2  # reported is the first offender
            message = f"^mask {re.escape(shown)} out of range for universe$"
            with pytest.raises(ValueError, match=message):
                RevisionTable.from_masks(universe, 1, broken)


class TestEntriesView:
    """``RevisionTable.entries`` is a read-only view over the mask tuple
    that keeps the contract of the dict it replaced."""

    def test_keeps_the_dict_contract(self, u2):
        table = revision_from_preorder(spec_order(u2))
        view = table.entries
        assert len(view) == 16
        assert list(view) == list(range(16))
        assert list(view.keys()) == list(range(16))
        assert view.keys() == set(range(16))
        assert [entry.points.mask for entry in view.values()] == list(table._masks)
        assert 15 in view and -1 not in view and 16 not in view and "1" not in view
        # a bare tuple index would wrap -1 to the last entry
        for key in (-1, 16, 1 << 20, "1", None, 1.5):
            with pytest.raises(KeyError):
                view[key]
        assert view.get(-1) is None
        assert view[3] is view[3]
        assert view[15] is table.initial

    def test_compares_with_views_and_dicts(self, u1, u2):
        rng = Random(12)
        for table in [*all_revision_tables(u1), random_revision_table(rng, u2)]:
            copy = dict(table.entries)
            assert table.entries == copy and copy == table.entries
            rebuilt = RevisionTable(table.universe, table.initial, copy)
            assert rebuilt == table
            assert rebuilt.entries == table.entries
            assert_entries_shared(rebuilt)
        other = dict(copy)
        other[5] = BeliefSet(PointSet(u2, copy[5].points.mask ^ 1))
        assert RevisionTable(u2, table.initial, other) != table
        assert RevisionTable(u2, table.initial, other).entries != copy
        renamed = canonical_universe(("x", "y"))
        assert RevisionTable.from_masks(renamed, 15, table._masks).entries != table.entries

    def test_a_callers_mapping_is_checked(self, u1, u2):
        table = revision_from_preorder(spec_order(u2))
        entries = dict(table.entries)
        for broken in ({}, {**entries, 16: table.initial}, {k: entries[k] for k in range(15)}):
            with pytest.raises(ValueError, match="cover every proposition"):
                RevisionTable(u2, table.initial, broken)
        entries[3] = BeliefSet(PointSet.full(u1))
        with pytest.raises(ValueError, match="different universe"):
            RevisionTable(u2, table.initial, entries)
        renamed = canonical_universe(("x", "y"))
        with pytest.raises(ValueError, match="different universe"):
            RevisionTable(renamed, BeliefSet(PointSet.full(renamed)), table.entries)

    def test_a_callers_mapping_fails_as_the_object_loop_did(self, u1, u2):
        table = revision_from_preorder(spec_order(u2))
        entries = dict(table.entries)
        foreign = BeliefSet(PointSet.full(u1))
        without_7 = {k: v for k, v in entries.items() if k != 7}
        cases = {
            "missing key": without_7,
            "extra key": {**entries, 16: table.initial},
            "foreign key": {**without_7, "7": entries[7]},
            "foreign universe": {**entries, 9: foreign},
            "int value": {**entries, 9: 9},
            "None value": {**entries, 9: None},
            "point set value": {**entries, 9: entries[9].points},
            "foreign universe, then int": {**entries, 4: foreign, 9: 9},
            "int, then foreign universe": {**entries, 4: 4, 9: foreign},
            "point set, then foreign universe": {**entries, 4: entries[4].points, 9: foreign},
        }
        for name, broken in cases.items():
            assert object_loop_table_error(u2, table.initial, broken) is not None, name
            # keys in proposition order are read in one pass, any other
            # order proposition by proposition
            for mapping in (broken, reversed_keys(broken)):
                assert_reads_as_the_object_loop(table, mapping, name)
        # one key swapped in place: 1.0 and True equal 1 and are found;
        # -1 is not, nor is IntLike(3), which an array would take as 3
        for key, at in ((1.0, 1), (True, 1), (-1, 0), (IntLike(3), 3)):
            rekeyed = {key if k == at else k: v for k, v in entries.items()}
            for mapping in (rekeyed, reversed_keys(rekeyed)):
                assert_reads_as_the_object_loop(table, mapping, f"{key!r} at {at}")
        assert RevisionTable(u2, table.initial, reversed_keys(entries)) == table
        # an equal universe that is another object passes, as before
        twin = Universe(u2.atoms, u2.points)
        assert twin is not u2
        entries[9] = BeliefSet(PointSet(twin, entries[9].points.mask))
        assert object_loop_table_error(u2, table.initial, entries) is None
        assert RevisionTable(u2, table.initial, entries) == table
        assert RevisionTable(u2, table.initial, reversed_keys(entries)) == table

    def test_a_callers_mapping_in_proposition_order_is_read_in_one_pass(self, u2):
        table = revision_from_preorder(spec_order(u2))
        for keys in (range(16), range(15, -1, -1)):
            mapping = CountingDict((key, table.entries[key]) for key in keys)
            assert RevisionTable(u2, table.initial, mapping) == table
            # the dict's own values() reads no overridden method
            in_order = keys == range(16)
            assert mapping.calls == ([] if in_order else ["__contains__"] * 16 + ["__getitem__"] * 16)


class IntLike:
    """A key that packs as the int it stands for but is not equal to it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"IntLike({self.value})"


class CountingDict(dict):
    """A dict that records each call of its overridden lookups."""

    def __init__(self, items):
        super().__init__(items)
        self.calls = []

    def __contains__(self, key):
        self.calls.append("__contains__")
        return super().__contains__(key)

    def __getitem__(self, key):
        self.calls.append("__getitem__")
        return super().__getitem__(key)


def reversed_keys(mapping):
    return dict(reversed(mapping.items()))


def assert_reads_as_the_object_loop(table, mapping, name):
    """``RevisionTable`` given ``mapping`` raises what the object loop
    raised, same type and message, or equals ``table`` where it raised
    nothing."""
    want = object_loop_table_error(table.universe, table.initial, mapping)
    if want is None:
        assert RevisionTable(table.universe, table.initial, mapping) == table, name
        return
    with pytest.raises(type(want)) as got:
        RevisionTable(table.universe, table.initial, mapping)
    assert type(got.value) is type(want) and str(got.value) == str(want), name


def object_loop_table_error(universe, initial, entries):
    """RevisionTable's check of a caller's mapping as it was, each
    distinct entry object checked once in first-seen order: the error
    it raised, or None."""
    propositions = range(universe.full_mask + 1)
    try:
        if len(entries) != len(propositions) or not all(map(entries.__contains__, propositions)):
            raise ValueError("entries must cover every proposition exactly once")
        beliefs = list(map(entries.__getitem__, propositions))
        for belief in dict(zip(map(id, beliefs), beliefs)).values():
            if belief.universe is not universe and belief.universe != universe:
                raise UniverseMismatchError("entry belief set over a different universe")
        _pack(universe, [belief.points.mask for belief in beliefs])
    except (ValueError, AttributeError) as exc:
        return exc
    return None


def valid_choice(universe, initial_mask, rng):
    """A caller's choice dict: E & I where they overlap, else a random
    nonempty part of E."""
    choice = {}
    for event in range(1, universe.full_mask + 1):
        part = event & rng.randrange(1, universe.full_mask + 1)
        choice[event] = event & initial_mask or part or event
    return choice


def valid_labels(universe, rng):
    """A caller's label dict: R at 0, C at the full proposition, a
    random label elsewhere."""
    full = universe.full_mask
    labels = {mask: rng.choice(list(Credibility)) for mask in range(full + 1)}
    return {**labels, 0: Credibility.REJECTED, full: Credibility.CREDIBLE}


class TestPackedViews:
    """``SelectionFunction.choice`` and ``CredibilityLabeling.labels``
    are read-only views over the packed table and the label codes: they
    keep the caller's dict's contract, not the dict."""

    def made(self, n_atoms, seed):
        """A universe, a selection and a labeling with the dicts they
        were made from."""
        universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
        rng = Random(seed)
        initial = BeliefSet(PointSet(universe, rng.randrange(1, universe.full_mask + 1)))
        choice = valid_choice(universe, initial.points.mask, rng)
        labels = valid_labels(universe, rng)
        selection = SelectionFunction(universe, initial, choice)
        return universe, selection, choice, CredibilityLabeling(universe, labels), labels

    @pytest.mark.parametrize("n_atoms", [1, 2, 4])
    def test_mapping_protocol(self, n_atoms):
        universe, selection, choice, labeling, labels = self.made(n_atoms, 80 + n_atoms)
        full = universe.full_mask
        entries = revision_from_selection(selection).entries
        keys = [0, 1, full, full + 1, -1, True, 1.0, "1", None]
        for view, origin, first in ((selection.choice, choice, 1), (labeling.labels, labels, 0)):
            assert len(view) == len(origin) == full + 1 - first
            assert list(view) == list(view.keys()) == list(range(first, full + 1))
            assert list(view.items()) == sorted(origin.items())
            assert list(view.values()) == [origin[key] for key in range(first, full + 1)]
            for key in keys:
                # exactly the keys the table's entries find, from the first up
                found = key in entries and key >= first
                assert (key in view) is found, key
                if found:
                    assert view[key] == origin[key]
                else:
                    assert view.get(key) is None
                    with pytest.raises(KeyError):
                        view[key]
            with pytest.raises(TypeError):
                view[1] = origin[1]

    @pytest.mark.parametrize("n_atoms", [1, 2, 3])
    def test_views_equal_their_dicts(self, n_atoms):
        universe, selection, choice, labeling, labels = self.made(n_atoms, 90 + n_atoms)
        assert selection.choice == choice and choice == selection.choice
        assert labeling.labels == labels and labels == labeling.labels
        assert selection.choice != labels and labeling.labels != choice
        for view, origin in ((selection.choice, choice), (labeling.labels, labels)):
            one_off = {**origin, 1: "other"}
            assert view != one_off and one_off != view
        again = SelectionFunction(universe, selection.initial, dict(choice))
        assert again.choice == selection.choice and again == selection
        assert CredibilityLabeling(universe, dict(labels)) == labeling

    def test_views_compare_by_content(self, u2):
        initial = BeliefSet(PointSet(u2, 1))
        choice = {event: event & 1 or event for event in range(1, 16)}
        selection = SelectionFunction(u2, initial, choice)
        assert SelectionFunction(u2, initial, {**choice, 6: 2}).choice != selection.choice
        assert SelectionFunction(u2, initial, {**choice, 6: 6}).choice == selection.choice
        labeling = CredibilityLabeling.all_credible(u2)
        allowable = CredibilityLabeling.from_overrides(u2, {6: Credibility.ALLOWABLE})
        assert allowable.labels != labeling.labels
        assert allowable.labels == {**labeling.labels, 6: Credibility.ALLOWABLE}

    def test_dict_of_a_view_makes_one_python_call_per_key(self):
        # dict(view) asks the view for its keys, then makes one
        # __getitem__ call per key, the floor for a mapping that is not a
        # dict; the keys come from a range iterator, not a generator that
        # resumes a Python frame per key on top of those calls
        universe, selection, _, labeling, _ = self.made(2, 110)
        table = revision_from_selection(selection)
        for view in (table.entries, labeling.labels, selection.choice):
            assert dict(view) == view  # the entry view makes its theories on first lookup
            calls = []
            previous = sys.getprofile()
            sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code.co_name))
            try:
                dict(view)
            finally:
                sys.setprofile(previous)
            assert calls.count("__getitem__") == len(view)
            assert len(calls) <= len(view) + 8, calls
            first = 1 if view is selection.choice else 0
            keys, every = view.keys(), set(range(first, universe.full_mask + 1))
            assert isinstance(keys, KeysView)
            assert len(keys) == len(every) and keys == every and every == keys
            assert first in keys and universe.full_mask in keys and first - 1 not in keys
            assert keys & {0, 3, 99} == every & {0, 3} and keys | {99} == every | {99}

    def test_values_hash_and_work_as_keys(self, u2):
        # the views stay out of the hash, so equal values hash equal
        # whether they were made from a dict or packed
        initial = BeliefSet(PointSet(u2, 1))
        choice = {event: event & 1 or event for event in range(1, 16)}
        selection = SelectionFunction(u2, initial, choice)
        labeling = CredibilityLabeling.from_overrides(u2, {6: Credibility.ALLOWABLE})
        table = revision_from_selection(selection)
        made = {
            selection: (SelectionFunction(u2, initial, dict(choice)), SelectionFunction(u2, initial, {**choice, 6: 2})),
            labeling: (CredibilityLabeling(u2, dict(labeling.labels)), CredibilityLabeling.all_credible(u2)),
            table: (RevisionTable(u2, initial, dict(table.entries)), build_filtered(table, labeling)),
        }
        for value, (equal, other) in made.items():
            assert equal == value and hash(equal) == hash(value)
            verdicts = {value: "made", other: "changed"}
            assert other != value and verdicts[equal] == "made" and len(verdicts) == 2

    def test_the_callers_dicts_are_not_kept(self):
        universe, selection, choice, labeling, labels = self.made(2, 100)
        kept_choice, kept_labels = dict(choice), dict(labels)
        masks = revision_from_selection(selection)._masks.tolist()
        choice[3] = 0
        del choice[5]
        labels[0] = Credibility.CREDIBLE
        labels[6] = next(label for label in Credibility if label is not labels[6])
        labels["x"] = Credibility.CREDIBLE
        assert dict(selection.choice) == kept_choice
        assert dict(labeling.labels) == kept_labels
        assert revision_from_selection(selection)._masks.tolist() == masks
        assert labeling._view == CredibilityLabeling(universe, kept_labels)._view

    @pytest.mark.parametrize("draw", [random_labeling, random_selection_function])
    def test_a_four_atom_draw_keeps_no_dict(self, draw):
        # a labeling keeps 64 KB of codes; a selection its packed table
        # (128 KB) with the slices and terms its check cached; each kept
        # its caller's dict before, 4.5 MB and 6.5 MB
        universe = canonical_universe(("p", "q", "r", "s"))
        rng = Random(7)
        draw(rng, universe)  # the per-size caches are made once
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = draw(rng, universe)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept.universe is universe
        assert retained < 512 * 1024


def kernel_tables(n_atoms, seed):
    """A pre-order, a selection, a corrupted selection and an arbitrary
    table, drawn from one seed (the corrupted one has a few entries
    redrawn at random)."""
    universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
    full = universe.full_mask
    rng = Random(seed)
    yield "preorder", revision_from_preorder(random_plausibility_order(rng, universe))
    selection = revision_from_selection(random_selection_function(rng, universe))
    yield "selection", selection
    masks = list(selection._masks)
    for _ in range(1 + full // 8):
        masks[rng.randrange(full + 1)] = rng.randrange(full + 1)
    initial = selection.initial.points.mask
    yield "corrupted", RevisionTable.from_masks(universe, initial, masks)
    # about a quarter of the entries absurd, so AGM5 and F3 fail often too
    masks = [rng.randrange(full + 1) if rng.randrange(4) else 0 for _ in range(full + 1)]
    yield "arbitrary", RevisionTable.from_masks(universe, rng.randrange(1, full + 1), masks)


def bits(value, size):
    """Bit E of ``value`` for every E below 2**size."""
    return [value >> e & 1 for e in range(1 << size)]


class TestBitSlicedKernel:
    """AGM2-5 read off whole-table failure sets must equal the
    per-proposition predicate, bit by bit and report by report."""

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_slices_and_containment_patterns(self, n_atoms):
        universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
        rng = Random(80 + n_atoms)
        table = random_revision_table(rng, universe)
        masks, size = table._masks, universe.size
        assert table._slices == _transpose(masks, size)
        # every proposition up to 3 atoms, a sample of 4,096 at 4
        props = range(len(masks)) if n_atoms < 4 else rng.sample(range(len(masks)), 4096)
        for s, (entry, member) in enumerate(zip(table._slices, _containment(size))):
            assert [entry >> e & 1 for e in props] == [masks[e] >> s & 1 for e in props]
            assert [member >> e & 1 for e in props] == [e >> s & 1 for e in props]

    @pytest.mark.parametrize("size", [3, 5, 9, 12])
    def test_slices_at_every_word_width(self, size):
        # a word byte that holds fewer than 8 states: the only one at 3
        # and 5 states, the high one at 9 and 12
        universe = word_universe(size)
        table = random_revision_table(Random(size), universe)
        masks = table._masks.tolist()
        assert len(table._slices) == size
        for s, entry in enumerate(table._slices):
            assert entry == sum((mask >> s & 1) << e for e, mask in enumerate(masks))

    def test_failure_bits_equal_the_predicate_on_every_tuple(self, u2):
        # every (I, E, B(E)) at two atoms: table d maps E to E ^ d, so the
        # 16 tables per initial theory pair each E with every entry once
        full = u2.full_mask
        seen = set()
        for initial in range(1, full + 1):
            for d in range(full + 1):
                masks = [e ^ d for e in range(full + 1)]
                fails = _agm_failures(RevisionTable.from_masks(u2, initial, masks))
                for postulate in (2, 3, 4, 5):
                    expected = [
                        int(not _agm_mask_holds(masks, initial, postulate, e))
                        for e in range(full + 1)
                    ]
                    assert bits(fails[f"AGM{postulate}"], u2.size) == expected
                seen.update((initial, e, masks[e]) for e in range(full + 1))
        assert len(seen) == 15 * 16 * 16

    @pytest.mark.parametrize("n_atoms,draws", [(1, 30), (2, 10), (3, 3), (4, 1)])
    def test_reports_equal_the_per_proposition_scan(self, n_atoms, draws):
        noted = set()
        for draw in range(draws):
            for kind, table in kernel_tables(n_atoms, seed=90 + 10 * n_atoms + draw):
                report = check_agm(table, (1, 2, 3, 4, 5, 6))
                assert report == reference_agm_report(table, (1, 2, 3, 4, 5, 6))
                if kind in ("preorder", "selection"):
                    assert report.all_hold
                noted.update(r.check for r in report.results if r.note.endswith("propositions"))
        if n_atoms > 1:  # more than five failures, so the note shows
            assert noted == {"AGM2", "AGM3", "AGM4", "AGM5"}


class TestPacking:
    """``_untranspose`` packs per-state slices into a table's array: the
    inverse of ``_transpose`` at every word width and byte order."""

    @pytest.mark.parametrize("size", range(1, 17))
    def test_untranspose_inverts_transpose(self, size):
        rng = Random(140 + size)
        code, count = _layout(size).code, 1 << size
        for _ in range(1 if size >= 14 else 4):
            masks = array(code, [rng.getrandbits(size) for _ in range(count)])
            slices = _transpose(masks, size)
            assert len(slices) == size and all(0 <= entry < 1 << count for entry in slices)
            assert _untranspose(slices, size) == masks

    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_pinned_entries_are_the_containment_build(self, size):
        # _pinned's earlier build, the reference for its one AND: I's
        # containment slices, packed by _untranspose, under the free values
        universe = word_universe(size)
        full = universe.full_mask
        rng = Random(170 + size)
        initials = range(1, full + 1) if size <= 4 else [rng.randrange(1, full + 1) for _ in range(50)]
        for initial in initials:
            free = {event: event for event in submasks(full & ~initial)[1:]}
            masks = _untranspose([member if initial >> s & 1 else 0 for s, member in enumerate(_containment(size))], size)
            for event, value in free.items():
                masks[event] = value
            assert SelectionFunction._pinned(universe, initial, free)._table._masks == masks

    @pytest.mark.parametrize("size,draws", [(1, 1), (5, 8), (9, 2)])
    def test_preorder_tables_at_every_word_width(self, size, draws):
        universe = word_universe(size)
        rng = Random(150 + size)
        orders = [random_plausibility_order(rng, universe) for _ in range(draws)]
        orders.append(PlausibilityOrder(universe, tuple(range(size))))  # a strict order
        for order in orders:
            table = revision_from_preorder(order)
            assert table == naive_preorder_table(order)
            # the slices the table was computed on, kept by its entry
            # view before any packing, are its transpose
            assert table.entries._slices == _transpose(table._masks, size)

    @pytest.mark.parametrize("size", [9, 16])
    def test_big_endian_words(self, size, monkeypatch):
        # a big-endian host stores each two-byte word high byte first:
        # the byteswapped array, read with a big-endian layout
        rng = Random(160 + size)
        universe = word_universe(size)
        masks = array(_layout(size).code, [rng.getrandbits(size) for _ in range(1 << size)])
        native = _transpose(masks, size)
        swapped = array(masks.typecode, masks)
        swapped.byteswap()
        assert _transpose(swapped, size) != native  # read little-endian
        _layout.cache_clear()
        monkeypatch.setattr(revision, "sys", SimpleNamespace(byteorder="big"))
        try:
            assert _transpose(swapped, size) == native
            packed = _untranspose(native, size)
            packed.byteswap()
            assert packed == masks
            too_high = universe.full_mask + 1
            with pytest.raises(ValueError, match=f"^mask {too_high:#x} out of range"):
                _pack(universe, [*masks[:-1], too_high])
        finally:
            monkeypatch.undo()
            _layout.cache_clear()


def fubini(n):
    """Ordered-set-partition counts via the standard recurrence."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(
            sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1))
        )
    return counts[n]


class TestPreorderEnumeration:
    @pytest.mark.parametrize("n_atoms,expected", [(1, 3), (2, 75)])
    def test_counts_on_canonical_universes(self, n_atoms, expected):
        u = canonical_universe(ATOMS[:n_atoms])
        orders = list(enumerate_preorders(u))
        assert len(orders) == expected == fubini(u.size)
        assert len({order.ranks for order in orders}) == len(orders)

    def test_three_point_count(self):
        from filtra.worlds import Universe

        u = Universe.from_assignments(
            ("p",), [("a", {"p": True}), ("b", {}), ("c", {"p": True})]
        )
        assert sum(1 for _ in enumerate_preorders(u)) == 13 == fubini(3)

    def test_five_to_seven_point_counts(self):
        from filtra.worlds import Universe

        for size, expected in ((5, 541), (6, 4683), (7, 47293)):
            u = Universe.from_assignments(("p",), [(f"s{i}", {}) for i in range(size)])
            assert sum(1 for _ in enumerate_preorders(u)) == expected == fubini(size)
