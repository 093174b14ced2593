from random import Random

import pytest

from filtra.beliefs import BeliefSet
from filtra import revision
from filtra.formulas import parse_formula
from filtra.revision import (
    Credibility,
    CredibilityLabeling,
    PostulateViolation,
    RevisionTable,
    SelectionFunction,
    build_filtered,
    check_agm,
    check_filtered,
    filter_holds_at,
    recover_basic,
    revision_from_selection,
)
from filtra.sampling import (
    all_labelings,
    all_revision_tables,
    all_selection_functions,
    random_labeling,
    random_selection_function,
)
from filtra.worlds import PointSet, Universe, canonical_universe

from test_revision import assert_entries_shared

ATOMS = ("p", "q")
C, A, R = Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED


def detective_universe():
    return Universe.from_assignments(
        ("ann", "bob"),
        [("a", {"ann": True}), ("b", {"bob": True}), ("c", {})],
    )


def selection_keeping(universe, initial_mask):
    """Basic table choosing the forced overlap where possible and the
    whole menu elsewhere."""
    choice = {}
    for mask in range(1, universe.full_mask + 1):
        overlap = mask & initial_mask
        choice[mask] = overlap if overlap else mask
    selection = SelectionFunction(
        universe, BeliefSet(PointSet(universe, initial_mask)), choice
    )
    return revision_from_selection(selection)


class TestBuildFiltered:
    def test_detective_style_suspension(self):
        # three suspects; Ann initially ruled out; evidence against Ann is
        # allowable, and the basic revision by it would accept it outright
        universe = detective_universe()
        mask_a = 1 << universe.index_of("a")
        initial_mask = universe.full_mask & ~mask_a
        star = selection_keeping(universe, initial_mask)
        assert star.entries[mask_a].points.mask == mask_a
        labeling = CredibilityLabeling.from_overrides(universe, {mask_a: A})
        filtered = build_filtered(star, labeling)
        entry = filtered.entries[mask_a]
        assert entry.points == PointSet.full(universe)
        ann = parse_formula("ann", universe.atoms)
        not_ann = parse_formula("~ann", universe.atoms)
        assert not entry.contains(ann) and not entry.contains(not_ann)

    def test_all_credible_labels_reproduce_the_basic_table(self, u2):
        rng = Random(1)
        for _ in range(20):
            star = revision_from_selection(random_selection_function(rng, u2))
            filtered = build_filtered(star, CredibilityLabeling.all_credible(u2))
            for mask in range(1, u2.full_mask + 1):
                assert filtered.entries[mask] == star.entries[mask]
            assert filtered.entries[0] == star.initial

    def test_allowable_overlapping_information_is_a_no_op(self, u2):
        rng = Random(2)
        for _ in range(50):
            star = revision_from_selection(random_selection_function(rng, u2))
            labeling = random_labeling(rng, u2)
            filtered = build_filtered(star, labeling)
            initial_mask = star.initial.points.mask
            for mask in range(1, u2.full_mask + 1):
                if labeling.labels[mask] is A and mask & initial_mask:
                    assert filtered.entries[mask] == star.initial

    def test_suspension_whenever_allowable_and_disjoint(self, u2):
        rng = Random(3)
        for _ in range(50):
            star = revision_from_selection(random_selection_function(rng, u2))
            labeling = random_labeling(rng, u2)
            filtered = build_filtered(star, labeling)
            initial_mask = star.initial.points.mask
            for mask in range(1, u2.full_mask + 1):
                if labeling.labels[mask] is A and not mask & initial_mask:
                    entry = filtered.entries[mask].points
                    assert entry.mask & ~mask  # information not believed
                    assert entry.mask & mask  # its negation not believed either

    def test_rejects_non_basic_input(self, u2, monkeypatch):
        table = revision_from_selection(random_selection_function(Random(4), u2))
        entries = dict(table.entries)
        entries[1] = BeliefSet(PointSet(u2, 2))  # breaks AGM2 at E = {w0}
        broken = RevisionTable(u2, table.initial, entries)
        with pytest.raises(PostulateViolation) as err:
            build_filtered(broken, CredibilityLabeling.all_credible(u2))
        assert "AGM2" in str(err.value)
        assert err.value.report == check_agm(broken, (1, 2, 3, 4, 5, 6))
        # the gate reads masks; a report is built only for a failing table
        reports = []
        monkeypatch.setattr(revision, "check_agm", lambda *args: reports.append(args))
        build_filtered(table, CredibilityLabeling.all_credible(u2))
        assert reports == []

    @pytest.mark.parametrize("n_atoms,draws", [(1, 20), (2, 20), (3, 6), (4, 1)])
    def test_equals_routing_through_intersect(self, n_atoms, draws):
        # the per-proposition construction build_filtered replaced
        universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
        rng = Random(70 + n_atoms)
        for _ in range(draws):
            star = revision_from_selection(random_selection_function(rng, universe))
            labeling = random_labeling(rng, universe)
            entries = {}
            for mask in range(universe.full_mask + 1):
                label = labeling.labels[mask]
                if label is R:
                    entries[mask] = star.initial
                elif label is C:
                    entries[mask] = star.entries[mask]
                else:
                    entries[mask] = star.initial.intersect(star.entries[mask])
            filtered = build_filtered(star, labeling)
            assert filtered == RevisionTable(universe, star.initial, entries)
            assert_entries_shared(filtered)


class TestCheckFiltered:
    def test_built_tables_always_pass(self, u2):
        rng = Random(5)
        for _ in range(200):
            star = revision_from_selection(random_selection_function(rng, u2))
            labeling = random_labeling(rng, u2)
            assert check_filtered(build_filtered(star, labeling), labeling).all_hold

    def test_rejected_entry_must_stay_initial(self, u2):
        star = revision_from_selection(random_selection_function(Random(6), u2))
        labeling = CredibilityLabeling.from_overrides(u2, {1: R})
        filtered = build_filtered(star, labeling)
        entries = dict(filtered.entries)
        entries[1] = BeliefSet(PointSet(u2, 1))  # anything but the initial theory
        if entries[1] == filtered.initial:
            entries[1] = BeliefSet(PointSet(u2, 2))
        mutated = RevisionTable(u2, filtered.initial, entries)
        report = check_filtered(mutated, labeling)
        result = report.result("F1")
        assert not result.holds
        assert result.witnesses[0].point_sets[0].mask == 1
        assert not filter_holds_at(mutated, labeling, "F1", PointSet(u2, 1))

    def test_unchanged_beliefs_fail_the_allowable_disjoint_law(self, u2):
        # allowable information disjoint from the initial set: keeping the
        # beliefs unchanged must fail F3b (the disbelief was never dropped)
        initial_mask = 0b1000
        star = selection_keeping(u2, initial_mask)
        labeling = CredibilityLabeling.from_overrides(u2, {0b0011: A})
        filtered = build_filtered(star, labeling)
        entries = dict(filtered.entries)
        entries[0b0011] = filtered.initial  # pretend nothing happened
        mutated = RevisionTable(u2, filtered.initial, entries)
        report = check_filtered(mutated, labeling)
        assert not report.result("F3b").holds
        # hand-check of the two F3b clauses at this instance: the recovery
        # equation holds (entry & ~E equals the initial points) but the
        # dropped-disbelief clause fails (entry & E is empty)
        assert initial_mask & ~0b0011 == initial_mask
        assert initial_mask & 0b0011 == 0


class TestRecovery:
    def test_exhaustive_one_atom_equivalence(self, u1):
        labelings = list(all_labelings(u1))
        for table in all_revision_tables(u1):
            for labeling in labelings:
                lawful = check_filtered(table, labeling).all_hold
                outcome = recover_basic(table, labeling)
                assert lawful == bool(outcome)
                if lawful:
                    assert build_filtered(outcome.basic, labeling) == table

    def test_exhaustive_one_atom_roundtrip_from_builds(self, u1):
        labelings = list(all_labelings(u1))
        for selection in all_selection_functions(u1):
            star = revision_from_selection(selection)
            for labeling in labelings:
                filtered = build_filtered(star, labeling)
                outcome = recover_basic(filtered, labeling)
                assert outcome
                assert build_filtered(outcome.basic, labeling) == filtered

    def test_recovered_selection_value_is_the_added_part(self, u2):
        # allowable, disjoint: entry Th(initial | extra) recovers S(E) = extra
        initial_mask = 0b1000
        star = selection_keeping(u2, initial_mask)
        event = 0b0011
        extra = 0b0001
        labeling = CredibilityLabeling.from_overrides(u2, {event: A})
        filtered = build_filtered(star, labeling)
        entries = dict(filtered.entries)
        entries[event] = BeliefSet(PointSet(u2, initial_mask | extra))
        target = RevisionTable(u2, filtered.initial, entries)
        outcome = recover_basic(target, labeling)
        assert outcome
        assert outcome.basic.entries[event].points.mask == extra
        assert build_filtered(outcome.basic, labeling) == target

    def test_failing_tables_report_first_infeasible_event(self, u2):
        rng = Random(7)
        seen_failure = False
        for _ in range(100):
            star = revision_from_selection(random_selection_function(rng, u2))
            labeling = random_labeling(rng, u2)
            filtered = build_filtered(star, labeling)
            entries = dict(filtered.entries)
            target = rng.randrange(u2.full_mask + 1)
            entries[target] = BeliefSet(PointSet(u2, rng.randrange(u2.full_mask + 1)))
            mutated = RevisionTable(u2, filtered.initial, entries)
            lawful = check_filtered(mutated, labeling).all_hold
            outcome = recover_basic(mutated, labeling)
            assert lawful == bool(outcome)
            if not outcome:
                seen_failure = True
                assert outcome.infeasible is not None
                assert outcome.reason
        assert seen_failure
