import functools
import operator
import re
from random import Random

import pytest

from filtra.beliefs import BeliefSet
from filtra import revision
from filtra.formulas import parse_formula
from filtra.reports import CheckReport, CheckResult, Witness
from filtra.revision import (
    Credibility,
    CredibilityLabeling,
    PostulateViolation,
    RecoveryOutcome,
    RevisionTable,
    SelectionError,
    SelectionFunction,
    build_filtered,
    check_agm,
    check_filtered,
    filter_holds_at,
    recover_basic,
    revision_from_selection,
)
from filtra.revision import (
    _FILTER_CHECKS,
    _Labels,
    _filter_failures,
    _filter_mask_holds,
    _recovery_reason,
    _transpose,
)
from filtra.sampling import (
    all_labelings,
    all_revision_tables,
    all_selection_functions,
    random_labeling,
    random_selection_function,
)
from filtra.worlds import PointSet, Universe, canonical_universe, submasks

from test_revision import assert_entries_shared, bits, kernel_tables, word_universe

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

    @pytest.mark.parametrize(
        ("postulate", "event", "entry"),
        [(2, 0b0100, 0b1000), (3, 0b0011, 0b0001), (4, 0b0111, 0b0111), (5, 0b0100, 0)],
    )
    def test_gate_refuses_each_basic_postulate_alone(self, u2, postulate, event, entry):
        star = selection_keeping(u2, 0b0011)
        masks = list(star._masks)
        masks[event] = entry  # breaks exactly one of AGM2-5, at one proposition
        broken = RevisionTable.from_masks(u2, 0b0011, masks)
        report = check_agm(broken, (1, 2, 3, 4, 5, 6))
        assert [result.check for result in report.failures()] == [f"AGM{postulate}"]
        with pytest.raises(PostulateViolation) as err:
            build_filtered(broken, CredibilityLabeling.all_credible(u2))
        assert err.value.report == report

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
    def test_labels_must_be_credibility_members(self, u1):
        with pytest.raises(ValueError, match="label 'A' at E = {w0} is not a Credibility member"):
            CredibilityLabeling(u1, {0: R, 1: "A", 2: C, 3: C})

    @pytest.mark.parametrize(
        ("labels", "message"),
        [
            ({0: R, 1: C, 2: C}, "labels must cover every proposition exactly once"),
            ({0: R, 1: C, 2: C, 3: C, 4: C}, "labels must cover every proposition exactly once"),
            ({0: R, 1: C, 2: "A", 4: C}, "labels must cover every proposition exactly once"),
            ({3: C, 2: None, 1: "A", 0: R}, "label 'A' at E = {w0} is not a Credibility member"),
            ({0: R, 1: C, 2: C, 3: A}, "the full proposition must be labeled credible"),
            ({0: C, 1: C, 2: C, 3: C}, "the empty proposition must be labeled rejected"),
        ],
        ids=["missing", "extra", "missing-and-extra", "lowest-non-member", "full", "empty"],
    )
    def test_each_labeling_error_names_its_cause(self, u1, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CredibilityLabeling(u1, labels)

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({4: C}, "labels must cover every proposition exactly once"),
            ({2: None, 1: "A"}, "label 'A' at E = {w0} is not a Credibility member"),
            ({3: A}, "the full proposition must be labeled credible"),
            ({0: C}, "the empty proposition must be labeled rejected"),
        ],
        ids=["extra", "lowest-non-member", "full", "empty"],
    )
    def test_overrides_are_checked_once_merged(self, u1, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CredibilityLabeling.from_overrides(u1, overrides)

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

    def test_recovered_selection_is_checked(self, u2, monkeypatch):
        # a scan that misses an infeasible entry must not yield a table
        initial_mask = 0b1000
        star = selection_keeping(u2, initial_mask)
        labeling = CredibilityLabeling.from_overrides(u2, {0b0011: C})
        entries = dict(build_filtered(star, labeling).entries)
        entries[0b0011] = BeliefSet(PointSet(u2, 0b0111))  # credible, outside E
        target = RevisionTable(u2, star.initial, entries)
        assert not recover_basic(target, labeling)
        monkeypatch.setattr(
            revision, "_filter_failures", lambda table, labels: dict.fromkeys(_FILTER_CHECKS, 0)
        )
        with pytest.raises(SelectionError, match="must be a subset of E at E = {w0, w1}"):
            recover_basic(target, labeling)


def naive_check_filtered(table, labeling):
    """check_filtered as it was: one predicate call per (law,
    proposition), witnesses the first five failing propositions."""
    universe = table.universe
    initial = table.initial.points.mask
    results = []
    for check in _FILTER_CHECKS:
        failing = [
            e
            for e in range(universe.full_mask + 1)
            if not _filter_mask_holds(table._masks, initial, labeling.labels, check, e)
        ]
        witnesses = tuple(
            Witness.of([("E", PointSet(universe, e))], detail=f"label {labeling.labels[e].value}")
            for e in failing[:5]
        )
        note = f"{len(failing)} failing propositions" if len(failing) > 5 else ""
        results.append(CheckResult(check, not failing, witnesses, note))
    results.append(check_filtered(table, labeling).results[-1])  # F4, by representation
    return CheckReport("filtered revision laws", tuple(results))


def scan_step(event, got, initial, label):
    """One proposition of the ascending recovery scan: its selection
    value, or None and the reason it is infeasible."""
    if event == 0:
        if got != initial:
            return None, "revision by a contradiction must preserve the initial beliefs"
        return 0, ""
    overlap = event & initial
    if overlap:
        required = overlap if label is C else initial
        if got != required:
            return None, f"entry incompatible with label {label.value} on overlapping information"
        return overlap, ""
    if label is C:
        if got == 0 or got & ~event:
            return None, "credible entry must be a consistent theory of points within the information"
        return got, ""
    if label is A:
        extra = got & ~initial
        if initial & ~got or extra == 0 or extra & ~event:
            return None, "allowable entry must add a nonempty set of information points to the initial ones"
        return extra, ""
    if got != initial:
        return None, "rejected information must preserve the initial beliefs"
    return event, ""


def naive_recover_basic(filtered, labeling):
    """recover_basic as it was: scan the propositions in ascending order
    and stop at the first infeasible one."""
    universe = filtered.universe
    initial = filtered.initial.points.mask
    choice = {}
    for event in range(universe.full_mask + 1):
        value, reason = scan_step(event, filtered._masks[event], initial, labeling.labels[event])
        if value is None:
            return RecoveryOutcome(None, PointSet(universe, event), reason)
        if event:
            choice[event] = value
    selection = SelectionFunction(universe, filtered.initial, choice)
    return RecoveryOutcome(revision_from_selection(selection))


class TestBitSlicedLaws:
    """F1-F3b read off whole-table sets, and recovery's infeasible set
    (their union), must equal the per-proposition predicates and the
    ascending scan."""

    def test_failure_bits_equal_the_predicates_on_every_tuple(self, u2):
        # every (I, E, label, B(E)) at two atoms, labels on the empty and
        # full propositions included: table (label, d) maps every E to
        # E ^ d under that one label.  The recovery set is compared with
        # the scan at E = 0 under R only, the one label a labeling admits
        # there.
        full = u2.full_mask
        seen = set()
        for initial in range(1, full + 1):
            for label in (C, A, R):
                labels = _Labels.of(label.value.encode() * (full + 1))
                per_prop = dict.fromkeys(range(full + 1), label)
                for d in range(full + 1):
                    masks = [e ^ d for e in range(full + 1)]
                    table = RevisionTable.from_masks(u2, initial, masks)
                    fails = _filter_failures(table, labels)
                    for check in _FILTER_CHECKS:
                        expected = [
                            int(not _filter_mask_holds(masks, initial, per_prop, check, e))
                            for e in range(full + 1)
                        ]
                        assert bits(fails[check], u2.size) == expected, (initial, label, d, check)
                    infeasible = functools.reduce(operator.or_, fails.values())
                    for e in range(full + 1):
                        seen.add((initial, e, label, masks[e]))
                        if e == 0 and label is not R:
                            continue
                        value, reason = scan_step(e, masks[e], initial, label)
                        assert infeasible >> e & 1 == (value is None), (initial, label, d, e)
                        if value is None:
                            assert _recovery_reason(e, initial, label) == reason
        assert len(seen) == 11_520

    @pytest.mark.parametrize("n_atoms,draws", [(1, 30), (2, 10), (3, 3), (4, 1)])
    def test_reports_and_recovery_equal_the_scan(self, n_atoms, draws):
        universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
        noted, verdicts = set(), set()
        for draw in range(draws):
            rng = Random(110 + 10 * n_atoms + draw)
            for kind, table in kernel_tables(n_atoms, seed=rng.randrange(10**6)):
                labeling = random_labeling(rng, universe)
                subjects = [table]
                if kind in ("preorder", "selection"):
                    built = build_filtered(table, labeling)
                    # the built table's slices are routed, not transposed
                    assert built._slices == _transpose(built._masks, universe.size)
                    masks = list(built._masks)
                    masks[rng.randrange(len(masks))] = rng.randrange(universe.full_mask + 1)
                    corrupted = RevisionTable.from_masks(universe, built.initial.points.mask, masks)
                    subjects = [built, corrupted]
                for subject in subjects:
                    report = check_filtered(subject, labeling)
                    assert report == naive_check_filtered(subject, labeling)
                    outcome = recover_basic(subject, labeling)
                    assert outcome == naive_recover_basic(subject, labeling)
                    assert bool(outcome) == report.all_hold
                    verdicts.add(outcome.reason or "feasible")
                    noted.update(r.check for r in report.results if r.note.endswith("propositions"))
        assert "feasible" in verdicts and len(verdicts) > 1
        if n_atoms == 4:  # more than five failures of each law, so every note shows
            assert noted == set(_FILTER_CHECKS)


class TestOnePropositionAtATime:
    """F1-F3b, the recovery step, the build routing and the selection
    invariants read one proposition's (I, E, label, entry) only
    (docs/semantics.md, "One proposition at a time"), so "built from some
    basic table" and "the filter laws hold" agree on whole tables iff
    they agree on every such tuple."""

    def test_laws_scan_and_routing_agree_on_every_tuple(self, u2):
        full = u2.full_mask
        checked = 0
        for initial in range(1, full + 1):
            theory = BeliefSet(PointSet(u2, initial))
            keeping = {m: m & initial or m for m in range(1, full + 1)}
            for e in range(full + 1):
                # the selection values a basic table may hold at E
                values = [0] if e == 0 else [e & initial] if e & initial else submasks(e)[1:]
                for chosen in range(1, full + 1) if e else ():
                    try:
                        SelectionFunction(u2, theory, {**keeping, e: chosen})
                    except SelectionError:
                        assert chosen not in values, (initial, e, chosen)
                    else:
                        assert chosen in values, (initial, e, chosen)
                for label in (R,) if e == 0 else (C,) if e == full else (C, A, R):
                    # build_filtered's routing: R -> I, A -> I | S, C -> S
                    route = {R: lambda v: initial, A: lambda v: initial | v, C: lambda v: v}[label]
                    routed = set(map(route, values))
                    for entry in range(full + 1):
                        masks, labels = [entry] * (full + 1), {e: label}
                        lawful = all(
                            _filter_mask_holds(masks, initial, labels, check, e)
                            for check in _FILTER_CHECKS
                        )
                        value, _ = scan_step(e, entry, initial, label)
                        case = (initial, e, label, entry)
                        assert lawful == (value is not None) == (entry in routed), case
                        if value is not None:
                            assert value in values and route(value) == entry, case
                        checked += 1
        # labels C, A and R off the empty and full propositions, R on the
        # empty one and C on the full one
        assert checked == 15 * 16 * (14 * 3 + 2)


class TestWordWidths:
    """The per-state routing, packed into words (B at 5 states, H at 9)
    wider than the universe."""

    @pytest.mark.parametrize("size,draws", [(5, 12), (9, 3)])
    def test_routing_equals_the_per_entry_scan(self, size, draws):
        universe = word_universe(size)
        rng = Random(130 + size)
        verdicts = set()
        for _ in range(draws):
            star = revision_from_selection(random_selection_function(rng, universe))
            labeling = random_labeling(rng, universe)
            initial = star.initial.points.mask
            labels = map(labeling.labels.__getitem__, range(universe.full_mask + 1))
            routed = [
                initial if label is R else entry | initial if label is A else entry
                for entry, label in zip(star._masks, labels)
            ]
            filtered = build_filtered(star, labeling)
            assert filtered._masks.tolist() == routed
            assert filtered._slices == _transpose(filtered._masks, size)
            masks = routed.copy()
            masks[rng.randrange(1, len(masks))] ^= 1 << rng.randrange(size)
            corrupted = RevisionTable.from_masks(universe, initial, masks)
            for subject in (filtered, corrupted):
                outcome = recover_basic(subject, labeling)
                assert outcome == naive_recover_basic(subject, labeling)
                verdicts.add(bool(outcome))
            assert build_filtered(recover_basic(filtered, labeling).basic, labeling) == filtered
        assert verdicts == {True, False}
