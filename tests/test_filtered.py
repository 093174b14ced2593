import functools
import operator
import re
from collections import Counter
from itertools import product
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
    revision_from_preorder,
    revision_from_selection,
)
from filtra.revision import (
    _FILTER_CHECKS,
    _Labels,
    _agm_failures,
    _agm_mask_holds,
    _filter_failures,
    _filter_faults,
    _transpose,
    _untranspose,
)
from filtra.sampling import random_labeling, random_plausibility_order, random_selection_function
from filtra.worlds import PointSet, Universe, UniverseMismatchError, canonical_universe, submasks

from conftest import (
    all_labelings,
    all_revision_tables,
    all_selection_functions,
    assert_same_as_eager,
    of_ids,
    permute,
    permuted_universe,
    result_of,
)
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
        mask_a = of_ids(universe, ["a"]).mask
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
                    entries[mask] = BeliefSet(star.initial.points | star.entries[mask].points)
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

    @pytest.mark.parametrize(
        "indices",
        [b"\0", b"\0\0\0", b"\1\3", b"\3C"],
        ids=["short", "long", "non-index", "lowest-non-index"],
    )
    def test_an_index_view_is_refused_as_its_mapping_is(self, u1, indices):
        # a stray index reads as the label b"?", in the view and here
        labels = {0: R, len(indices) + 1: C}
        labels.update({mask: (C, A, R)[i] if i < 3 else b"?" for mask, i in enumerate(indices, 1)})
        with pytest.raises(ValueError) as want:
            CredibilityLabeling(u1, labels)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            CredibilityLabeling._of_indices(u1, indices)

    def test_an_index_view_is_kept_as_its_mapping_is(self, u1):
        labeling = CredibilityLabeling._of_indices(u1, b"\1\2")
        assert labeling.labels == CredibilityLabeling(u1, {0: R, 1: A, 2: R, 3: C}).labels
        assert dict(labeling.labels) == {0: R, 1: A, 2: R, 3: C}

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
        result = result_of(report, "F1")
        assert not result.holds
        assert result.witnesses[0].point_sets[0].mask == 1
        assert not filter_holds_at(mutated, labeling, "F1", PointSet(u2, 1))

    def test_every_reported_result_replays_through_filter_holds_at(self, u2):
        # a passing and a failing report: each law, F4 included, holds at
        # every proposition iff its result holds, and fails at its witnesses
        rng = Random(7)
        labeling = random_labeling(rng, u2)
        built = build_filtered(revision_from_selection(random_selection_function(rng, u2)), labeling)
        masks = list(built._masks)
        masks[0b0110] ^= 0b1001
        corrupted = RevisionTable.from_masks(u2, built.initial.points.mask, masks)
        props = [PointSet(u2, e) for e in range(u2.full_mask + 1)]
        for table, passes in ((built, True), (corrupted, False)):
            report = check_filtered(table, labeling)
            assert report.all_hold == passes
            for result in report.results:
                assert all(filter_holds_at(table, labeling, result.check, e) for e in props) == result.holds
                for witness in result.witnesses:
                    assert not filter_holds_at(table, labeling, result.check, *witness.point_sets)

    @pytest.mark.parametrize("check", ["F0", "F2", "f1", "AGM1", ""])
    def test_filter_holds_at_refuses_an_unknown_law(self, u1, check):
        table = revision_from_selection(random_selection_function(Random(8), u1))
        labeling = CredibilityLabeling.all_credible(u1)
        with pytest.raises(ValueError, match=f"unknown filter check {check!r}"):
            filter_holds_at(table, labeling, check, PointSet(u1, 1))

    def test_filter_holds_at_refuses_another_universe(self, u1, u2):
        # as check_filtered and RevisionTable.entry refuse them; the first
        # call answered True, the second raised a bare KeyError
        table = revision_from_selection(random_selection_function(Random(8), u2))
        one_atom = CredibilityLabeling.all_credible(u1)
        for mask in (1, 9):
            with pytest.raises(UniverseMismatchError, match="^labeling over a different universe$"):
                filter_holds_at(table, one_atom, "F1", PointSet(u2, mask))
        labeling = CredibilityLabeling.all_credible(u2)
        with pytest.raises(UniverseMismatchError, match="^proposition over a different universe$"):
            filter_holds_at(table, labeling, "F1", PointSet(u1, 1))

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
        assert not result_of(report, "F3b").holds
        # hand-check of the two F3b clauses at this instance: the recovery
        # equation holds (entry & ~E equals the initial points) but the
        # dropped-disbelief clause fails (entry & E is empty)
        assert initial_mask & ~0b0011 == initial_mask
        assert initial_mask & 0b0011 == 0


class TestRecovery:
    def test_exhaustive_one_atom_equivalence(self, u1):
        # pins all_revision_tables and all_labelings: every case of the
        # fuzz recover-roundtrip check at one atom
        labelings = list(all_labelings(u1))
        verdicts = Counter()
        for table in all_revision_tables(u1):
            for labeling in labelings:
                lawful = check_filtered(table, labeling).all_hold
                outcome = recover_basic(table, labeling)
                assert lawful == bool(outcome)
                if lawful:
                    assert build_filtered(outcome.basic, labeling) == table
                verdicts[lawful] += 1
        # 3 initial theories x 4 ** 4 entry maps x 9 labelings
        assert sum(verdicts.values()) == 6_912
        assert verdicts[True] and verdicts[False]

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
            if check in _filter_faults(initial, e, labeling.labels[e], table._masks[e])
        ]
        witnesses = tuple(
            Witness(("E",), (PointSet(universe, e),), f"label {labeling.labels[e].value}")
            for e in failing[:5]
        )
        note = f"{len(failing)} failing propositions" if len(failing) > 5 else ""
        results.append(CheckResult(check, not failing, witnesses, note))
    results.append(CheckResult("F4", True, note="by representation: entries are keyed by truth sets"))
    return CheckReport("filtered revision laws", tuple(results))


def scan_step(event, got, initial, label):
    """One proposition of the ascending recovery scan: its selection
    value, or None where it is infeasible."""
    if event == 0:
        return 0 if got == initial else None
    overlap = event & initial
    if overlap:
        required = overlap if label is C else initial
        return overlap if got == required else None
    if label is C:
        return None if got == 0 or got & ~event else got
    if label is A:
        extra = got & ~initial
        return None if initial & ~got or extra == 0 or extra & ~event else extra
    return event if got == initial else None


def naive_recover_basic(filtered, labeling):
    """recover_basic as it was: scan the propositions in ascending order
    and stop at the first infeasible one, giving the laws that
    ``filter_holds_at`` finds failing there."""
    universe = filtered.universe
    initial = filtered.initial.points.mask
    choice = {}
    for event in range(universe.full_mask + 1):
        value = scan_step(event, filtered._masks[event], initial, labeling.labels[event])
        if value is None:
            e = PointSet(universe, event)
            failing = [check for check in _FILTER_CHECKS if not filter_holds_at(filtered, labeling, check, e)]
            return RecoveryOutcome(None, e, f"entry fails {', '.join(failing)}")
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
                for d in range(full + 1):
                    masks = [e ^ d for e in range(full + 1)]
                    table = RevisionTable.from_masks(u2, initial, masks)
                    fails = _filter_failures(table, labels)
                    for check in _FILTER_CHECKS:
                        expected = [
                            int(check in _filter_faults(initial, e, label, masks[e]))
                            for e in range(full + 1)
                        ]
                        assert bits(fails[check], u2.size) == expected, (initial, label, d, check)
                    infeasible = functools.reduce(operator.or_, fails.values())
                    for e in range(full + 1):
                        seen.add((initial, e, label, masks[e]))
                        if e == 0 and label is not R:
                            continue
                        value = scan_step(e, masks[e], initial, label)
                        assert infeasible >> e & 1 == (value is None), (initial, label, d, e)
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
                        lawful = not _filter_faults(initial, e, label, entry)
                        value = scan_step(e, entry, initial, label)
                        case = (initial, e, label, entry)
                        assert lawful == (value is not None) == (entry in routed), case
                        if value is not None:
                            assert value in values and route(value) == entry, case
                        checked += 1
        # labels C, A and R off the empty and full propositions, R on the
        # empty one and C on the full one
        assert checked == 15 * 16 * (14 * 3 + 2)

    def test_one_row_per_venn_pattern_settles_every_size(self):
        # docs/semantics.md, "Every size at once": each side reads (I, E,
        # T) only through which of the 7 Venn regions of I | E | T are
        # occupied.  Region r (bit 0: in I, bit 1: in E, bit 2: in T) holds
        # point r - 1 when occupied; the 8th point lies outside all three,
        # so E is never full and every label is one a labeling admits.
        universe = canonical_universe(("p", "q", "r"))
        route = {R: lambda i, v: i, A: lambda i, v: i | v, C: lambda i, v: v}
        rejected = dict.fromkeys(range(1, universe.full_mask), R)
        rows = 0
        for pattern in range(1 << 7):
            points = [r - 1 for r in range(1, 8) if pattern >> r - 1 & 1]
            initial, e, entry = (sum(1 << p for p in points if p + 1 >> k & 1) for k in range(3))
            # the selection values a basic table may hold at E
            values = [0] if e == 0 else [e & initial] if e & initial else submasks(e)[1:]
            for label in (C, A, R):
                if initial == 0 or (e == 0 and label is not R):  # no consistent I, no labeling
                    continue
                case = (initial, e, label, entry)
                faults = _filter_faults(initial, e, label, entry)
                value = scan_step(e, entry, initial, label)
                routed = {route[label](initial, v) for v in values}
                assert (not faults) == (value is not None) == (entry in routed), case
                if value is not None:
                    assert value in values and route[label](initial, value) == entry, case
                # every entry but E's is I under R (and under C on the
                # full proposition, where S = I), so lawful
                masks = [initial] * (universe.full_mask + 1)
                masks[e] = entry
                table = RevisionTable.from_masks(universe, initial, masks)
                labeling = CredibilityLabeling.from_overrides(universe, {**rejected, e: label})
                fails = _filter_failures(table, labeling._view)
                assert tuple(law for law in _FILTER_CHECKS if fails[law] >> e & 1) == faults, case
                # so the whole-table routings of recover_basic and
                # build_filtered settle on bit E as the per-tuple step
                outcome = recover_basic(table, labeling)
                if faults:
                    assert not outcome and outcome.infeasible.mask == e, case
                    assert outcome.reason == f"entry fails {', '.join(faults)}", case
                else:
                    assert outcome.basic._masks[e] == value, case
                    assert build_filtered(outcome.basic, labeling) == table, case
                # AGM2-5 at E are the selection invariants, so they admit
                # exactly the values above
                agm = _agm_failures(table)
                for postulate in (2, 3, 4, 5):
                    holds = _agm_mask_holds(masks, initial, postulate, e)
                    assert agm[f"AGM{postulate}"] >> e & 1 == (not holds), (case, postulate)
                assert (not any(bits >> e & 1 for bits in agm.values())) == (entry in values), case
                rows += 1
        # 120 patterns with I nonempty under R, 114 with I and E nonempty
        # under each of C and A
        assert rows == 120 + 2 * 114


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


class TestSharedPassingReport:
    """A passing check_filtered returns one shared report, equal to the
    per-proposition reference report, in text and JSON too.  A failing
    one stores its verdict and builds its results when they are read."""

    @staticmethod
    def same_report(table, labeling, made, seen):
        """The report's verdict builds nothing, and the report, read or
        not, equals the reference one, in text and JSON too.  The first
        time a report is ``seen`` it is also checked against the eager
        report of its fields, which are all that pickle, deepcopy, hash
        and repr read."""
        fresh = lambda: check_filtered(table, labeling)
        made.clear()
        verdict = fresh().all_hold
        assert not made
        expected = naive_check_filtered(table, labeling)
        assert fresh() == expected and expected == fresh()
        for render in (CheckReport.render_text, CheckReport.to_json):
            assert render(fresh()) == render(expected)
        assert (fresh() is revision._FILTER_HOLDS) == verdict == expected.all_hold
        key = repr(expected)
        if key not in seen:
            seen.add(key)
            assert assert_same_as_eager(fresh, {id(table.universe): table.universe}) == expected
        return verdict

    def test_every_one_atom_table_and_labeling(self, u1, made):
        cases = product(all_revision_tables(u1), all_labelings(u1))
        seen = set()
        verdicts = Counter(self.same_report(table, labeling, made, seen) for table, labeling in cases)
        assert verdicts[True] and verdicts[False] and len(seen) == 336

    @pytest.mark.parametrize("n_atoms,draws", [(2, 10), (3, 3)])
    def test_seeded_built_and_corrupted_tables(self, n_atoms, draws, made):
        universe = canonical_universe(("p", "q", "r")[:n_atoms])
        verdicts, seen = Counter(), set()
        for draw in range(draws):
            rng = Random(170 + 10 * n_atoms + draw)
            for kind, table in kernel_tables(n_atoms, seed=rng.randrange(10**6)):
                labeling = random_labeling(rng, universe)
                if kind in ("preorder", "selection"):
                    built = build_filtered(table, labeling)
                    assert self.same_report(built, labeling, made, seen)
                    masks = list(built._masks)
                    masks[rng.randrange(len(masks))] ^= 1 + rng.randrange(universe.full_mask)
                    table = RevisionTable.from_masks(universe, built.initial.points.mask, masks)
                verdicts[self.same_report(table, labeling, made, seen)] += 1
        assert verdicts[False]


def packed(table):
    """Whether the table's entry view has made its masks layout."""
    return hasattr(table.entries, "data")


def lazy_tables(n_atoms):
    """Makers of fresh tables from revision_from_preorder,
    build_filtered and recover_basic, each packed on first read, over
    one seeded draw."""
    universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
    rng = Random(190 + n_atoms)
    order = random_plausibility_order(rng, universe)
    basic = revision_from_selection(random_selection_function(rng, universe))
    labeling = random_labeling(rng, universe)
    built = build_filtered(basic, labeling)
    return {
        "preorder": lambda: revision_from_preorder(order),
        "build": lambda: build_filtered(basic, labeling),
        "recover": lambda: recover_basic(built, labeling).basic,
    }


class TestLazyPacking:
    """A table built from slices packs its entry array on first read; it
    equals the table packed eagerly from the same slices, and behaves as
    a mapping the same before and after that read."""

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_lazy_tables_equal_their_eager_packing(self, n_atoms):
        for kind, make in lazy_tables(n_atoms).items():
            table = make()
            size = table.universe.size
            eager = RevisionTable.from_masks(
                table.universe, table.initial.points.mask, _untranspose(table._slices, size)
            )
            assert not packed(table), kind
            assert table == eager
            assert packed(table)
            assert table._masks == eager._masks
            assert table._slices == _transpose(eager._masks, size)
            fresh = make()
            assert dict(fresh.entries) == dict(eager.entries)
            assert_entries_shared(fresh)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_mapping_protocol_before_and_after_the_first_read(self, n_atoms):
        makers = lazy_tables(n_atoms)
        full = makers["preorder"]().universe.full_mask
        keys = [0, 1, full, full + 1, 1 << 40, -1, -full - 1, True, 1.0, "1", None, (0,)]

        def lookup(entries, key):
            try:
                return entries[key].points.mask
            except KeyError as exc:
                return ("KeyError", exc.args)

        probes = {
            "len": len,
            "in": lambda entries: [key in entries for key in keys],
            "iter": list,
            "dict": lambda entries: {e: b.points.mask for e, b in entries.items()},
            "lookup": lambda entries: [lookup(entries, key) for key in keys],
        }
        for kind, make in makers.items():
            read = make()
            read.entries[0]  # the first read
            for name, probe in probes.items():
                fresh = make()
                assert probe(fresh.entries) == probe(read.entries), (kind, name)
        for make in makers.values():
            fresh = make()
            assert len(fresh.entries) == full + 1
            assert list(fresh.entries) == list(range(full + 1))
            assert [key in fresh.entries for key in keys] == [True] * 3 + [False] * 4 + [True] + [False] * 4
            assert not packed(fresh)
            for key in (-1, -full - 1, "1", None, (0,)):
                with pytest.raises(KeyError):
                    fresh.entries[key]
            assert not packed(fresh)  # rejected before the array is read

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_agm_one_to_six_read_no_array(self, n_atoms):
        # AGM2-5 are read off the slices, passing or failing; only AGM7/8
        # read the entries
        makers = lazy_tables(n_atoms)
        built = makers["build"]()
        assert not check_agm(built, (1, 2, 3, 4, 5, 6)).all_hold
        assert not packed(built)
        table = makers["preorder"]()
        assert check_agm(table, (1, 2, 3, 4, 5, 6)).all_hold
        assert not packed(table)
        if n_atoms < 4:  # AGM7 at 4 atoms takes seconds
            assert check_agm(table, (7,)).all_hold
            assert packed(table)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_recovery_round_trip_neither_packs_nor_transposes(self, n_atoms, monkeypatch):
        # recover_basic reads the built table's slices and keeps the ones
        # it routes, its selection check and build_filtered read those,
        # and two tables that keep slices compare by them
        universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
        rng = Random(220 + n_atoms)
        basic = revision_from_selection(random_selection_function(rng, universe))
        labeling = random_labeling(rng, universe)
        built = build_filtered(basic, labeling)
        calls = Counter()
        for name in ("_transpose", "_untranspose"):

            def counted(*args, name=name, convert=getattr(revision, name)):
                calls[name] += 1
                return convert(*args)

            monkeypatch.setattr(revision, name, counted)
        outcome = recover_basic(built, labeling)
        assert outcome and build_filtered(outcome.basic, labeling) == built
        assert not calls, calls

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_slice_equality_agrees_with_mask_equality(self, n_atoms):
        universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
        rng = Random(200 + n_atoms)
        basic = revision_from_selection(random_selection_function(rng, universe))
        labeling = random_labeling(rng, universe)
        built = build_filtered(basic, labeling)
        initial = built.initial.points.mask
        masks = built._masks.tolist()
        one_off = masks.copy()
        one_off[rng.randrange(len(masks))] ^= 1 << rng.randrange(universe.size)
        off = RevisionTable.from_masks(universe, initial, one_off)
        slices_off = _transpose(off._masks, universe.size)
        renamed = canonical_universe(("w", "x", "y", "z")[:n_atoms])
        makers = {
            "built": lambda: build_filtered(basic, labeling),
            "rebuilt": lambda: build_filtered(recover_basic(built, labeling).basic, labeling),
            "from masks": lambda: RevisionTable.from_masks(universe, initial, masks),
            "slices one off": lambda: RevisionTable._of_slices(
                universe, built.initial, list(slices_off)
            ),
            "masks one off": lambda: RevisionTable.from_masks(universe, initial, one_off),
            "renamed": lambda: RevisionTable._of_slices(
                renamed, BeliefSet(PointSet(renamed, initial)), list(built._slices)
            ),
        }
        with_slices = {"built", "rebuilt", "slices one off", "renamed"}
        classes = [{"built", "rebuilt", "from masks"}, {"slices one off", "masks one off"}]
        for (a, make_a), (b, make_b) in product(makers.items(), repeat=2):
            x, y = make_a(), make_b()
            got = x.entries == y.entries
            if a in with_slices and b in with_slices:
                assert not packed(x) and not packed(y), (a, b)
            same = x.universe == y.universe and x._masks.tolist() == y._masks.tolist()
            assert got == same, (a, b)
            assert got == (a == b or any({a, b} <= group for group in classes)), (a, b)


def permuted_table(table, perm):
    """The table with each state i moved to position ``perm[i]``: entry
    perm(E) is perm(B(E)), over the universe with its points moved."""
    masks = [0] * len(table._masks)
    for e, entry in enumerate(table._masks):
        masks[permute(perm, e)] = permute(perm, entry)
    universe = permuted_universe(table.universe, perm)
    return RevisionTable.from_masks(universe, permute(perm, table.initial.points.mask), masks)


def summary(report):
    """A report without its witnesses, which name states."""
    return report.all_hold, [(r.check, r.holds, r.note) for r in report.results]


class TestStateSymmetry:
    """No law reads a state's position: one seeded permutation of the
    states per case, applied to a table, its initial theory and its
    labeling, leaves every verdict and note unchanged, and
    ``build_filtered`` commutes with it."""

    @pytest.mark.parametrize("n_atoms,draws", [(1, 20), (2, 12), (3, 6)])
    def test_tables_and_labelings(self, n_atoms, draws):
        rng = Random(210 + n_atoms)
        for _ in range(draws):
            for kind, table in kernel_tables(n_atoms, seed=rng.randrange(10**6)):
                size = table.universe.size
                perm = rng.sample(range(size), size)
                labeling = random_labeling(rng, table.universe)
                image = permuted_table(table, perm)
                labels = {permute(perm, e): label for e, label in labeling.labels.items()}
                image_labeling = CredibilityLabeling(image.universe, labels)
                assert summary(check_agm(image)) == summary(check_agm(table)), kind
                filtered = summary(check_filtered(table, labeling))
                assert summary(check_filtered(image, image_labeling)) == filtered, kind
                if kind in ("preorder", "selection"):
                    built = build_filtered(image, image_labeling)
                    assert built == permuted_table(build_filtered(table, labeling), perm)
