import hashlib
import inspect
import itertools
import json
import re
import time
from collections import Counter
from dataclasses import replace
from random import Random

import pytest

from filtra import choice, reports
from filtra.choice import (
    BruteforceOutcome,
    ChoiceStructure,
    CounterModel,
    InvalidStructureError,
    agm_consistency_bruteforce,
    build_model,
    check_agm_consistency,
    extension_oracle,
    find_rationalizing_preorder,
    induced_beliefs,
    validate_structure,
    with_valuation,
)
from filtra.formulas import parse_formula
from filtra.revision import (
    Credibility,
    RecoveryOutcome,
    RevisionTable,
    check_agm,
    build_filtered,
    revision_from_preorder,
    revision_from_selection,
)
from filtra.sampling import (
    _cycled_universe,
    random_choice_structure,
    random_labeling,
    random_plausibility_order,
    random_selection_function,
)
from filtra.reports import CheckReport, CheckResult, Witness
from filtra.worlds import PointSet, SizeLimitError, Universe, canonical_universe, dnf_of, truth_set

from conftest import (
    all_choice_structures,
    all_labelings,
    all_selection_functions,
    assert_same_as_eager,
    enumerate_preorders,
    first_rationalizing_preorder,
    of_ids,
    permute,
    permuted_universe,
    result_of,
)

C, A, R = Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED


def detective_structure():
    universe = Universe.from_assignments(
        ("ann", "bob"),
        [("a", {"ann": True}), ("b", {"bob": True}), ("c", {})],
    )
    full = universe.full_mask
    mask_a = of_ids(universe, ["a"]).mask
    return ChoiceStructure(
        universe,
        credible=frozenset({full}),
        allowable=frozenset({mask_a}),
        rejected=frozenset({0}),
        f={full: full & ~mask_a, 0: full & ~mask_a, mask_a: full},
    )


def overlap_violation_structure():
    universe = Universe.from_assignments(("p",), [("s0", {"p": True}), ("s1", {})])
    full = universe.full_mask
    return ChoiceStructure(
        universe,
        credible=frozenset({full}),
        allowable=frozenset({1}),
        rejected=frozenset({0}),
        f={full: 1, 0: 1, 1: full},  # f(E) != f(omega) despite overlap
    )


def three_state_structure(credible, allowable, f_map):
    universe = Universe.from_assignments(
        ("p", "q"),
        [("s1", {}), ("s2", {"q": True}), ("s3", {"p": True})],
    )

    def mask(ids):
        return of_ids(universe, ids).mask

    credible_masks = frozenset({universe.full_mask} | {mask(e) for e in credible})
    allowable_masks = frozenset(mask(e) for e in allowable)
    f = {mask(event): mask(value) for event, value in f_map.items()}
    f[0] = f[universe.full_mask]
    return ChoiceStructure(
        universe, credible_masks, allowable_masks, frozenset({0}), f
    )


class TestValidation:
    def test_detective_structure_is_valid(self):
        assert validate_structure(detective_structure()).all_hold

    def test_empty_initial_choice_fails_3a(self):
        g = detective_structure()
        f = dict(g.f)
        f[g.universe.full_mask] = 0
        broken = ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, f)
        report = validate_structure(broken)
        assert not result_of(report, "3a").holds

    def test_choice_escaping_credible_menu_fails_3c(self):
        g = three_state_structure(
            credible=[["s1", "s2"]],
            allowable=[],
            f_map={("s1", "s2", "s3"): ["s1"], ("s1", "s2"): ["s3"]},
        )
        report = validate_structure(g)
        assert not result_of(report, "3c").holds
        witness = result_of(report, "3c").witnesses[0]
        assert set(witness.point_sets[0].ids) == {"s1", "s2"}

    def test_rejected_menu_must_repeat_initial_choice(self):
        g = detective_structure()
        f = dict(g.f)
        f[0] = g.f[g.universe.full_mask] | 1
        broken = ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, f)
        assert not result_of(validate_structure(broken), "3b").holds

    def test_overlapping_families_fail_clause_2(self):
        g = detective_structure()
        mask_a = next(iter(g.allowable))
        broken = ChoiceStructure(
            g.universe, g.credible | {mask_a}, g.allowable, g.rejected, dict(g.f)
        )
        assert not result_of(validate_structure(broken), "2").holds


class TestConsistencyCriteria:
    def test_detective_passes_via_clause_two(self):
        report = check_agm_consistency(detective_structure())
        assert report.all_hold
        assert report.notes == ("clause 2 holds at E = {a} with E' = {a}",)

    def test_credible_overlap_must_be_chosen_exactly(self):
        g = three_state_structure(
            credible=[["s2", "s3"]],
            allowable=[],
            f_map={("s1", "s2", "s3"): ["s1", "s2"], ("s2", "s3"): ["s3"]},
        )
        report = check_agm_consistency(g)
        result = result_of(report, "1a")
        assert not result.holds
        assert set(result.witnesses[0].point_sets[0].ids) == {"s2", "s3"}

    def test_allowable_disjoint_menu_must_extend_initial(self):
        g = three_state_structure(
            credible=[],
            allowable=[["s3"]],
            f_map={("s1", "s2", "s3"): ["s1", "s2"], ("s3",): ["s1", "s3"]},
        )
        report = check_agm_consistency(g)
        assert not result_of(report, "2").holds

    def test_invalid_structure_is_a_precondition_failure(self):
        g = detective_structure()
        f = dict(g.f)
        f[g.universe.full_mask] = 0
        f[0] = 0
        broken = ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, f)
        with pytest.raises(InvalidStructureError):
            check_agm_consistency(broken)


class TestModel:
    def test_detective_labels(self):
        g = detective_structure()
        model = build_model(g)
        canonical = model.canonical
        ann_mask = truth_set(parse_formula("ann", ("ann", "bob")), canonical).mask
        assert model.labeling.labels[ann_mask] is A
        assert model.labeling.labels[canonical.full_mask] is C
        # a class pinned by no family defaults to rejected
        bob_only = truth_set(parse_formula("~ann & bob", ("ann", "bob")), canonical).mask
        assert model.labeling.labels[bob_only] is R

    def test_labels_respect_the_family_constraints_everywhere(self):
        rng = Random(0)
        for _ in range(30):
            g = random_choice_structure(rng, 3)
            if not validate_structure(g).all_hold:
                continue
            model = build_model(g)
            for prop in range(model.canonical.full_mask + 1):
                image = model.image_of(prop)
                family = g.family_of(image)
                if family is not None:
                    assert model.labeling.labels[prop] is family


class TestInducedBeliefs:
    def test_detective_partial_revision(self):
        g = detective_structure()
        partial = induced_beliefs(build_model(g))
        atoms = g.universe.atoms
        assert partial.initial.contains(parse_formula("~ann", atoms))
        ann_info = truth_set(parse_formula("ann", atoms), g.universe)
        assert ann_info.mask in partial.entries
        entry = partial.entries[ann_info.mask]
        assert not entry.contains(parse_formula("ann", atoms))
        assert not entry.contains(parse_formula("~ann", atoms))

    def test_initial_theory_is_consistent_whenever_valid(self):
        rng = Random(1)
        for _ in range(50):
            g = random_choice_structure(rng, 3)
            if validate_structure(g).all_hold:
                assert induced_beliefs(build_model(g)).initial.is_consistent

    def test_unrepresentable_menus_stay_out(self):
        # two states sharing a valuation: their singletons are no truth set
        universe = Universe.from_assignments(
            ("p",), [("x", {"p": True}), ("y", {"p": True})]
        )
        full = universe.full_mask
        g = ChoiceStructure(
            universe,
            credible=frozenset({full, 1}),
            allowable=frozenset(),
            rejected=frozenset({0}),
            f={full: full, 0: full, 1: 1},
        )
        partial = induced_beliefs(build_model(g))
        assert sorted(partial.entries) == [0, full]


def vmask(model, mask):
    out = 0
    remaining = mask
    while remaining:
        low = remaining & -remaining
        out |= 1 << model.point_classes[low.bit_length() - 1]
        remaining ^= low
    return out


def menus_of(structure):
    """Every menu as (E, f(E), E's family), in ascending mask order."""
    return [(event, structure.f[event], structure.family_of(event)) for event in sorted(structure.events)]


def infeasible_event(menus, initial, saturate):
    """The first of ``menus`` whose pinned entry admits no selection
    value under the valuation with saturation map ``saturate``, with
    the filter law it fails, or None; ``initial`` is f(omega).

    This is the per-partition reference: the saturation conditions of
    docs/semantics.md ("Choice structures"), hand-derived from the
    filter laws.  Only menus equal to their saturation are pinned, and
    off f(omega) laws 3b-3d settle every condition but an allowable
    menu's two, which are both F3b.
    """
    sat_initial = saturate(initial)
    for event, chosen, family in menus:
        if saturate(event) != event:
            continue
        if event & initial:
            if family is C:
                if saturate(chosen) != saturate(event & initial):
                    return event, "F2a"
            elif saturate(chosen) != sat_initial:
                return event, "F2b"
        elif family is A:
            # no new beliefs, or a world outside the information
            if sat_initial & ~saturate(chosen) or (chosen & ~sat_initial) & ~event:
                return event, "F3b"
    return None


def walk_of(model):
    """``infeasible_event`` under the model's own valuation."""
    structure = model.structure
    saturate = choice._quotient(model.point_classes, model.canonical.size).saturate
    return infeasible_event(menus_of(structure), structure.f[structure.universe.full_mask], saturate)


def assert_oracle_equals_the_walk(model):
    """The oracle's verdict, reported menu and failing law equal the
    walk's; returns the verdict."""
    outcome = extension_oracle(model, build_certificate=False)
    found = walk_of(model)
    assert outcome.feasible == (found is None)
    if found is not None:
        event, law = found
        assert outcome.infeasible_event.mask == event
        assert outcome.reason == f"pinned entry fails {law}"
    return outcome.feasible


def revalued(rng, structure):
    """The structure under random rows of its own atoms."""
    atoms = structure.universe.atoms
    rows = [tuple(rng.random() < 0.5 for _ in atoms) for _ in range(structure.universe.size)]
    return with_valuation(structure, atoms, rows)


class TestExtensionOracle:
    def test_detective_certificate_reverifies(self):
        g = detective_structure()
        model = build_model(g)
        outcome = extension_oracle(model)
        assert outcome.feasible
        certificate = outcome.certificate
        assert check_agm(certificate.basic, (1, 2, 3, 4, 5, 6)).all_hold
        assert build_filtered(certificate.basic, model.labeling) == certificate.revision
        # the filtered table extends every pinned proposition
        for prop in range(model.canonical.full_mask + 1):
            image = model.image_of(prop)
            if image in g.events:
                expected = vmask(model, g.f[image])
                assert certificate.revision.entries[prop].points.mask == expected
        assert certificate.revision.initial.points.mask == vmask(
            model, g.f[g.universe.full_mask]
        )

    def test_certificates_reverify_on_random_conforming_structures(self):
        rng = Random(2)
        duplicate_rows = empty_rows = 0
        # 1 atom over 3-4 states puts several states on one row; 2-3
        # atoms over 3 states leave rows that no state lands on
        for n_states, atoms in [(3, ("p", "q")), (3, ("p",)), (4, ("p",)), (3, ("p", "q", "r"))]:
            checked = 0
            for _ in range(40):
                g = random_choice_structure(rng, n_states, atoms, conforming=True)
                if not validate_structure(g).all_hold:
                    continue
                model = build_model(g)
                outcome = extension_oracle(model)
                assert outcome.feasible
                checked += 1
                rows_used = len(set(model.point_classes))
                duplicate_rows += rows_used < n_states
                empty_rows += rows_used < model.canonical.size
                certificate = outcome.certificate
                assert check_agm(certificate.basic, (1, 2, 3, 4, 5, 6)).all_hold
                assert build_filtered(certificate.basic, model.labeling) == certificate.revision
                for prop in range(model.canonical.full_mask + 1):
                    image = model.image_of(prop)
                    if image in g.events:
                        assert certificate.revision.entries[prop].points.mask == vmask(
                            model, g.f[image]
                        )
            assert checked > 10
        assert duplicate_rows and empty_rows

    def test_feasible_models_always_recover_a_basic_table(self):
        # the extension check passing must imply that recover_basic
        # accepts the pinned filtered table, so a certificate is built
        structures = list(all_choice_structures(("p",)))
        rng = Random(17)
        for n_states, atoms in [(3, ("p",)), (3, ("p", "q")), (4, ("p",)), (4, ("p", "q"))]:
            for _ in range(60):
                structures.append(random_choice_structure(rng, n_states, atoms))
                # a conforming structure with one menu's choice redrawn
                # breaks at most that menu, near the feasibility boundary
                g = random_choice_structure(rng, n_states, atoms, conforming=True)
                menu = rng.choice(sorted(g.events))
                f = {**g.f, menu: rng.randrange(g.universe.full_mask + 1)}
                structures.append(ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, f))
        valid = [g for g in structures if validate_structure(g).all_hold]
        feasible = 0
        for g in valid:
            model = build_model(g)
            if not extension_oracle(model, build_certificate=False).feasible:
                continue
            feasible += 1
            certificate = extension_oracle(model).certificate
            assert check_agm(certificate.basic, (1, 2, 3, 4, 5, 6)).all_hold
            assert build_filtered(certificate.basic, model.labeling) == certificate.revision
        assert 100 < feasible < len(valid)

    def test_filter_laws_equal_the_walk_on_declared_and_revalued_rows(self):
        # every two-state shape at 1 and 2 atoms, and seeded draws (each
        # also with one choice redrawn) at 3-6 states over 1-3 atoms, each
        # under its declared rows and two random ones: states share rows
        # and rows go unrealized
        rng = Random(24)
        structures = [*all_choice_structures(("p",)), *all_choice_structures(("p", "q"))]
        for size in range(3, 7):
            for atoms in (("p",), ("p", "q"), ("p", "q", "r")):
                for _ in range(40):
                    g = random_choice_structure(rng, size, atoms)
                    structures += [g, corrupted(rng, g)]
        start = time.perf_counter()
        verdicts = Counter()
        shared = unrealized = 0
        for g in structures:
            if validate_structure(g).all_hold:
                for h in (g, revalued(rng, g), revalued(rng, g)):
                    model = build_model(h)
                    verdicts[assert_oracle_equals_the_walk(model)] += 1
                    rows = len(set(model.point_classes))
                    shared += rows < h.universe.size
                    unrealized += rows < model.canonical.size
        assert time.perf_counter() - start < 2.0
        assert verdicts.total() >= 2000 and verdicts[False] > 500
        assert shared > 500 and unrealized > 500

    def test_a_verdict_builds_no_table(self, monkeypatch):
        # at 4 atoms the pinned table has 65,536 entries; only the
        # certificate builds it
        rng = Random(240)
        structures = [random_choice_structure(rng, 6, ("p", "q", "r", "s")) for _ in range(4)]
        models = [build_model(h) for g in structures for h in (g, revalued(rng, g))]

        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(RevisionTable, "from_masks", refuse)
        verdicts = {assert_oracle_equals_the_walk(model) for model in models}
        assert verdicts == {True, False}
        feasible = next(model for model in models if walk_of(model) is None)
        with pytest.raises(AssertionError, match="a table was built"):
            extension_oracle(feasible)

    def test_a_failed_recovery_is_an_explicit_error(self, monkeypatch):
        def failing_recovery(filtered, labeling):
            return RecoveryOutcome(None, PointSet(filtered.universe, 1), "forced failure")

        monkeypatch.setattr(choice, "recover_basic", failing_recovery)
        with pytest.raises(RuntimeError, match="forced failure"):
            extension_oracle(build_model(detective_structure()))

    def test_violating_menu_is_infeasible_under_a_separating_valuation(self):
        g = three_state_structure(
            credible=[["s2", "s3"]],
            allowable=[],
            f_map={("s1", "s2", "s3"): ["s1", "s2"], ("s2", "s3"): ["s3"]},
        )
        model = build_model(g)  # the declared valuation is separating
        outcome = extension_oracle(model)
        assert not outcome.feasible
        assert set(outcome.infeasible_event.ids) == {"s2", "s3"}

    def test_minimal_event_families_are_trivially_extendable(self):
        universe = Universe.from_assignments(("p",), [("x", {"p": True}), ("y", {})])
        full = universe.full_mask
        g = ChoiceStructure(
            universe,
            credible=frozenset({full}),
            allowable=frozenset(),
            rejected=frozenset({0}),
            f={full: 1, 0: 1},
        )
        assert extension_oracle(build_model(g)).feasible
        assert agm_consistency_bruteforce(g).consistent


def structure_of_table(table, labeling):
    """A filtered table read as a full-domain structure: every
    proposition is a menu in its label's family, and f(E) = B(E)."""
    families = {C: set(), A: set(), R: set()}
    for mask, label in labeling.labels.items():
        families[label].add(mask)
    f = {mask: entry.points.mask for mask, entry in table.entries.items()}
    return ChoiceStructure(table.universe, *map(frozenset, families.values()), f)


class TestTableToStructure:
    """The converse of the extension oracle: a built filtered table, read
    as a structure, passes laws 2-3d, the criteria and the brute force,
    and the oracle's certificate is the table itself."""

    @staticmethod
    def assert_round_trip(star, labeling):
        table = build_filtered(star, labeling)
        structure = structure_of_table(table, labeling)
        assert validate_structure(structure).all_hold
        assert check_agm_consistency(structure).all_hold
        assert agm_consistency_bruteforce(structure).consistent
        assert extension_oracle(build_model(structure)).certificate.revision == table

    def test_every_one_atom_build(self, u1):
        labelings = list(all_labelings(u1))
        for selection in all_selection_functions(u1):
            for labeling in labelings:
                self.assert_round_trip(revision_from_selection(selection), labeling)

    def test_seeded_two_atom_builds(self, u2):
        rng = Random(190)
        for _ in range(200):
            star = revision_from_selection(random_selection_function(rng, u2))
            self.assert_round_trip(star, random_labeling(rng, u2))


class TestBruteforce:
    def test_detective_is_consistent_under_every_valuation(self):
        outcome = agm_consistency_bruteforce(detective_structure())
        assert outcome.consistent
        assert outcome.valuations_checked == 5

    def test_allowable_overlap_violation_has_a_counter_model(self):
        g = overlap_violation_structure()
        assert not check_agm_consistency(g).all_hold
        outcome = agm_consistency_bruteforce(g)
        assert not outcome.consistent
        counter = outcome.counterexample
        assert counter is not None
        # replay the counter-model through the explicit oracle
        replayed = with_valuation(g, counter.atoms, counter.rows())
        replay_outcome = extension_oracle(build_model(replayed))
        assert not replay_outcome.feasible
        assert replay_outcome.infeasible_event.mask == counter.event.mask
        assert replay_outcome.reason == counter.reason == "pinned entry fails F2b"

    def test_matches_the_full_valuation_product_at_two_states(self):
        structures = [g for g in all_choice_structures() if validate_structure(g).all_hold]
        assert len(structures) > 50
        verdicts = {assert_matches_full_product(g, n_atoms=1) for g in structures}
        assert verdicts == {True, False}

    def test_matches_the_full_valuation_product_at_three_states(self):
        rng = Random(11)
        verdicts = [assert_matches_full_product(random_choice_structure(rng, 3), n_atoms=2) for _ in range(2000)]
        assert 100 < sum(verdicts) < 1900

    @pytest.mark.parametrize(
        ("states", "atoms", "count"), [(3, None, 5), (4, None, 15), (3, 1, 4), (4, 1, 8), (2, 3, 2)]
    )
    def test_consistent_structures_check_one_valuation_per_partition(self, states, atoms, count):
        n_atoms = atoms or (states - 1).bit_length()  # the default budget is ceil(log2 states)
        assert count == sum(stirling2(states, k) for k in range(1, 2**n_atoms + 1))
        rng = Random(5)
        g = random_choice_structure(rng, states, conforming=True)
        while not check_agm_consistency(g).all_hold:
            g = random_choice_structure(rng, states, conforming=True)
        outcome = agm_consistency_bruteforce(g, atoms=atoms)
        assert outcome.consistent
        assert outcome.valuations_checked == count

    def test_criteria_and_bruteforce_agree_on_random_structures(self):
        rng = Random(3)
        seen = {True: 0, False: 0}
        for _ in range(300):
            g = random_choice_structure(rng, 3)
            if not validate_structure(g).all_hold:
                continue
            direct = check_agm_consistency(g).all_hold
            assert direct == agm_consistency_bruteforce(g).consistent
            seen[direct] += 1
        assert seen[True] and seen[False]


def single_menu_structures(size):
    """Every valid structure over ``size`` states whose menus are the
    full one, the empty one and one proper nonempty E."""
    universe = Universe.from_assignments(
        ("p", "q"), [(f"s{i}", {"p": bool(i >> 1 & 1), "q": bool(i & 1)}) for i in range(size)]
    )
    full = universe.full_mask
    for initial, event in itertools.product(range(1, full + 1), range(1, full)):
        picks = {
            C: [c for c in range(1, full + 1) if not c & ~event],  # law 3c
            A: [c for c in range(full + 1) if c & event],  # law 3d
            R: [initial],  # law 3b
        }
        for family, values in picks.items():
            menus = {C: {full}, A: set(), R: {0}}
            menus[family].add(event)
            credible, allowable, rejected = map(frozenset, menus.values())
            for chosen in values:
                f = {full: initial, 0: initial, event: chosen}
                yield ChoiceStructure(universe, credible, allowable, rejected, f)


class TestOneMenuAtATime:
    """Criteria and oracle read one menu at a time, so they agree on
    every structure over ``size`` states iff they agree on every valid
    single-menu one (docs/semantics.md, "One menu at a time")."""

    @pytest.mark.parametrize(("size", "count"), [(2, 24), (3, 336), (4, 3360)])
    def test_criteria_equal_bruteforce_on_every_single_menu_structure(self, size, count):
        verdicts = {C: set(), A: set(), R: set()}
        structures = 0
        for g in single_menu_structures(size):
            assert validate_structure(g).all_hold
            direct = check_agm_consistency(g).all_hold
            assert direct == agm_consistency_bruteforce(g).consistent
            (event,) = g.events - {0, g.universe.full_mask}
            verdicts[g.family_of(event)].add(direct)
            structures += 1
        assert structures == count
        # law 3b pins a rejected menu; at 2 states a credible menu is a
        # singleton that law 3c pins to itself
        assert verdicts[R] == {True} and verdicts[A] == {True, False}
        assert verdicts[C] == ({True} if size == 2 else {True, False})

    def test_one_row_per_menu_pattern_settles_every_size(self):
        # docs/semantics.md, "Every size, one menu at a time": under a
        # fixed budget both sides read a single-menu structure only through
        # E's family and which of the 8 regions of f(omega), E and f(E) are
        # occupied, the one outside all three included.  Region r (bit 0:
        # in f(omega), bit 1: in E, bit 2: in f(E)) holds one state when
        # occupied.  The walk is the oracle one partition at a time, which
        # the brute force's state cap does not bound.
        rows = []
        for pattern in range(1 << 8):
            regions = [r for r in range(8) if pattern >> r & 1]
            initial, event, chosen = (sum(1 << i for i, r in enumerate(regions) if r >> k & 1) for k in range(3))
            full = (1 << len(regions)) - 1
            if not initial or event in (0, full):  # law 3a; E is a third menu
                continue
            universe = _cycled_universe(("p", "q", "r"), len(regions))
            for family, lawful in ((C, chosen and not chosen & ~event), (A, chosen & event), (R, chosen == initial)):
                if lawful:  # laws 3c, 3d and 3b
                    menus = {C: {full}, A: set(), R: {0}}
                    menus[family].add(event)
                    f = {full: initial, 0: initial, event: chosen}
                    rows.append(ChoiceStructure(universe, *map(frozenset, menus.values()), f))
        assert Counter(g.universe.size for g in rows) == {2: 12, 3: 44, 4: 67, 5: 56, 6: 28, 7: 8, 8: 1}
        for budget in (1, 2, 3):
            agree, consistent = Counter(), 0  # rows by state count
            for g in rows:
                assert validate_structure(g).all_hold
                walk = naive_bruteforce(g, budget)
                if g.universe.size <= 4:
                    assert agm_consistency_bruteforce(g, budget) == walk
                agree[g.universe.size] += check_agm_consistency(g).all_hold == walk.consistent
                consistent += walk.consistent
            assert len(rows) == 216
            if budget == 1:  # two blocks miss failures, but not at two states
                assert agree.total() == 72 and agree[2] == 12 and consistent == 216 - 44
            else:
                assert agree.total() == 216 and consistent == 216 - 188


def naive_union_through(table, mask):
    """Union of ``table[i]`` over the set bits i of ``mask``, one bit at
    a time (the test oracle for the quotient's lookup tables)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def naive_row_partitions(size, max_blocks):
    """Restricted growth strings of length ``size`` with at most
    ``max_blocks`` blocks, generated depth-first in lexicographic order."""

    def extend(rgs, blocks):
        if len(rgs) == size:
            yield rgs
            return
        for block in range(min(blocks + 1, max_blocks)):
            yield from extend(rgs + (block,), max(blocks, block + 1))

    return extend((), 0)


class TestQuotient:
    @pytest.mark.parametrize("size", range(1, 11))
    def test_lookup_tables_equal_the_bit_loop_on_every_mask(self, size):
        # up to 10 states and 12 rows, so arguments cross the 8-bit
        # boundary between lookup tables; rows no state lands on stay
        # empty
        rng = Random(size)
        for _ in range(4):
            n_rows = rng.randint(1, 12)
            point_classes = tuple(rng.randrange(n_rows) for _ in range(size))
            quotient = choice._Quotient(point_classes, n_rows)
            row_states = [0] * n_rows
            for i, row in enumerate(point_classes):
                row_states[row] |= 1 << i
            row_bits = [1 << row for row in point_classes]
            saturation = [row_states[row] for row in point_classes]
            for mask in range(1 << size):
                assert quotient.rows(mask) == naive_union_through(row_bits, mask)
                assert quotient.saturate(mask) == naive_union_through(saturation, mask)
            for row_mask in range(1 << n_rows):
                assert quotient.states(row_mask) == naive_union_through(row_states, row_mask)

    @pytest.mark.parametrize("size", range(1, 7))
    def test_row_partitions_are_the_restricted_growth_strings(self, size):
        for max_blocks in range(1, 9):
            partitions = choice._row_partitions(size, max_blocks)
            assert partitions == tuple(naive_row_partitions(size, max_blocks))
            assert list(partitions) == sorted(partitions)
            count = sum(stirling2(size, k) for k in range(1, max_blocks + 1))
            assert len(partitions) == len(set(partitions)) == count


def naive_bruteforce(structure, atoms=None):
    """The oracle one partition at a time: run ``infeasible_event``
    through each partition's saturation map, in ``_row_partitions``
    order, and stop at the first infeasible menu (the test oracle for
    the bit-sliced ``agm_consistency_bruteforce``)."""
    universe = structure.universe
    n_atoms = atoms if atoms is not None else max(1, (universe.size - 1).bit_length())
    menus = menus_of(structure)
    initial = structure.f[universe.full_mask]
    partitions = choice._row_partitions(universe.size, 1 << n_atoms)
    for checked, valuation in enumerate(partitions, 1):
        found = infeasible_event(menus, initial, choice._quotient(valuation, max(valuation) + 1).saturate)
        if found is not None:
            event, law = found
            assignments = tuple(
                (point.id, tuple(bool(cls >> (n_atoms - 1 - j) & 1) for j in range(n_atoms)))
                for point, cls in zip(universe.points, valuation)
            )
            atom_names = tuple(f"a{i}" for i in range(n_atoms))
            reason = f"pinned entry fails {law}"
            counter = CounterModel(atom_names, assignments, PointSet(universe, event), reason)
            return BruteforceOutcome(False, checked, counter)
    return BruteforceOutcome(True, len(partitions))


BUDGETS = (None, 1, 2, 3, 4)


def assert_counter_model_on_first_read(structure, budget, made):
    """The structure's oracle outcome under ``budget``: its verdict and
    count build no counter-model or point set, the first read of its
    counter-model builds one, once, and, read or not, it is the eager
    outcome of its fields to ``type``, ``==`` both ways, ``hash``,
    ``repr``, ``pickle`` and ``deepcopy``."""
    made.clear()
    outcome = agm_consistency_bruteforce(structure, atoms=budget)
    consistent, checked = outcome.consistent, outcome.valuations_checked
    assert not made
    counter = outcome.counterexample
    built = Counter() if consistent else Counter(build=1, CounterModel=1, PointSet=1)
    assert made == built and (counter is None) == consistent
    assert outcome.counterexample is counter and made == built
    # the deep copy keeps the universe the counter-model's menu shares
    fresh = lambda: agm_consistency_bruteforce(structure, atoms=budget)
    eager = assert_same_as_eager(fresh, {id(structure.universe): structure.universe})
    assert outcome == eager == BruteforceOutcome(consistent, checked, counter)
    return outcome


class TestBitSlicedOracle:
    """The oracle decides every partition at once; it must return what
    the one-partition-at-a-time loop returns, counter-model included.
    A failing outcome builds its counter-model only when it is read."""

    @pytest.mark.parametrize("atoms", [("p",), ("p", "q")], ids=["1atom", "2atoms"])
    def test_equals_the_per_partition_loop_on_every_two_state_structure(self, atoms, made):
        failing = 0
        for g in all_choice_structures(atoms):
            if not validate_structure(g).all_hold:
                continue
            for budget in BUDGETS:
                outcome = assert_counter_model_on_first_read(g, budget, made)
                assert outcome == naive_bruteforce(g, budget)
                failing += not outcome.consistent
        assert failing > 50

    @pytest.mark.parametrize("conforming", [True, False])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_equals_the_per_partition_loop_on_seeded_draws(self, size, conforming, made):
        rng = Random(f"bitsliced:{size}:{conforming}")
        counts = {True: 0, False: 0}
        counter_models = set()  # (valuations checked, reason) per failure
        for _ in range(500):
            g = random_choice_structure(rng, size, conforming=conforming)
            for budget in BUDGETS:
                outcome = assert_counter_model_on_first_read(g, budget, made)
                assert outcome == naive_bruteforce(g, budget)
                counts[outcome.consistent] += 1
                counter = outcome.counterexample
                if counter is not None:
                    counter_models.add((outcome.valuations_checked, counter.reason))
                    # a replay labels all 2**2**atoms canonical propositions
                    if len(counter.atoms) <= 2:
                        replayed = build_model(with_valuation(g, counter.atoms, counter.rows()))
                        assert extension_oracle(replayed, build_certificate=False).reason == counter.reason
        if conforming:  # conforming draws pass the criteria
            assert counts == {True: 500 * len(BUDGETS), False: 0}
            return
        assert counts[True] > 100 and counts[False] > 500
        if size > 2:  # failures at several partitions, for every law
            assert len({checked for checked, _ in counter_models}) > 2
            assert {reason for _, reason in counter_models} == {
                f"pinned entry fails {law}" for law in ("F2a", "F2b", "F3b")
            }

    @pytest.mark.parametrize("size", range(1, 5))
    def test_tables_equal_each_partitions_saturation(self, size):
        masks = range(1 << size)
        for max_blocks in (2, 4, 8, 16):
            partitions, closed, within = choice._partition_tables(size, max_blocks)
            assert partitions == choice._row_partitions(size, max_blocks)
            assert len(closed) == len(within) == 1 << size
            every = (1 << len(partitions)) - 1
            assert all(not bits & ~every for bits in (*closed, *itertools.chain(*within)))
            for k, rgs in enumerate(partitions):
                saturate = choice._quotient(rgs, max(rgs) + 1).saturate
                for y in masks:
                    assert bool(closed[y] >> k & 1) == (saturate(y) == y)
                    for x in masks:
                        assert bool(within[x][y] >> k & 1) == (x & ~saturate(y) == 0)

    def test_size_refusals(self):
        universe = Universe.from_assignments(("p",), [(f"s{i}", {}) for i in range(5)])
        full = universe.full_mask
        five = ChoiceStructure(universe, frozenset({full}), frozenset(), frozenset({0}), {full: 1, 0: 1})
        with pytest.raises(SizeLimitError) as raised:
            agm_consistency_bruteforce(five)
        assert str(raised.value) == "brute force supports up to 4 states, got 5"
        universe = Universe.from_assignments(("p",), [(f"s{i}", {}) for i in range(7)])
        full = universe.full_mask
        seven = ChoiceStructure(universe, frozenset({full}), frozenset(), frozenset({0}), {full: 1, 0: 1})
        # rationalization has no size limit
        assert find_rationalizing_preorder(seven).ranks == tuple(range(7))
        for budget in (0, 5):
            with pytest.raises(SizeLimitError) as raised:
                agm_consistency_bruteforce(detective_structure(), atoms=budget)
            assert str(raised.value) == f"atom budget must be 1..4, got {budget}"
        assert list(inspect.signature(agm_consistency_bruteforce).parameters) == ["structure", "atoms"]

    @pytest.mark.parametrize("budget", [2.0, True, "2"])
    def test_atom_budget_must_be_an_int(self, budget):
        # 2.0 and "2" used to raise TypeError from << or <=, and True
        # would have run as a budget of one atom
        with pytest.raises(SizeLimitError) as raised:
            agm_consistency_bruteforce(detective_structure(), atoms=budget)
        assert str(raised.value) == f"atom budget must be 1..4, got {budget!r}"


def stirling2(n, k):
    """Partitions of n labelled states into exactly k nonempty blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def assert_matches_full_product(structure, n_atoms):
    """Run the feasibility check on every valuation of ``n_atoms`` atoms
    over the states (no reduction at all), assert that the oracle gives
    the same verdict and that its counter-model replays, and return the
    verdict."""
    menus = menus_of(structure)
    initial = structure.f[structure.universe.full_mask]
    consistent = all(
        infeasible_event(menus, initial, choice._quotient(valuation, 1 << n_atoms).saturate) is None
        for valuation in itertools.product(range(1 << n_atoms), repeat=structure.universe.size)
    )
    outcome = agm_consistency_bruteforce(structure, atoms=n_atoms)
    assert outcome.consistent == consistent
    counter = outcome.counterexample
    assert (counter is None) == consistent
    if counter is not None:
        replayed = with_valuation(structure, counter.atoms, counter.rows())
        replay = extension_oracle(build_model(replayed), build_certificate=False)
        assert not replay.feasible
        assert replay.infeasible_event.mask == counter.event.mask
        assert replay.reason == counter.reason
    return consistent


def test_witness_formulas_are_built_only_when_rendered(monkeypatch):
    g = overlap_violation_structure()
    calls = []

    def counting_dnf_of(ps):
        calls.append(ps)
        return dnf_of(ps)

    monkeypatch.setattr(reports, "dnf_of", counting_dnf_of)
    lazy = check_agm_consistency(g)
    assert not lazy.all_hold
    assert calls == []
    text, payload = lazy.render_text(), lazy.to_json()
    witnesses = [w for result in lazy.results for w in result.witnesses]
    assert len(calls) == sum(len(w.point_sets) for w in witnesses)  # once per point set

    eager = check_agm_consistency(g)
    for result in eager.results:
        for witness in result.witnesses:
            witness.__dict__["formulas"] = tuple(dnf_of(ps) for ps in witness.point_sets)
    assert any(formula is not None for w in witnesses for formula in w.formulas)
    assert (text, payload) == (eager.render_text(), eager.to_json())


def replay_validation_witness(structure, check, event_mask):
    """Definitional re-check of one structural clause at one menu,
    written out independently of the checker."""
    f = structure.f
    full = structure.universe.full_mask
    if check == "3a":
        return f.get(full, 0) != 0
    if check == "3b":
        return f[event_mask] == f.get(full)
    if check == "3c":
        return f[event_mask] != 0 and f[event_mask] & ~event_mask == 0
    if check == "3d":
        return f[event_mask] & event_mask != 0
    raise AssertionError(check)


def replay_criteria_witness(structure, check, event_mask):
    f = structure.f
    initial = f[structure.universe.full_mask]
    if check == "1a":
        return f[event_mask] == event_mask & initial
    if check == "1b":
        return f[event_mask] == initial
    if check == "2":
        extra = f[event_mask] & ~initial
        return (
            initial & ~f[event_mask] == 0 and extra != 0 and extra & ~event_mask == 0
        )
    raise AssertionError(check)


def test_reported_witnesses_replay_their_failures():
    rng = Random(9)
    replayed = 0
    for _ in range(400):
        g = random_choice_structure(rng, 3)
        if rng.random() < 0.5:
            # corrupt one choice value so the structural laws can fail too
            f = dict(g.f)
            target = rng.choice(sorted(f))
            f[target] = rng.randrange(g.universe.full_mask + 1)
            g = ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, f)
        report = validate_structure(g)
        for result in report.failures():
            if result.check == "2":
                continue  # family-membership clause, no per-menu predicate
            for witness in result.witnesses:
                event = witness.point_sets[0].mask
                assert not replay_validation_witness(g, result.check, event)
                replayed += 1
        if not report.all_hold:
            continue
        for result in check_agm_consistency(g).failures():
            for witness in result.witnesses:
                event = witness.point_sets[0].mask
                assert not replay_criteria_witness(g, result.check, event)
                replayed += 1
    assert replayed > 50


def test_guards_build_the_validation_report_only_on_a_fault(monkeypatch):
    rng = Random(11)
    built = []
    validate = choice.validate_structure

    def counting_validate(structure):
        built.append(structure)
        return validate(structure)

    monkeypatch.setattr(choice, "validate_structure", counting_validate)
    guards = (check_agm_consistency, agm_consistency_bruteforce, build_model, find_rationalizing_preorder)
    invalid = 0
    for _ in range(200):
        g = random_choice_structure(rng, 3)
        if rng.random() < 0.5:
            f = dict(g.f)
            f[rng.choice(sorted(f))] = rng.randrange(g.universe.full_mask + 1)
            g = ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, f)
        expected = validate_structure(g)
        built.clear()
        for guard in guards:
            if expected.all_hold:
                guard(g)
            else:
                with pytest.raises(InvalidStructureError) as raised:
                    guard(g)
                assert raised.value.report == expected
                assert raised.value.report.render_text() == expected.render_text()
        assert len(built) == (0 if expected.all_hold else len(guards))
        invalid += not expected.all_hold
    assert 20 < invalid < 180


def naive_structure_faults(structure):
    """Laws 2-3d one family at a time, every failing instance as
    (clause, ((name, mask), ...), detail) in clause order: the
    predecessor of ``_structure_faults``, kept as its test oracle."""
    full = structure.universe.full_mask
    f = structure.f
    faults = []

    pairs = [
        ("credible", structure.credible, "allowable", structure.allowable),
        ("credible", structure.credible, "rejected", structure.rejected),
        ("allowable", structure.allowable, "rejected", structure.rejected),
    ]
    for name_a, fam_a, name_b, fam_b in pairs:
        for mask in sorted(fam_a & fam_b):
            faults.append(("2", (("E", mask),), f"in both {name_a} and {name_b}"))
    if full not in structure.credible:
        faults.append(("2", (("E", full),), "full menu is not credible"))
    if 0 not in structure.rejected:
        faults.append(("2", (("E", 0),), "empty menu is not rejected"))

    f_omega = f.get(full)
    if f_omega is None:
        faults.append(("3a", (("E", full),), "no choice at the full menu"))
    elif f_omega == 0:
        faults.append(("3a", (("f(omega)", 0),), "nothing is initially possible"))

    menu_clauses = (
        ("3b", [m for m in structure.rejected if f[m] != f_omega], "differs from f(omega)"),
        ("3c", [m for m in structure.credible if f[m] == 0 or f[m] & ~m], "must be nonempty and within E"),
        ("3d", [m for m in structure.allowable if f[m] & m == 0], "must keep part of E possible"),
    )
    for clause, failing, detail in menu_clauses:
        faults.extend((clause, (("E", m), ("f(E)", f[m])), detail) for m in sorted(failing))
    return faults


def naive_fault_report(structure, title, clauses, faults, leading=(), notes=()):
    """A fresh result per clause, each failing witness built from its
    (name, mask) pairs one at a time."""
    universe = structure.universe
    witnesses = {clause: [] for clause in clauses}
    for clause, parts, detail in faults:
        witnesses[clause].append(
            Witness(
                tuple(name for name, _ in parts),
                tuple(PointSet(universe, mask) for _, mask in parts),
                detail,
            )
        )
    results = [CheckResult(clause, not found, tuple(found)) for clause, found in witnesses.items()]
    return CheckReport(title, (*leading, *results), tuple(notes))


def naive_validate_structure(structure):
    law_1 = CheckResult("1", True, note="state space is nonempty by construction")
    return naive_fault_report(
        structure, "choice structure laws", ("2", "3a", "3b", "3c", "3d"), naive_structure_faults(structure), [law_1]
    )


def naive_check_agm_consistency(structure):
    """The criteria over every menu, rejected ones included, by family,
    rendering each id through a point set (the predecessor of the
    bare-mask ``check_agm_consistency``)."""
    if naive_structure_faults(structure):
        raise InvalidStructureError(naive_validate_structure(structure))
    universe = structure.universe
    initial = structure.f[universe.full_mask]
    faults = []
    notes = []
    for event in sorted(structure.events):
        chosen, family = structure.f[event], structure.family_of(event)
        parts = (("E", event), ("f(E)", chosen))
        if event & initial:
            if family is Credibility.CREDIBLE and chosen != event & initial:
                overlap = PointSet(universe, event & initial).render()
                faults.append(("1a", parts, f"required {overlap}"))
            if family is Credibility.ALLOWABLE and chosen != initial:
                required = PointSet(universe, initial).render()
                faults.append(("1b", parts, f"required f(omega) = {required}"))
        elif family is Credibility.ALLOWABLE:
            extra = chosen & ~initial
            if initial & ~chosen or extra == 0 or extra & ~event:
                faults.append(("2", parts, "must equal f(omega) plus a nonempty part of E"))
            else:
                menu, part = (PointSet(universe, mask).render() for mask in (event, extra))
                notes.append(f"clause 2 holds at E = {menu} with E' = {part}")
    return naive_fault_report(structure, "consistency criteria", ("1a", "1b", "2"), faults, notes=notes)


def assert_same_reports(structure):
    """Both checks give their predecessors' reports, or raise the same
    refusal; returns (valid, consistent), consistent None if invalid."""
    verdicts = []
    for check, naive in (
        (validate_structure, naive_validate_structure),
        (check_agm_consistency, naive_check_agm_consistency),
    ):
        try:
            expected = naive(structure)
        except InvalidStructureError as refusal:
            with pytest.raises(InvalidStructureError) as raised:
                check(structure)
            assert str(raised.value) == str(refusal)
            expected, report = refusal.report, raised.value.report
            verdicts.append(None)
        else:
            report = check(structure)
            verdicts.append(report.all_hold)
        assert report == expected
        assert report.render_text() == expected.render_text()
        assert report.to_json() == expected.to_json()
    return tuple(verdicts)


def assert_built_on_first_read(structure, made):
    """The structure's deferred report (the criteria's, or the
    structural one of an invalid structure): its verdict renders no id
    and builds no witness or point set, the first read of its results
    or notes builds both once, and, read or not, it is the eager report
    of its fields to ``type``, ``==`` both ways, ``hash``, ``repr``,
    ``pickle`` and ``deepcopy``."""
    check = check_agm_consistency if not structure._faults else validate_structure
    for first, then in (("results", "notes"), ("notes", "results")):
        made.clear()
        report = check(structure)
        verdict = report.all_hold
        assert not made
        getattr(report, first)
        built = Counter(made)
        getattr(report, then)
        assert built["build"] == 1 and made == built
    # the deep copy keeps the universe every witness shares: only the
    # report's own objects are copied
    eager = assert_same_as_eager(lambda: check(structure), {id(structure.universe): structure.universe})
    assert report == eager and verdict == eager.all_hold
    return report


def corrupted(rng, structure):
    """The structure with one choice value redrawn at random."""
    f = dict(structure.f)
    f[rng.choice(sorted(f))] = rng.randrange(structure.universe.full_mask + 1)
    return ChoiceStructure(structure.universe, structure.credible, structure.allowable, structure.rejected, f)


def edge_case(credible, allowable, rejected, f):
    """A three-state structure, menus and choices as masks (full = 7)."""
    universe = Universe.from_assignments(("p", "q"), [("s1", {}), ("s2", {"q": True}), ("s3", {"p": True})])
    return ChoiceStructure(universe, frozenset(credible), frozenset(allowable), frozenset(rejected), f)


# Structures the samplers never draw, each with the clauses it fails.
EDGE_CASES = {
    "menu-in-two-families": (edge_case({7, 1}, {1}, {0}, {7: 1, 1: 1, 0: 1}), ["2"]),
    "menu-in-three-families": (edge_case({7, 3}, {3}, {0, 3}, {7: 1, 3: 2, 0: 1}), ["2", "3b"]),
    "full-menu-in-no-family": (edge_case({1}, {2}, {0}, {1: 1, 2: 2, 0: 1}), ["2", "3a", "3b"]),
    "full-menu-allowable": (edge_case({1}, {7}, {0}, {1: 1, 7: 1, 0: 1}), ["2"]),
    "empty-menu-in-no-family": (edge_case({7}, {6}, {4}, {7: 1, 6: 3, 4: 1}), ["2"]),
    "empty-menu-credible": (edge_case({7, 0}, set(), {2}, {7: 1, 0: 1, 2: 1}), ["2", "3c"]),
    "no-rejected-menu": (edge_case({7, 1}, {6}, set(), {7: 1, 1: 1, 6: 3}), ["2"]),
    "nothing-initially-possible": (edge_case({7}, {2}, {0}, {7: 0, 2: 2, 0: 0}), ["3a", "3c"]),
    "everything-fails": (edge_case({7, 0, 2}, {2, 5}, {0, 6}, {7: 0, 0: 0, 2: 4, 5: 2, 6: 1}), ["2", "3a", "3b", "3c", "3d"]),
}


class TestMaskChecksEqualTheirPredecessors:
    """``validate_structure`` and ``check_agm_consistency`` read bare
    masks and share passing results; their reports and refusals must be
    the ones the per-family, point-set versions built.  A report that
    is not the shared passing one builds its results and notes only
    when read."""

    def test_every_two_state_structure(self, made):
        verdicts, deferred = Counter(), Counter()
        for g in all_choice_structures(("p",)):
            verdicts[assert_same_reports(g)] += 1
            report = assert_built_on_first_read(g, made)
            deferred[report.all_hold, bool(report.notes)] += 1
        assert sum(verdicts.values()) == 2704
        assert set(verdicts) == {(False, None), (True, True), (True, False)}
        assert set(deferred) == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("conforming", [True, False])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_seeded_draws_and_their_corruptions(self, size, conforming, made):
        rng = Random(f"maskchecks:{size}:{conforming}")
        drawn, broken, noted = Counter(), Counter(), 0
        for _ in range(500):
            g = random_choice_structure(rng, size, conforming=conforming)
            drawn[assert_same_reports(g)] += 1
            noted += bool(assert_built_on_first_read(g, made).notes)
            g = corrupted(rng, g)
            broken[assert_same_reports(g)] += 1
            assert_built_on_first_read(g, made)
        if conforming:  # conforming draws pass the criteria
            assert drawn == {(True, True): 500}
        else:
            assert drawn[True, False] > 100
        assert broken[False, None] > 300 and broken[True, False] > 10
        assert noted > 10

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_hand_built_edge_cases(self, name, made):
        g, failing = EDGE_CASES[name]
        assert assert_same_reports(g) == (False, None)
        assert_built_on_first_read(g, made)
        assert [result.check for result in validate_structure(g).failures()] == failing

    def test_passing_results_are_shared_and_carry_no_witness(self):
        g = detective_structure()
        for report in (validate_structure(g), validate_structure(g), check_agm_consistency(g)):
            assert report.all_hold
            for result in report.results:
                assert result is choice._HOLDS[result.check] and result.witnesses == ()
        # every valid structure shares one structural report
        assert validate_structure(g) is validate_structure(random_choice_structure(Random(3), 4))

    def test_each_structure_is_scanned_once(self, monkeypatch):
        scanned = []
        scan = choice._structure_faults
        monkeypatch.setattr(choice, "_structure_faults", lambda g: scanned.append(g) or scan(g))
        checks = (
            validate_structure,
            check_agm_consistency,
            agm_consistency_bruteforce,
            build_model,
            find_rationalizing_preorder,
        )
        # a copy of the shared edge case, which earlier tests may have scanned
        valid, invalid = detective_structure(), replace(EDGE_CASES["everything-fails"][0])
        for g in (valid, invalid, valid, invalid):
            for check in checks:
                try:
                    check(g)
                except InvalidStructureError:
                    assert g is invalid
        assert scanned == [valid, invalid]


def verdict_text(structure):
    """Every verdict the choice layer gives on ``structure``, as text:
    the structural report, then the criteria report, the brute-force
    outcome and the model's labels, or the message each refusal gives
    (its report is the structural one)."""
    laws = validate_structure(structure)
    parts = [f"{laws!r}\n{laws.render_text()}\n{json.dumps(laws.to_json())}"]
    for check in (check_agm_consistency, agm_consistency_bruteforce, build_model):
        try:
            out = check(structure)
        except InvalidStructureError as refusal:
            assert refusal.report == laws
            parts.append(f"refused: {refusal}")
        else:
            if isinstance(out, CheckReport):
                parts.append(f"{out!r}\n{out.render_text()}\n{json.dumps(out.to_json())}")
            elif isinstance(out, BruteforceOutcome):
                parts.append(repr(out))
            else:
                parts.append(f"{out.canonical!r} {out.point_classes} {out.labeling._codes!r}")
    return "\n".join(parts)


def test_repeated_verdicts_match_their_pinned_digest():
    # each check twice on one structure and once on a fresh equal one;
    # the digest pins the text of every verdict, so a verdict kept on a
    # structure cannot drift from a fresh one.  The 2,704 two-state
    # shapes hold every one-value change of each other, so only the
    # draws get a corrupted copy
    rng = Random("repeated-verdicts")
    corpus = list(all_choice_structures(("p",)))
    for size in (2, 3, 4):
        for _ in range(150):
            g = random_choice_structure(rng, size)
            corpus += [g, corrupted(rng, g)]
    lines = []
    for g in corpus:
        first = verdict_text(g)
        assert verdict_text(g) == first
        fresh = ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, dict(g.f))
        assert verdict_text(fresh) == first
        if validate_structure(g).all_hold:
            assert agm_consistency_bruteforce(g) == naive_bruteforce(g)
        lines.append(first)
    assert len(lines) == 2704 + 900
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "86852aa77621a0724a82d0ebc492d47448514c7ffbde40f3eb8b69d5282ec27b"


class TestMaskTypes:
    """A menu or choice mask that is not an int is refused when the
    structure is built, not later by a check."""

    @pytest.mark.parametrize("value", [1.0, "1", True, None], ids=["float", "str", "bool", "none"])
    def test_a_non_int_choice_is_refused(self, value):
        universe = canonical_universe(("p",))
        with pytest.raises(ValueError, match=rf"^choice mask {re.escape(repr(value))} is not an int$"):
            ChoiceStructure(universe, frozenset({3, 1}), frozenset(), frozenset({0}), {3: 1, 0: 1, 1: value})

    @pytest.mark.parametrize("value", [1.0, "1", True], ids=["float", "str", "bool"])
    def test_a_non_int_menu_is_refused(self, value):
        universe = canonical_universe(("p",))
        with pytest.raises(ValueError, match=rf"^menu mask {re.escape(repr(value))} is not an int$"):
            ChoiceStructure(universe, frozenset({3}), frozenset({value}), frozenset({0}), {3: 1, 0: 1, value: 1})

    def test_a_non_int_extra_choice_key_is_refused(self):
        universe = canonical_universe(("p",))
        with pytest.raises(ValueError, match=r"^choice key 'x' is not an int$"):
            ChoiceStructure(universe, frozenset({3}), frozenset(), frozenset({0}), {3: 1, 0: 1, "x": 1, 2: 1})

    @pytest.mark.parametrize("key", [3.0, True], ids=["float", "bool"])
    def test_a_non_int_choice_key_equal_to_a_menu_is_refused(self, key):
        # 3.0 == 3 and True == 1, so the key covers its menu; a dict
        # keeps the first of two equal keys
        universe = canonical_universe(("p",))
        f = {key: 1, 0: 1, 3: 1}
        assert type(next(iter(f))) is type(key)
        with pytest.raises(ValueError, match=rf"^choice key {re.escape(repr(key))} is not an int$"):
            ChoiceStructure(universe, frozenset({3, int(key)}), frozenset(), frozenset({0}), f)

    def test_an_extra_int_choice_key_message_is_unchanged(self):
        universe = canonical_universe(("p",))
        message = r"^choice map must cover the menus exactly \(missing \[1\], extra \[2, 5\]\)$"
        with pytest.raises(ValueError, match=message):
            ChoiceStructure(universe, frozenset({3, 1}), frozenset(), frozenset({0}), {3: 1, 0: 1, 5: 1, 2: 1})

    def test_out_of_range_messages_are_unchanged(self):
        universe = canonical_universe(("p",))
        with pytest.raises(ValueError, match=r"^menu mask 0x4 out of range$"):
            ChoiceStructure(universe, frozenset({3, 4}), frozenset(), frozenset({0}), {3: 1, 0: 1, 4: 1})
        with pytest.raises(ValueError, match=r"^menu mask -0x1 out of range$"):
            ChoiceStructure(universe, frozenset({3}), frozenset({-1}), frozenset({0}), {3: 1, 0: 1, -1: 1})
        with pytest.raises(ValueError, match=r"^choice mask 0x5 out of range$"):
            ChoiceStructure(universe, frozenset({3, 1}), frozenset(), frozenset({0}), {3: 1, 0: 1, 1: 5})

    @pytest.mark.parametrize("mutate", ["set", "delete"])
    def test_the_callers_choice_map_is_not_kept(self, mutate):
        # a changed or removed choice in the caller's dict reaches none
        # of the checks: f is a read-only copy
        g = random_choice_structure(Random(1), 3)
        f = dict(g.f)
        g = ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, f)
        checks = (validate_structure, check_agm_consistency, agm_consistency_bruteforce)
        reports = [check(g) for check in checks]
        assert reports[0].all_hold and 6 in f
        if mutate == "set":
            f[6] = "x"
        else:
            del f[6]
        assert [check(g) for check in checks] == reports
        assert 6 in g.f and g.f != f
        with pytest.raises(TypeError):
            g.f[6] = 0

    def test_the_callers_families_are_not_kept(self):
        # a menu added to the caller's sets reaches neither the structure
        # nor any check; it used to make validate_structure raise KeyError
        universe = canonical_universe(("p",))
        families = ({3}, set(), {0})
        g = ChoiceStructure(universe, *families, {3: 1, 0: 1})
        for family in families:
            family.add(2)
        expected = ChoiceStructure(universe, frozenset({3}), frozenset(), frozenset({0}), {3: 1, 0: 1})
        assert g == expected
        assert all(type(family) is frozenset for family in (g.credible, g.allowable, g.rejected))
        checks = (validate_structure, check_agm_consistency, agm_consistency_bruteforce, find_rationalizing_preorder)
        assert [check(g) for check in checks] == [check(expected) for check in checks]
        assert build_model(g).labeling == build_model(expected).labeling

    def test_structures_hash_and_work_as_keys(self):
        # f stays out of the hash, so equal structures hash equal whatever
        # the type of the caller's families and map
        g = random_choice_structure(Random(2), 3)
        same = ChoiceStructure(g.universe, set(g.credible), list(g.allowable), set(g.rejected), dict(g.f))
        assert same == g and hash(same) == hash(g)
        f = dict(g.f)
        f[g.universe.full_mask] ^= 1
        other = ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, f)
        verdicts = {g: "drawn", other: "changed"}
        assert other != g and verdicts[same] == "drawn" and len(verdicts) == 2


class TestRationalization:
    def test_single_constraint(self):
        universe = Universe.from_assignments(
            ("p",), [("x", {"p": True}), ("y", {}), ("z", {"p": True})]
        )
        full = universe.full_mask
        target = of_ids(universe, ["y"]).mask
        g = ChoiceStructure(
            universe,
            credible=frozenset({full}),
            allowable=frozenset(),
            rejected=frozenset({0}),
            f={full: target, 0: target},
        )
        order = find_rationalizing_preorder(g)
        assert order is not None
        assert order.most_plausible(PointSet.full(universe)).mask == target

    def test_roundtrip_through_preorder_revision(self, u2):
        table = revision_from_preorder(
            next(iter(enumerate_preorders(u2)))
        )
        # expose the table's choices as an all-menus credible structure
        credible = frozenset(range(1, u2.full_mask + 1))
        f = {mask: table.entries[mask].points.mask for mask in credible}
        f[0] = f[u2.full_mask]
        g = ChoiceStructure(u2, credible, frozenset(), frozenset({0}), f)
        order = find_rationalizing_preorder(g)
        assert order is not None
        for mask in credible:
            assert order.most_plausible(PointSet(u2, mask)).mask == f[mask]

    def test_cyclic_choices_have_no_rationalization(self):
        g = three_state_structure(
            credible=[["s1", "s2"], ["s2", "s3"], ["s1", "s3"]],
            allowable=[],
            f_map={
                ("s1", "s2", "s3"): ["s1"],
                ("s1", "s2"): ["s1"],
                ("s2", "s3"): ["s2"],
                ("s1", "s3"): ["s3"],
            },
        )
        assert find_rationalizing_preorder(g) is None
        # independent confirmation: no weak order reproduces the choices
        universe = g.universe
        for order in enumerate_preorders(universe):
            reproduced = all(
                order.most_plausible(PointSet(universe, menu)).mask == g.f[menu]
                for menu in g.credible
            )
            assert not reproduced

    def test_equals_the_exhaustive_first_match(self):
        # 1,000 seeded valid structures at 2-6 states, most of them
        # rationalizable; the oracle walks every weak order in turn
        rng = Random("rationalize")
        verdicts = Counter()
        for size, draws in ((2, 100), (3, 300), (4, 300), (5, 200), (6, 100)):
            for _ in range(draws):
                g = random_choice_structure(rng, size)
                order = find_rationalizing_preorder(g)
                assert order == first_rationalizing_preorder(g)
                verdicts[order is not None] += 1
        assert verdicts[True] > 500 and verdicts[False] > 200

    @pytest.mark.parametrize("size", [8, 12, 16])
    def test_full_domain_preorder_structures(self, size):
        # every nonempty menu credible and choosing its lowest states: the
        # two-point menus reveal the order, so it is the only answer
        universe = Universe.from_assignments(("p",), [(f"s{i}", {}) for i in range(size)])
        order = random_plausibility_order(Random(f"full-domain:{size}"), universe)
        g = full_domain_structure(order)
        start = time.perf_counter()
        assert find_rationalizing_preorder(g) == order
        assert time.perf_counter() - start < 1.0
        # x ranked strictly above y, and z no better than y: {x, y, z}
        # still chooses x, so choosing y from {x, y} leaves no order
        x, *_, y, z = sorted(range(size), key=lambda i: order.ranks[i])
        assert order.ranks[x] < order.ranks[y]
        f = dict(g.f)
        f[1 << x | 1 << y] = 1 << y
        assert find_rationalizing_preorder(replace(g, f=f)) is None


def full_domain_structure(order):
    """Every nonempty proposition a credible menu choosing its lowest
    states under ``order``."""
    full = order.universe.full_mask
    f = {menu: order._lowest(menu) for menu in range(1, full + 1)}
    f[0] = f[full]
    return ChoiceStructure(order.universe, frozenset(f) - {0}, frozenset(), frozenset({0}), f)


def permuted_structure(structure, perm):
    """The structure with each state i moved to position ``perm[i]``,
    keeping its row of atom values."""
    families = (structure.credible, structure.allowable, structure.rejected)
    return ChoiceStructure(
        permuted_universe(structure.universe, perm),
        *(frozenset(permute(perm, menu) for menu in family) for family in families),
        {permute(perm, menu): permute(perm, chosen) for menu, chosen in structure.f.items()},
    )


def structure_verdicts(structure):
    """Whether each structural law holds and, on a valid structure,
    each criterion, the extension oracle under the declared rows, a
    rationalization and, up to four states, the brute-force oracle."""
    verdicts = [result.holds for result in validate_structure(structure).results]
    if all(verdicts):
        verdicts += [result.holds for result in check_agm_consistency(structure).results]
        verdicts.append(extension_oracle(build_model(structure), build_certificate=False).feasible)
        verdicts.append(find_rationalizing_preorder(structure) is not None)
        if structure.universe.size <= 4:  # the brute force refuses more states
            verdicts.append(agm_consistency_bruteforce(structure).consistent)
    return verdicts


class TestStateSymmetry:
    """No structure check reads a state's position: one seeded
    permutation of the states per case, each state keeping its row,
    leaves every verdict unchanged."""

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_structures_and_their_corruptions(self, size):
        # the default atoms put two of five states on one row
        rng = Random(f"symmetry:{size}")
        seen = Counter()
        oracle = len(choice._CLAUSES) + 3  # the extension oracle's place
        for _ in range(60):
            g = random_choice_structure(rng, size)
            for structure in (g, corrupted(rng, g)):
                perm = rng.sample(range(size), size)
                verdicts = structure_verdicts(structure)
                assert structure_verdicts(permuted_structure(structure, perm)) == verdicts
                # None for an invalid structure, else the oracle's verdict
                seen[verdicts[oracle] if len(verdicts) > oracle else None] += 1
        assert set(seen) == {None, True, False}


@pytest.mark.parametrize("rows", [0, 2, 4], ids=["none", "fewer", "more"])
def test_with_valuation_refuses_a_row_count_other_than_the_states(rows):
    g = detective_structure()
    with pytest.raises(ValueError) as raised:
        with_valuation(g, ("p",), [(True,)] * rows)
    assert str(raised.value) == f"expected 3 assignment rows, got {rows}"
