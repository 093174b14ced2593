import inspect
import itertools
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
    _infeasible_event,
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
    check_agm,
    build_filtered,
    revision_from_preorder,
    revision_from_selection,
)
from filtra.sampling import (
    all_choice_structures,
    all_labelings,
    all_selection_functions,
    random_choice_structure,
    random_labeling,
    random_plausibility_order,
    random_selection_function,
)
from filtra.reports import CheckReport, CheckResult, Witness
from filtra.worlds import PointSet, SizeLimitError, Universe, canonical_universe, dnf_of, truth_set

from conftest import enumerate_preorders, first_rationalizing_preorder, of_ids, permute, permuted_universe, result_of

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
    """The oracle one partition at a time: run ``_infeasible_event``
    through each partition's saturation map, in ``_row_partitions``
    order, and stop at the first infeasible menu (the test oracle for
    the bit-sliced ``agm_consistency_bruteforce``)."""
    universe = structure.universe
    n_atoms = atoms if atoms is not None else max(1, (universe.size - 1).bit_length())
    menus = choice._menus(structure)
    initial = structure.f[universe.full_mask]
    partitions = choice._row_partitions(universe.size, 1 << n_atoms)
    for checked, valuation in enumerate(partitions, 1):
        found = _infeasible_event(menus, initial, choice._quotient(valuation, max(valuation) + 1).saturate)
        if found is not None:
            event, reason = found
            assignments = tuple(
                (point.id, tuple(bool(cls >> (n_atoms - 1 - j) & 1) for j in range(n_atoms)))
                for point, cls in zip(universe.points, valuation)
            )
            atom_names = tuple(f"a{i}" for i in range(n_atoms))
            counter = CounterModel(atom_names, assignments, PointSet(universe, event), reason)
            return BruteforceOutcome(False, checked, counter)
    return BruteforceOutcome(True, len(partitions))


BUDGETS = (None, 1, 2, 3, 4)


class TestBitSlicedOracle:
    """The oracle decides every partition at once; it must return what
    the one-partition-at-a-time loop returns, counter-model included."""

    @pytest.mark.parametrize("atoms", [("p",), ("p", "q")], ids=["1atom", "2atoms"])
    def test_equals_the_per_partition_loop_on_every_two_state_structure(self, atoms):
        failing = 0
        for g in all_choice_structures(atoms):
            if not validate_structure(g).all_hold:
                continue
            for budget in BUDGETS:
                outcome = agm_consistency_bruteforce(g, atoms=budget)
                assert outcome == naive_bruteforce(g, budget)
                failing += not outcome.consistent
        assert failing > 50

    @pytest.mark.parametrize("conforming", [True, False])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_equals_the_per_partition_loop_on_seeded_draws(self, size, conforming):
        rng = Random(f"bitsliced:{size}:{conforming}")
        counts = {True: 0, False: 0}
        counter_models = set()  # (valuations checked, reason) per failure
        for _ in range(500):
            g = random_choice_structure(rng, size, conforming=conforming)
            for budget in BUDGETS:
                outcome = agm_consistency_bruteforce(g, atoms=budget)
                assert outcome == naive_bruteforce(g, budget)
                counts[outcome.consistent] += 1
                if outcome.counterexample is not None:
                    counter_models.add((outcome.valuations_checked, outcome.counterexample.reason))
        if conforming:  # conforming draws pass the criteria
            assert counts == {True: 500 * len(BUDGETS), False: 0}
            return
        assert counts[True] > 100 and counts[False] > 500
        if size > 2:  # failures at several partitions, for every reason
            assert len({checked for checked, _ in counter_models}) > 2
            assert {reason for _, reason in counter_models} == {
                choice._NOT_OVERLAP,
                choice._NOT_UNCHANGED,
                choice._NEW_BELIEFS,
                choice._OUTSIDE,
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
    menus = choice._menus(structure)
    initial = structure.f[structure.universe.full_mask]
    consistent = all(
        _infeasible_event(menus, initial, choice._quotient(valuation, 1 << n_atoms).saturate) is None
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
    the ones the per-family, point-set versions built."""

    def test_every_two_state_structure(self):
        verdicts = Counter(assert_same_reports(g) for g in all_choice_structures(("p",)))
        assert sum(verdicts.values()) == 2704
        assert set(verdicts) == {(False, None), (True, True), (True, False)}

    @pytest.mark.parametrize("conforming", [True, False])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_seeded_draws_and_their_corruptions(self, size, conforming):
        rng = Random(f"maskchecks:{size}:{conforming}")
        drawn, broken = Counter(), Counter()
        for _ in range(500):
            g = random_choice_structure(rng, size, conforming=conforming)
            drawn[assert_same_reports(g)] += 1
            broken[assert_same_reports(corrupted(rng, g))] += 1
        if conforming:  # conforming draws pass the criteria
            assert drawn == {(True, True): 500}
        else:
            assert drawn[True, False] > 100
        assert broken[False, None] > 300 and broken[True, False] > 10

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_hand_built_edge_cases(self, name):
        g, failing = EDGE_CASES[name]
        assert assert_same_reports(g) == (False, None)
        assert [result.check for result in validate_structure(g).failures()] == failing

    def test_passing_results_are_shared_and_carry_no_witness(self):
        g = detective_structure()
        for report in (validate_structure(g), validate_structure(g), check_agm_consistency(g)):
            assert report.all_hold
            for result in report.results:
                assert result is choice._HOLDS[result.check] and result.witnesses == ()


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
    each criterion, the brute-force oracle and a rationalization."""
    verdicts = [result.holds for result in validate_structure(structure).results]
    if all(verdicts):
        verdicts += [result.holds for result in check_agm_consistency(structure).results]
        verdicts.append(agm_consistency_bruteforce(structure).consistent)
        verdicts.append(find_rationalizing_preorder(structure) is not None)
    return verdicts


class TestStateSymmetry:
    """No structure check reads a state's position: one seeded
    permutation of the states per case, each state keeping its row,
    leaves every verdict unchanged."""

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_structures_and_their_corruptions(self, size):
        rng = Random(f"symmetry:{size}")
        seen = Counter()
        for _ in range(60):
            g = random_choice_structure(rng, size)
            for structure in (g, corrupted(rng, g)):
                perm = rng.sample(range(size), size)
                verdicts = structure_verdicts(structure)
                assert structure_verdicts(permuted_structure(structure, perm)) == verdicts
                # None for an invalid structure, else the oracle's verdict
                seen[verdicts[-2] if len(verdicts) > len(choice._CLAUSES) else None] += 1
        assert set(seen) == {None, True, False}
