import itertools
from random import Random

import pytest

from filtra import reports
from filtra.choice import (
    ChoiceStructure,
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
    check_agm,
    build_filtered,
    enumerate_preorders,
    revision_from_preorder,
)
from filtra.sampling import all_choice_structures, random_choice_structure
from filtra.worlds import PointSet, Universe, dnf_of, truth_set

C, A, R = Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED


def detective_structure():
    universe = Universe.from_assignments(
        ("ann", "bob"),
        [("a", {"ann": True}), ("b", {"bob": True}), ("c", {})],
    )
    full = universe.full_mask
    mask_a = 1 << universe.index_of("a")
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
        return PointSet.of_ids(universe, ids).mask

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
        assert not report.result("3a").holds

    def test_choice_escaping_credible_menu_fails_3c(self):
        g = three_state_structure(
            credible=[["s1", "s2"]],
            allowable=[],
            f_map={("s1", "s2", "s3"): ["s1"], ("s1", "s2"): ["s3"]},
        )
        report = validate_structure(g)
        assert not report.result("3c").holds
        witness = report.result("3c").witnesses[0]
        assert set(witness.point_sets[0].ids) == {"s1", "s2"}

    def test_rejected_menu_must_repeat_initial_choice(self):
        g = detective_structure()
        f = dict(g.f)
        f[0] = g.f[g.universe.full_mask] | 1
        broken = ChoiceStructure(g.universe, g.credible, g.allowable, g.rejected, f)
        assert not validate_structure(broken).result("3b").holds

    def test_overlapping_families_fail_clause_2(self):
        g = detective_structure()
        mask_a = next(iter(g.allowable))
        broken = ChoiceStructure(
            g.universe, g.credible | {mask_a}, g.allowable, g.rejected, dict(g.f)
        )
        assert not validate_structure(broken).result("2").holds


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
        result = report.result("1a")
        assert not result.holds
        assert set(result.witnesses[0].point_sets[0].ids) == {"s2", "s3"}

    def test_allowable_disjoint_menu_must_extend_initial(self):
        g = three_state_structure(
            credible=[],
            allowable=[["s3"]],
            f_map={("s1", "s2", "s3"): ["s1", "s2"], ("s3",): ["s1", "s3"]},
        )
        report = check_agm_consistency(g)
        assert not report.result("2").holds

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

    def test_atoms_argument_must_match(self):
        with pytest.raises(ValueError):
            build_model(detective_structure(), atoms=("x", "y"))


class TestInducedBeliefs:
    def test_detective_partial_revision(self):
        g = detective_structure()
        partial = induced_beliefs(build_model(g))
        atoms = g.universe.atoms
        assert partial.initial.contains(parse_formula("~ann", atoms))
        ann_info = truth_set(parse_formula("ann", atoms), g.universe)
        assert ann_info in partial.information()
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
        checked = 0
        for _ in range(40):
            g = random_choice_structure(rng, 3, conforming=True)
            if not validate_structure(g).all_hold:
                continue
            model = build_model(g)
            outcome = extension_oracle(model)
            assert outcome.feasible
            checked += 1
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
    consistent = all(
        _infeasible_event(structure, valuation) is None
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


class TestRationalization:
    def test_single_constraint(self):
        universe = Universe.from_assignments(
            ("p",), [("x", {"p": True}), ("y", {}), ("z", {"p": True})]
        )
        full = universe.full_mask
        target = PointSet.of_ids(universe, ["y"]).mask
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
