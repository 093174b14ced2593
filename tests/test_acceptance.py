"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured budget.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete."""

import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

from click.testing import CliRunner

from filtra.beliefs import BeliefSet
from filtra.choice import (
    ChoiceStructure,
    agm_consistency_bruteforce,
    check_agm_consistency,
    find_rationalizing_preorder,
    validate_structure,
)
from filtra.cli import main
from filtra.formulas import implies, parse_formula, print_formula
from filtra.revision import (
    build_filtered,
    check_agm,
    check_filtered,
    recover_basic,
    revision_from_preorder,
    revision_from_selection,
)
from filtra.sampling import random_choice_structure, random_formula, random_labeling, random_selection_function
from filtra.worlds import PointSet, Universe, canonical_universe

from conftest import (
    all_choice_structures,
    all_labelings,
    all_revision_tables,
    all_selection_functions,
    enumerate_preorders,
    eval_formula,
    of_ids,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): pass [{elapsed:.2f}s]")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_preorder_tables_satisfy_all_postulates():
    with criterion(1, "pre-order revision passes AGM1-8 on all 75 weak orders", budget=1.0):
        u = canonical_universe(("p", "q"))
        orders = list(enumerate_preorders(u))
        assert len(orders) == 75
        for order in orders:
            report = check_agm(revision_from_preorder(order))
            assert report.all_hold
            assert all(not result.witnesses for result in report.results)


def test_criterion_2_filtered_build_satisfies_filter_laws():
    with criterion(2, "built filtered tables always pass the filter laws", budget=30.0):
        u1 = canonical_universe(("p",))
        labelings = list(all_labelings(u1))
        exhaustive = 0
        for selection in all_selection_functions(u1):
            star = revision_from_selection(selection)
            for labeling in labelings:
                assert check_filtered(build_filtered(star, labeling), labeling).all_hold
                exhaustive += 1
        assert exhaustive == 27  # 3 selection functions x 9 labelings

        u2 = canonical_universe(("p", "q"))
        rng = Random("acceptance2")
        for _ in range(10_000):
            star = revision_from_selection(random_selection_function(rng, u2))
            labeling = random_labeling(rng, u2)
            assert check_filtered(build_filtered(star, labeling), labeling).all_hold


def test_criterion_3_lawful_tables_recover_exactly():
    with criterion(3, "every lawful table recovers a basic table, rebuild exact"):
        u1 = canonical_universe(("p",))
        labelings = list(all_labelings(u1))
        lawful = 0
        for table in all_revision_tables(u1):
            for labeling in labelings:
                if check_filtered(table, labeling).all_hold:
                    lawful += 1
                    outcome = recover_basic(table, labeling)
                    assert outcome, f"no recovery for a lawful table ({outcome.reason})"
                    assert build_filtered(outcome.basic, labeling) == table
        assert lawful > 0


def test_criterion_4_criteria_equal_bruteforce():
    with criterion(4, "pointwise criteria equal the brute-force oracle", budget=300.0):
        exhaustive = 0
        for structure in all_choice_structures(("p",)):
            if not validate_structure(structure).all_hold:
                continue
            exhaustive += 1
            direct = check_agm_consistency(structure).all_hold
            brute = agm_consistency_bruteforce(structure, atoms=1).consistent
            assert direct == brute
        assert exhaustive == 75

        for size in (3, 4):
            rng = Random(f"acceptance4:{size}")
            for _ in range(10_000):
                structure = random_choice_structure(rng, size)
                if not validate_structure(structure).all_hold:
                    continue
                direct = check_agm_consistency(structure).all_hold
                brute = agm_consistency_bruteforce(structure).consistent
                assert direct == brute


def test_criterion_5_expansion_membership_identity():
    with criterion(5, "expansion membership matches the conditional, 10^4 triples"):
        atoms = ("p", "q")
        u = canonical_universe(atoms)
        rng = Random("acceptance5")
        for _ in range(10_000):
            k = BeliefSet(PointSet(u, rng.randrange(u.full_mask + 1)))
            phi = random_formula(rng, atoms, 3)
            psi = random_formula(rng, atoms, 3)
            lhs = k.expand(phi).contains(psi)
            rhs = k.contains(implies(phi, psi))
            # independent oracle: plain per-point truth evaluation
            points = [dict(zip(atoms, point.values)) for i, point in enumerate(u.points) if k.points.mask >> i & 1]
            oracle_lhs = all(
                eval_formula(psi, row) for row in points if eval_formula(phi, row)
            )
            oracle_rhs = all(
                (not eval_formula(phi, row)) or eval_formula(psi, row) for row in points
            )
            assert lhs == rhs == oracle_lhs == oracle_rhs


def test_criterion_6_detective_demo():
    with criterion(6, "detective demo: disbelief, suspension, clause 2 with E'={a}"):
        result = CliRunner().invoke(main, ["demo", "detective"])
        assert result.exit_code == 0
        head, _, tail = result.output.partition('information "ann" is allowable')
        assert 'believes "~ann": yes' in head
        assert 'believes "ann": no' in tail
        assert 'believes "~ann": no' in tail
        assert 'judgment on "ann" is suspended' in tail
        assert "clause 2 holds at E = {a} with E' = {a}" in tail


def test_criterion_7_rationalization_roundtrip():
    with criterion(7, "13 weak orders rationalize back; the cyclic choices do not"):
        universe = Universe.from_assignments(
            ("p", "q"),
            [("s1", {}), ("s2", {"q": True}), ("s3", {"p": True})],
        )
        full = universe.full_mask
        credible = frozenset(range(1, full + 1))
        orders = list(enumerate_preorders(universe))
        assert len(orders) == 13
        for order in orders:
            f = {
                mask: order.most_plausible(PointSet(universe, mask)).mask
                for mask in credible
            }
            f[0] = f[full]
            structure = ChoiceStructure(universe, credible, frozenset(), frozenset({0}), f)
            recovered = find_rationalizing_preorder(structure)
            assert recovered is not None
            for mask in credible:
                assert recovered.most_plausible(PointSet(universe, mask)).mask == f[mask]

        def mask_of(*ids):
            return of_ids(universe, ids).mask

        cyclic = ChoiceStructure(
            universe,
            frozenset({full, mask_of("s1", "s2"), mask_of("s2", "s3"), mask_of("s1", "s3")}),
            frozenset(),
            frozenset({0}),
            {
                full: mask_of("s1"),
                0: mask_of("s1"),
                mask_of("s1", "s2"): mask_of("s1"),
                mask_of("s2", "s3"): mask_of("s2"),
                mask_of("s1", "s3"): mask_of("s3"),
            },
        )
        assert find_rationalizing_preorder(cyclic) is None


def test_criterion_8_parser_printer_roundtrip():
    with criterion(8, "print/parse round-trip, 10^3 random trees per depth 0..5"):
        atoms = ("p", "q", "r")
        rng = Random("acceptance8")
        for depth in range(6):
            for _ in range(1_000):
                formula = random_formula(rng, atoms, depth)
                assert parse_formula(print_formula(formula), atoms) == formula


def test_criterion_9_fixed_seed_reports_are_byte_identical():
    with criterion(9, "fixed-seed fuzz and demo output is byte-identical"):
        runner = CliRunner()
        fuzz_args = ["fuzz", "--atoms", "1", "--cases", "200", "--seed", "0"]
        first = runner.invoke(main, fuzz_args, env={"FILTRA_SEED": None})
        second = runner.invoke(main, fuzz_args, env={"FILTRA_SEED": None})
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
        assert first.output == (GOLDEN / "fuzz_atoms1_cases200_seed0.txt").read_text("utf-8")

        demo_first = runner.invoke(main, ["demo", "detective"])
        demo_second = runner.invoke(main, ["demo", "detective"])
        assert demo_first.exit_code == demo_second.exit_code == 0
        assert demo_first.output == demo_second.output
        assert demo_first.output == (GOLDEN / "demo_detective.txt").read_text("utf-8")
