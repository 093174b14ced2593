from random import Random

from filtra.beliefs import BeliefSet
from filtra.formulas import Not, parse_formula
from filtra.sampling import random_formula
from filtra.worlds import PointSet

from conftest import brute_entails, enumerate_formulas, of_ids

ATOMS = ("p", "q")


def th(universe, *ids):
    return BeliefSet(of_ids(universe, ids))


def random_theory(rng, universe):
    return BeliefSet(PointSet(universe, rng.randrange(universe.full_mask + 1)))


class TestMembership:
    def test_full_point_set_believes_exactly_the_tautologies(self, u2):
        k = BeliefSet(PointSet.full(u2))
        for formula in enumerate_formulas(ATOMS, 2):
            assert k.contains(formula) == brute_entails([], formula, ATOMS)

    def test_empty_point_set_is_the_absurd_theory(self, u2):
        k = BeliefSet.absurd(u2)
        assert not k.is_consistent
        assert k.contains(parse_formula("p & ~p", ATOMS))
        assert k.contains(parse_formula("p", ATOMS))

    def test_singleton(self, u1):
        k = th(u1, "w1")  # p true at w1
        assert k.contains(parse_formula("p", ("p",)))
        assert not k.contains(parse_formula("~p", ("p",)))

    def test_conjunction_at_the_pq_world(self, u2):
        k = th(u2, "w3")
        assert k.contains(parse_formula("p & q", ATOMS))
        assert not k.contains(parse_formula("~p", ATOMS))


class TestExpansion:
    def test_expansion_narrows_models(self, u2):
        k = th(u2, "w1", "w2")  # exactly one of p, q true
        expanded = k.expand(parse_formula("p", ATOMS))
        assert expanded.points == of_ids(u2, ["w2"])
        assert expanded.contains(parse_formula("~q", ATOMS))

    def test_expand_by_tautology_is_identity(self, u2):
        k = th(u2, "w0", "w3")
        assert k.expand(parse_formula("p | ~p", ATOMS)) == k

    def test_expansion_footnote_identity_small(self, u2):
        # member of the expansion iff the conditional is already believed;
        # both sides recomputed from scratch by the bulk acceptance test
        from filtra.formulas import implies

        rng = Random(3)
        for _ in range(500):
            k = random_theory(rng, u2)
            phi = random_formula(rng, ATOMS, 3)
            psi = random_formula(rng, ATOMS, 3)
            assert k.expand(phi).contains(psi) == k.contains(implies(phi, psi))

    def test_expansion_only_grows_the_theory(self, u2):
        rng = Random(4)
        for _ in range(200):
            k = random_theory(rng, u2)
            expanded = k.expand(random_formula(rng, ATOMS, 3))
            assert expanded.points <= k.points


class TestConsistency:
    def test_verdicts(self, u2):
        assert th(u2, "w1").is_consistent
        assert not BeliefSet.absurd(u2).is_consistent

    def test_agreement_with_syntactic_definition(self, u2):
        # consistent iff no formula and its negation are both members
        rng = Random(8)
        catalogue = enumerate_formulas(ATOMS, 2)
        for _ in range(20):
            k = random_theory(rng, u2)
            witnessed = any(
                k.contains(formula) and k.contains(Not(formula)) for formula in catalogue
            )
            assert k.is_consistent == (not witnessed)

    def test_nonempty_choice_yields_consistent_initial_theory(self, u2):
        rng = Random(9)
        for _ in range(50):
            assert BeliefSet(PointSet(u2, rng.randrange(1, u2.full_mask + 1))).is_consistent


def test_deductive_closure_is_free(u2):
    # anything entailed by finitely many members is a member
    rng = Random(10)
    for _ in range(100):
        k = random_theory(rng, u2)
        members = []
        for _ in range(60):
            candidate = random_formula(rng, ATOMS, 3)
            if k.contains(candidate):
                members.append(candidate)
            if len(members) == 3:
                break
        conclusion = random_formula(rng, ATOMS, 3)
        if brute_entails(members, conclusion, ATOMS):
            assert k.contains(conclusion)
