import itertools
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from filtra.formulas import Atom, Not, Or, parse_formula
from filtra.sampling import random_formula
from filtra.worlds import (
    Classification,
    Point,
    PointSet,
    SizeLimitError,
    Universe,
    UniverseMismatchError,
    are_equivalent,
    canonical_universe,
    classify,
    dnf_of,
    submasks,
    truth_set,
)

from conftest import brute_entails, eval_formula

ATOMS = ("p", "q")

formulas = st.recursive(
    st.sampled_from(ATOMS).map(Atom),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda pair: Or(*pair)),
    ),
    max_leaves=12,
)


class TestCanonicalUniverse:
    def test_one_atom(self):
        u = canonical_universe(("p",))
        assert [point.id for point in u.points] == ["w0", "w1"]
        assert u.points[0].values == (False,)
        assert u.points[1].values == (True,)

    @pytest.mark.parametrize("n,size", [(1, 2), (2, 4), (3, 8)])
    def test_sizes(self, n, size):
        u = canonical_universe(tuple(f"a{i}" for i in range(n)))
        assert u.size == size
        assert u.is_exhaustive()

    def test_binary_counting_order(self):
        u = canonical_universe(("p", "q"))
        # first atom is the most significant bit
        assert [point.values for point in u.points] == [
            (False, False),
            (False, True),
            (True, False),
            (True, True),
        ]

    def test_limit(self):
        with pytest.raises(SizeLimitError):
            canonical_universe(("a", "b", "c", "d", "e"))

    def test_duplicates_and_gaps_allowed_in_plain_universe(self):
        u = Universe.from_assignments(
            ("p",), [("x", {"p": True}), ("y", {"p": True}), ("z", {})]
        )
        assert not u.is_exhaustive()
        assert truth_set(Atom("p"), u).ids == ("x", "y")


class TestPointSets:
    def test_algebra(self, u2):
        a = PointSet.of_ids(u2, ["w0", "w1"])
        b = PointSet.of_ids(u2, ["w1", "w2"])
        assert (a & b).ids == ("w1",)
        assert (a | b).ids == ("w0", "w1", "w2")
        assert (a - b).ids == ("w0",)
        assert a.complement().ids == ("w2", "w3")
        assert (a & b) <= a and (a & b) <= b
        assert len(a) == 2 and bool(a)
        assert not PointSet.empty(u2)

    def test_mismatched_universes_refused(self, u1, u2):
        with pytest.raises(UniverseMismatchError):
            PointSet.full(u1) | PointSet.full(u2)


class TestTruthSets:
    def test_disjunction(self, u2):
        hits = truth_set(parse_formula("p | q", ATOMS), u2)
        assert hits.ids == ("w1", "w2", "w3")

    def test_contradiction(self, u2):
        assert not truth_set(parse_formula("p & ~p", ATOMS), u2)

    def test_iff_agreement_points(self, u2):
        hits = truth_set(parse_formula("p <-> q", ATOMS), u2)
        assert hits.ids == ("w0", "w3")

    def test_atom_outside_universe(self, u1):
        with pytest.raises(Exception):
            truth_set(parse_formula("q", ("q",)), u1)

    def test_against_independent_evaluator(self, u2):
        rng = Random(7)
        for _ in range(300):
            formula = random_formula(rng, ATOMS, 4)
            hits = truth_set(formula, u2)
            for i, point in enumerate(u2.points):
                expected = eval_formula(formula, dict(zip(ATOMS, point.values)))
                assert (hits.mask >> i & 1 == 1) == expected


class TestClassification:
    def test_tautology(self, u2):
        assert classify(parse_formula("p | ~p", ATOMS), u2) is Classification.TAUTOLOGY

    def test_contingent(self, u2):
        assert classify(parse_formula("p", ATOMS), u2) is Classification.CONTINGENT

    def test_desugaring_identity(self, u2):
        left = parse_formula("p -> q", ATOMS)
        right = parse_formula("~p | q", ATOMS)
        assert are_equivalent(left, right, u2)

    def test_tautology_not_fooled_by_sparse_universe(self):
        # on a universe listing only p-worlds, "p" holds everywhere, but
        # it is still no tautology
        u = Universe.from_assignments(("p",), [("x", {"p": True})])
        assert classify(Atom("p"), u) is Classification.CONTINGENT

    @given(formulas, formulas)
    def test_classify_is_equivalence_invariant(self, left, right):
        u = canonical_universe(ATOMS)
        if are_equivalent(left, right, u):
            assert classify(left, u) == classify(right, u)


@given(formulas, formulas)
def test_de_morgan_soundness(left, right):
    u = canonical_universe(ATOMS)
    negated = truth_set(Not(Or(left, right)), u)
    assert negated == (truth_set(left, u) | truth_set(right, u)).complement()


def test_completeness_bridge():
    # derivability from a finite set coincides with truth-set inclusion
    # over the canonical universe; the oracle is a plain truth-table
    # entailment checker sharing no code with the point-set route.
    rng = Random(11)
    u = canonical_universe(ATOMS)
    for _ in range(400):
        premises = [random_formula(rng, ATOMS, 3) for _ in range(rng.randrange(4))]
        conclusion = random_formula(rng, ATOMS, 3)
        meet = PointSet.full(u)
        for premise in premises:
            meet = meet & truth_set(premise, u)
        derivable = meet <= truth_set(conclusion, u)
        assert derivable == brute_entails(premises, conclusion, ATOMS)


def naive_dnf_of(points):
    """The point-by-point greedy cube cover ``dnf_of`` replaced: each
    cube's points found by testing every point against every literal,
    each step's key recomputed for every cube."""
    universe = points.universe
    atoms = universe.atoms
    first = atoms[0]
    if points.mask == 0:
        return f"{first} & ~{first}"
    if points.mask == universe.full_mask:
        return f"{first} | ~{first}"

    cubes = []  # (trits, mask): trit per atom in {None, False, True}
    for trits in itertools.product((None, False, True), repeat=len(atoms)):
        mask = 0
        for i, point in enumerate(universe.points):
            if all(t is None or point.values[j] == t for j, t in enumerate(trits)):
                mask |= 1 << i
        if mask and mask & ~points.mask == 0:
            cubes.append((trits, mask))

    covered = 0
    chosen = []
    while covered != points.mask:
        best = None
        for trits, mask in cubes:
            gain = (mask & ~covered).bit_count()
            fixed = sum(t is not None for t in trits)
            encoded = tuple(0 if t is None else 1 + int(t) for t in trits)
            key = (-gain, fixed, encoded)
            if gain > 0 and (best is None or key < best[0]):
                best = (key, trits, mask)
        if best is None:
            return None
        _, trits, mask = best
        chosen.append(trits)
        covered |= mask

    def literal(j, value):
        return atoms[j] if value else f"~{atoms[j]}"

    parts = [
        " & ".join(literal(j, t) for j, t in enumerate(trits) if t is not None)
        for trits in chosen
    ]
    return " | ".join(parts)


class TestDnfWitnesses:
    def test_empty_and_full(self, u2):
        assert dnf_of(PointSet.empty(u2)) == "p & ~p"
        assert dnf_of(PointSet.full(u2)) == "p | ~p"

    def test_roundtrip_on_every_subset(self, u2):
        for mask in range(u2.full_mask + 1):
            ps = PointSet(u2, mask)
            text = dnf_of(ps)
            assert text is not None
            assert truth_set(parse_formula(text, ATOMS), u2) == ps

    def test_unrepresentable_set_yields_none(self):
        u = Universe.from_assignments(("p",), [("x", {"p": True}), ("y", {"p": True})])
        assert dnf_of(PointSet.of_ids(u, ["x"])) is None
        assert dnf_of(PointSet.of_ids(u, ["x", "y"])) is not None

    @pytest.mark.parametrize("n_atoms", [1, 2, 3])
    def test_matches_naive_on_every_canonical_set(self, n_atoms):
        u = canonical_universe(("p", "q", "r")[:n_atoms])
        for mask in range(u.full_mask + 1):
            ps = PointSet(u, mask)
            assert dnf_of(ps) == naive_dnf_of(ps)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5, 6])
    def test_matches_naive_with_duplicate_and_missing_rows(self, n_atoms):
        # rows drawn with replacement from a few assignments: duplicates
        # and gaps in the truth table, so some sets have no formula
        rng = Random(n_atoms)
        atoms = tuple(f"a{j}" for j in range(n_atoms))
        nones = 0
        for _ in range(40):
            pool = [tuple(rng.random() < 0.5 for _ in atoms) for _ in range(rng.randint(1, 5))]
            rows = [rng.choice(pool) for _ in range(rng.randint(2, 8))]
            u = Universe(atoms, tuple(Point(f"x{i}", row) for i, row in enumerate(rows)))
            for _ in range(5):
                ps = PointSet(u, rng.randrange(u.full_mask + 1))
                expected = naive_dnf_of(ps)
                nones += expected is None
                assert dnf_of(ps) == expected
        assert nones > 0


def test_exhaustive_universe_masks_cover_all_formula_classes(u2):
    # every subset of the canonical universe is some formula's truth set
    seen = set()
    for mask in range(u2.full_mask + 1):
        text = dnf_of(PointSet(u2, mask))
        seen.add(truth_set(parse_formula(text, ATOMS), u2).mask)
    assert seen == set(range(u2.full_mask + 1))


@pytest.mark.parametrize("mask", [0, 0b1, 0b1010, 0b10110, 0xFF])
def test_submasks_are_every_submask_in_ascending_order(mask):
    assert submasks(mask) == [sub for sub in range(mask + 1) if sub & ~mask == 0]
