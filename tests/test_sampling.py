import hashlib
import itertools
from random import Random

import pytest

from filtra.choice import check_agm_consistency, validate_structure
from filtra.revision import Credibility, check_agm, revision_from_selection
from filtra.sampling import (
    all_choice_structures,
    all_labelings,
    random_choice_structure,
    random_formula,
    random_labeling,
    random_plausibility_order,
    random_revision_table,
    random_selection_function,
)
from filtra.worlds import canonical_universe

ATOMS = ("p", "q")


def test_generators_are_reproducible_from_a_seed(u2):
    def draw(seed):
        rng = Random(seed)
        return (
            random_formula(rng, ATOMS, 4),
            random_selection_function(rng, u2).choice,
            random_labeling(rng, u2).labels,
            random_revision_table(rng, u2),
            random_plausibility_order(rng, u2).ranks,
            random_choice_structure(rng, 3).f,
        )

    assert draw("fixed") == draw("fixed")
    assert draw("fixed") != draw("other")


def _structure_key(structure):
    points = [(point.id, point.values) for point in structure.universe.points]
    families = [sorted(structure.credible), sorted(structure.allowable), sorted(structure.rejected)]
    return repr((structure.universe.atoms, points, families, sorted(structure.f.items())))


def test_seeded_draws_match_their_pinned_digest():
    # pins every draw across versions (the fuzz suites, the goldens and
    # the benchmark's pools all come from these samplers); each line
    # ends with the generator's next random() so a change in how many
    # draws a sampler takes shows too
    lines = []
    for seed in range(20):
        for n_states in (2, 3, 4):
            for conforming in (None, True, False):
                rng = Random(seed)
                structure = random_choice_structure(rng, n_states, ATOMS, conforming)
                lines.append(f"{_structure_key(structure)} {rng.random()!r}")
    for atoms in (ATOMS[:1], ATOMS):
        lines.extend(map(_structure_key, all_choice_structures(atoms)))
        universe = canonical_universe(atoms)
        for seed in range(20):
            rng = Random(seed)
            selection = random_selection_function(rng, universe)
            labels = random_labeling(rng, universe).labels
            lines.append(
                repr((selection.initial.points.mask, sorted(selection.choice.items())))
                + repr(sorted((mask, label.value) for mask, label in labels.items()))
                + f" {rng.random()!r}"
            )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9725649d698ea1726ef2e71f59845209328f3db700950113756be36237858833"


def test_random_selection_functions_yield_basic_tables(u2):
    rng = Random(1)
    for _ in range(100):
        table = revision_from_selection(random_selection_function(rng, u2))
        assert check_agm(table, (1, 2, 3, 4, 5, 6)).all_hold


def test_random_structures_satisfy_the_structural_laws():
    rng = Random(2)
    for size in (2, 3, 4):
        for _ in range(100):
            assert validate_structure(random_choice_structure(rng, size)).all_hold


def test_draws_of_one_size_share_their_universe():
    rng = Random(4)
    first, second = random_choice_structure(rng, 3), random_choice_structure(rng, 3, atoms=["p", "q"])
    assert first.universe is second.universe
    assert random_choice_structure(rng, 4).universe.size == 4
    assert random_choice_structure(rng, 3, atoms=("r",)).universe.atoms == ("r",)


def test_conforming_structures_pass_the_criteria():
    rng = Random(3)
    for _ in range(100):
        structure = random_choice_structure(rng, 3, conforming=True)
        assert check_agm_consistency(structure).all_hold


def old_random_labels(rng, universe):
    """random_labeling's labels as they were drawn before it went
    through from_overrides."""
    full = universe.full_mask
    labels = {0: Credibility.REJECTED, full: Credibility.CREDIBLE}
    for mask in range(1, full):
        labels[mask] = rng.choice((Credibility.CREDIBLE, Credibility.ALLOWABLE, Credibility.REJECTED))
    return labels


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_labeling_draws_are_unchanged(n_atoms):
    universe = canonical_universe(("p", "q", "r")[:n_atoms])
    for seed in range(5):
        rng, old = Random(seed), Random(seed)
        for _ in range(3):
            assert random_labeling(rng, universe).labels == old_random_labels(old, universe)
        assert rng.random() == old.random()


def test_all_labelings_are_unchanged(u1):
    full = u1.full_mask
    old_all = [
        {0: Credibility.REJECTED, full: Credibility.CREDIBLE, **dict(zip(range(1, full), combo))}
        for combo in itertools.product(Credibility, repeat=full - 1)
    ]
    assert [labeling.labels for labeling in all_labelings(u1)] == old_all
