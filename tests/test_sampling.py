import hashlib
import itertools
from random import Random

import pytest

from filtra import fuzzing
from filtra.choice import check_agm_consistency, validate_structure
from filtra.revision import Credibility, check_agm, revision_from_selection
from filtra.sampling import (
    _below,
    random_choice_structure,
    random_formula,
    random_labeling,
    random_plausibility_order,
    random_selection_function,
)
from filtra.worlds import canonical_universe

from conftest import all_choice_structures, all_labelings, per_draw_labeling, per_draw_selection_function

ATOMS = ("p", "q")


def test_generators_are_reproducible_from_a_seed(u2):
    def draw(seed):
        rng = Random(seed)
        return (
            random_formula(rng, ATOMS, 4),
            random_selection_function(rng, u2).choice,
            random_labeling(rng, u2).labels,
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


def test_three_and_four_atom_draws_match_their_pinned_digest():
    # as above, at the sizes the benchmark and the CLI draw tables of
    lines = []
    for atoms, seeds in ((("p", "q", "r"), 20), (("a", "b", "c", "d"), 3)):
        universe = canonical_universe(atoms)
        for seed in range(seeds):
            rng = Random(seed)
            selection = random_selection_function(rng, universe)
            labels = random_labeling(rng, universe).labels
            lines.append(
                f"{selection.initial.points.mask} {list(selection.choice.values())} "
                + "".join(label.value for label in labels.values())
                + f" {rng.random()!r}"
            )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9d5b139024b21267d3d1032fc2ed3afda3dab7db29e49340492f591a65eb360c"


def _case_key(case):
    if isinstance(case, tuple):  # (selection or table, labeling)
        first, labeling = case
        table = getattr(first, "_table", first)
        codes = "".join(label.value for label in labeling.labels.values())
        return f"{table.initial.points.mask} {table._masks.tolist()} {codes}"
    return _structure_key(case)


def test_fuzz_cases_match_their_pinned_digest(monkeypatch):
    # every case each suite hands to its check, with the verdict, at the
    # golden runs' sizes: the suites' own draws (a table's corruption,
    # the per-suite seeding) are pinned as well as the samplers'
    lines = []

    def recording(check):
        def record(case):
            verdict = check(case)
            lines.append(f"{_case_key(case)} {verdict}")
            return verdict

        return record

    suites = tuple((name, draw, recording(check)) for name, draw, check in fuzzing._SUITES)
    monkeypatch.setattr(fuzzing, "_SUITES", suites)
    for atoms, cases in ((1, 200), (2, 100)):
        fuzzing.run_suites(atoms, cases, 0)
    assert len(lines) == 3 * 300
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "2c4ba39919b8904519bb6bad816e042ee18d039dc596731ff61ff0d8156ee3b3"


def test_bounded_draws_are_randrange_draws():
    # the value and the generator state after it, at every bound up to
    # 300 and on each side of every power of two up to 2**40
    bounds = [*range(1, 301), *(2**k + d for k in range(1, 41) for d in (-1, 0, 1))]
    for seed in range(5):
        rng, old = Random(seed), Random(seed)
        for n in bounds:
            assert (_below(rng, n), rng.random()) == (old.randrange(n), old.random())


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


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_labeling_draws_are_unchanged(n_atoms):
    universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
    for seed in range(5 if n_atoms < 4 else 2):
        rng, old = Random(seed), Random(seed)
        for _ in range(3):
            assert random_labeling(rng, universe).labels == per_draw_labeling(old, universe).labels
        assert rng.random() == old.random()


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_selection_draws_are_unchanged(n_atoms):
    universe = canonical_universe(("p", "q", "r", "s")[:n_atoms])
    for seed in range(20 if n_atoms < 4 else 2):
        rng, old = Random(seed), Random(seed)
        for _ in range(3):
            new, reference = random_selection_function(rng, universe), per_draw_selection_function(old, universe)
            assert (new.initial, new.choice) == (reference.initial, reference.choice)
        assert rng.random() == old.random()


def test_all_labelings_are_unchanged(u1):
    full = u1.full_mask
    old_all = [
        {0: Credibility.REJECTED, full: Credibility.CREDIBLE, **dict(zip(range(1, full), combo))}
        for combo in itertools.product(Credibility, repeat=full - 1)
    ]
    assert [labeling.labels for labeling in all_labelings(u1)] == old_all

