"""Access structure enumeration, closure, threshold families, extremal sets."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_share import access_structure
from gauss_share.access_structure import (
    AccessStructure,
    extremal_sets,
    monotone_closure,
    threshold_extremal_chain,
    threshold_structure,
)
from gauss_share.errors import (
    DomainError,
    EmptyGenerator,
    IndexOutOfRange,
    ThresholdOutOfRange,
    TooManyParticipants,
)
from gauss_share.source_model import SourceSpec, subset_snr


def test_monotone_closure_small_family():
    structure = monotone_closure(3, [[1, 2], [2, 3]])
    assert structure.minimal_sets == ((1, 2), (2, 3))
    assert set(structure.authorized) == {(1, 2), (2, 3), (1, 2, 3)}
    assert set(structure.unauthorized) == {(), (1,), (2,), (3,), (1, 3)}


def test_families_partition_the_power_set():
    structure = monotone_closure(4, [[1], [2, 3]])
    assert len(structure.authorized) + len(structure.unauthorized) == 2**4
    assert set(structure.authorized) & set(structure.unauthorized) == set()


def test_upward_closure():
    structure = monotone_closure(4, [[2, 3]])
    for subset in structure.authorized:
        assert {2, 3} <= set(subset)
    assert structure.is_authorized([2, 3, 4])
    assert not structure.is_authorized([2, 4])


def test_superset_generators_are_dropped():
    a = monotone_closure(3, [[1], [1, 2], [1, 3]])
    b = monotone_closure(3, [[1]])
    assert a.minimal_sets == b.minimal_sets == ((1,),)
    assert set(a.authorized) == set(b.authorized)


def test_equality_and_hash_follow_the_masks():
    by_threshold = threshold_structure(3, 2)
    by_closure = monotone_closure(3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]])
    assert by_threshold == by_closure
    assert hash(by_threshold) == hash(by_closure)
    assert threshold_structure(3, 2) == by_threshold
    assert len({by_threshold, by_closure, threshold_structure(3, 3)}) == 2
    # the same generators over four participants is a different structure
    assert monotone_closure(4, [[1, 2], [1, 3], [2, 3]]) != by_threshold
    assert threshold_structure(3, 3) != by_threshold
    assert (by_threshold == (3, 2)) is False


def reference_closure(l, generators):
    """(minimal, authorized, unauthorized) of the upward closure, by the
    antichain reduction: a generator is kept only if no other kept one is a
    subset of it, taken in (size, members) order."""
    unique = sorted({tuple(sorted(set(g))) for g in generators}, key=lambda s: (len(s), s))
    kept = []
    for gen in unique:
        if not any(set(k) <= set(gen) for k in kept):
            kept.append(gen)
    masks = [tuple(p for p in range(1, l + 1) if m >> (p - 1) & 1) for m in range(2**l)]
    authorized = tuple(s for s in masks if any(set(k) <= set(s) for k in kept))
    unauthorized = tuple(s for s in masks if s not in authorized)
    return tuple(kept), authorized, unauthorized


@st.composite
def generator_families(draw):
    l = draw(st.integers(1, 8))
    subsets = st.lists(st.integers(1, l), min_size=1, max_size=l)
    return l, draw(st.lists(subsets, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(generator_families())
def test_closure_matches_the_antichain_reference(family):
    l, generators = family
    structure = monotone_closure(l, generators)
    minimal, authorized, unauthorized = reference_closure(l, generators)
    assert structure.minimal_sets == minimal
    assert structure.authorized == authorized
    assert structure.unauthorized == unauthorized


@settings(max_examples=50, deadline=None)
@given(generator_families())
def test_is_authorized_agrees_with_brute_force(family):
    l, generators = family
    structure = monotone_closure(l, generators)
    gens = [set(g) for g in generators]
    for size in range(l + 1):
        for subset in itertools.combinations(range(1, l + 1), size):
            expected = any(g <= set(subset) for g in gens)
            assert structure.is_authorized(subset) is expected


def test_threshold_minimal_sets_are_the_t_subsets_in_order():
    for l in range(1, 11):
        for t in range(1, l + 1):
            expected = tuple(itertools.combinations(range(1, l + 1), t))
            assert threshold_structure(l, t).minimal_sets == expected


def test_the_masks_are_the_whole_structure(monkeypatch):
    assert [f.name for f in dataclasses.fields(AccessStructure)] == [
        "l", "authorized_masks", "unauthorized_masks"
    ]
    calls = []

    def counting_subset_of(mask):
        calls.append(mask)
        return ()

    monkeypatch.setattr(access_structure, "_subset_of", counting_subset_of)
    structure = threshold_structure(20, 10)
    monotone_closure(20, [[1, 2], [3]])
    assert calls == []
    assert structure.authorized_masks.size == sum(
        math.comb(20, s) for s in range(10, 21)
    )


def test_generator_validation():
    with pytest.raises(EmptyGenerator):
        monotone_closure(3, [[]])
    with pytest.raises(EmptyGenerator):
        monotone_closure(3, [])
    with pytest.raises(IndexOutOfRange):
        monotone_closure(3, [[0, 1]])
    with pytest.raises(IndexOutOfRange):
        monotone_closure(3, [[4]])
    with pytest.raises(DomainError):
        monotone_closure(0, [[1]])


def test_participant_cap():
    with pytest.raises(TooManyParticipants):
        monotone_closure(21, [[1]])
    with pytest.raises(TooManyParticipants):
        threshold_structure(21, 1)


@pytest.mark.parametrize("l, t, error", [
    (3, 2.5, ThresholdOutOfRange),
    (3, True, ThresholdOutOfRange),
    (3, "2", ThresholdOutOfRange),
    (3.9, 2, DomainError),
    (True, 1, DomainError),
    (np.float64(3.0), 2, DomainError),
])
def test_threshold_structure_refuses_non_integer_counts(l, t, error):
    with pytest.raises(error, match="must be an integer"):
        threshold_structure(l, t)


def test_monotone_closure_refuses_a_non_integer_l():
    with pytest.raises(DomainError, match="must be an integer"):
        monotone_closure(2.5, [[1]])


def test_numpy_integer_counts_are_accepted():
    structure = threshold_structure(np.int64(3), np.int32(2))
    assert structure == threshold_structure(3, 2)


def test_threshold_structure_counts():
    l = 5
    for t in range(1, l + 1):
        structure = threshold_structure(l, t)
        expected = sum(math.comb(l, s) for s in range(t, l + 1))
        assert len(structure.authorized) == expected
        assert all(len(s) >= t for s in structure.authorized)
        assert all(len(s) < t for s in structure.unauthorized)
        assert all(len(s) == t for s in structure.minimal_sets)


def test_threshold_edges():
    full_only = threshold_structure(3, 3)
    assert set(full_only.authorized) == {(1, 2, 3)}
    anyone = threshold_structure(3, 1)
    assert () not in anyone.authorized
    assert anyone.unauthorized == ((),)
    with pytest.raises(ThresholdOutOfRange):
        threshold_structure(3, 0)
    with pytest.raises(ThresholdOutOfRange):
        threshold_structure(3, 4)


def test_empty_set_is_always_unauthorized():
    for structure in (monotone_closure(3, [[1]]), threshold_structure(4, 2)):
        assert () in structure.unauthorized


def test_extremal_sets_match_exhaustive_search():
    """Argmin/argmax of subset_snr over the two families, brute-forced."""
    rng = np.random.default_rng(42)
    for trial in range(30):
        l = int(rng.integers(2, 6))
        spec = SourceSpec.from_gains(float(rng.uniform(0.5, 3.0)), rng.uniform(0.05, 2.0, l))
        n_gen = int(rng.integers(1, 4))
        gens = [
            sorted(rng.choice(l, size=int(rng.integers(1, l + 1)), replace=False) + 1)
            for _ in range(n_gen)
        ]
        structure = monotone_closure(l, gens)
        ext = extremal_sets(structure, spec)
        best_a = min(subset_snr(spec, s) for s in structure.authorized)
        best_u = max(subset_snr(spec, s) for s in structure.unauthorized)
        assert ext.snr_authorized == best_a
        assert ext.snr_unauthorized == best_u
        assert subset_snr(spec, ext.min_authorized) == best_a
        assert subset_snr(spec, ext.max_unauthorized) == best_u


def test_extremal_tie_break_is_deterministic():
    spec = SourceSpec.from_gains(1.0, [1.0, 1.0, 1.0])
    structure = threshold_structure(3, 2)
    ext = extremal_sets(structure, spec)
    # all pairs tie at snr 2; smallest lexicographic pair wins
    assert ext.min_authorized == (1, 2)
    assert ext.max_unauthorized == (3,) or ext.max_unauthorized == (1,)
    # re-running gives the identical answer
    assert extremal_sets(structure, spec) == ext


def brute_force_extremal(structure, snr):
    """Least (snr, size, subset) key over authorized sets and least
    (-snr, size, subset) over unauthorized ones; snr maps subsets to subset_snr."""
    a = min((snr[s], len(s), s) for s in structure.authorized)
    u = min((-snr[s], len(s), s) for s in structure.unauthorized)
    return a[2], u[2], a[0], -u[0]


def tie_sources(l):
    rng = np.random.default_rng(l)
    root = rng.normal(size=(l + 1, l + 1))
    return {
        "equal": SourceSpec.from_gains(2.0, np.ones(l)),
        "zero-negative": SourceSpec.from_gains(
            1.5, np.resize([0.0, -1.0, 0.5, 0.0, -0.5, 1.0, -1.0], l)
        ),
        "all-zero": SourceSpec.from_gains(1.0, np.zeros(l)),
        # squares 0.01, 0.04, 0.09: subsets tie in exact arithmetic
        # (0.01 + 0.04 + 0.04 = 0.09) but not in float, where sums of the
        # same squares in different member orders round differently
        "decimal": SourceSpec.from_gains(1.0, (np.arange(l) % 3 + 1) / 10.0),
        "covariance": SourceSpec.from_covariance(root @ root.T + (l + 1) * np.eye(l + 1)),
    }


@pytest.mark.parametrize("l", [1, 6, 10])
@pytest.mark.parametrize("kind", ["equal", "zero-negative", "all-zero", "decimal", "covariance"])
def test_extremal_sets_match_brute_force_keys_under_ties(l, kind):
    spec = tie_sources(l)[kind]
    structures = [threshold_structure(l, t) for t in range(1, l + 1)]
    if l > 1:
        structures.append(monotone_closure(l, [[1], [2, l]]))
    everyone = structures[0]
    snr = {s: subset_snr(spec, s) for s in everyone.authorized + everyone.unauthorized}
    for structure in structures:
        ext = extremal_sets(structure, spec)
        got = (ext.min_authorized, ext.max_unauthorized, ext.snr_authorized, ext.snr_unauthorized)
        assert got == brute_force_extremal(structure, snr)


@st.composite
def snr_sources(draw):
    """A gains-form source (gains anywhere, or all near 1, where summation
    orders most often round apart) or a covariance-form one, l <= 10."""
    l = draw(st.integers(min_value=1, max_value=10))
    kind = draw(st.sampled_from(["gains", "near-one", "covariance"]))
    if kind == "covariance":
        root = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=(l + 1) ** 2,
                                      max_size=(l + 1) ** 2))).reshape(l + 1, l + 1)
        return SourceSpec.from_covariance(root @ root.T + np.eye(l + 1))
    values = st.floats(-3.0, 3.0) if kind == "gains" else st.floats(0.97, 1.03)
    gains = draw(st.lists(values, min_size=l, max_size=l))
    return SourceSpec.from_gains(draw(st.floats(0.1, 4.0)), gains)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(snr_sources())
def test_snr_table_is_subset_snr_at_every_mask(spec):
    table = access_structure._snr_table(spec)
    direct = [subset_snr(spec, access_structure._subset_of(m)) for m in range(2**spec.l)]
    assert table.tolist() == direct


def test_extremal_requires_matching_sizes():
    spec = SourceSpec.from_gains(1.0, [1.0, 0.5])
    with pytest.raises(IndexOutOfRange):
        extremal_sets(threshold_structure(3, 1), spec)


def test_threshold_chain_nesting_and_sizes():
    spec = SourceSpec.from_gains(2.0, [1.0, 0.85, 0.9, 0.95, 0.75])
    chain = threshold_extremal_chain(spec)
    assert len(chain) == 5
    for t, ext in enumerate(chain, start=1):
        assert len(ext.min_authorized) == t
        assert len(ext.max_unauthorized) == t - 1
    for lo, hi in zip(chain, chain[1:]):
        assert set(lo.min_authorized) <= set(hi.min_authorized)
        assert set(lo.max_unauthorized) <= set(hi.max_unauthorized)


def test_threshold_chain_agrees_with_extremal_sets():
    rng = np.random.default_rng(7)
    for _ in range(20):
        l = int(rng.integers(2, 7))
        spec = SourceSpec.from_gains(
            float(rng.uniform(0.5, 3.0)), rng.uniform(0.05, 2.0, l)
        )
        chain = threshold_extremal_chain(spec)
        for t in range(1, l + 1):
            ext = extremal_sets(threshold_structure(l, t), spec)
            assert chain[t - 1].snr_authorized == ext.snr_authorized
            assert chain[t - 1].snr_unauthorized == ext.snr_unauthorized


def test_threshold_chain_requires_gains_mode():
    cov = [[1.0, 0.5], [0.5, 2.0]]
    spec = SourceSpec.from_covariance(cov)
    with pytest.raises(DomainError):
        threshold_extremal_chain(spec)


def test_masks_are_read_only():
    structure = threshold_structure(3, 2)
    with pytest.raises(ValueError):
        structure.authorized_masks[0] = 0
