import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats as scipy_stats

import brute
from onefacemaps import (
    Gluing,
    RngStream,
    enumerate_all_gluings,
    enumerate_ncpp,
    genus,
    is_noncrossing,
    sample_genus_filtered,
    sample_ncpp,
    sample_uniform_gluing,
)
from onefacemaps.errors import BudgetExhaustedError
from onefacemaps.samplers import _noncrossing_partner


def test_rng_stream_is_deterministic():
    a = sample_uniform_gluing(20, RngStream(42, 3))
    b = sample_uniform_gluing(20, RngStream(42, 3))
    assert a == b
    assert sample_ncpp(20, RngStream(42, 3)) == sample_ncpp(20, RngStream(42, 3))


def test_rng_streams_differ_across_indices():
    draws = {sample_uniform_gluing(20, RngStream(42, i)).partner for i in range(10)}
    assert len(draws) == 10


def test_rng_stream_validation():
    with pytest.raises(ValueError, match="master_seed must be a 64-bit unsigned integer"):
        RngStream(-1)
    with pytest.raises(ValueError, match="master_seed must be a 64-bit unsigned integer"):
        RngStream(2**64)
    with pytest.raises(ValueError, match="stream_index must be non-negative"):
        RngStream(0, -1)


def test_uniform_n1_unique_matching():
    for i in range(5):
        assert sample_uniform_gluing(1, RngStream(0, i)).partner == (2, 1)


def test_uniform_outputs_are_valid():
    gen = RngStream(1).generator()
    for n in (2, 7, 60):
        g = sample_uniform_gluing(n, gen)  # built, so checked
        assert isinstance(g, Gluing) and g.n == n


def test_uniform_frequencies_n2():
    gen = RngStream(2024).generator()
    counts = Counter(sample_uniform_gluing(2, gen).partner for _ in range(30_000))
    assert set(counts) == set(brute.all_matchings(2))
    for c in counts.values():
        assert abs(c / 30_000 - 1 / 3) < 0.02


def test_ncpp_n1():
    assert sample_ncpp(1, RngStream(0)).partner == (2, 1)


def test_ncpp_n2_never_crosses_and_splits_evenly():
    gen = RngStream(99).generator()
    counts = Counter(sample_ncpp(2, gen).partner for _ in range(20_000))
    assert set(counts) == {(2, 1, 4, 3), (4, 3, 2, 1)}
    for c in counts.values():
        assert abs(c / 20_000 - 0.5) < 0.02


@pytest.mark.parametrize("n", [3, 10, 100])
def test_ncpp_outputs_are_noncrossing_genus_zero(n):
    gen = RngStream(7).generator()
    for _ in range(50):
        g = sample_ncpp(n, gen)
        assert g.n == n
        assert is_noncrossing(g)
        assert genus(g) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cycle_lemma_map_hits_each_pairing_2n_plus_1_times(n):
    counts = Counter()
    for ups in itertools.combinations(range(2 * n + 1), n):
        up = np.zeros(2 * n + 1, dtype=bool)
        up[list(ups)] = True
        counts[tuple(_noncrossing_partner(up).tolist())] += 1  # 0-based rows
    assert sum(counts.values()) == math.comb(2 * n + 1, n)
    noncrossing = {tuple(p - 1 for p in partner) for partner in brute.all_matchings(n)
                   if brute.crossing_free(partner)}
    assert len(noncrossing) == brute.catalan(n)
    assert set(counts) == noncrossing
    assert set(counts.values()) == {2 * n + 1}


@pytest.mark.parametrize("n,draws", [(4, 14_000), (5, 21_000), (6, 13_200)])
def test_ncpp_uniformity_chi_square(n, draws):
    index = {g.partner: i for i, g in enumerate(enumerate_ncpp(n))}
    assert len(index) == brute.catalan(n)
    counts = [0] * len(index)
    gen = RngStream(314 + n).generator()
    for _ in range(draws):
        counts[index[sample_ncpp(n, gen).partner]] += 1
    result = scipy_stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_enumerate_all_counts_and_distinctness():
    for n, expected in ((1, 1), (2, 3), (3, 15), (5, 945)):
        gluings = list(enumerate_all_gluings(n))
        assert len(gluings) == expected
        assert len({g.partner for g in gluings}) == expected
        assert all(g.n == n for g in gluings)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_all_matches_oracle(n):
    assert {g.partner for g in enumerate_all_gluings(n)} == set(brute.all_matchings(n))


def test_enumerate_all_guard():
    with pytest.raises(ValueError, match="exhaustive enumeration capped at n = 8"):
        next(enumerate_all_gluings(9))


def test_enumerate_ncpp_counts():
    for n, expected in ((1, 1), (3, 5), (6, 132)):
        gluings = list(enumerate_ncpp(n))
        assert len(gluings) == expected == brute.catalan(n)
        assert len({g.partner for g in gluings}) == expected
        assert all(is_noncrossing(g) for g in gluings)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_ncpp_equals_filtered_enumeration(n):
    filtered = {g.partner for g in enumerate_all_gluings(n) if is_noncrossing(g)}
    assert {g.partner for g in enumerate_ncpp(n)} == filtered


def test_enumerate_ncpp_guard():
    with pytest.raises(ValueError, match="non-crossing enumeration capped at n = 14"):
        next(enumerate_ncpp(15))


def test_genus_filtered_square_torus():
    result = sample_genus_filtered(2, 1, 5_000, RngStream(5), num_samples=25)
    assert len(result.gluings) == 25
    assert result.attempts <= 5_000
    assert {g.partner for g in result.gluings} == {(3, 4, 1, 2)}


def test_genus_filtered_budget_exhausted():
    with pytest.raises(BudgetExhaustedError) as info:
        sample_genus_filtered(50, 0, 300, RngStream(1), num_samples=1)
    assert info.value.attempts == 300
    assert info.value.gluings == []


def test_genus_filtered_partial_results_attached():
    with pytest.raises(BudgetExhaustedError) as info:
        sample_genus_filtered(4, 0, 50, RngStream(8), num_samples=1_000)
    assert 0 < len(info.value.gluings) < 1_000
    assert info.value.attempts == 50


def test_genus_filtered_target_validation():
    with pytest.raises(ValueError, match=r"target genus must lie in 0\.\.2, got 3"):
        sample_genus_filtered(4, 3, 10, RngStream(0), num_samples=1)
    with pytest.raises(ValueError, match="need n >= 1"):
        sample_genus_filtered(-1, 0, 10, RngStream(0), num_samples=1)


@pytest.mark.parametrize("num_samples", [0, -3])
def test_genus_filtered_rejects_num_samples_below_one(num_samples):
    gen = RngStream(1).generator()
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match="need num_samples >= 1"):
        sample_genus_filtered(4, 0, 100, gen, num_samples=num_samples)
    assert gen.bit_generator.state == before  # rejected before any draw


def _filtered_outcome(sampler, n, target, budget, rng, num_samples):
    try:
        result = sampler(n, target, budget, rng, num_samples=num_samples)
    except BudgetExhaustedError as exc:
        return "exhausted", str(exc), tuple(exc.gluings), exc.attempts
    return "met", result.gluings, result.attempts


@pytest.mark.parametrize("n", [1, 2, 7, 30, 300])
@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("num_samples", [None, 1, 25])
def test_genus_filtered_equals_single_draw_loop(n, half, num_samples):
    target = n // 2 if half else 0
    # budgets that end mid-batch, and that run out before the request is met
    for budget, seed in itertools.product((1, 60, 400), range(3)):
        # None: one map wanted per draw, so every draw of the budget is made
        wanted = budget if num_samples is None else num_samples
        batched, single = RngStream(seed, 9).generator(), RngStream(seed, 9).generator()
        got = _filtered_outcome(sample_genus_filtered, n, target, budget, batched, wanted)
        want = _filtered_outcome(brute.genus_filtered_by_single_draws, n, target, budget, single,
                                 wanted)
        assert got == want
        # the caller's generator is left where the single-draw loop leaves it
        assert batched.integers(2**63) == single.integers(2**63)


def test_genus_filtered_reproduces_its_rng_stream():
    stream = RngStream(4, 2)
    expected = brute.genus_filtered_by_single_draws(300, 147, 1_000, stream.generator(), 20)
    assert sample_genus_filtered(300, 147, 1_000, stream, num_samples=20) == expected
