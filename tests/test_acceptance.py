"""Acceptance suite: one test per acceptance criterion, in order.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail
line per criterion plus the measured numbers.  The statistical criteria
use fixed seeds, so the whole suite is deterministic.
"""

import time
from collections import Counter

import numpy as np
import pytest
from scipy import signal
from scipy import stats as scipy_stats

import brute
from brute import catalan, count_matchings
from onefacemaps import (
    RngStream,
    build_adjacency,
    degree_distribution,
    eigenvalues_symmetric,
    empirical_density,
    enumerate_all_gluings,
    enumerate_ncpp,
    exponential_cdf,
    genus,
    genus_distribution,
    goe_surmise_cdf,
    harer_zagier,
    is_bipartite,
    is_noncrossing,
    ks_distance,
    l1_histogram_distance,
    mckay_density,
    pooled_bulk_spacings,
    read_records,
    sample_genus_filtered,
    sample_ncpp,
    sample_uniform_gluing,
)
from onefacemaps import cli, closed_walk_counts
from onefacemaps.errors import BudgetExhaustedError

# minutes of work; `pytest -m "not acceptance"` runs only the unit tests
pytestmark = pytest.mark.acceptance

BULK_FRACTION = 0.8
BINS = 100


def _spectra(gluings):
    return [eigenvalues_symmetric(build_adjacency(g)) for g in gluings]


@pytest.fixture(scope="module")
def uniform_n300():
    """300 uniform gluings at n=300 (600 vertices each) with spectra."""
    gluings = [sample_uniform_gluing(300, RngStream(600, i)) for i in range(300)]
    return gluings, _spectra(gluings)


@pytest.fixture(scope="module")
def ncpp_spectra_n800():
    """100 genus-zero maps at n=800 with spectra."""
    return _spectra(sample_ncpp(800, RngStream(800, i)) for i in range(100))


def test_criterion_01_exact_counting():
    start = time.perf_counter()
    for n in range(1, 13):
        dist = genus_distribution(n)
        assert sum(dist) == count_matchings(n)
        assert harer_zagier(0, n) == catalan(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 01] PASS exact counting n<=12 in {elapsed:.3f}s")


def test_criterion_02_brute_force_topology_oracle():
    start = time.perf_counter()
    for n in range(2, 7):
        hist = Counter(genus(g) for g in enumerate_all_gluings(n))
        expected = genus_distribution(n)
        assert [hist[g] for g in range(n // 2 + 1)] == expected
        assert sum(hist.values()) == count_matchings(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[criterion 02] PASS exhaustive genus histograms n=2..6 in {elapsed:.1f}s")


def test_criterion_03_sampler_uniformity():
    index = {g.partner: i for i, g in enumerate(enumerate_ncpp(5))}
    assert len(index) == 42
    counts = [0] * 42
    gen = RngStream(3501).generator()
    for _ in range(42_000):
        counts[index[sample_ncpp(5, gen).partner]] += 1
    p_ncpp = scipy_stats.chisquare(counts).pvalue
    assert p_ncpp > 0.001

    index_all = {g.partner: i for i, g in enumerate(enumerate_all_gluings(5))}
    assert len(index_all) == 945
    counts = [0] * 945
    gen = RngStream(3502).generator()
    for _ in range(94_500):
        counts[index_all[sample_uniform_gluing(5, gen).partner]] += 1
    p_uniform = scipy_stats.chisquare(counts).pvalue
    assert p_uniform > 0.001
    print(f"\n[criterion 03] PASS chi-square p: ncpp {p_ncpp:.3f}, uniform {p_uniform:.3f}")


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_criterion_04_genus_zero_soundness(n):
    draws = 10_000
    # matrix-level rechecks are redundant with the combinatorial ones, so
    # at the largest size they run on a deterministic subsample
    matrix_stride = {10: 1, 100: 1, 1000: 50}[n]
    spectra_stride = {10: 1, 100: 1, 1000: 200}[n]
    checked_matrix = checked_spectra = 0
    for i in range(draws):
        g = sample_ncpp(n, RngStream(4000 + n, i))
        assert genus(g) == 0
        assert is_noncrossing(g)
        if i % matrix_stride == 0:
            a = build_adjacency(g)
            assert is_bipartite(a)
            checked_matrix += 1
            if i % spectra_stride == 0:
                # symmetry holds by construction on the package's bipartite
                # path, so it is checked on an independent dense solve, and
                # the package's spectrum is checked against that solve
                dense = brute.dense_spectrum(a)
                assert np.all(np.abs(dense + dense[::-1]) <= 1e-8)
                assert np.max(np.abs(eigenvalues_symmetric(a).values - dense)) <= 1e-10
                checked_spectra += 1
    print(
        f"\n[criterion 04] PASS n={n}: {draws} draws genus-0 and non-crossing; "
        f"bipartite on {checked_matrix}, symmetric spectra on {checked_spectra}"
    )


def test_criterion_05_spectral_self_consistency():
    gen = RngStream(5000).generator()
    worst = 0.0
    for _ in range(100):
        g = sample_uniform_gluing(100, gen)
        s = eigenvalues_symmetric(build_adjacency(g))
        walks = closed_walk_counts(g, 10)
        for r in range(2, 11):
            moment = float(np.sum(s.values**r))
            gap = abs(moment - walks[r - 1]) / max(abs(walks[r - 1]), 1)
            worst = max(worst, gap)
            assert gap <= 1e-6
        assert abs(s.values[-1] - 3.0) <= 1e-8
    print(f"\n[criterion 05] PASS moments vs walks, worst relative gap {worst:.2e}")


def test_criterion_06_mckay_density_reproduction(uniform_n300):
    _, spectra = uniform_n300
    hist = empirical_density(spectra, bins=BINS)
    l1 = l1_histogram_distance(hist, mckay_density)
    assert l1 <= 0.06
    print(f"\n[criterion 06] PASS L1(300 uniform maps at 2N=600 vs f3) = {l1:.4f} <= 0.06")


def test_criterion_07_spacing_regime_separation(uniform_n300, ncpp_spectra_n800):
    _, spectra = uniform_n300
    pooled = pooled_bulk_spacings(spectra, BULK_FRACTION)
    ks_surmise = ks_distance(pooled, goe_surmise_cdf)
    ks_exponential = ks_distance(pooled, exponential_cdf)
    assert ks_surmise < ks_exponential

    pooled0 = pooled_bulk_spacings(ncpp_spectra_n800, BULK_FRACTION)
    ks_surmise0 = ks_distance(pooled0, goe_surmise_cdf)
    ks_exponential0 = ks_distance(pooled0, exponential_cdf)
    assert ks_exponential0 < ks_surmise0
    print(
        f"\n[criterion 07] PASS uniform n=300: KS surmise {ks_surmise:.3f} < exp {ks_exponential:.3f}; "
        f"genus-0 n=800: KS exp {ks_exponential0:.3f} < surmise {ks_surmise0:.3f}"
    )


def test_criterion_08_genus_zero_density_signature():
    spectra400 = _spectra(sample_ncpp(400, RngStream(400, i)) for i in range(500))
    spectra200 = _spectra(sample_ncpp(200, RngStream(200, i)) for i in range(500))
    h400 = empirical_density(spectra400, bins=BINS)
    h200 = empirical_density(spectra200, bins=BINS)

    idx, _ = signal.find_peaks(h400.densities, prominence=0.01)
    peaks = h400.bin_centers[idx]
    for target in (0.0, 0.5, -0.5, 1.8, -1.8, 2.3, -2.3):
        assert np.min(np.abs(peaks - target)) <= 0.15, f"no peak within 0.15 of {target}"

    stability = float(np.sum(np.abs(h400.densities - h200.densities) * h400.bin_widths))
    assert stability <= 0.05
    print(
        f"\n[criterion 08] PASS peaks {np.round(peaks, 2)} cover targets; "
        f"L1(n=200, n=400) = {stability:.4f} <= 0.05"
    )


def test_criterion_09_tree_degree_asymptotics():
    totals = Counter()
    samples = 100
    for i in range(samples):
        totals.update(degree_distribution(sample_ncpp(1000, RngStream(1000, i))))
    ratios = {}
    for k in range(1, 6):
        mean = totals[k] / samples
        target = 1000 / 2**k
        ratios[k] = mean / target
        assert abs(mean - target) <= 0.10 * target
    pretty = ", ".join(f"k={k}: {r:.3f}" for k, r in ratios.items())
    print(f"\n[criterion 09] PASS mean degree-k counts vs N/2^k ratios: {pretty}")


def test_criterion_10_genus_filtered_reproduction():
    # every genus-147 map of the whole 10,000-draw budget: one map is wanted
    # per draw, so the budget ends first and the error carries them all
    with pytest.raises(BudgetExhaustedError) as info:
        sample_genus_filtered(300, 147, 10_000, RngStream(147), num_samples=10_000)
    gluings, attempts = info.value.gluings, info.value.attempts
    assert len(gluings) >= 20
    hist = empirical_density(_spectra(gluings), bins=BINS)
    l1 = l1_histogram_distance(hist, mckay_density)
    assert l1 <= 0.10
    print(
        f"\n[criterion 10] PASS {len(gluings)} genus-147 maps from "
        f"{attempts} draws; L1 vs f3 = {l1:.4f} <= 0.10"
    )


def test_criterion_11_end_to_end_determinism(tmp_path):
    files = {}
    for tag in ("first", "second"):
        ens = tmp_path / f"ens_{tag}.jsonl"
        assert cli.main(["generate", "--sampler", "ncpp", "--n", "100", "--samples", "30",
                         "--seed", "99", "--out", str(ens)]) == 0
        outputs = [ens]
        for command in ("spectrum", "density", "spacings", "meanjth"):
            out = tmp_path / f"{command}_{tag}.csv"
            assert cli.main([command, str(ens), "--out", str(out)]) == 0
            outputs.append(out)
        files[tag] = [p.read_bytes() for p in outputs]
    assert files["first"] == files["second"]
    # and the ensemble round-trips through the serialization layer
    records = read_records(tmp_path / "ens_first.jsonl")
    assert len(records) == 30
    assert all(r.genus == 0 for r in records)
    print("\n[criterion 11] PASS byte-identical ensemble and statistics files on re-run")
