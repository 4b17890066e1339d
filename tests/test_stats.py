import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

import brute
from onefacemaps import (
    HistogramDensity,
    RngStream,
    Spectrum,
    build_adjacency,
    eigenvalues_symmetric,
    empirical_density,
    exponential_cdf,
    exponential_density,
    goe_surmise_cdf,
    goe_surmise_density,
    ks_distance,
    l1_histogram_distance,
    mckay_density,
    mean_jth_spacing,
    pooled_bulk_spacings,
    sample_ncpp,
    sample_uniform_gluing,
    spacing_distribution,
)


def _ladder(values) -> Spectrum:
    values = np.asarray(values, dtype=np.float64)
    return Spectrum(values=values)


def test_mckay_density_center_value():
    # direct evaluation: 3 sqrt(8) / (18 pi)
    assert mckay_density(0.0) == pytest.approx(0.150052719359517678, abs=1e-15)


def test_mckay_density_support():
    assert mckay_density(2.9) == 0.0  # support ends at 2 sqrt(2) ~ 2.8284
    assert mckay_density(-2.9) == 0.0
    assert mckay_density(2.8) > 0.0


def test_mckay_density_integrates_to_one():
    edge = 2.0 * math.sqrt(2.0)
    total, _ = integrate.quad(mckay_density, -edge, edge, limit=200)
    assert abs(total - 1.0) < 1e-8


def test_spacing_references_at_zero():
    assert goe_surmise_density(0.0) == 0.0
    assert exponential_density(0.0) == 1.0


def test_spacing_references_integrate_to_one_with_mean_one():
    for pdf in (goe_surmise_density, exponential_density):
        total, _ = integrate.quad(pdf, 0, np.inf)
        mean, _ = integrate.quad(lambda s: s * pdf(s), 0, np.inf)
        assert abs(total - 1.0) < 1e-8
        assert abs(mean - 1.0) < 1e-8


def test_exponential_cdf_closed_form():
    assert exponential_cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)


def test_empirical_density_hand_count():
    # K4 spectrum {-1,-1,-1,3}: two bins over [-3,3] get masses 3/4 and 1/4
    s = eigenvalues_symmetric(build_adjacency(brute.gluing([3, 4, 1, 2])))
    hist = empirical_density([s], bins=2)
    assert hist.densities == pytest.approx([0.25, 1.0 / 12.0], abs=1e-12)


@pytest.mark.parametrize(
    "bins, fault",
    [
        (2.5, "bins must be an int, got 2.5"),
        (True, "bins must be an int, got True"),
        (0, "need bins >= 1, got 0"),
    ],
    ids=["float", "bool", "zero"],
)
def test_histogram_bins_that_are_not_positive_ints_rejected(bins, fault):
    s = eigenvalues_symmetric(build_adjacency(brute.gluing([3, 4, 1, 2])))
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        empirical_density([s], bins=bins)
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        spacing_distribution([s], bulk_fraction=1.0, bins=bins)


def test_empirical_density_integrates_to_one():
    gen = RngStream(31).generator()
    spectra = [
        eigenvalues_symmetric(build_adjacency(sample_uniform_gluing(30, gen)))
        for _ in range(10)
    ]
    hist = empirical_density(spectra, bins=57)
    assert abs(np.sum(hist.densities * hist.bin_widths) - 1.0) < 1e-12


def test_empirical_density_empty():
    with pytest.raises(ValueError, match="empty ensemble"):
        empirical_density([])


def test_genus_zero_density_is_even_within_counting_noise():
    gen = RngStream(53).generator()
    spectra = [
        eigenvalues_symmetric(build_adjacency(sample_ncpp(100, gen))) for _ in range(50)
    ]
    hist = empirical_density(spectra, bins=40)
    width = hist.bin_widths[0]
    total = sum(s.values.size for s in spectra)
    counts = hist.densities * total * width
    for i in range(len(counts) // 2):
        j = len(counts) - 1 - i
        gap = abs(hist.densities[i] - hist.densities[j])
        stderr = np.sqrt(counts[i] + counts[j]) / (total * width)
        assert gap <= 3.0 * stderr


def test_bulk_spacings_uniform_ladder():
    assert pooled_bulk_spacings([_ladder([0, 1, 2, 3])], 1.0) == pytest.approx([1, 1, 1])


def test_bulk_spacings_scaling_to_mean_one():
    assert pooled_bulk_spacings([_ladder([0, 1, 4, 9])], 1.0)[:2] == pytest.approx([1 / 3, 1.0])
    assert pooled_bulk_spacings([_ladder([0, 1, 3, 4])], 1.0) == pytest.approx([0.75, 1.5, 0.75])


def test_bulk_spacings_trims_edges():
    spaced = pooled_bulk_spacings([_ladder([-100, 0, 1, 2, 3, 100])], bulk_fraction=0.6)
    # central 60% of six values is values[1:5]; unit spacings
    assert spaced == pytest.approx([1, 1, 1])


@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=4,
        max_size=60,
        unique=True,
    ),
    st.floats(min_value=0.3, max_value=1.0),
)
def test_bulk_spacings_mean_is_one(values, fraction):
    spaced = pooled_bulk_spacings([_ladder(sorted(values))], fraction)
    assert abs(spaced.mean() - 1.0) < 1e-12


def test_bulk_spacings_degenerate():
    with pytest.raises(ValueError, match="all bulk spacings are zero"):
        pooled_bulk_spacings([_ladder([2, 2, 2, 2])], 1.0)
    with pytest.raises(ValueError, match="need at least 4 eigenvalues"):
        pooled_bulk_spacings([_ladder([0, 1])], 1.0)
    with pytest.raises(ValueError, match=r"bulk_fraction must lie in \(0, 1\], got 0\.0"):
        pooled_bulk_spacings([_ladder([0, 1, 2, 3])], 0.0)


@pytest.mark.parametrize(
    "value, fault",
    [
        (None, "bulk_fraction must be a real number, got None"),
        ("0.5", "bulk_fraction must be a real number, got '0.5'"),
        (True, "bulk_fraction must be a real number, got True"),
        (0.5, None),
        (1, None),
        (np.float64(0.5), None),
    ],
    ids=["none", "str", "bool", "float", "int", "numpy-float"],
)
def test_bulk_fraction_must_be_a_real_number(value, fault):
    spectra = [_ladder([0, 1, 3, 6, 10, 15, 21, 28])]
    if fault is None:
        expected = pooled_bulk_spacings(spectra, float(value))
        assert np.array_equal(pooled_bulk_spacings(spectra, value), expected)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
            pooled_bulk_spacings(spectra, value)


def test_spacing_distribution_of_ladders_is_a_spike():
    spectra = [_ladder(np.arange(12) * 2.0) for _ in range(3)]
    hist = spacing_distribution(spectra, bulk_fraction=1.0, bins=100)
    nonzero = np.flatnonzero(hist.densities)
    assert len(nonzero) == 1
    assert abs(hist.bin_centers[nonzero[0]] - 1.0) <= hist.bin_widths[0]
    assert abs(np.sum(hist.densities * hist.bin_widths) - 1.0) < 1e-12


def test_mean_jth_spacing_ladder():
    assert mean_jth_spacing([_ladder([0, 1, 2])]) == pytest.approx([1, 1])


def test_mean_jth_spacing_is_nonnegative_and_sized():
    gen = RngStream(37).generator()
    spectra = [
        eigenvalues_symmetric(build_adjacency(sample_uniform_gluing(15, gen)))
        for _ in range(4)
    ]
    means = mean_jth_spacing(spectra)
    assert means.shape == (29,)
    assert np.all(means >= 0)


def test_mean_jth_spacing_mixed_sizes():
    with pytest.raises(ValueError, match=r"spectra of mixed lengths: \[3, 4\]"):
        mean_jth_spacing([_ladder([0, 1, 2]), _ladder([0, 1, 2, 3])])


def test_ks_distance_point_mass_vs_exponential():
    assert ks_distance([1.0], exponential_cdf) == pytest.approx(
        1.0 - math.exp(-1.0), abs=1e-12
    )


def test_ks_distance_self_consistency():
    gen = RngStream(41).generator()
    u = gen.random(100_000)
    exp_draws = -np.log1p(-u)
    assert ks_distance(exp_draws, exponential_cdf) < 0.01
    surmise_draws = np.sqrt(-4.0 * np.log1p(-gen.random(100_000)) / np.pi)
    assert ks_distance(surmise_draws, goe_surmise_cdf) < 0.01


def test_ks_distance_empty():
    with pytest.raises(ValueError, match="empty sample"):
        ks_distance([], exponential_cdf)


def test_l1_distance_identical_histogram():
    h = HistogramDensity(
        bin_edges=np.array([0.0, 1.0, 2.0]),
        densities=np.array([0.5, 0.5]),
    )
    assert l1_histogram_distance(h, lambda x: np.full_like(x, 0.5)) == 0.0
