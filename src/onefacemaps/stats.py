"""Empirical eigenvalue statistics and the reference curves they are
compared against.

Densities are pooled area-normalized histograms.  Spacings are consecutive
differences of the ordered eigenvalues over a central bulk window, scaled
per graph to mean one before pooling; no further unfolding is applied.
Reference curves: the limiting density of locally tree-like 3-regular
graphs, the Wigner surmise (pi/2) s exp(-pi s^2/4) standing in for the GOE
bulk spacing law, and the unit exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .mapcore import _exact_int
from .spectra import Spectrum

DENSITY_SUPPORT = (-3.0, 3.0)
SPACING_SUPPORT = (0.0, 4.0)
DEFAULT_BINS = 100
DEFAULT_BULK_FRACTION = 0.8
_EDGE_SNAP = 1e-9  # eigenvalues sit on +-3 up to solver round-off


@dataclass(frozen=True, eq=False)
class HistogramDensity:
    """Binned empirical density: integrates to one over its bin range."""

    bin_edges: np.ndarray
    densities: np.ndarray

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)


def mckay_density(x):
    """McKay's limiting eigenvalue density of large locally tree-like 3-regular
    graphs, as every map graph is: 3 sqrt(8 - x^2) / (2 pi (9 - x^2)) on |x| <= 2 sqrt(2)."""
    x = np.asarray(x, dtype=np.float64)
    radicand = 8.0 - x * x
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = 3 * np.sqrt(np.maximum(radicand, 0.0)) / (2.0 * np.pi * (9 - x * x))
    return np.where(radicand > 0.0, raw, 0.0)


def goe_surmise_density(s):
    """Wigner surmise (pi/2) s exp(-pi s^2 / 4); mean one, level repulsion."""
    s = np.asarray(s, dtype=np.float64)
    return np.where(s >= 0.0, 0.5 * np.pi * s * np.exp(-0.25 * np.pi * s * s), 0.0)


def goe_surmise_cdf(s):
    s = np.asarray(s, dtype=np.float64)
    return np.where(s >= 0.0, 1.0 - np.exp(-0.25 * np.pi * s * s), 0.0)


def exponential_density(s):
    """Unit exponential exp(-s); mean one, no level repulsion."""
    s = np.asarray(s, dtype=np.float64)
    return np.where(s >= 0.0, np.exp(-np.clip(s, 0.0, None)), 0.0)


def exponential_cdf(s):
    s = np.asarray(s, dtype=np.float64)
    return np.where(s >= 0.0, -np.expm1(-np.clip(s, 0.0, None)), 0.0)


def _check_bins(bins: int) -> None:
    if _exact_int(bins, "bins") < 1:
        raise ValueError(f"need bins >= 1, got {bins}")


def _ensemble_values(spectra: Iterable[Spectrum]) -> list[np.ndarray]:
    """Each spectrum's values as float64; draws every spectrum, so a
    statistic checks its parameters first."""
    values = [np.asarray(s.values, dtype=np.float64) for s in spectra]
    if not values:
        raise ValueError("empty ensemble")
    return values


def _pooled_histogram(
    values: np.ndarray, bins: int, support: tuple[float, float]
) -> HistogramDensity:
    counts, edges = np.histogram(values, bins=bins, range=support)
    in_range = counts.sum()
    if in_range == 0:
        raise ValueError("no values fall inside the histogram support")
    densities = counts / (in_range * np.diff(edges))
    return HistogramDensity(bin_edges=edges, densities=densities)


def empirical_density(spectra: Iterable[Spectrum], bins: int = DEFAULT_BINS) -> HistogramDensity:
    """Area-normalized histogram of all eigenvalues pooled over an ensemble."""
    _check_bins(bins)
    values = np.concatenate(_ensemble_values(spectra))
    # snap round-off dust at the spectral edges back into range
    lo, hi = DENSITY_SUPPORT
    values[(values < lo) & (values >= lo - _EDGE_SNAP)] = lo
    values[(values > hi) & (values <= hi + _EDGE_SNAP)] = hi
    return _pooled_histogram(values, bins, DENSITY_SUPPORT)


def spacing_distribution(
    spectra: Iterable[Spectrum],
    bulk_fraction: float = DEFAULT_BULK_FRACTION,
    bins: int = DEFAULT_BINS,
) -> HistogramDensity:
    """Histogram of :func:`pooled_bulk_spacings`, area-normalized."""
    _check_bins(bins)
    return _pooled_histogram(pooled_bulk_spacings(spectra, bulk_fraction), bins, SPACING_SUPPORT)


def pooled_bulk_spacings(
    spectra: Iterable[Spectrum], bulk_fraction: float = DEFAULT_BULK_FRACTION
) -> np.ndarray:
    """Consecutive spacings over the central ``bulk_fraction`` of each
    spectrum, scaled per spectrum to mean one, concatenated."""
    # a bool is an int to isinstance, and True would read as 1.0
    if isinstance(bulk_fraction, bool) or not isinstance(bulk_fraction, (int, float, np.floating)):
        raise ValueError(f"bulk_fraction must be a real number, got {bulk_fraction!r}")
    if not 0.0 < bulk_fraction <= 1.0:
        raise ValueError(f"bulk_fraction must lie in (0, 1], got {bulk_fraction}")
    return np.concatenate([_bulk_spacings(v, bulk_fraction) for v in _ensemble_values(spectra)])


def _bulk_spacings(values: np.ndarray, bulk_fraction: float) -> np.ndarray:
    if values.size < 4:
        raise ValueError("need at least 4 eigenvalues to take bulk spacings")
    drop = int(np.floor(values.size * (1.0 - bulk_fraction) / 2.0))
    bulk = values[drop : values.size - drop]
    diffs = np.diff(bulk)
    mean = diffs.mean()
    if mean <= 0.0:
        raise ValueError("all bulk spacings are zero")
    return diffs / mean


def mean_jth_spacing(spectra: Iterable[Spectrum]) -> np.ndarray:
    """Ensemble mean of the j-th raw spacing, j = 1..2n-1 (unscaled)."""
    values = _ensemble_values(spectra)
    sizes = {v.size for v in values}
    if len(sizes) != 1:
        raise ValueError(f"spectra of mixed lengths: {sorted(sizes)}")
    return np.diff(np.stack(values), axis=1).mean(axis=0)


def ks_distance(samples: Sequence[float], cdf: Callable) -> float:
    """Sup-distance between the empirical CDF of samples and a reference CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if x.size == 0:
        raise ValueError("empty sample")
    ref = np.asarray(cdf(x), dtype=np.float64)
    steps = np.arange(1, x.size + 1) / x.size
    return float(max((steps - ref).max(), (ref - steps + 1.0 / x.size).max()))


def l1_histogram_distance(h: HistogramDensity, pdf: Callable) -> float:
    """Integrated absolute gap between a histogram and a pdf at bin centers."""
    ref = np.asarray(pdf(h.bin_centers), dtype=np.float64)
    return float(np.sum(np.abs(h.densities - ref) * h.bin_widths))

