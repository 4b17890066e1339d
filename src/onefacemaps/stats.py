"""Empirical eigenvalue statistics and the reference curves they are
compared against.

Densities are area-normalized histograms whose counts are pooled one block
of spectra at a time, so only running totals are kept.  Spacings are consecutive
differences of the ordered eigenvalues over a central bulk window, scaled
per graph to mean one before pooling; no further unfolding is applied.
Reference curves: the limiting density of locally tree-like 3-regular
graphs, the Wigner surmise (pi/2) s exp(-pi s^2/4) standing in for the GOE
bulk spacing law, and the unit exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .mapcore import _blocks, _exact_int
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
    """CDF 1 - exp(-pi s^2 / 4) of the Wigner surmise; 0 below s = 0."""
    s = np.asarray(s, dtype=np.float64)
    return np.where(s >= 0.0, 1.0 - np.exp(-0.25 * np.pi * s * s), 0.0)


def exponential_density(s):
    """Unit exponential exp(-s); mean one, no level repulsion."""
    s = np.asarray(s, dtype=np.float64)
    return np.where(s >= 0.0, np.exp(-np.clip(s, 0.0, None)), 0.0)


def exponential_cdf(s):
    """CDF 1 - exp(-s) of the unit exponential; 0 below s = 0."""
    s = np.asarray(s, dtype=np.float64)
    return np.where(s >= 0.0, -np.expm1(-np.clip(s, 0.0, None)), 0.0)


def _histogram(blocks: Iterable[np.ndarray], bins: int, support: tuple) -> HistogramDensity:
    """Area-normalized histogram of every block's values; fixed-range counts add exactly."""
    counts, edges = np.zeros(bins, dtype=np.intp), None
    for values in blocks:
        block_counts, edges = np.histogram(values, bins=bins, range=support)
        counts += block_counts
    if edges is None:
        raise ValueError("empty ensemble")
    in_range = counts.sum()
    if in_range == 0:
        raise ValueError("no values fall inside the histogram support")
    densities = counts / (in_range * np.diff(edges))
    return HistogramDensity(bin_edges=edges, densities=densities)


def empirical_density(spectra: Iterable[Spectrum], bins: int = DEFAULT_BINS) -> HistogramDensity:
    """Area-normalized histogram of all eigenvalues pooled over an ensemble."""
    _exact_int(bins, "bins", 1)

    def snapped():
        lo, hi = DENSITY_SUPPORT
        for block in _blocks(spectra):
            values = np.concatenate([s.values for s in block])
            # snap round-off dust at the spectral edges back into range
            values[(values < lo) & (values >= lo - _EDGE_SNAP)] = lo
            values[(values > hi) & (values <= hi + _EDGE_SNAP)] = hi
            yield values

    return _histogram(snapped(), bins, DENSITY_SUPPORT)


def spacing_distribution(
    spectra: Iterable[Spectrum],
    bulk_fraction: float = DEFAULT_BULK_FRACTION,
    bins: int = DEFAULT_BINS,
) -> HistogramDensity:
    """Histogram of :func:`pooled_bulk_spacings`, area-normalized."""
    _exact_int(bins, "bins", 1)
    return _histogram(_spacing_blocks(spectra, bulk_fraction), bins, SPACING_SUPPORT)


def pooled_bulk_spacings(
    spectra: Iterable[Spectrum], bulk_fraction: float = DEFAULT_BULK_FRACTION
) -> np.ndarray:
    """Consecutive spacings over the central ``bulk_fraction`` of each
    spectrum, scaled per spectrum to mean one, concatenated."""
    blocks = list(_spacing_blocks(spectra, bulk_fraction))
    if not blocks:
        raise ValueError("empty ensemble")
    return np.concatenate(blocks)


def _spacing_blocks(spectra: Iterable[Spectrum], bulk_fraction: float) -> Iterator[np.ndarray]:
    """The pooled spacings of one block of spectra at a time, the fraction checked first."""
    _bulk_fraction(bulk_fraction)
    return (
        np.concatenate([_bulk_spacings(s.values, bulk_fraction) for s in block])
        for block in _blocks(spectra)
    )


def _bulk_fraction(value, name: str = "bulk_fraction") -> float:
    """``value`` if it is a real number in (0, 1], else a ValueError naming ``name``."""
    # a bool is an int to isinstance, and True would read as 1.0
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")
    return value


def _bulk_spacings(values: np.ndarray, bulk_fraction: float) -> np.ndarray:
    if values.size < 4:
        raise ValueError("need at least 4 eigenvalues to take bulk spacings")
    drop = int(np.floor(values.size * (1.0 - bulk_fraction) / 2.0))
    bulk = values[drop : values.size - drop]
    if bulk.size < 2:
        raise ValueError(f"bulk window keeps {bulk.size} of {values.size} values, need at least 2")
    diffs = np.diff(bulk)
    mean = diffs.mean()
    if mean <= 0.0:
        raise ValueError("all bulk spacings are zero")
    return diffs / mean


def mean_jth_spacing(spectra: Iterable[Spectrum]) -> np.ndarray:
    """Ensemble mean of the j-th raw spacing, j = 1..2n-1 (unscaled)."""
    # from zero, map by map, as numpy's axis-0 mean adds rows unless a map has one spacing
    total = maps = 0
    for maps, v in enumerate((s.values for s in spectra), start=1):
        if maps > 1 and v.size != size:
            raise ValueError(f"spectra of mixed lengths: {sorted((size, v.size))}")
        size, total = v.size, total + (v[1:] - v[:-1])  # np.diff's bytes, not its call cost
    if not maps:
        raise ValueError("empty ensemble")
    return total / maps


def ks_distance(samples: Sequence[float], cdf: Callable) -> float:
    """Sup-distance between the empirical CDF of samples and a reference CDF;
    ``samples`` must be non-empty and finite, else ValueError."""
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if x.size == 0:
        raise ValueError("empty sample")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    ref = np.asarray(cdf(x), dtype=np.float64)
    steps = np.arange(1, x.size + 1) / x.size
    return float(max((steps - ref).max(), (ref - steps + 1.0 / x.size).max()))


def l1_histogram_distance(h: HistogramDensity, pdf: Callable) -> float:
    """Integrated absolute gap between a histogram and a pdf at bin centers."""
    ref = np.asarray(pdf(h.bin_centers), dtype=np.float64)
    return float(np.sum(np.abs(h.densities - ref) * h.bin_widths))

