"""Random one-face maps as three-regular graphs.

Generate gluings of the 2N-gon (uniform, non-crossing, or genus-filtered),
compute their topology (genus, vertex degrees, bipartiteness, closed
walks), take full spectra of the associated three-regular adjacency
matrices, and compare empirical densities and spacing distributions
against the standard reference curves.

Every public name is loaded from its submodule on first use, so that
importing the package, or the integer-only parts of it (``counting``,
gluings, records, genus and degrees), does not import numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCE = {
    "EnsembleRecord": "mapcore",
    "FilteredSample": "samplers",
    "Gluing": "mapcore",
    "HistogramDensity": "stats",
    "RngStream": "samplers",
    "Spectrum": "spectra",
    "build_adjacency": "mapcore",
    "closed_walk_counts": "topology",
    "degree_distribution": "topology",
    "empirical_density": "stats",
    "enumerate_all_gluings": "counting",
    "enumerate_ncpp": "counting",
    "eigenvalues_symmetric": "spectra",
    "exponential_cdf": "stats",
    "exponential_density": "stats",
    "genus": "topology",
    "genus_distribution": "counting",
    "goe_surmise_cdf": "stats",
    "goe_surmise_density": "stats",
    "harer_zagier": "counting",
    "is_bipartite": "topology",
    "is_noncrossing": "topology",
    "ks_distance": "stats",
    "l1_histogram_distance": "stats",
    "mckay_density": "stats",
    "mean_jth_spacing": "stats",
    "pooled_bulk_spacings": "stats",
    "read_records": "mapcore",
    "sample_genus_filtered": "samplers",
    "sample_ncpp": "samplers",
    "sample_uniform_gluing": "samplers",
    "spacing_distribution": "stats",
    "vertex_cycles": "mapcore",
    "write_records": "mapcore",
}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
