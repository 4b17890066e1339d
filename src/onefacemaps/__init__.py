"""Random one-face maps as three-regular graphs.

Generate gluings of the 2N-gon (uniform, non-crossing, or genus-filtered),
compute their topology (genus, vertex degrees, bipartiteness, closed
walks), take full spectra of the associated three-regular adjacency
matrices, and compare empirical densities and spacing distributions
against the standard reference curves.
"""

from .counting import (
    catalan,
    count_matchings,
    genus_distribution,
    harer_zagier,
)
from .mapcore import (
    AdjacencyMatrix,
    EnsembleRecord,
    Gluing,
    build_adjacency,
    gluing_from_permutation,
    read_records,
    validate_gluing,
    vertex_cycles,
    write_records,
)
from .samplers import (
    FilteredSample,
    RngStream,
    enumerate_all_gluings,
    enumerate_ncpp,
    sample_genus_filtered,
    sample_ncpp,
    sample_uniform_gluing,
)
from .spectra import Spectrum, eigenvalues_symmetric
from .stats import (
    HistogramDensity,
    bulk_spacings,
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
    spacing_distribution,
)
from .topology import (
    closed_walk_counts,
    degree_distribution,
    genus,
    is_bipartite,
    is_noncrossing,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "EnsembleRecord",
    "FilteredSample",
    "Gluing",
    "HistogramDensity",
    "RngStream",
    "Spectrum",
    "build_adjacency",
    "bulk_spacings",
    "catalan",
    "closed_walk_counts",
    "count_matchings",
    "degree_distribution",
    "empirical_density",
    "enumerate_all_gluings",
    "enumerate_ncpp",
    "eigenvalues_symmetric",
    "exponential_cdf",
    "exponential_density",
    "genus",
    "genus_distribution",
    "gluing_from_permutation",
    "goe_surmise_cdf",
    "goe_surmise_density",
    "harer_zagier",
    "is_bipartite",
    "is_noncrossing",
    "ks_distance",
    "l1_histogram_distance",
    "mckay_density",
    "mean_jth_spacing",
    "pooled_bulk_spacings",
    "read_records",
    "sample_genus_filtered",
    "sample_ncpp",
    "sample_uniform_gluing",
    "spacing_distribution",
    "validate_gluing",
    "vertex_cycles",
    "write_records",
]
