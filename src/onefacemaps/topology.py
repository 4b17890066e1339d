"""Topological invariants of a gluing.

The glued surface's embedded graph has one vertex per orbit of the
permutation "step to the next polygon label, then jump across the
gluing", and one face.  ``mapcore`` walks the orbits once per ``Gluing``, and
its Euler rule turns their number into the genus that ``EnsembleRecord`` checks;
``genus``, ``is_noncrossing`` (genus zero) and the degrees read that one walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .mapcore import Gluing, _adjacency_times, _exact_int, _map_matrix, _parity_blocks_vanish

if TYPE_CHECKING:
    import numpy as np

# entries of A^r are bounded by 3^r; int64 is exact up to this cap
MAX_WALK_LENGTH = 20


def genus(g: Gluing) -> int:
    """Genus of the glued surface, from its vertices by Euler's formula for
    one face.  The orbits are walked once per ``Gluing`` instance, which keeps
    the genus and degrees for this, ``is_noncrossing`` and ``degree_distribution``."""
    return g._walk[0]


def is_noncrossing(g: Gluing) -> bool:
    """True iff no two glued pairs interleave as a < c < b < d, which is
    genus zero: each such gluing closes into a sphere, and there are C_n
    of each kind (eps_0(n) = C_n).  It reads the orbit walk of ``genus``."""
    return genus(g) == 0


def is_bipartite(a: np.ndarray) -> bool:
    """True iff the graph of a map adjacency matrix admits a 2-coloring.

    ``a`` must pass the map-matrix rule it shares with ``eigenvalues_symmetric``,
    with the same messages, and contain the spanning cycle 0-1-...-(2n-1)-0
    of every map graph; otherwise ValueError.  That even cycle forces the coloring by
    label parity, so the graph is bipartite exactly when no entry joins
    two labels of the same parity: one vectorised O(n^2) scan.
    """
    import numpy as np

    a = _map_matrix(a)
    two_n = a.shape[0]
    idx = np.arange(two_n)
    succ = (idx + 1) % two_n
    if not (a[idx, succ].all() and a[succ, idx].all()):
        raise ValueError("matrix lacks the spanning cycle of a map graph")
    return _parity_blocks_vanish(a)


def degree_distribution(g: Gluing) -> dict[int, int]:
    """Map-vertex degrees (cycle lengths) -> number of such vertices.

    Degrees weighted by counts sum to 2n; a genus-zero map has n + 1
    vertices, the vertices of the embedded plane tree.  Each call returns a
    new dict, in ascending degree.
    """
    return dict(sorted(g._walk[1].items()))


def closed_walk_counts(g: Gluing, r_max: int) -> list[int]:
    """Exact numbers of closed walks of lengths 1..r_max: trace(A^r).

    Each power is the one before stepped by ``mapcore``'s adjacency rule,
    from the int64 identity, with no matrix product.  ``r_max`` must lie in
    1..MAX_WALK_LENGTH, so the int64 powers cannot overflow.
    """
    import numpy as np

    _exact_int(r_max, "r_max", 1, MAX_WALK_LENGTH)
    power = np.eye(2 * g.n, dtype=np.int64)
    walks = []
    for _ in range(r_max):
        power = _adjacency_times(g, power)
        walks.append(int(power.trace()))
    return walks
