"""Topological invariants of a gluing.

The glued surface's embedded graph has one vertex per orbit of the
permutation "step to the next polygon label, then jump across the
gluing".  With V such orbits, F = 1 face and E = N edges, Euler's formula
gives genus (N + 1 - V) / 2.  ``mapcore``'s ``vertex_cycles`` walks the
orbits, and its ``EnsembleRecord`` calls ``genus`` to check its stored
genus when it is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .mapcore import Gluing, _exact_int, _map_matrix, _parity_blocks_vanish, build_adjacency

if TYPE_CHECKING:
    import numpy as np

# entries of A^r are bounded by 3^r; int64 is exact up to this cap
MAX_WALK_LENGTH = 20


def genus(g: Gluing) -> int:
    """Genus of the glued surface: (n + 1 - V) / 2 with V map vertices.

    n + 1 - V is always even: the vertex permutation i -> partner(i+1) is
    n transpositions after a 2n-cycle, so its sign (-1)^(2n-V) = (-1)^V
    is (-1)^n (-1)^(2n-1) = (-1)^(n+1).  The orbits are walked once per
    ``Gluing`` instance, which keeps their degree counts for this and for
    ``degree_distribution``.
    """
    return (g.n + 1 - sum(g._degrees.values())) // 2


def is_noncrossing(g: Gluing) -> bool:
    """True iff no two glued pairs interleave as a < c < b < d."""
    stack: list[int] = []
    for i, p in enumerate(g.partner, start=1):
        if p > i:
            stack.append(i)
        elif not stack or stack.pop() != p:
            return False
    return not stack


def is_bipartite(a: np.ndarray) -> bool:
    """True iff the graph of a map adjacency matrix admits a 2-coloring.

    ``a`` must have the shape of every map matrix, square of even size
    2n >= 2, which ``eigenvalues_symmetric`` asks too, and contain the
    spanning cycle 0-1-...-(2n-1)-0 of every map graph; otherwise
    ValueError.  That even cycle forces the coloring by label parity, so
    the graph is bipartite exactly when no entry joins two labels of the
    same parity: one vectorised O(n^2) scan.
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
    return dict(sorted(g._degrees.items()))


def closed_walk_counts(g: Gluing, r_max: int) -> list[int]:
    """Exact numbers of closed walks of lengths 1..r_max: trace(A^r).

    A is the 2n-cycle, its transpose and the glued matching, so row i of
    A @ X is X[i - 1] + X[i + 1] + X[mate(i)]: each power is a row gather
    plus four shifted row slices added in place, in int64, with no matrix
    product.  Capped at r_max = 20 so the int64 powers cannot overflow.
    """
    import numpy as np

    if _exact_int(r_max, "r_max") < 1:
        raise ValueError("need r_max >= 1")
    if r_max > MAX_WALK_LENGTH:
        raise ValueError(
            f"r_max = {r_max} exceeds the exact-arithmetic cap {MAX_WALK_LENGTH}"
        )
    mate = np.asarray(g.partner, dtype=np.int64) - 1
    power = build_adjacency(g).astype(np.int64)
    walks = [int(np.trace(power))]
    for _ in range(2, r_max + 1):
        nxt = power[mate]
        nxt[1:] += power[:-1]
        nxt[0] += power[-1]
        nxt[:-1] += power[1:]
        nxt[-1] += power[0]
        power = nxt
        walks.append(int(np.trace(power)))
    return walks
