"""Topological invariants of a gluing.

The glued surface's embedded graph has one vertex per orbit of the
permutation "step to the next polygon label, then jump across the
gluing".  With V such orbits, F = 1 face and E = N edges, Euler's formula
gives genus (N + 1 - V) / 2.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

from .errors import OutOfRangeError, ParityViolationError
from .mapcore import AdjacencyMatrix, Gluing, validate_gluing

# entries of A^r are bounded by 3^r; int64 is exact up to this cap
MAX_WALK_LENGTH = 20


def vertex_cycles(g: Gluing) -> list[tuple[int, ...]]:
    """Orbits of i -> partner(i+1 mod 2n); each orbit is one map vertex.

    Cycles are reported in order of their smallest label, each starting at
    that label.
    """
    validate_gluing(g)
    partner = g.partner
    two_n = len(partner)
    seen = bytearray(two_n)
    cycles = []
    for start in range(1, two_n + 1):
        if seen[start - 1]:
            continue
        cycle = []
        i = start
        while not seen[i - 1]:
            seen[i - 1] = 1
            cycle.append(i)
            i = partner[i % two_n]
        cycles.append(tuple(cycle))
    return cycles


def _vertex_count(partner: tuple[int, ...]) -> int:
    two_n = len(partner)
    seen = bytearray(two_n)
    count = 0
    for start in range(1, two_n + 1):
        if not seen[start - 1]:
            count += 1
            i = start
            while not seen[i - 1]:
                seen[i - 1] = 1
                i = partner[i % two_n]
    return count


def genus(g: Gluing) -> int:
    """Genus of the glued surface: (n + 1 - V) / 2 with V map vertices."""
    validate_gluing(g)
    v = _vertex_count(g.partner)
    handles_twice = g.n + 1 - v
    if handles_twice % 2 != 0:
        raise ParityViolationError(f"n + 1 - V = {handles_twice} is odd (internal bug)")
    return handles_twice // 2


def is_noncrossing(g: Gluing) -> bool:
    """True iff no two glued pairs interleave as a < c < b < d."""
    validate_gluing(g)
    stack: list[int] = []
    for i, p in enumerate(g.partner, start=1):
        if p > i:
            stack.append(i)
        elif not stack or stack.pop() != p:
            return False
    return not stack


def is_bipartite(a: AdjacencyMatrix) -> bool:
    """True iff the (multi)graph admits a 2-coloring."""
    a = np.asarray(a)
    size = a.shape[0]
    color = np.full(size, -1, dtype=np.int8)
    for root in range(size):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in np.flatnonzero(a[v]):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def degree_distribution(g: Gluing) -> dict[int, int]:
    """Map-vertex degrees (cycle lengths) -> number of such vertices.

    Degrees weighted by counts sum to 2n; a genus-zero map has n + 1
    vertices, the vertices of the embedded plane tree.
    """
    counts = Counter(len(c) for c in vertex_cycles(g))
    return dict(sorted(counts.items()))


def closed_walk_counts(a: AdjacencyMatrix, r_max: int) -> list[int]:
    """Exact numbers of closed walks of lengths 1..r_max: trace(A^r).

    Capped at r_max = 20 so the int64 matrix powers cannot overflow.
    """
    if r_max < 1:
        raise OutOfRangeError("need r_max >= 1")
    if r_max > MAX_WALK_LENGTH:
        raise OutOfRangeError(
            f"r_max = {r_max} exceeds the exact-arithmetic cap {MAX_WALK_LENGTH}"
        )
    from scipy import sparse  # deferred: importing the package loads no scipy

    dense = np.asarray(a, dtype=np.int64)
    step = sparse.csr_matrix(dense)
    power = dense
    walks = [int(np.trace(power))]
    for _ in range(2, r_max + 1):
        power = step @ power
        walks.append(int(np.trace(power)))
    return walks
