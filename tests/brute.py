"""Independent brute-force oracles used by the tests.

Everything here is deliberately written with different algorithms than the
package: interleave checks are quadratic pair-vs-pair scans, the map
vertex count walks the opposite orientation (whose orbit permutation is
the inverse of the production one, so the cycle count must agree), and
genus counts come from the Harer-Zagier generating function as an exact
rational power series, not from the package's recurrence, spectra come
from a dense symmetric eigensolve of the whole matrix, bipartiteness
from a breadth-first 2-coloring that assumes nothing about the graph,
closed walks from matrix powers in Python integers, and genus-filtered
rejection from single draws, one ``sample_uniform_gluing`` and one
reverse-orientation genus at a time.  Conjugation of the standard matching
by a permutation is the definition, label by label in Python, and the
Catalan and matching numbers are closed forms: the reflection-principle
difference of two binomials, and (2n)! / (2^n n!).
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Iterator

import numpy as np

from onefacemaps import FilteredSample, Gluing, sample_uniform_gluing
from onefacemaps.errors import BudgetExhaustedError


def gluing(partner) -> Gluing:
    """The gluing with this partner table, given as any sequence."""
    return Gluing(partner=tuple(partner))


def catalan(n: int) -> int:
    """C_n = (2n choose n) - (2n choose n+1): Dyck paths, by the reflection
    principle; counts the non-crossing pairings of 2n labels."""
    return math.comb(2 * n, n) - math.comb(2 * n, n + 1)


def count_matchings(n: int) -> int:
    """(2n)! / (2^n n!) = (2n-1)!!, the perfect matchings of 2n labels."""
    return math.factorial(2 * n) // (2**n * math.factorial(n))


def gluing_by_conjugation(perm) -> tuple[int, ...]:
    """Partner tuple of the standard matching conjugated by ``perm``, given
    as the 1-based images perm(i) = perm[i - 1]:
    partner(i) = perm^-1(t(perm(i))), with t(2k-1) = 2k and t(2k) = 2k-1."""
    perm = [int(v) for v in perm]
    inverse = {v: i for i, v in enumerate(perm, start=1)}
    return tuple(inverse[v + 1 if v % 2 else v - 1] for v in perm)


def all_matchings(n: int) -> Iterator[tuple[int, ...]]:
    """Every perfect matching on 1..2n as a partner tuple, (2n-1)!! total."""
    partner = [0] * (2 * n)

    def rec() -> Iterator[None]:
        free = [i for i in range(2 * n) if partner[i] == 0]
        if not free:
            yield None
            return
        i = free[0]
        for j in free[1:]:
            partner[i] = j + 1
            partner[j] = i + 1
            yield from rec()
            partner[i] = 0
            partner[j] = 0

    for _ in rec():
        yield tuple(partner)


def crossing_free(partner: tuple[int, ...]) -> bool:
    """Quadratic check that no two pairs interleave a < c < b < d."""
    pairs = [(i + 1, p) for i, p in enumerate(partner) if i + 1 < p]
    for a, b in pairs:
        for c, d in pairs:
            if a < c < b < d:
                return False
    return True


def map_vertex_count_reverse(partner: tuple[int, ...]) -> int:
    """Orbit count of i -> previous-label(partner(i)), the opposite
    orientation; its orbit permutation is the inverse of the production
    convention, so the count must coincide."""
    two_n = len(partner)
    seen = [False] * two_n
    count = 0
    for start in range(1, two_n + 1):
        if seen[start - 1]:
            continue
        count += 1
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            p = partner[i - 1]
            i = p - 1 if p > 1 else two_n
    return count


def genus_reverse(partner: tuple[int, ...]) -> int:
    """Euler-formula genus computed from the reverse-orientation count."""
    n = len(partner) // 2
    v = map_vertex_count_reverse(partner)
    assert (n + 1 - v) % 2 == 0
    return (n + 1 - v) // 2


def coth_series(num_terms: int) -> list[Fraction]:
    """Coefficients of x^0, x^2, ..., x^(2(num_terms-1)) in (x/2)/tanh(x/2).

    cosh(x/2) divided by sinh(x/2)/(x/2), both expanded in u = x^2 and
    divided as truncated series; leading terms 1 + x^2/12 - x^4/720.
    """
    cosh = [Fraction(1, 4**k * math.factorial(2 * k)) for k in range(num_terms)]
    sinh = [Fraction(1, 4**k * math.factorial(2 * k + 1)) for k in range(num_terms)]
    out: list[Fraction] = []
    for k in range(num_terms):
        out.append(cosh[k] - sum(sinh[j] * out[k - j] for j in range(1, k + 1)))
    return out


def genus_counts_by_series(n: int, g_max: int) -> list[int]:
    """Genus counts g = 0..g_max of n-edge one-face maps from

        (2n)! / ((n+1)! (n-2g)!) * [x^(2g)] ((x/2)/tanh(x/2))^(n+1),

    the power taken by the J. C. P. Miller recurrence for f^p with
    f(0) = 1: k b_k = sum_j ((p+1) j - k) a_j b_(k-j).
    """
    a = coth_series(g_max + 1)
    p = n + 1
    b = [Fraction(1)]
    for k in range(1, g_max + 1):
        b.append(sum(((p + 1) * j - k) * a[j] * b[k - j] for j in range(1, k + 1)) / k)
    counts = []
    for g in range(g_max + 1):
        value = b[g] * Fraction(
            math.factorial(2 * n), math.factorial(n + 1) * math.factorial(n - 2 * g)
        )
        assert value.denominator == 1 and value >= 0
        counts.append(int(value))
    return counts


def dense_spectrum(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, by a dense solve."""
    return np.linalg.eigvalsh(np.asarray(a, dtype=np.float64))


def closed_walks_by_matrix_power(a, r_max: int) -> list[int]:
    """trace(A^r) for r = 1..r_max by repeated products of object-dtype
    (Python integer) matrices, which cannot overflow."""
    exact = np.array(a, dtype=object)
    power = exact
    walks = [int(np.trace(power))]
    for _ in range(r_max - 1):
        power = power @ exact
        walks.append(int(np.trace(power)))
    return walks


def bipartite_by_bfs(a) -> bool:
    """True iff the graph with adjacency ``a`` has a 2-coloring, by BFS."""
    a = np.asarray(a)
    color = np.full(a.shape[0], -1, dtype=np.int8)
    for root in range(a.shape[0]):
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


def genus_filtered_by_single_draws(
    n: int, target_genus: int, max_attempts: int, gen, num_samples: int
) -> FilteredSample:
    """Rejection one draw at a time, stopping at the first draw that meets
    the request: the loop ``sample_genus_filtered`` must reproduce, down to
    the kept gluings, ``attempts`` and the generator's state afterwards."""
    kept = []
    attempts = 0
    for attempts in range(1, max_attempts + 1):
        g = sample_uniform_gluing(n, gen)
        if genus_reverse(g.partner) == target_genus:
            kept.append(g)
            if len(kept) == num_samples:
                return FilteredSample(gluings=tuple(kept), attempts=attempts)
    raise BudgetExhaustedError(
        f"found {len(kept)} genus-{target_genus} maps in {attempts} draws, wanted {num_samples} maps",
        gluings=kept,
        attempts=attempts,
    )
