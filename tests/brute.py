"""Independent brute-force oracles used by the tests.

Everything here is deliberately written with different algorithms than the
package: interleave checks are quadratic pair-vs-pair scans, the map
vertices are listed with a seen set and modular successors, their count
also walks the opposite orientation (whose orbit permutation is
the inverse of the production one, so the cycle count must agree), and
genus counts come from the Harer-Zagier generating function as an exact
rational power series, not from the package's recurrence, spectra come
from a dense symmetric eigensolve of the whole matrix, bipartiteness
from a breadth-first 2-coloring that assumes nothing about the graph,
the adjacency matrix one edge at a time, closed walks from powers of
that matrix in Python integers, the mean gap ratio <r> of one spectrum
from its raw bulk spacings, the pooled statistics from every spectrum
held at once (one concatenation, one stacked matrix), and genus-filtered
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


def vertex_cycles(partner) -> list[tuple[int, ...]]:
    """Orbits of i -> partner(i+1 mod 2n) on a 1-based table, the map vertices,
    each from its least label and in order of it: a seen set and the modular
    successor ``partner[i % 2n]``, with no table of steps."""
    two_n = len(partner)
    seen: set[int] = set()
    cycles = []
    for start in range(1, two_n + 1):
        if start in seen:
            continue
        cycle = [start]
        i = partner[start % two_n]
        while i != start:
            cycle.append(i)
            i = partner[i % two_n]
        seen.update(cycle)
        cycles.append(tuple(cycle))
    return cycles


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


def mean_gap_ratio(values) -> float:
    """<r>: the mean of min(s_k, s_k+1) / max(s_k, s_k+1) over consecutive
    raw spacings of one ascending spectrum, in the central window that
    ``stats`` keeps.  The local density cancels in each ratio, so nothing
    is unfolded (Oganesyan and Huse 2007; Atas et al. 2013): about 0.531
    for GOE and 2 ln 2 - 1 = 0.386 for Poisson levels."""
    values = np.asarray(values, dtype=np.float64)
    drop = int(np.floor(values.size * (1.0 - 0.8) / 2.0))  # stats' default, rounded as it rounds
    s = np.diff(values[drop : values.size - drop])
    return float(np.mean(np.minimum(s[:-1], s[1:]) / np.maximum(s[:-1], s[1:])))


def histogram_by_concatenation(values, bins: int, support) -> tuple[np.ndarray, np.ndarray]:
    """(edges, densities) of one area-normalized ``np.histogram`` of every value at once."""
    counts, edges = np.histogram(np.concatenate(values), bins=bins, range=support)
    return edges, counts / (counts.sum() * np.diff(edges))


def density_by_concatenation(spectra, bins: int, snap: float = 1e-9):
    """The pooled eigenvalue histogram with every spectrum held at once: the
    values concatenated, those within ``snap`` outside [-3, 3] moved onto
    its edge, then one histogram."""
    values = np.concatenate([s.values for s in spectra])
    values[(values < -3.0) & (values >= -3.0 - snap)] = -3.0
    values[(values > 3.0) & (values <= 3.0 + snap)] = 3.0
    return histogram_by_concatenation([values], bins, (-3.0, 3.0))


def bulk_spacings_by_concatenation(spectra, bulk_fraction: float) -> np.ndarray:
    """Each spectrum's raw spacings over its central window, divided by
    their mean, all concatenated."""
    parts = []
    for s in spectra:
        drop = int(np.floor(s.values.size * (1.0 - bulk_fraction) / 2.0))
        raw = np.diff(s.values[drop : s.values.size - drop])
        parts.append(raw / raw.mean())
    return np.concatenate(parts)


def mean_jth_by_stacking(spectra) -> np.ndarray:
    """The mean j-th spacing from every spectrum stacked as one matrix."""
    return np.diff(np.stack([s.values for s in spectra]), axis=1).mean(axis=0)


def adjacency_by_edges(partner) -> np.ndarray:
    """int8 edge counts of the 2n-cycle plus the glued pairs, added one edge
    at a time: the cycle edges i -- i+1 (mod 2n), then each pair i < partner(i)."""
    two_n = len(partner)
    edges = [(i, (i + 1) % two_n) for i in range(two_n)]
    edges += [(i, p - 1) for i, p in enumerate(partner) if i < p - 1]
    a = [[0] * two_n for _ in range(two_n)]
    for u, v in edges:
        a[u][v] += 1
        a[v][u] += 1
    return np.array(a, dtype=np.int8)


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
