"""Independent oracles and output checks for the benchmark.

Nothing here imports ``onefacemaps``: every expected value is computed
from first principles (integers, the ``partner`` table, or numpy), so a
later change that replaces one of the package's algorithms is still
checked against something other than itself.  Every check raises
``CheckError`` naming the first violated property.
"""

from __future__ import annotations

import math

import numpy as np

SPECTRUM_TOL = 1e-8
DENSITY_TOL = 1e-8
MOMENT_TOL = 1e-9  # per eigenvalue; CSV output keeps 12 significant digits


class CheckError(AssertionError):
    """A program output violates a property it must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- exact counting ---------------------------------------------------------


def double_factorial_odd(n: int) -> int:
    """(2n-1)!!, the number of gluings of the 2n-gon."""
    return math.prod(range(1, 2 * n, 2))


def harer_zagier_table(n_max: int) -> list[list[int]]:
    """eps[n][g] for 0 <= n <= n_max, by the Harer-Zagier recurrence

        (n+1) eps_g(n) = 2(2n-1) eps_g(n-1) + (n-1)(2n-1)(2n-3) eps_{g-1}(n-2)

    in integers, checking that every division is exact.
    """
    eps = [[1]]
    for n in range(1, n_max + 1):
        row = []
        for g in range(n // 2 + 1):
            prev = eps[n - 1][g] if g < len(eps[n - 1]) else 0
            back = eps[n - 2][g - 1] if n >= 2 and 1 <= g <= len(eps[n - 2]) else 0
            total = 2 * (2 * n - 1) * prev + (n - 1) * (2 * n - 1) * (2 * n - 3) * back
            q, r = divmod(total, n + 1)
            require(r == 0, f"Harer-Zagier division not exact at g={g}, n={n}")
            row.append(q)
        eps.append(row)
    return eps


def check_genus_table(dist, expected: list[int], n: int) -> None:
    """A genus distribution for n edges equals the recurrence row and sums to (2n-1)!!."""
    dist = [int(x) for x in dist]
    require(len(dist) == len(expected), f"genus table for n={n} has {len(dist)} entries, want {len(expected)}")
    for g, (got, want) in enumerate(zip(dist, expected)):
        require(got == want, f"genus count eps_{g}({n}) = {got}, recurrence gives {want}")
    require(sum(dist) == double_factorial_odd(n), f"genus table for n={n} does not sum to (2n-1)!!")


# --- topology from the partner table -----------------------------------------


def check_involution(partner, n: int) -> None:
    two_n = len(partner)
    require(two_n == 2 * n and n >= 1, f"partner table of length {two_n} for n={n}")
    for i, p in enumerate(partner, start=1):
        require(1 <= p <= two_n and p != i and partner[p - 1] == i, f"label {i} is not properly glued")


def vertex_orbits(partner) -> list[int]:
    """Lengths of the orbits of i -> partner(i) - 1 (mod 2n).

    This is the inverse of the package's vertex permutation
    i -> partner(i + 1), so it walks each map vertex in the reverse
    orientation; the orbit lengths are the vertex degrees.
    """
    two_n = len(partner)
    seen = bytearray(two_n + 1)
    lengths = []
    for start in range(1, two_n + 1):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = 1
            length += 1
            i = partner[i - 1] - 1 or two_n
        lengths.append(length)
    return lengths


def genus_of(partner) -> int:
    n = len(partner) // 2
    twice = n + 1 - len(vertex_orbits(partner))
    require(twice % 2 == 0, "n + 1 - V is odd")
    return twice // 2


def is_parity_bipartite(partner) -> bool:
    """Every glued pair joins an odd and an even label."""
    return all((i + p) % 2 == 1 for i, p in enumerate(partner, start=1))


def is_noncrossing_pairwise(partner) -> bool:
    """No two glued pairs a < b, c < d interleave as a < c < b < d."""
    p = np.asarray(partner, dtype=np.int64)
    lo = np.arange(1, p.size + 1)
    mask = lo < p
    a, b = lo[mask], p[mask]
    inter = (a[:, None] < a[None, :]) & (a[None, :] < b[:, None]) & (b[:, None] < b[None, :])
    return not bool(inter.any())


def adjacency_trace_and_frobenius(partner) -> tuple[int, int]:
    """trace(A) and ||A||_F^2 of the 2n-cycle plus the gluing, from partner."""
    two_n = len(partner)
    entries: dict[tuple[int, int], int] = {}
    for i in range(two_n):
        for j in ((i + 1) % two_n, (i - 1) % two_n, partner[i] - 1):
            entries[i, j] = entries.get((i, j), 0) + 1
    trace = sum(v for (i, j), v in entries.items() if i == j)
    return trace, sum(v * v for v in entries.values())


# --- checks on program outputs ------------------------------------------------


def check_spectrum(values, partner, symmetric: bool = False) -> None:
    """2n ascending values, top value 3, and the first two moments of A."""
    v = np.asarray(values, dtype=np.float64)
    two_n = len(partner)
    require(v.shape == (two_n,), f"spectrum has shape {v.shape}, want ({two_n},)")
    require(bool(np.all(np.diff(v) >= 0.0)), "spectrum is not ascending")
    require(abs(v[-1] - 3.0) <= SPECTRUM_TOL, f"top eigenvalue {v[-1]!r} is not 3")
    trace, frob = adjacency_trace_and_frobenius(partner)
    require(abs(v.sum() - trace) <= MOMENT_TOL * two_n, f"sum of eigenvalues {v.sum()!r} != trace {trace}")
    sq = float(np.dot(v, v))
    require(abs(sq - frob) <= MOMENT_TOL * frob, f"sum of squared eigenvalues {sq!r} != ||A||_F^2 {frob}")
    if symmetric:
        require(float(np.max(np.abs(v + v[::-1]))) <= SPECTRUM_TOL, "spectrum is not symmetric")


def check_record(stored_genus: int, partner, n: int) -> None:
    """A stored ensemble record is a valid gluing with its true genus."""
    check_involution(partner, n)
    true = genus_of(partner)
    require(int(stored_genus) == true, f"record stores genus {stored_genus}, orbit count gives {true}")


def check_density(bin_edges, densities) -> None:
    """An area-normalised histogram integrates to one."""
    widths = np.diff(np.asarray(bin_edges, dtype=np.float64))
    mass = float(np.dot(np.asarray(densities, dtype=np.float64), widths))
    require(abs(mass - 1.0) <= DENSITY_TOL, f"density integrates to {mass!r}, not 1")


def check_density_matches(bin_edges, densities, pooled_values) -> None:
    """The program's pooled density is the area-normalised histogram of
    the pooled eigenvalues (edge round-off snapped into the support)."""
    edges = np.asarray(bin_edges, dtype=np.float64)
    x = np.clip(np.asarray(pooled_values, dtype=np.float64), edges[0], edges[-1])
    counts, _ = np.histogram(x, bins=edges)
    want = counts / (counts.sum() * np.diff(edges))
    require(bool(np.allclose(densities, want, rtol=0.0, atol=1e-9)), "pooled density disagrees with the histogram of the spectra")
    check_density(edges, densities)


def bulk_spacings(values, bulk_fraction: float = 0.8) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    drop = int(np.floor(v.size * (1.0 - bulk_fraction) / 2.0))
    d = np.diff(v[drop : v.size - drop])
    return d / d.mean()


def mckay(x, k: int = 3):
    x = np.asarray(x, dtype=np.float64)
    r = 4.0 * (k - 1) - x * x
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(r > 0.0, k * np.sqrt(np.maximum(r, 0.0)) / (2.0 * np.pi * (k * k - x * x)), 0.0)


def l1_to_mckay(bin_edges, densities) -> float:
    edges = np.asarray(bin_edges, dtype=np.float64)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(np.abs(np.asarray(densities) - mckay(centers)) * np.diff(edges)))


def ks(samples, cdf) -> float:
    x = np.sort(np.asarray(samples, dtype=np.float64))
    ref = cdf(x)
    hi = np.arange(1, x.size + 1) / x.size
    return float(max((hi - ref).max(), (ref - hi + 1.0 / x.size).max()))


def surmise_pdf(s):
    return 0.5 * np.pi * s * np.exp(-0.25 * np.pi * s * s)


def exponential_pdf(s):
    return np.exp(-s)


def surmise_cdf(s):
    return 1.0 - np.exp(-0.25 * np.pi * s * s)


def exponential_cdf(s):
    return -np.expm1(-s)


def check_close(got: float, want: float, what: str, tol: float = 1e-9) -> None:
    require(abs(float(got) - float(want)) <= tol, f"{what} = {got!r}, independent value {want!r}")


# --- the checks reject corrupted outputs ------------------------------------------


def _expect_rejected(what: str, check, *args) -> None:
    try:
        check(*args)
    except CheckError:
        return
    raise CheckError(f"self-test: the check accepted {what}")


def selftest() -> int:
    """Show that the checks are not vacuous: each accepts a correct output
    built here from first principles and rejects a corrupted copy.
    Returns the number of corrupted outputs rejected."""
    partner = [4, 3, 2, 1, 8, 7, 6, 5, 12, 11, 10, 9]  # a small non-crossing gluing
    partner_crossing = [3, 4, 1, 2]  # one handle: genus 1
    two_n = len(partner)
    a = np.zeros((two_n, two_n))
    for i in range(two_n):
        a[i, (i + 1) % two_n] += 1
        a[(i + 1) % two_n, i] += 1
        a[i, partner[i] - 1] += 1
    values = np.linalg.eigvalsh(a)

    check_spectrum(values, partner, symmetric=True)
    shifted = values.copy()
    shifted[two_n // 2] += 1e-3
    _expect_rejected("a spectrum with one eigenvalue shifted", check_spectrum, shifted, partner)

    table = harer_zagier_table(8)
    require(table[3] == [5, 10] and genus_of(partner_crossing) == 1, "self-test: oracle values")
    check_genus_table(table[8], table[8], 8)
    off = list(table[8])
    off[1] += 1
    _expect_rejected("a genus count off by one", check_genus_table, off, table[8], 8)

    check_record(0, partner, two_n // 2)
    _expect_rejected("a record whose stored genus is wrong", check_record, 1, partner, two_n // 2)

    edges = np.linspace(-3.0, 3.0, 13)
    counts, _ = np.histogram(values, bins=edges)
    dens = counts / (counts.sum() * np.diff(edges))
    check_density(edges, dens)
    _expect_rejected("a density that does not integrate to 1", check_density, edges, dens * 1.01)
    return 4
