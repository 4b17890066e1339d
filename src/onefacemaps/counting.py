"""Exact combinatorics of gluings: maps counted by genus, and listed for small n.

Everything here is integer arithmetic, and numpy is never imported.  The
number ε_g(n) of genus-g one-face maps with n edges follows the
Harer–Zagier recurrence (Harer and Zagier, Invent. Math. 85, 1986)

    (n+1) ε_g(n) = 2(2n-1) ε_g(n-1) + (n-1)(2n-1)(2n-3) ε_{g-1}(n-2)

from ε_0(0) = 1.  Every division by n+1 is checked to be exact, so a
wrong term raises instead of rounding.
"""

from __future__ import annotations

from typing import Iterator

from .mapcore import Gluing, _exact_int

ENUMERATE_ALL_MAX = 8  # (2n-1)!! past this is unreasonable to stream
ENUMERATE_NCPP_MAX = 14  # C_14 = 2674440


def _harer_zagier_row(n: int, g_max: int) -> list[int]:
    """Row [ε_0(n), ..., ε_h(n)] with h = min(n // 2, g_max).

    Column g of a row needs only columns g and g-1 of the two rows before
    it, so cutting the rows at g_max loses nothing below it, and only the
    last two rows are kept.
    """
    before, last = [], [1]  # rows m-2 and m-1, starting from m = 1
    for m in range(1, n + 1):
        same_genus = 2 * (2 * m - 1)
        one_genus_down = (m - 1) * (2 * m - 1) * (2 * m - 3)
        last_padded = last + [0]  # ε_{m/2}(m-1) = 0 when m is even
        row = []
        for g in range(min(m // 2, g_max) + 1):
            total = same_genus * last_padded[g]
            if g:
                total += one_genus_down * before[g - 1]
            value, remainder = divmod(total, m + 1)
            if remainder:
                raise ArithmeticError(f"Harer-Zagier division not exact at g={g}, n={m}")
            row.append(value)
        before, last = last, row
    return last


def harer_zagier(g: int, n: int) -> int:
    """Number of genus-g one-face maps with n edges, exactly."""
    _exact_int(n, "n", 1)
    _exact_int(g, "g", 0, n // 2)
    return _harer_zagier_row(n, g)[g]


def genus_distribution(n: int) -> list[int]:
    """Counts of n-edge one-face maps by genus g = 0..floor(n/2).

    The entries sum to (2n-1)!!, the total number of gluings.
    """
    _exact_int(n, "n", 1)
    return _harer_zagier_row(n, n // 2)


def enumerate_all_gluings(n: int) -> Iterator[Gluing]:
    """All (2n-1)!! gluings, each exactly once, in deterministic order.

    ``n`` must lie in 1..ENUMERATE_ALL_MAX; it is checked at the call, before the first item.
    """
    _exact_int(n, "n", 1, ENUMERATE_ALL_MAX)
    partner = [0] * (2 * n)

    def fill() -> Iterator[None]:
        try:
            i = partner.index(0)
        except ValueError:
            yield None
            return
        for j in range(i + 1, 2 * n):
            if partner[j] == 0:
                partner[i] = j + 1
                partner[j] = i + 1
                yield from fill()
                partner[i] = 0
                partner[j] = 0

    return (Gluing(partner=tuple(partner)) for _ in fill())


def enumerate_ncpp(n: int) -> Iterator[Gluing]:
    """All C_n non-crossing gluings, each exactly once, deterministic order.

    ``n`` must lie in 1..ENUMERATE_NCPP_MAX; it is checked at the call, before the first item.
    """
    _exact_int(n, "n", 1, ENUMERATE_NCPP_MAX)
    partner = [0] * (2 * n)

    def fill(first: int, k: int) -> Iterator[None]:
        if k == 0:
            yield None
            return
        for m in range(1, k + 1):
            mate = first + 2 * m - 1
            partner[first - 1] = mate
            partner[mate - 1] = first
            for _ in fill(first + 1, m - 1):
                yield from fill(mate + 1, k - m)

    return (Gluing(partner=tuple(partner)) for _ in fill(1, n))
