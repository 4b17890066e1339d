import math
from collections import Counter
from fractions import Fraction

import pytest
import sympy

import brute
from brute import catalan, count_matchings
from onefacemaps import genus_distribution, harer_zagier


# the closed forms that stand for C_n and (2n-1)!! in the Harer-Zagier checks
def test_catalan_small_values():
    assert catalan(0) == 1
    assert catalan(4) == 14
    assert catalan(6) == 132


def test_catalan_binomial_formula():
    for n in range(31):
        assert catalan(n) == math.comb(2 * n, n) // (n + 1)


def test_catalan_recursion():
    for n in range(1, 65):
        assert catalan(n) == (4 * n - 2) * catalan(n - 1) // (n + 1)


def test_count_matchings_double_factorial():
    assert [count_matchings(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]


def test_series_leading_coefficients():
    coeffs = brute.coth_series(3)
    assert coeffs[0] == 1
    assert coeffs[1] == Fraction(1, 12)
    assert coeffs[2] == Fraction(-1, 720)


def test_series_against_sympy():
    x = sympy.Symbol("x")
    expansion = sympy.series((x / 2) / sympy.tanh(x / 2), x, 0, 14).removeO()
    coeffs = brute.coth_series(7)
    for k in range(7):
        expected = expansion.coeff(x, 2 * k)
        assert coeffs[k] == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))


def test_genus_distribution_matches_series_oracle():
    for n in range(1, 40):
        assert genus_distribution(n) == brute.genus_counts_by_series(n, n // 2)


def test_harer_zagier_matches_series_oracle_at_mode():
    assert harer_zagier(147, 300) == brute.genus_counts_by_series(300, 147)[147]


def test_harer_zagier_genus_zero_is_catalan():
    for n in range(1, 31):
        assert harer_zagier(0, n) == catalan(n)


def test_harer_zagier_small_values():
    assert harer_zagier(1, 2) == 1
    assert harer_zagier(1, 3) == 10
    assert harer_zagier(2, 4) == 21
    assert harer_zagier(2, 5) == 483


def test_harer_zagier_out_of_range():
    with pytest.raises(ValueError, match="^need 0 <= g <= 1, got 2$"):
        harer_zagier(2, 3)
    with pytest.raises(ValueError, match="^need 0 <= g <= 1, got -1$"):
        harer_zagier(-1, 3)
    with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
        harer_zagier(0, 0)


def test_genus_distribution_small():
    assert genus_distribution(1) == [1]
    assert genus_distribution(2) == [2, 1]
    assert genus_distribution(3) == [5, 10]
    assert genus_distribution(4) == [14, 70, 21]
    assert genus_distribution(5) == [42, 420, 483]


def test_genus_distribution_sums_to_all_matchings():
    for n in range(1, 13):
        assert sum(genus_distribution(n)) == count_matchings(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_genus_distribution_matches_exhaustive_oracle(n):
    hist = Counter(brute.genus_reverse(p) for p in brute.all_matchings(n))
    assert genus_distribution(n) == [hist[g] for g in range(n // 2 + 1)]
