import numpy as np
import pytest

import brute
from onefacemaps import (
    Gluing,
    RngStream,
    build_adjacency,
    closed_walk_counts,
    eigenvalues_symmetric,
    genus,
    sample_ncpp,
    sample_uniform_gluing,
)


def _assert_matches_dense(a):
    values = eigenvalues_symmetric(a).values
    assert np.max(np.abs(values - brute.dense_spectrum(a))) <= 1e-10
    assert not np.any(np.signbit(values) & (values == 0.0))  # no -0.0


def test_k4_spectrum():
    s = eigenvalues_symmetric(build_adjacency(Gluing.from_partner([3, 4, 1, 2])))
    assert np.allclose(s.values, [-1.0, -1.0, -1.0, 3.0], atol=1e-10)
    assert s.n == 2


def test_two_gon_spectrum():
    a = build_adjacency(Gluing.from_partner([2, 1]))
    assert eigenvalues_symmetric(a).values.tolist() == [-3.0, 3.0]
    _assert_matches_dense(a)


def test_spectrum_invariants_on_random_maps():
    gen = RngStream(21).generator()
    for n in (2, 10, 80):
        s = eigenvalues_symmetric(build_adjacency(sample_uniform_gluing(n, gen)))
        assert len(s.values) == 2 * n
        assert np.all(np.diff(s.values) >= 0)
        assert abs(s.values.sum()) <= 1e-8 * n
        assert np.all(np.abs(s.values) <= 3.0 + 1e-9)
        assert abs(s.values[-1] - 3.0) <= 1e-8
        if n >= 2:  # Perron value simple: connected via the spanning cycle
            assert s.values[-2] < 3.0 - 1e-8


def test_moments_match_closed_walks():
    gen = RngStream(22).generator()
    for _ in range(5):
        g = sample_uniform_gluing(50, gen)
        s = eigenvalues_symmetric(build_adjacency(g))
        walks = closed_walk_counts(g, 10)
        for r in range(2, 11):
            moment = float(np.sum(s.values**r))
            assert abs(moment - walks[r - 1]) <= 1e-6 * max(abs(walks[r - 1]), 1)


def test_noncrossing_spectra_match_dense_solve():
    gen = RngStream(23).generator()
    for n in (5, 60, 200):
        _assert_matches_dense(build_adjacency(sample_ncpp(n, gen)))


def test_crossing_bipartite_gluing_matches_dense_solve():
    g = Gluing.from_partner([4, 5, 6, 1, 2, 3])  # genus 1, every pair odd-even
    assert genus(g) == 1
    _assert_matches_dense(build_adjacency(g))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_small_gluing_matches_dense_solve(n):
    for partner in brute.all_matchings(n):
        _assert_matches_dense(build_adjacency(Gluing.from_partner(partner)))


def test_zero_singular_values_give_no_negative_zero():
    # the zero matrix has zero parity blocks, so it takes the bipartite path
    _assert_matches_dense(np.zeros((4, 4), dtype=np.int64))


def test_determinism_bitwise():
    a = build_adjacency(sample_uniform_gluing(40, RngStream(77)))
    first = eigenvalues_symmetric(a)
    second = eigenvalues_symmetric(a)
    assert first.values.tobytes() == second.values.tobytes()


def test_rejects_nonsymmetric_and_odd_inputs():
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        eigenvalues_symmetric(np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="map adjacency matrices have even size 2n"):
        eigenvalues_symmetric(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="expected a square matrix"):
        eigenvalues_symmetric(np.zeros((2, 4), dtype=np.int64))


def test_rejects_the_empty_matrix():
    with pytest.raises(ValueError, match="got an empty matrix"):
        eigenvalues_symmetric(np.zeros((0, 0), dtype=np.int64))
