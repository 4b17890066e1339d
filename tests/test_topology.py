from collections import Counter

import numpy as np
import pytest

import brute
from onefacemaps import (
    RngStream,
    build_adjacency,
    closed_walk_counts,
    degree_distribution,
    genus,
    is_bipartite,
    is_noncrossing,
    sample_ncpp,
    sample_uniform_gluing,
    vertex_cycles,
)

# the one shape fault of a map matrix, up to its shape
SHAPE_FAULT = r"^map matrices are square of even size 2n >= 2, got shape "

TORUS = brute.gluing([3, 4, 1, 2])  # opposite-edge square gluing
PATH2 = brute.gluing([2, 1, 4, 3])  # two nested arcs, a path of length 2
TWOGON = brute.gluing([2, 1])


def test_vertex_cycles_two_gon():
    assert vertex_cycles(TWOGON) == [(1,), (2,)]


def test_vertex_cycles_torus():
    assert vertex_cycles(TORUS) == [(1, 4, 3, 2)]


def test_vertex_cycles_path():
    assert vertex_cycles(PATH2) == [(1,), (2, 4), (3,)]


def test_vertex_cycles_partition_labels():
    for partner in brute.all_matchings(4):
        cycles = vertex_cycles(brute.gluing(partner))
        labels = sorted(label for c in cycles for label in c)
        assert labels == list(range(1, 9))


def test_genus_examples():
    assert genus(TORUS) == 1
    assert genus(PATH2) == 0
    assert genus(TWOGON) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_genus_agrees_with_reverse_orientation_oracle(n):
    for partner in brute.all_matchings(n):
        g = brute.gluing(partner)
        assert genus(g) == brute.genus_reverse(partner)


def test_genus_histogram_n3():
    hist = Counter(genus(brute.gluing(p)) for p in brute.all_matchings(3))
    assert dict(hist) == {0: 5, 1: 10}


def test_genus_bounds_on_random_large_maps():
    gen = RngStream(11).generator()
    for n in (50, 500, 2000):
        g = sample_uniform_gluing(n, gen)
        assert 0 <= genus(g) <= n // 2


def test_is_noncrossing_examples():
    assert is_noncrossing(PATH2)
    assert not is_noncrossing(TORUS)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_noncrossing_matches_quadratic_oracle_and_genus(n):
    for partner in brute.all_matchings(n):
        g = brute.gluing(partner)
        flag = is_noncrossing(g)
        assert flag == brute.crossing_free(partner)
        assert flag == (genus(g) == 0)


def test_is_bipartite_examples():
    assert not is_bipartite(build_adjacency(TORUS))  # K4 has odd cycles
    assert is_bipartite(build_adjacency(PATH2))
    assert is_bipartite(build_adjacency(TWOGON))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_bipartite_agrees_with_bfs_oracle_exhaustively(n):
    for partner in brute.all_matchings(n):
        a = build_adjacency(brute.gluing(partner))
        assert is_bipartite(a) == brute.bipartite_by_bfs(a)


def test_is_bipartite_agrees_with_bfs_oracle_on_large_maps():
    gen = RngStream(4).generator()
    for draw in (sample_uniform_gluing, sample_ncpp):
        for _ in range(20):
            a = build_adjacency(draw(100, gen))
            assert is_bipartite(a) == brute.bipartite_by_bfs(a)


def test_is_bipartite_rejects_matrices_without_the_spanning_cycle():
    with pytest.raises(ValueError, match="lacks the spanning cycle of a map graph"):
        is_bipartite(np.zeros((4, 4), dtype=np.int64))
    with pytest.raises(ValueError, match=SHAPE_FAULT + r"\(3, 3\)$"):
        is_bipartite(np.zeros((3, 3), dtype=np.int64))


def test_is_bipartite_rejects_the_empty_matrix():
    with pytest.raises(ValueError, match=SHAPE_FAULT + r"\(0, 0\)$"):
        is_bipartite(np.zeros((0, 0), dtype=np.int64))


def test_noncrossing_graphs_are_bipartite():
    gen = RngStream(3).generator()
    for _ in range(20):
        g = sample_ncpp(30, gen)
        assert is_bipartite(build_adjacency(g))


def test_degree_distribution_examples():
    assert degree_distribution(TWOGON) == {1: 2}
    assert degree_distribution(PATH2) == {1: 2, 2: 1}


def test_degree_distribution_weighted_sum():
    gen = RngStream(5).generator()
    for n in (3, 10, 40):
        g = sample_uniform_gluing(n, gen)
        dist = degree_distribution(g)
        assert sum(k * c for k, c in dist.items()) == 2 * n


def test_genus_and_degrees_share_one_walk(monkeypatch):
    from onefacemaps import mapcore

    walks = []
    walk = mapcore.vertex_cycles

    def counted(g):
        walks.append(g)
        return walk(g)

    monkeypatch.setattr(mapcore, "vertex_cycles", counted)
    g = brute.gluing([3, 4, 1, 2, 6, 5])
    assert genus(g) == 1
    dist = degree_distribution(g)
    assert list(dist.items()) == [(1, 1), (5, 1)]  # ascending, though the walk meets 5 first
    dist[1] = 99  # a copy: the next call is not changed
    assert degree_distribution(g) == {1: 1, 5: 1} and genus(g) == 1
    assert walks == [g]


def test_genus_zero_maps_have_tree_vertex_count():
    gen = RngStream(6).generator()
    for _ in range(10):
        g = sample_ncpp(25, gen)
        assert sum(degree_distribution(g).values()) == 26


def test_closed_walks_k4():
    # eigenvalues 3, -1, -1, -1 give trace(A^r) = 3^r + 3(-1)^r
    assert closed_walk_counts(TORUS, 5) == [0, 12, 24, 84, 240]


def test_closed_walks_match_exact_matrix_power():
    # every gluing with n <= 5 (1,069 of them), including n = 1, whose one
    # off-diagonal entry is 3, and glued pairs of adjacent labels (entry 2)
    for n in range(1, 6):
        for partner in brute.all_matchings(n):
            g = brute.gluing(partner)
            expected = brute.closed_walks_by_matrix_power(build_adjacency(g), 20)
            assert closed_walk_counts(g, 20) == expected
    gen = RngStream(9).generator()
    for n in (10, 50):
        g = sample_uniform_gluing(n, gen)
        assert closed_walk_counts(g, 8) == brute.closed_walks_by_matrix_power(build_adjacency(g), 8)


def test_first_walk_count_is_zero_and_w2_is_six_n():
    gen = RngStream(13).generator()
    found_simple = 0
    for _ in range(30):
        n = 12
        g = sample_uniform_gluing(n, gen)
        walks = closed_walk_counts(g, 2)
        assert walks[0] == 0
        if build_adjacency(g).max() == 1:  # simple-graph case only
            assert walks[1] == 6 * n
            found_simple += 1
    assert found_simple > 0


def test_walk_length_caps():
    with pytest.raises(ValueError, match="need r_max >= 1"):
        closed_walk_counts(PATH2, 0)
    with pytest.raises(ValueError, match="r_max = 21 exceeds the exact-arithmetic cap 20"):
        closed_walk_counts(PATH2, 21)


def test_walk_counts_of_noncrossing_maps_stay_macroscopic():
    # Each degree-k tree vertex bounds a 2k-cycle, so w_2k >= (# degree-k
    # vertices) per map, and the per-vertex walk ratio w_2k / 2n must not
    # decay as n grows (it stays near or above 2^-(k+1)).
    maps_per_size = 10
    ratios = {}
    for n in (250, 500, 1000):
        walk_sums = np.zeros(3)
        degree_sums = np.zeros(3)
        for i in range(maps_per_size):
            g = sample_ncpp(n, RngStream(8800 + n, i))
            walks = closed_walk_counts(g, 6)
            degrees = degree_distribution(g)
            for k in (1, 2, 3):
                assert walks[2 * k - 1] >= degrees.get(k, 0)
                walk_sums[k - 1] += walks[2 * k - 1]
                degree_sums[k - 1] += degrees.get(k, 0)
        ratios[n] = walk_sums / (maps_per_size * 2 * n)
        assert np.all(ratios[n] >= degree_sums / (maps_per_size * 2 * n))
    for k in (1, 2, 3):
        floor = 0.8 * 2.0 ** -(k + 1)
        assert all(ratios[n][k - 1] >= floor for n in ratios)
