import ctypes
import re
import tracemalloc

import numpy as np
import pytest

import brute
from onefacemaps import (
    RngStream,
    Spectrum,
    build_adjacency,
    closed_walk_counts,
    eigenvalues_symmetric,
    genus,
    is_bipartite,
    sample_ncpp,
    sample_uniform_gluing,
)
from onefacemaps import spectra
from onefacemaps.errors import NoConvergenceError

# the one shape fault of a map matrix, up to its shape
SHAPE_FAULT = r"^map matrices are square of even size 2n >= 2, got shape "


def _assert_matches_dense(a):
    values = eigenvalues_symmetric(a).values
    assert np.max(np.abs(values - brute.dense_spectrum(a))) <= 1e-10
    assert not np.any(np.signbit(values) & (values == 0.0))  # no -0.0


def test_k4_spectrum():
    s = eigenvalues_symmetric(build_adjacency(brute.gluing([3, 4, 1, 2])))
    assert np.allclose(s.values, [-1.0, -1.0, -1.0, 3.0], atol=1e-10)
    assert s.values.shape == (4,)


def test_two_gon_spectrum():
    a = build_adjacency(brute.gluing([2, 1]))
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
    g = brute.gluing([4, 5, 6, 1, 2, 3])  # genus 1, every pair odd-even
    assert genus(g) == 1
    _assert_matches_dense(build_adjacency(g))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_small_gluing_matches_dense_solve(n):
    for partner in brute.all_matchings(n):
        _assert_matches_dense(build_adjacency(brute.gluing(partner)))


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
    with pytest.raises(ValueError, match=SHAPE_FAULT + r"\(3, 3\)$"):
        eigenvalues_symmetric(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError, match=SHAPE_FAULT + r"\(2, 4\)$"):
        eigenvalues_symmetric(np.zeros((2, 4), dtype=np.int64))


@pytest.mark.parametrize(
    "a, dtype",
    [(np.array([[0, 1j], [1j, 0]]), "complex128"), (np.array([[0, None], [None, 0]]), "object")],
)
def test_rejects_entries_that_are_not_real_numbers(a, dtype):
    # a cast to float64 would drop the imaginary parts, or fail on None
    with pytest.raises(ValueError, match=f"matrix entries must be real numbers, got dtype {dtype}"):
        eigenvalues_symmetric(a)


def test_rejects_the_empty_matrix():
    with pytest.raises(ValueError, match=SHAPE_FAULT + r"\(0, 0\)$"):
        eigenvalues_symmetric(np.zeros((0, 0), dtype=np.int64))


@pytest.mark.parametrize(
    "a",
    [np.zeros((3, 3), dtype=np.int64), np.zeros((2, 4), dtype=np.int64),
     np.zeros((0, 0), dtype=np.int64), np.zeros(4, dtype=np.int64),
     np.zeros((2, 2, 2), dtype=np.int64), [[0, 1, 1], [1, 0, 1]]],
    ids=["3x3", "2x4", "0x0", "4", "2x2x2", "nested-2x3"],
)
def test_solve_and_bipartite_test_share_one_shape_rule(a):
    fault = SHAPE_FAULT + re.escape(str(np.shape(a))) + "$"
    for check in (eigenvalues_symmetric, is_bipartite):
        with pytest.raises(ValueError, match=fault):
            check(a)


def _solve_inputs():
    for n in (1, 2, 50, 300):
        for index in range(3):
            yield build_adjacency(sample_uniform_gluing(n, RngStream(31, index)))
            yield build_adjacency(sample_ncpp(n, RngStream(32, index)))
    yield np.zeros((4, 4), dtype=np.int64)
    yield build_adjacency(brute.gluing([3, 4, 1, 2]))  # K4


def test_lapack_call_matches_numpy_fallback_bytes(monkeypatch):
    lib = spectra._openblas()
    if lib is None:
        pytest.skip("no bundled OpenBLAS with dsyevd, dgesdd and thread calls found beside numpy")
    get, set_ = lib[2:]
    original = get()
    set_(1)  # the fallback runs on the caller's threads, so both sides run on one
    try:
        direct = [eigenvalues_symmetric(a).values.tobytes() for a in _solve_inputs()]
        monkeypatch.setattr(spectra, "_openblas", lambda: None)
        fallback = [eigenvalues_symmetric(a).values.tobytes() for a in _solve_inputs()]
    finally:
        set_(original)
    assert direct == fallback


def test_one_lookup_opens_each_bundled_library_once(monkeypatch):
    opened = []
    real_cdll = ctypes.CDLL

    def counting_cdll(path, *args, **kwargs):
        opened.append(path)
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", counting_cdll)
    spectra._openblas.cache_clear()
    eigenvalues_symmetric(build_adjacency(brute.gluing([3, 4, 1, 2])))  # K4: dense
    eigenvalues_symmetric(build_adjacency(sample_ncpp(50, RngStream(37))))  # bipartite
    assert len(opened) == len(set(opened))
    assert opened or spectra._openblas() is None


@pytest.mark.parametrize("sampler", [sample_uniform_gluing, sample_ncpp])
def test_float_fortran_input_is_left_unchanged(sampler):
    # such an input needs no conversion, so only an explicit copy keeps
    # LAPACK from overwriting the caller's array
    a = np.asfortranarray(build_adjacency(sampler(40, RngStream(33))), dtype=np.float64)
    before = a.copy(order="F")
    eigenvalues_symmetric(a)
    assert a.tobytes(order="F") == before.tobytes(order="F")


def test_rejects_non_finite_entries():
    bipartite = np.array([[0.0, np.inf], [np.inf, 0.0]])
    dense = np.ones((4, 4)) - np.eye(4)
    dense[0, 1] = dense[1, 0] = -np.inf
    nan = np.array([[0.0, np.nan], [np.nan, 0.0]])  # NaN != NaN, so also not symmetric
    for a in (bipartite, dense, nan):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            eigenvalues_symmetric(a)


_NOT_1D_FLOAT64 = "spectrum values must be a 1-D float64 array, got "


@pytest.mark.parametrize(
    "values, fault",
    [
        (np.array([-1.0, np.nan, 3.0]), "spectrum values must be finite"),
        (np.array([-1.0, 0.0, np.inf]), "spectrum values must be finite"),
        (np.zeros((2, 2)), _NOT_1D_FLOAT64 + "float64 of shape (2, 2)"),
        (np.array([3.0, -1.0, -1.0, -1.0]), "spectrum values must be ascending"),
        (np.array([-1, -1, -1, 3], dtype=np.int64), _NOT_1D_FLOAT64 + "int64 of shape (4,)"),
        ([-1.0, -1.0, -1.0, 3.0], _NOT_1D_FLOAT64 + "list of shape (4,)"),
    ],
    ids=["nan", "inf", "2d", "descending", "int64", "list"],
)
def test_spectrum_checks_its_values_when_built(values, fault):
    with pytest.raises(ValueError) as exc:
        Spectrum(values=values)
    assert str(exc.value) == fault


def test_spectrum_keeps_its_values_from_the_array_it_was_built_from():
    values = np.array([-1.0, -1.0, -1.0, 3.0])
    spectrum = Spectrum(values=values)
    values[1] = np.nan  # after the check, as a caller holding the array could
    assert np.isfinite(spectrum.values).all()
    assert spectrum.values.tolist() == [-1.0, -1.0, -1.0, 3.0]
    assert not spectrum.values.flags.writeable


@pytest.mark.parametrize(
    "sampler, n, bound",
    [(sample_uniform_gluing, 300, 1.3), (sample_ncpp, 500, 0.5)],
)
def test_peak_memory_of_one_solve(sampler, n, bound):
    # in units of one 2n x 2n float64 matrix: the int8 adjacency, the one
    # float64 copy of the matrix solved and LAPACK's workspace.  tracemalloc
    # sees only numpy's own arrays, not the copy np.linalg makes inside
    # eigvalsh and svd, so this bound holds on the fallback too; that the
    # bundled call copies nothing is pinned by the test below
    g = sampler(n, RngStream(34))
    eigenvalues_symmetric(build_adjacency(g))  # load the library first
    tracemalloc.start()
    try:
        eigenvalues_symmetric(build_adjacency(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * (2 * n) ** 2) <= bound


@pytest.mark.parametrize("solve", ["_symmetric_eigenvalues", "_singular_values"])
def test_lapack_call_overwrites_its_work_copy(solve):
    # LAPACK must write into the copy it is handed, not into one of its own
    if spectra._openblas() is None:
        pytest.skip("no bundled OpenBLAS with dsyevd, dgesdd and thread calls found beside numpy")
    work = np.asfortranarray(build_adjacency(sample_uniform_gluing(50, RngStream(35))), dtype=np.float64)
    before = work.copy(order="F")
    getattr(spectra, solve)(work)
    assert not np.array_equal(work, before)


def test_bipartite_solve_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    lib = spectra._openblas()
    if lib is None:
        pytest.skip("no bundled OpenBLAS with dsyevd, dgesdd and thread calls found beside numpy")
    get, set_ = lib[2:]
    original = get()
    set_(2)  # a caller's count other than 1, so a missed restore shows
    try:
        before = get()
        seen = []

        def counting(solve):
            def wrapped(work):
                seen.append(get())
                return solve(work)
            return wrapped

        monkeypatch.setattr(spectra, "_singular_values", counting(spectra._singular_values))
        monkeypatch.setattr(spectra, "_symmetric_eigenvalues", counting(spectra._symmetric_eigenvalues))
        eigenvalues_symmetric(build_adjacency(sample_ncpp(50, RngStream(36))))
        assert get() == before
        eigenvalues_symmetric(build_adjacency(brute.gluing([3, 4, 1, 2])))  # K4: dense
        assert seen == [1, before]  # the dense solve keeps the caller's count
        assert get() == before

        def fail(work):
            raise np.linalg.LinAlgError("dgesdd returned info = 1")

        monkeypatch.setattr(spectra, "_singular_values", fail)
        with pytest.raises(NoConvergenceError, match="dgesdd returned info = 1"):
            eigenvalues_symmetric(build_adjacency(sample_ncpp(50, RngStream(36))))
        assert get() == before
    finally:
        set_(original)
