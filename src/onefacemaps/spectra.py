"""Full spectra of map adjacency matrices.

The whole ascending spectrum is needed downstream (density and spacing
statistics), so every eigenvalue is computed, by LAPACK, on one of two
paths chosen from the matrix itself:

* bipartite: when no entry joins two indices of the same parity (every
  genus-zero map, and any gluing whose pairs all join odd to even labels),
  the matrix is ``[[0, B], [B^T, 0]]`` after a parity permutation and its
  spectrum is exactly the singular values of the n x n biadjacency ``B``
  and their negatives (Golub-Kahan), so an SVD of the half-size ``B``
  replaces the full solve.
* dense: otherwise, a symmetric eigensolve of the whole 2n x 2n matrix.

Each solve makes one float64 copy of the matrix it solves and lets LAPACK
overwrite it: ``dsyevd`` or ``dgesdd`` of the OpenBLAS that numpy's wheel
bundles, called through ctypes with the workspace numpy's own ``eigvalsh``
and ``svd`` would query, so an adjacency matrix gets numpy's values to the
byte.

A bipartite solve runs on one thread of that OpenBLAS, and the caller's
thread count comes back when it ends, so a bipartite spectrum, which
every genus-zero map has, has the same bytes at any BLAS thread count; a
second thread does not speed ``dgesdd`` up at these sizes.  The dense
solve keeps the caller's thread count, because ``dsyevd`` does gain from
a second thread, so its last bits can still differ between thread counts.

Each solve asks once whether one lookup found both routines and the thread
calls in that library; if not, ``np.linalg`` solves the same copy on the
caller's threads, so bipartite spectra too hold only at one thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .mapcore import _map_matrix, _parity_blocks_vanish, _rebuild


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues of one map's adjacency matrix.

    Checked when built and after a pickle or copy: a 1-D float64 array,
    finite and ascending, kept as its own read-only copy, or ValueError.
    Only solved spectra have 2n values in [-3, 3], the top one 3 up to
    round-off (the graph is connected and three-regular).
    """

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not isinstance(v, np.ndarray) or v.dtype != np.float64 or v.ndim != 1:
            got = f"{getattr(v, 'dtype', type(v).__name__)} of shape {np.shape(v)}"
            raise ValueError(f"spectrum values must be a 1-D float64 array, got {got}")
        v = v.copy()  # checked after the copy, so the caller's array cannot change it
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if not np.isfinite(v).all():
            raise ValueError("spectrum values must be finite")
        if (v[1:] < v[:-1]).any():
            raise ValueError("spectrum values must be ascending")

    __reduce__ = _rebuild


def eigenvalues_symmetric(a: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric map matrix, ascending.

    ``a`` must have the shape of every map matrix, square of even size
    2n >= 2, the rule ``is_bipartite`` shares, and finite entries of a
    boolean, integer or real floating dtype.
    If both parity blocks ``a[0::2, 0::2]`` and ``a[1::2, 1::2]`` are zero,
    the values are ``-s`` and ``s`` for the singular values ``s`` of
    ``a[0::2, 1::2]`` (LAPACK ``dgesdd``), symmetric about zero by
    construction and with no ``-0.0``; otherwise they come from a dense
    symmetric eigensolve (LAPACK ``dsyevd``).  Either way the matrix
    solved is copied once, to Fortran-ordered float64, and LAPACK
    overwrites that copy; ``a`` itself is never written.  Deterministic
    for a fixed input on one platform; a bipartite solve runs on one
    thread of the bundled OpenBLAS, so its values hold at any thread
    count, while dense values hold only at a fixed one.
    """
    a = _map_matrix(a)
    # a complex or object matrix would be cast to float64, losing its values
    if a.dtype.kind not in "biuf":
        raise ValueError(f"matrix entries must be real numbers, got dtype {a.dtype}")
    # integers are finite; checked before symmetry, which NaN would fail
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    bundled = _openblas() is not None  # else np.linalg, on the caller's threads
    try:
        if _parity_blocks_vanish(a):
            work = np.array(a[0::2, 1::2], dtype=np.float64, order="F")
            with _one_blas_thread() if bundled else contextlib.nullcontext():
                s = _singular_values(work) if bundled else np.linalg.svd(work, compute_uv=False)
            values = np.concatenate((-s, s[::-1])) + 0.0  # ascending; -0.0 becomes 0.0
        else:
            # a equals its transpose, so its row-major copy read as Fortran-ordered
            # is the same matrix, at a third of the cost of a transposing copy
            work = a.astype(np.float64, order="C").T
            values = _symmetric_eigenvalues(work) if bundled else np.linalg.eigvalsh(work)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return Spectrum(values=values)


_INT = ctypes.c_int64  # both symbol spellings below are the ILP64 (64-bit integer) LAPACK
_PTR = ctypes.c_void_p
_REF = ctypes.POINTER(_INT)
_LEN = ctypes.c_size_t  # gfortran's hidden length of each CHARACTER argument


@functools.cache
def _openblas():
    """``(dsyevd, dgesdd, get_threads, set_threads)``, with their ctypes
    signatures set, all from one OpenBLAS bundled in numpy's wheel, or None.

    Each name is tried as numpy >= 2 wheels spell it, with a ``scipy_``
    prefix, then as numpy 1.x wheels do, without one.  None when numpy was
    built against another BLAS or no bundled library exports all four; one
    with the LAPACK routines but not the thread calls, or the reverse, is
    not used, and no numpy wheel ships such a library.
    """
    names = ("dsyevd_64_", "dgesdd_64_", "openblas_get_num_threads64_", "openblas_set_num_threads64_")
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            found = [getattr(lib, prefix + name, None) for name in names]
            if None in found:
                continue
            syevd, gesdd, get, set_ = found
            # JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO
            syevd.argtypes = [ctypes.c_char_p] * 2 + [_REF, _PTR, _REF, _PTR, _PTR, _REF,
                                                      _PTR, _REF, _REF, _LEN, _LEN]
            # JOBZ, M, N, A, LDA, S, U, LDU, VT, LDVT, WORK, LWORK, IWORK, INFO
            gesdd.argtypes = [ctypes.c_char_p, _REF, _REF, _PTR, _REF, _PTR, _PTR, _REF,
                              _PTR, _REF, _PTR, _REF, _PTR, _REF, _LEN]
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            syevd.restype = gesdd.restype = set_.restype = None
            return syevd, gesdd, get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of the bundled OpenBLAS, then restore the
    caller's count, also when the block raises."""
    get, set_ = _openblas()[2:]
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _ref(value: int):
    return ctypes.byref(_INT(value))


def _raise_on(info: _INT, routine: str) -> None:
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info = {info.value}")


def _symmetric_eigenvalues(work: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric Fortran-ordered float64 ``work``,
    by ``dsyevd('N', 'L')``, which overwrites ``work``."""
    syevd = _openblas()[0]
    m = _ref(work.shape[0])
    w = np.empty(work.shape[0])
    a_ptr, w_ptr = work.ctypes.data, w.ctypes.data
    info = _INT()
    # workspace query, as numpy's eigvalsh makes it: LWORK sets dsytrd's block size
    size, isize = ctypes.c_double(), _INT()
    syevd(b"N", b"L", m, a_ptr, m, w_ptr, ctypes.byref(size), _ref(-1),
          ctypes.byref(isize), _ref(-1), ctypes.byref(info), 1, 1)
    _raise_on(info, "dsyevd")
    lwork, liwork = int(size.value), isize.value
    buf, ibuf = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    syevd(b"N", b"L", m, a_ptr, m, w_ptr, buf.ctypes.data, _ref(lwork),
          ibuf.ctypes.data, _ref(liwork), ctypes.byref(info), 1, 1)
    _raise_on(info, "dsyevd")
    return w


def _singular_values(work: np.ndarray) -> np.ndarray:
    """Descending singular values of the square Fortran-ordered float64
    ``work``, by ``dgesdd('N')``, which overwrites ``work``."""
    gesdd = _openblas()[1]
    m = _ref(work.shape[0])
    s = np.empty(work.shape[0])
    iwork = np.empty(8 * work.shape[0], dtype=np.int64)
    a_ptr, s_ptr, iwork_ptr = work.ctypes.data, s.ctypes.data, iwork.ctypes.data
    info = _INT()
    # no U or VT is formed; LDU = M and LDVT = 1 as numpy passes them
    size = ctypes.c_double()
    gesdd(b"N", m, m, a_ptr, m, s_ptr, None, m, None, _ref(1),
          ctypes.byref(size), _ref(-1), iwork_ptr, ctypes.byref(info), 1)
    _raise_on(info, "dgesdd")
    lwork = int(size.value) or 1
    buf = np.empty(lwork)
    gesdd(b"N", m, m, a_ptr, m, s_ptr, None, m, None, _ref(1),
          buf.ctypes.data, _ref(lwork), iwork_ptr, ctypes.byref(info), 1)
    _raise_on(info, "dgesdd")
    return s
