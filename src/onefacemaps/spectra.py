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
byte.  Where that library is not found, ``np.linalg`` solves the same copy.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .mapcore import _parity_blocks_vanish


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues of one map's adjacency matrix.

    Always 2n values in [-3, 3]; the top value is 3 up to round-off
    because the spanning cycle keeps the graph connected and three-regular.
    """

    values: np.ndarray


def eigenvalues_symmetric(a: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix of even size 2n >= 2, ascending.

    If both parity blocks ``a[0::2, 0::2]`` and ``a[1::2, 1::2]`` are zero,
    the values are ``-s`` and ``s`` for the singular values ``s`` of
    ``a[0::2, 1::2]`` (LAPACK ``dgesdd``), symmetric about zero by
    construction and with no ``-0.0``; otherwise they come from a dense
    symmetric eigensolve (LAPACK ``dsyevd``).  Either way
    the matrix solved is copied once, to Fortran-ordered float64, and
    LAPACK overwrites that copy; ``a`` itself is never written.  Entries
    must be finite, of a boolean, integer or real floating dtype.
    Deterministic for a fixed input on one platform and BLAS thread count.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("map adjacency matrices have 2n >= 2 rows, got an empty matrix")
    if a.shape[0] % 2 != 0:
        raise ValueError("map adjacency matrices have even size 2n")
    # a complex or object matrix would be cast to float64, losing its values
    if a.dtype.kind not in "biuf":
        raise ValueError(f"matrix entries must be real numbers, got dtype {a.dtype}")
    # integers are finite; checked before symmetry, which NaN would fail
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    bipartite = _parity_blocks_vanish(a)
    if bipartite:
        work = np.array(a[0::2, 1::2], dtype=np.float64, order="F")
    else:
        # a equals its transpose, so its row-major copy read as Fortran-ordered
        # is the same matrix, at a third of the cost of a transposing copy
        work = a.astype(np.float64, order="C").T
    try:
        if bipartite:
            s = _singular_values(work)
            values = np.concatenate((-s, s[::-1])) + 0.0  # ascending; -0.0 becomes 0.0
        else:
            values = _symmetric_eigenvalues(work)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc
    values.setflags(write=False)
    return Spectrum(values=values)


_INT = ctypes.c_int64  # both symbol spellings below are the ILP64 (64-bit integer) LAPACK
_PTR = ctypes.c_void_p
_REF = ctypes.POINTER(_INT)
_LEN = ctypes.c_size_t  # gfortran's hidden length of each CHARACTER argument


@functools.cache
def _lapack():
    """``(dsyevd, dgesdd)`` of the OpenBLAS bundled in numpy's wheel, or None.

    These are the routines numpy's ``eigvalsh`` and ``svd`` call; None when
    numpy was built against another LAPACK, or the library or the symbols
    are not found.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):  # numpy >= 2 wheels, then numpy 1.x wheels
            syevd = getattr(lib, f"{prefix}dsyevd_64_", None)
            gesdd = getattr(lib, f"{prefix}dgesdd_64_", None)
            if syevd is None or gesdd is None:
                continue
            # JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO
            syevd.argtypes = [ctypes.c_char_p] * 2 + [_REF, _PTR, _REF, _PTR, _PTR, _REF,
                                                      _PTR, _REF, _REF, _LEN, _LEN]
            # JOBZ, M, N, A, LDA, S, U, LDU, VT, LDVT, WORK, LWORK, IWORK, INFO
            gesdd.argtypes = [ctypes.c_char_p, _REF, _REF, _PTR, _REF, _PTR, _PTR, _REF,
                              _PTR, _REF, _PTR, _REF, _PTR, _REF, _LEN]
            syevd.restype = gesdd.restype = None
            return syevd, gesdd
    return None


def _ref(value: int):
    return ctypes.byref(_INT(value))


def _raise_on(info: _INT, routine: str) -> None:
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info = {info.value}")


def _symmetric_eigenvalues(work: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric Fortran-ordered float64 ``work``,
    by ``dsyevd('N', 'L')``, which overwrites ``work``."""
    lapack = _lapack()
    if lapack is None:
        return np.linalg.eigvalsh(work)
    syevd = lapack[0]
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
    lapack = _lapack()
    if lapack is None:
        return np.linalg.svd(work, compute_uv=False)
    gesdd = lapack[1]
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
