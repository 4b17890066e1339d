"""Full spectra of map adjacency matrices.

The whole ascending spectrum is needed downstream (density and spacing
statistics), so every eigenvalue is computed, by LAPACK via numpy, on one
of two paths chosen from the matrix itself:

* bipartite: when no entry joins two indices of the same parity (every
  genus-zero map, and any gluing whose pairs all join odd to even labels),
  the matrix is ``[[0, B], [B^T, 0]]`` after a parity permutation and its
  spectrum is exactly the singular values of the n x n biadjacency ``B``
  and their negatives (Golub-Kahan), so an SVD of the half-size ``B``
  replaces the full solve.
* dense: otherwise, a symmetric eigensolve of the whole 2n x 2n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .mapcore import _parity_blocks_vanish


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues of one map's adjacency matrix.

    Always 2n values in [-3, 3]; the top value is 3 because the spanning
    cycle keeps the graph connected and three-regular.
    """

    values: np.ndarray


def eigenvalues_symmetric(a: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix of even size 2n >= 2, ascending.

    If both parity blocks ``a[0::2, 0::2]`` and ``a[1::2, 1::2]`` are zero,
    the values are ``-s`` and ``s`` for the singular values ``s`` of
    ``a[0::2, 1::2]``, symmetric about zero by construction and with no
    ``-0.0``; otherwise they come from a dense symmetric eigensolve.
    Deterministic for a fixed input on one platform and BLAS thread count.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("map adjacency matrices have 2n >= 2 rows, got an empty matrix")
    if a.shape[0] % 2 != 0:
        raise ValueError("map adjacency matrices have even size 2n")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    try:
        if _parity_blocks_vanish(a):
            s = np.linalg.svd(a[0::2, 1::2].astype(np.float64), compute_uv=False)
            values = np.concatenate((-s, s[::-1])) + 0.0  # ascending; -0.0 becomes 0.0
        else:
            values = np.linalg.eigvalsh(a.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc
    values.setflags(write=False)
    return Spectrum(values=values)
