"""Gluings of the 2N-gon and their three-regular graphs.

A one-face map with N edges is encoded by a fixed-point-free involution
(a "gluing") on the polygon edge labels 1..2N: label ``i`` is glued to
``partner(i)``.  The graph of the map is the 2N-cycle plus one extra edge
per glued pair, so every vertex has degree exactly three and the adjacency
matrix splits into a cycle part and a permuted perfect matching.

Labels are 1-based in the public names of this module and in serialized
records.  Four rules live here only: the standard matching 2k-1 <-> 2k,
which ``_conjugate`` conjugates by random permutations to make gluings;
the vertex orbits i -> partner(i+1), walked on one raw table by ``_vertices``
and counted for a batch by ``_orbit_counts``; Euler's formula ``_genus``,
which turns either count into genera; and the adjacency product
``_adjacency_times``, of which ``build_adjacency`` is the identity's
image.  The kernels work on 0-based numpy arrays; numpy is imported only
by the functions that use arrays, and no module of the package anywhere.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

_SEED_MAX = 2**64 - 1  # the largest seed of an RngStream or of a record's provenance

# The ints 0..2n of the largest gluing built so far.  Every gluing in the
# process takes its labels from it, so sampled, enumerated and read-back
# tables hold the same int objects; it grows only when a larger gluing is
# built, and a lookup yields an int equal to the label, so no caller can tell.
_LABELS: tuple[int, ...] = ()


def _rebuild(self):
    """``__reduce__`` of each checked type: pickles and copies pass the class's checks again."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Gluing:
    """Fixed-point-free involution on the labels 1..2n.

    ``partner[i - 1]`` is the label glued to label ``i``, and ``n`` is half
    the table's length.  Instances are immutable and hashable, and are
    checked when they are built, so every ``Gluing`` that exists is valid:
    a violated invariant raises a ValueError that names the first one.
    A checked table is rebuilt from one shared table of label ints, so a
    label costs its 8-byte slot in the tuple, not a 32-byte int of its own.
    """

    partner: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.partner) // 2

    def __post_init__(self):
        # a list would be unhashable and could change after this check
        if type(self.partner) is not tuple:
            raise ValueError(f"partner must be a tuple, got {type(self.partner).__name__}")
        two_n = len(self.partner)
        if two_n % 2 != 0 or two_n == 0:
            raise ValueError(f"partner table must have even length 2n >= 2, got {two_n}")
        for i, p in enumerate(self.partner, start=1):
            # exact ints only, as _exact_int asks, inlined for the per-label loop
            if type(p) is not int:
                raise ValueError(f"partner of {i} must be an int, got {p!r}")
            if not 1 <= p <= two_n:
                raise ValueError(f"partner of {i} is {p}, outside 1..{two_n}")
            if p == i:
                raise ValueError(f"label {i} is glued to itself")
            if self.partner[p - 1] != i:
                raise ValueError(
                    f"partner[{p}] = {self.partner[p - 1]} but partner[{i}] = {p}"
                )
        # read only now that every label is known to lie in 1..2n
        global _LABELS
        if len(_LABELS) <= two_n:
            _LABELS += tuple(range(len(_LABELS), two_n + 1))
        object.__setattr__(self, "partner", operator.itemgetter(*self.partner)(_LABELS))

    __reduce__ = _rebuild

    @functools.cached_property
    def _walk(self) -> tuple[int, dict[int, int]]:
        # (genus, vertex degree -> count): one orbit walk per instance, kept only as
        # long as it lives, beside the 2n shared labels of its table; read by the
        # genus check of EnsembleRecord and by topology's genus and degrees
        counts: dict[int, int] = {}
        for _, degree in _vertices(self.partner):
            counts[degree] = counts.get(degree, 0) + 1
        return _genus(self.n, sum(counts.values())), counts


def _exact_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` if it is exactly an int in ``low..high``, else a ValueError
    naming ``name``; ``high``, or both bounds, may be left out.  The one
    integer rule of the package: a bool, float, str or numpy integer is
    refused, so none is truncated, misread as 0 or 1, or written into a
    record that ``read_records`` would refuse, and a range message prints
    ``need {name} >= {low}`` or ``need {low} <= {name} <= {high}`` in full."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"need {low} <= {name} <= {high}, got {value}")
    if low is not None and value < low:
        raise ValueError(f"need {name} >= {low}, got {value}")
    return value


def _conjugate(perms: np.ndarray) -> np.ndarray:
    """Partner rows of the standard matching conjugated by each row of ``perms``.

    The standard matching pairs 2k-1 with 2k, so 0-based j with j ^ 1.  Each
    row of ``perms`` is a 0-based permutation of 0..2n-1, and labels i and j
    end up glued exactly when perm(i) and perm(j) are such a standard
    pair: row i of the result is perm^-1(perm(i) ^ 1), 0-based.
    """
    import numpy as np

    rows = np.arange(perms.shape[0])[:, None]
    inverse = np.empty_like(perms)
    inverse[rows, perms] = np.arange(perms.shape[1])
    return inverse[rows, perms ^ 1]


def _parity_blocks_vanish(a: np.ndarray) -> bool:
    """True iff no entry joins two labels of the same parity.

    Then the rows and columns split into odd and even labels, and ``a`` is
    ``[[0, B], [B^T, 0]]`` after that permutation, with the biadjacency
    ``B = a[0::2, 1::2]``.
    """
    return not (a[0::2, 0::2].any() or a[1::2, 1::2].any())


def _map_matrix(a) -> np.ndarray:
    """``np.asarray(a)`` if it can be a map matrix, else a ValueError naming the
    first fault: square of even size 2n >= 2, with finite entries of a boolean,
    integer or real floating dtype.  The one map-matrix rule of the package."""
    import numpy as np

    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0 or a.shape[0] == 0:
        raise ValueError(f"map matrices are square of even size 2n >= 2, got shape {a.shape}")
    # a float64 cast or a truth test misreads complex, object and string entries
    if a.dtype.kind not in "biuf":
        raise ValueError(f"matrix entries must be real numbers, got dtype {a.dtype}")
    # integers are finite; checked before any test that NaN would fail or pass
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _vertices(partner: tuple[int, ...]) -> list[tuple[int, int]]:
    """(least label, degree) of each orbit of i -> partner(i+1 mod 2n), that is of
    each map vertex, in order of least label, for any 1-based ``partner`` tuple."""
    # step[i] = partner(i+1 mod 2n), set to 0 once i is on a walked cycle;
    # the loop reads each entry after the walks before it, so it skips those
    step = [0, *partner[1:], partner[0]]
    vertices = []
    for start, i in enumerate(step):
        if i:
            step[start], degree = 0, 1
            while i != start:
                step[i], i, degree = 0, step[i], degree + 1
            vertices.append((start, degree))
    return vertices


def _genus(n, vertices):
    """Genus of a one-face map with ``n`` edges and ``vertices`` vertices, ints or
    numpy arrays alike: Euler's V - n + 1 = 2 - 2g solved for g, whose numerator is
    always even: the vertex permutation i -> partner(i+1) is n transpositions after
    a 2n-cycle, so its sign (-1)^(2n-V) = (-1)^V is (-1)^n (-1)^(2n-1) = (-1)^(n+1)."""
    return (n + 1 - vertices) // 2


def _orbit_counts(mates: np.ndarray) -> np.ndarray:
    """Number of orbits of i -> mate(i+1 mod 2n) in each row of ``mates``.

    Each row is a 0-based partner table, and its orbits are the map's
    vertices, which ``_vertices`` walks one table at a time.  Pointer
    doubling over the flat labels of the whole batch: after k rounds
    ``low[i]`` is the least of the first 2^k labels on the orbit of i, so
    once 2^k reaches 2n it is the orbit's least label, and each orbit has
    exactly one label i with ``low[i] == i``.
    """
    import numpy as np

    rows, two_n = mates.shape
    flat = np.arange(rows * two_n).reshape(rows, two_n)
    jump = (np.roll(mates, -1, axis=1) + flat[:, :1]).ravel()
    low = flat.ravel().copy()
    for _ in range((two_n - 1).bit_length()):  # 2^rounds >= 2n
        np.minimum(low, low[jump], out=low)
        jump = jump[jump]
    return np.count_nonzero(low.reshape(rows, two_n) == flat, axis=1)


def _adjacency_times(g: Gluing, x: np.ndarray) -> np.ndarray:
    """A @ x, in x's dtype, for the adjacency A of ``g`` (2n-cycle, its transpose,
    glued matching) and a 2-D ``x`` with 2n rows: 0-based row i is x[i - 1] +
    x[i + 1] + x[partner(i + 1) - 1], a row gather and four in-place adds."""
    import numpy as np

    out = x[np.asarray(g.partner, dtype=np.int64) - 1]
    out[1:] += x[:-1]
    out[0] += x[-1]
    out[:-1] += x[1:]
    out[-1] += x[0]
    return out


def build_adjacency(g: Gluing) -> np.ndarray:
    """Adjacency matrix of the map graph, as int8: the rule applied to the identity.

    Entries count edges, so a glued pair that coincides with a cycle edge
    yields entry 2 (and the degenerate n=1 map yields a single entry 3).
    Rows always sum to exactly 3.  int8 holds every count exactly; cast
    to a wider type before arithmetic that can exceed 127, such as powers.
    """
    import numpy as np

    return _adjacency_times(g, np.eye(2 * g.n, dtype=np.int8))


@dataclass(frozen=True)
class EnsembleRecord:
    """One sampled map plus its provenance, ``seed`` and ``sample_index``.

    Where map i of an ensemble is drawn from ``RngStream(seed, i)`` alone,
    as the ``uniform`` and ``ncpp`` samplers of ``onefacemaps generate``
    draw it, the pair regenerates the map.  Genus-filtered ensembles draw
    every map from the one stream ``RngStream(seed, 0)``: there
    ``sample_index`` is the map's rank among the kept maps, and the map
    comes back only by drawing the ensemble again from ``seed``, with the
    same ``n`` and genus.  ``genus`` must be the gluing's own genus, and
    ``seed`` and ``sample_index`` lie in the ranges ``RngStream`` asks of them.
    """

    gluing: Gluing
    genus: int
    seed: int
    sample_index: int

    def __post_init__(self):
        # checked here, so every record that exists can be written and read back
        if not isinstance(self.gluing, Gluing):
            raise ValueError(f"gluing must be a Gluing, got {type(self.gluing).__name__}")
        _exact_int(self.genus, "genus")
        _exact_int(self.seed, "seed", 0, _SEED_MAX)
        _exact_int(self.sample_index, "sample_index", 0)
        actual = self.gluing._walk[0]
        if self.genus != actual:
            raise ValueError(f"genus is {self.genus}, its gluing has genus {actual}")

    __reduce__ = _rebuild

    @property
    def n(self) -> int:
        return self.gluing.n


def _record_line(rec: EnsembleRecord) -> str:
    return json.dumps(
        {
            "n": rec.gluing.n,
            "partner": list(rec.gluing.partner),
            "genus": rec.genus,
            "seed": rec.seed,
            "sample_index": rec.sample_index,
        },
        separators=(",", ":"),
    )


def _parse_record(line: bytes, line_no: int) -> EnsembleRecord:
    """The record on one line, checked as ``read_records`` describes."""
    try:
        obj = json.loads(line.decode("utf-8"))
        if not isinstance(obj, dict):
            raise ValueError(f"a record must be a JSON object, got {type(obj).__name__}")
        partner = obj["partner"]
        if not isinstance(partner, list):
            raise ValueError(f"partner must be a JSON list, got {json.dumps(partner)}")
        n = _exact_int(obj["n"], "n", 1)
        # the one place where a size arrives beside its table
        if len(partner) != 2 * n:
            raise ValueError(f"partner table must have length 2n = {2 * n}, got {len(partner)}")
        return EnsembleRecord(
            gluing=Gluing(partner=tuple(partner)),
            genus=obj["genus"],
            seed=obj["seed"],
            sample_index=obj["sample_index"],
        )
    # json.loads raises RecursionError on a line nested too deeply to decode
    except (KeyError, ValueError, RecursionError) as exc:
        fault = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"record on line {line_no}: bad ensemble record: {fault}") from exc


def write_records(path, records: Iterable[EnsembleRecord]) -> None:
    """Write records as JSON lines, one record per line, to a path (a
    ``str`` or an ``os.PathLike``) or an open text file."""
    if isinstance(path, (str, os.PathLike)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_records(fh, records)
        return
    for rec in records:
        path.write(_record_line(rec) + "\n")


def read_records(path) -> list[EnsembleRecord]:
    """Read the JSON-lines ensemble file at ``path``.

    Each line must be UTF-8 text holding a JSON object whose ``partner``
    is a list and whose ``n`` is an int, at least 1, equal to half its length;
    ``Gluing`` and ``EnsembleRecord`` check the rest: the labels, the other
    fields, which must be integers too, and the stored genus.  Blank lines
    are skipped.  Raises ValueError naming the line of the first record
    that fails any of these checks.
    """
    return list(_records(path))


def _records(path) -> Iterator[EnsembleRecord]:
    """The records of ``read_records``, parsed one line at a time, so a
    caller that keeps no record holds one line and one record at once."""
    with open(path, "rb") as fh:
        # each LF-ended chunk split again at LF, CRLF and CR alike, as a
        # text-mode read splits, so a CR-only file arrives as one chunk
        lines = (line for chunk in fh for line in chunk.splitlines())
        for line_no, line in enumerate(lines, start=1):
            if line.strip():
                yield _parse_record(line, line_no)


def _blocks(items: Iterable) -> Iterator[list]:
    """``items`` in lists of the size below (about 200 KB of records), the last one
    shorter: parsing between every two solves, not block by block, ran 12% slower."""
    items = iter(items)
    while block := list(itertools.islice(items, 256)):
        yield block
