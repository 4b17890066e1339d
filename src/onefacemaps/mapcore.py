"""Gluings of the 2N-gon and their three-regular graphs.

A one-face map with N edges is encoded by a fixed-point-free involution
(a "gluing") on the polygon edge labels 1..2N: label ``i`` is glued to
``partner(i)``.  The graph of the map is the 2N-cycle plus one extra edge
per glued pair, so every vertex has degree exactly three and the adjacency
matrix splits into a cycle part and a permuted perfect matching.

Labels are 1-based in the public names of this module and in serialized
records.  Both label rules live here and nowhere else: the standard
matching 2k-1 <-> 2k, which ``_conjugate`` conjugates by random
permutations to make gluings, and the vertex orbits i -> partner(i+1),
walked for one gluing by ``vertex_cycles`` and counted for a batch by
``_orbit_counts``.  Those two private kernels work on rows of 0-based
numpy arrays; numpy is imported only by the functions that use arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Gluing:
    """Fixed-point-free involution on the labels 1..2n.

    ``partner[i - 1]`` is the label glued to label ``i``.  Instances are
    immutable and hashable, and are checked when they are built, so every
    ``Gluing`` that exists is valid: a violated invariant raises a
    ValueError that names the first one.
    """

    n: int
    partner: tuple[int, ...]

    def __post_init__(self):
        # exact ints only: a bool, float, str or numpy integer makes a record read_records refuses
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        # a list would be unhashable and could change after this check
        if type(self.partner) is not tuple:
            raise ValueError(f"partner must be a tuple, got {type(self.partner).__name__}")
        two_n = len(self.partner)
        if two_n % 2 != 0 or two_n == 0 or two_n != 2 * self.n:
            raise ValueError(
                f"partner table must have length 2n = {2 * self.n}, got {two_n}"
            )
        for i, p in enumerate(self.partner, start=1):
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


def vertex_cycles(g: Gluing) -> list[tuple[int, ...]]:
    """Orbits of i -> partner(i+1 mod 2n); each orbit is one map vertex.

    Cycles are reported in order of their smallest label, each starting at
    that label.
    """
    partner = g.partner
    two_n = len(partner)
    seen = bytearray(two_n)
    cycles = []
    for start in range(1, two_n + 1):
        if seen[start - 1]:
            continue
        cycle = []
        i = start
        while not seen[i - 1]:
            seen[i - 1] = 1
            cycle.append(i)
            i = partner[i % two_n]
        cycles.append(tuple(cycle))
    return cycles


def _orbit_counts(mates: np.ndarray) -> np.ndarray:
    """Number of orbits of i -> mate(i+1 mod 2n) in each row of ``mates``.

    Each row is a 0-based partner table, and its orbits are the map's
    vertices, as in ``vertex_cycles``.  Pointer doubling over the flat
    labels of the whole batch: after k rounds ``low[i]`` is the least of
    the first 2^k labels on the orbit of i, so once 2^k reaches 2n it is
    the orbit's least label, and each orbit has exactly one label i with
    ``low[i] == i``.
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


def build_adjacency(g: Gluing) -> np.ndarray:
    """Adjacency matrix of the 2n-cycle plus the glued matching, as int8.

    Entries count edges, so a glued pair that coincides with a cycle edge
    yields entry 2 (and the degenerate n=1 map yields a single entry 3).
    Rows always sum to exactly 3.  int8 holds every count exactly; cast
    to a wider type before arithmetic that can exceed 127, such as powers.
    """
    import numpy as np

    two_n = 2 * g.n
    a = np.zeros((two_n, two_n), dtype=np.int8)
    idx = np.arange(two_n)
    succ = (idx + 1) % two_n
    a[idx, succ] += 1
    a[succ, idx] += 1
    mate = np.asarray(g.partner, dtype=np.int64) - 1
    a[idx, mate] += 1
    return a


@dataclass(frozen=True)
class EnsembleRecord:
    """One sampled map plus the provenance needed to regenerate it."""

    gluing: Gluing
    genus: int
    seed: int
    sample_index: int

    @property
    def n(self) -> int:
        return self.gluing.n

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.gluing.n,
                "partner": list(self.gluing.partner),
                "genus": self.genus,
                "seed": self.seed,
                "sample_index": self.sample_index,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "EnsembleRecord":
        """Parse one record.

        ``n``, ``genus``, ``seed``, ``sample_index`` and every entry of the
        list ``partner`` must be JSON integers; anything else, or an
        invalid gluing, raises ValueError.
        """
        try:
            obj = json.loads(line)
            partner = obj["partner"]
            if not isinstance(partner, list):
                raise ValueError(f"partner must be a JSON list, got {json.dumps(partner)}")
            gluing = Gluing(
                n=_json_int(obj["n"], "n"),
                partner=tuple(_json_int(p, "partner entry") for p in partner),
            )
            return cls(
                gluing=gluing,
                genus=_json_int(obj["genus"], "genus"),
                seed=_json_int(obj["seed"], "seed"),
                sample_index=_json_int(obj["sample_index"], "sample_index"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad ensemble record: {exc}") from exc


def _json_int(value, field: str) -> int:
    # bool is an int subclass, and int() would also take "2", 2.9 or true
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {json.dumps(value)}")
    return value


def write_records(path, records: Iterable[EnsembleRecord]) -> None:
    """Write records as JSON lines, one record per line."""
    if isinstance(path, (str, Path)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_records(fh, records)
        return
    for rec in records:
        path.write(rec.to_json() + "\n")


def _checked_record(line: str, line_no: int) -> EnsembleRecord:
    try:
        rec = EnsembleRecord.from_json(line)
    except ValueError as exc:
        raise ValueError(f"record on line {line_no}: {exc}") from exc
    from . import topology  # imports this module, so it cannot be imported at its top

    actual = topology.genus(rec.gluing)
    if rec.genus != actual:
        raise ValueError(
            f"record on line {line_no} stores genus {rec.genus}, its gluing has genus {actual}"
        )
    return rec


def read_records(path) -> list[EnsembleRecord]:
    """Read a JSON-lines ensemble file.

    Raises ValueError naming the line of the first record that does not
    parse, has a field that is not a JSON integer, has an invalid gluing
    (including ``n`` not matching the partner table), or stores a genus
    that differs from its gluing's.
    """
    if isinstance(path, (str, Path)):
        with open(path, "r", encoding="utf-8") as fh:
            return read_records(fh)
    return [
        _checked_record(line, line_no)
        for line_no, line in enumerate(path, start=1)
        if line.strip()
    ]
