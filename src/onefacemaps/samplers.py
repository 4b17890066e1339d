"""Random draws of gluings; exhaustive listing lives in ``counting``.

Uniform gluings are drawn by pushing uniform random permutations through
``mapcore``'s conjugation kernel (every matching has 2^n n! permutation
preimages, so the pushforward is uniform): one draw and a batch of
rejection draws go through the same kernel, and rejection counts the
vertices of a batch with ``mapcore``'s orbit kernel; the standard
matching and the orbit rule are written only there.  Non-crossing
gluings come from the cycle lemma (Dvoretzky and Motzkin, Duke Math. J.
14, 1947): of the 2n+1 rotations of a sequence of n up-steps and n+1
down-steps exactly one stays at or above its start until its final step,
so rotating a uniform arrangement gives a uniform Dyck path, whose
matched steps are a uniform non-crossing pairing.  Both use integers
only; every non-crossing pairing comes out with probability exactly
1/C_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError
from .mapcore import _SEED_MAX, Gluing, _conjugate, _exact_int, _orbit_counts, _rebuild

# labels (draws x 2n) whose orbits one batch of genus filtering counts at once
_FILTER_BATCH_LABELS = 1 << 16


@dataclass(frozen=True)
class RngStream:
    """Deterministic, independent random stream keyed by (seed, index).

    One stream per sample keeps ensembles reproducible regardless of how
    the samples are scheduled.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        _exact_int(self.master_seed, "master_seed", 0, _SEED_MAX)
        _exact_int(self.stream_index, "stream_index", 0)

    __reduce__ = _rebuild

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=(self.master_seed, self.stream_index))
        return np.random.default_rng(seq)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValueError(f"rng must be an RngStream or a numpy Generator, got {type(rng)!r}")


def _gluing(mates: np.ndarray) -> Gluing:
    """The gluing of one 0-based partner row."""
    return Gluing(partner=tuple((mates + 1).tolist()))


def sample_uniform_gluing(n: int, rng) -> Gluing:
    """One gluing uniform over all (2n-1)!! perfect matchings."""
    _exact_int(n, "n", 1)
    gen = _as_generator(rng)
    return _gluing(_conjugate(gen.permutation(2 * n)[None])[0])


def _noncrossing_partner(up: np.ndarray) -> np.ndarray:
    """Non-crossing partner row (0-based, as ``_conjugate``'s rows) from an
    arrangement of n up-steps (True) and n+1 down-steps (False).

    The rotation starting just after the first minimum of the prefix sums
    is the one the cycle lemma singles out; without its final down-step it
    is a Dyck path.  Each up-step is glued to the down-step that returns
    to its level: sorted stably by the lower level of each step, the steps
    of one level alternate up, down, so consecutive entries pair off.  Each
    of the C_n pairings is the image of exactly 2n+1 arrangements.
    """
    steps = np.where(up, 1, -1)
    start = int(np.argmin(np.cumsum(steps))) + 1
    path = np.roll(steps, -start)[:-1]
    heights = np.cumsum(path)
    order = np.argsort(np.where(path > 0, heights - 1, heights), kind="stable")
    opens, closes = order[0::2], order[1::2]
    mates = np.empty(path.size, dtype=np.int64)
    mates[opens] = closes
    mates[closes] = opens
    return mates


def sample_ncpp(n: int, rng) -> Gluing:
    """One non-crossing gluing, exactly uniform over the C_n possibilities."""
    _exact_int(n, "n", 1)
    gen = _as_generator(rng)
    up = gen.permutation(2 * n + 1) < n  # n up-steps at uniform positions
    return _gluing(_noncrossing_partner(up))


@dataclass(frozen=True)
class FilteredSample:
    """Maps kept by genus filtering plus the number of draws spent."""

    gluings: tuple[Gluing, ...]
    attempts: int


def sample_genus_filtered(
    n: int, target_genus: int, max_attempts: int, rng, num_samples: int
) -> FilteredSample:
    """``num_samples`` uniform gluings of genus ``target_genus``, by rejection.

    Draws uniform gluings and keeps those whose map has the target genus;
    the kept sample is uniform over genus-target maps.  Stops once
    ``num_samples`` (at least 1) maps are kept, and raises
    BudgetExhaustedError, carrying the partial sample, if
    ``max_attempts`` draws end first.

    The draws are exactly those of repeated ``sample_uniform_gluing``
    calls on the same generator, one ``permutation(2n)`` each, and stop
    at the same draw: the kept maps, ``attempts`` and the generator's
    state afterwards do not depend on how the work is batched.  The
    vertices of a batch of draws are counted together, by pointer
    doubling, and a ``Gluing`` is built only for a kept draw, from the
    partner row its batch already holds.  A batch
    never holds more draws than the maps still wanted or the budget left,
    so no draw past the one that meets the request is made.
    """
    _exact_int(n, "n", 1)
    _exact_int(target_genus, "target_genus", 0, n // 2)
    _exact_int(max_attempts, "max_attempts", 1)
    _exact_int(num_samples, "num_samples", 1)
    gen = _as_generator(rng)
    two_n = 2 * n
    vertices = n + 1 - 2 * target_genus  # Euler's formula for one face
    kept: list[Gluing] = []
    attempts = 0
    while attempts < max_attempts:
        # a draw keeps at most one map: the request is met at the batch's last draw or later
        size = min(max(1, _FILTER_BATCH_LABELS // two_n), max_attempts - attempts,
                   num_samples - len(kept))
        mates = _conjugate(np.stack([gen.permutation(two_n) for _ in range(size)]))
        for i in np.flatnonzero(_orbit_counts(mates) == vertices).tolist():
            kept.append(_gluing(mates[i]))
            if len(kept) == num_samples:
                return FilteredSample(gluings=tuple(kept), attempts=attempts + i + 1)
        attempts += size
    raise BudgetExhaustedError(
        f"found {len(kept)} genus-{target_genus} maps in {attempts} draws, wanted {num_samples} maps",
        gluings=kept,
        attempts=attempts,
    )
