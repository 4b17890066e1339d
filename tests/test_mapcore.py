import copy
import dataclasses
import itertools
import json
import math
import pickle
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from onefacemaps import (
    EnsembleRecord,
    Gluing,
    RngStream,
    build_adjacency,
    closed_walk_counts,
    eigenvalues_symmetric,
    empirical_density,
    enumerate_all_gluings,
    enumerate_ncpp,
    genus,
    genus_distribution,
    harer_zagier,
    read_records,
    sample_genus_filtered,
    sample_ncpp,
    sample_uniform_gluing,
    spacing_distribution,
    vertex_cycles,
    write_records,
)
from onefacemaps import cli, mapcore
from onefacemaps.mapcore import _conjugate, _orbit_counts


def test_smallest_gluing_is_valid():
    assert brute.gluing([2, 1]).partner == (2, 1)


def test_identity_partner_has_fixed_point():
    with pytest.raises(ValueError, match="label 1 is glued to itself"):
        brute.gluing([1, 2])


def test_odd_length_rejected():
    with pytest.raises(ValueError, match="must have even length 2n >= 2, got 3"):
        Gluing(partner=(2, 3, 1))


def test_a_gluing_is_its_partner_table():
    g = Gluing(partner=(3, 4, 1, 2))
    assert [f.name for f in dataclasses.fields(Gluing)] == ["partner"]
    assert g.n == 2
    assert g == brute.gluing([3, 4, 1, 2]) and hash(g) == hash(brute.gluing([3, 4, 1, 2]))


def test_non_involution_rejected():
    with pytest.raises(ValueError, match=r"partner\[2\] = 3 but partner\[1\] = 2"):
        brute.gluing([2, 3, 4, 1])


def _fresh_labels(g: Gluing) -> list[int]:
    """The partner table of ``g`` as ints made anew, shared with no other table."""
    return [int(str(p)) for p in g.partner]


def test_out_of_range_label_rejected():
    with pytest.raises(ValueError, match=r"partner of 1 is 5, outside 1\.\.4"):
        brute.gluing([5, 1, 4, 3])
    # at every size the labels are looked up in the shared table, which
    # must not happen before the range check: -1 would read its last entry
    big = _fresh_labels(sample_uniform_gluing(300, RngStream(9, 0)))
    for label in (0, -1):
        with pytest.raises(ValueError, match=rf"^partner of 1 is {label}, outside 1\.\.4$"):
            brute.gluing([label, 1, 4, 3])
        with pytest.raises(ValueError, match=rf"^partner of 1 is {label}, outside 1\.\.600$"):
            brute.gluing([label, *big[1:]])


def test_large_gluings_share_their_label_ints():
    for n in (1, 50, 300):
        shared = sample_uniform_gluing(n, RngStream(9, 1))
        fresh = _fresh_labels(shared)
        if 2 * n > 256:  # CPython shares the ints up to 256 on its own
            assert any(a is not b for a, b in zip(fresh, shared.partner))
        g = brute.gluing(fresh)
        assert g == shared and hash(g) == hash(shared)
        assert all(a is b for a, b in zip(g.partner, shared.partner))
        # replace builds through the same check, and the same table: every
        # label glued to partner(1), which is not glued back to 1
        with pytest.raises(ValueError, match=r"partner\[\d+\] = \d+ but partner\[1\] = "):
            dataclasses.replace(shared, partner=tuple(fresh[:1] * len(fresh)))
        again = dataclasses.replace(g, partner=tuple(fresh))
        assert again == shared and all(a is b for a, b in zip(again.partner, shared.partner))


def test_empty_partner_rejected():
    with pytest.raises(ValueError, match="must have even length 2n >= 2, got 0"):
        brute.gluing([])


@pytest.mark.parametrize(
    "partner, fault",
    [
        ((2, True), "partner of 2 must be an int, got True"),
        (("2", "1"), "partner of 1 must be an int, got '2'"),
        ((2.0, 1, 4, 3), "partner of 1 must be an int, got 2.0"),
        ((np.int64(2), np.int64(1)), "partner of 1 must be an int"),
    ],
    ids=["bool", "str", "float", "numpy"],
)
def test_labels_that_are_not_ints_rejected(partner, fault):
    with pytest.raises(ValueError, match=re.escape(fault)):
        Gluing(partner=partner)


@pytest.mark.parametrize(
    "call, fault",
    [
        (lambda: sample_uniform_gluing(2.5, RngStream(0)), "n must be an int, got 2.5"),
        (lambda: sample_uniform_gluing(True, RngStream(0)), "n must be an int, got True"),
        (lambda: sample_ncpp(2.5, RngStream(0)), "n must be an int, got 2.5"),
        (lambda: sample_ncpp(True, RngStream(0)), "n must be an int, got True"),
        (lambda: RngStream(1.5), "master_seed must be an int, got 1.5"),
        (lambda: RngStream("3"), "master_seed must be an int, got '3'"),
        (lambda: RngStream(0, 1.0), "stream_index must be an int, got 1.0"),
        (lambda: sample_genus_filtered(6, 1.0, 10, RngStream(0), num_samples=1),
         "target_genus must be an int, got 1.0"),
        (lambda: sample_genus_filtered(6, 1, 10, RngStream(0), num_samples=2.5),
         "num_samples must be an int, got 2.5"),
        (lambda: sample_genus_filtered(6, 1, 1e4, RngStream(0), num_samples=1),
         "max_attempts must be an int, got 10000.0"),
        (lambda: harer_zagier(1.0, 4), "g must be an int, got 1.0"),
        (lambda: genus_distribution(4.5), "n must be an int, got 4.5"),
        (lambda: enumerate_ncpp(2.0), "n must be an int, got 2.0"),
        (lambda: enumerate_all_gluings(np.int64(2)), "n must be an int, got "),
        (lambda: closed_walk_counts(brute.gluing([2, 1]), 2.5), "r_max must be an int, got 2.5"),
        (lambda: sample_uniform_gluing(2, 7), "rng must be an RngStream or a numpy Generator"),
    ],
    ids=["uniform-float", "uniform-bool", "ncpp-float", "ncpp-bool", "seed-float", "seed-str",
         "index-float", "genus-float", "samples-float", "budget-float", "count-float",
         "table-float", "enum-ncpp-float", "enum-all-numpy", "walks-float", "rng-int"],
)
def test_integer_parameters_that_are_not_ints_rejected(call, fault):
    with pytest.raises(ValueError, match=re.escape(fault)):
        call()


def _generate(*argv):
    args = cli.build_parser().parse_args(["generate", *map(str, argv)])
    return args.func(args)


def _record(seed=0, sample_index=0):
    return EnsembleRecord(brute.gluing([2, 1]), genus=0, seed=seed, sample_index=sample_index)


_SEEDS = "0 <= {} <= 18446744073709551615"


# one value just past each bound of every integer parameter
@pytest.mark.parametrize(
    "call, fault",
    [
        (lambda: harer_zagier(1, 0), "need n >= 1, got 0"),
        (lambda: harer_zagier(-1, 4), "need 0 <= g <= 2, got -1"),
        (lambda: harer_zagier(3, 4), "need 0 <= g <= 2, got 3"),
        (lambda: genus_distribution(0), "need n >= 1, got 0"),
        (lambda: enumerate_all_gluings(0), "need n >= 1, got 0"),
        (lambda: enumerate_ncpp(0), "need n >= 1, got 0"),
        (lambda: sample_uniform_gluing(0, RngStream(0)), "need n >= 1, got 0"),
        (lambda: sample_ncpp(0, RngStream(0)), "need n >= 1, got 0"),
        (lambda: sample_genus_filtered(0, 0, 10, RngStream(0), num_samples=1),
         "need n >= 1, got 0"),
        (lambda: sample_genus_filtered(6, -1, 10, RngStream(0), num_samples=1),
         "need 0 <= target_genus <= 3, got -1"),
        (lambda: sample_genus_filtered(6, 4, 10, RngStream(0), num_samples=1),
         "need 0 <= target_genus <= 3, got 4"),
        (lambda: sample_genus_filtered(6, 1, 0, RngStream(0), num_samples=1),
         "need max_attempts >= 1, got 0"),
        (lambda: sample_genus_filtered(6, 1, 10, RngStream(0), num_samples=0),
         "need num_samples >= 1, got 0"),
        (lambda: RngStream(-1), f"need {_SEEDS.format('master_seed')}, got -1"),
        (lambda: RngStream(2**64), f"need {_SEEDS.format('master_seed')}, got {2**64}"),
        (lambda: RngStream(0, -1), "need stream_index >= 0, got -1"),
        (lambda: closed_walk_counts(brute.gluing([2, 1]), 0), "need r_max >= 1, got 0"),
        (lambda: empirical_density([], bins=0), "need bins >= 1, got 0"),
        (lambda: spacing_distribution([], bins=0), "need bins >= 1, got 0"),
        (lambda: _generate("--n", 4, "--samples", 0), "need --samples >= 1, got 0"),
        (lambda: _generate("--n", 0, "--samples", 1), "need --n >= 1, got 0"),
        (lambda: _generate("--n", 4, "--samples", 1, "--budget", 0), "need --budget >= 1, got 0"),
        (lambda: _generate("--n", 4, "--samples", 1, "--seed", -1),
         f"need {_SEEDS.format('--seed')}, got -1"),
        (lambda: _generate("--n", 4, "--samples", 1, "--seed", 2**64),
         f"need {_SEEDS.format('--seed')}, got {2**64}"),
        (lambda: _record(seed=-1), f"need {_SEEDS.format('seed')}, got -1"),
        (lambda: _record(seed=2**64), f"need {_SEEDS.format('seed')}, got {2**64}"),
        (lambda: _record(sample_index=-1), "need sample_index >= 0, got -1"),
    ],
    ids=["count-n", "count-g-low", "count-g-high", "table-n", "enum-all-n", "enum-ncpp-n",
         "uniform-n", "ncpp-n", "filtered-n", "target-low", "target-high", "attempts",
         "num-samples", "seed-low", "seed-high", "index", "walks-rmax", "density-bins",
         "spacings-bins", "cli-samples", "cli-n", "cli-budget", "cli-seed-low", "cli-seed-high",
         "record-seed-low", "record-seed-high", "record-index"],
)
def test_integer_parameters_out_of_range_rejected(call, fault):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == fault


@pytest.mark.parametrize("partner", [[2, 1], None])
def test_partner_that_is_not_a_tuple_rejected(partner):
    with pytest.raises(ValueError, match=f"partner must be a tuple, got {type(partner).__name__}"):
        Gluing(partner=partner)


def test_replace_with_invalid_partner_rejected():
    g = brute.gluing([2, 1, 4, 3])
    with pytest.raises(ValueError, match=r"partner\[2\] = 3 but partner\[1\] = 2"):
        dataclasses.replace(g, partner=(2, 3, 4, 1))
    with pytest.raises(ValueError, match="must have even length 2n >= 2, got 3"):
        dataclasses.replace(g, partner=(2, 1, 4))


_ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
)


@_ROUND_TRIPS
def test_gluing_round_trip_shares_labels_and_drops_the_cached_walk(round_trip):
    g = sample_uniform_gluing(300, RngStream(9, 2))
    genus(g)  # fills the cached degree walk
    assert "_degrees" in vars(g)
    back = round_trip(g)
    assert back == g
    assert all(a is b for a, b in zip(back.partner, g.partner))
    assert "_degrees" not in vars(back)


@_ROUND_TRIPS
def test_gluing_round_trip_checks_its_table(round_trip):
    g = brute.gluing([2, 1, 4, 3])
    object.__setattr__(g, "partner", (2, 1, 3, 4))  # the table of an edited pickle
    with pytest.raises(ValueError, match="label 3 is glued to itself"):
        round_trip(g)


def _conjugated(perms) -> list[tuple[int, ...]]:
    """1-based partner tuples from the conjugation kernel, for 1-based
    permutations given one per row."""
    mates = _conjugate(np.array(perms, dtype=np.int64).reshape(len(perms), -1) - 1)
    return [tuple(row) for row in (mates + 1).tolist()]


def test_identity_permutation_gives_standard_matching():
    assert _conjugated([[1, 2, 3, 4]]) == [(2, 1, 4, 3)]
    assert brute.gluing_by_conjugation([1, 2, 3, 4]) == (2, 1, 4, 3)


def test_conjugation_hand_example():
    # perm sends 2->3 and 3->2; pairs become {1,3} and {2,4}
    assert _conjugated([[1, 3, 2, 4]]) == [(3, 4, 1, 2)]
    assert brute.gluing_by_conjugation([1, 3, 2, 4]) == (3, 4, 1, 2)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.permutations(list(range(1, 2 * n + 1)))
    )
)
def test_every_permutation_yields_valid_gluing(perm):
    (partner,) = _conjugated([perm])
    assert brute.gluing(partner).partner == brute.gluing_by_conjugation(perm)


@pytest.mark.parametrize("n", [2, 3])
def test_pushforward_hits_each_matching_equally(n):
    # each matching has exactly 2^n n! permutation preimages
    counts = Counter(_conjugated(list(itertools.permutations(range(1, 2 * n + 1)))))
    assert set(counts) == set(brute.all_matchings(n))
    assert set(counts.values()) == {2**n * math.factorial(n)}


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_uniform_gluing_is_its_stream_conjugated(n):
    for seed, index in itertools.product((0, 5, 2**63), (0, 1, 17)):
        perm = RngStream(seed, index).generator().permutation(2 * n) + 1
        got = sample_uniform_gluing(n, RngStream(seed, index)).partner
        assert got == brute.gluing_by_conjugation(perm)


def test_orbit_count_equals_vertex_cycles():
    for n in range(1, 6):
        partners = list(brute.all_matchings(n))
        counts = _orbit_counts(np.array(partners) - 1)
        assert counts.tolist() == [len(vertex_cycles(brute.gluing(p))) for p in partners]
    gen = RngStream(300).generator()
    draws = [sample_uniform_gluing(300, gen) for _ in range(200)]
    counts = _orbit_counts(np.array([g.partner for g in draws]) - 1)
    assert counts.tolist() == [len(vertex_cycles(g)) for g in draws]


def test_adjacency_k4():
    a = build_adjacency(brute.gluing([3, 4, 1, 2]))
    assert a.dtype == np.int8
    assert a.tolist() == [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]


def test_adjacency_matching_on_cycle_edges_doubles_them():
    a = build_adjacency(brute.gluing([2, 1, 4, 3]))
    assert a[0, 1] == a[1, 0] == 2
    assert a[2, 3] == a[3, 2] == 2
    assert a[1, 2] == a[3, 0] == 1
    assert a[0, 2] == a[1, 3] == 0


def test_adjacency_degenerate_two_gon():
    a = build_adjacency(brute.gluing([2, 1]))
    assert a.tolist() == [[0, 3], [3, 0]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjacency_rows_sum_three_symmetric_zero_diagonal(n):
    for partner in brute.all_matchings(n):
        a = build_adjacency(brute.gluing(partner))
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert np.all(a.sum(axis=0) == 3)
        # cycle subgraph present
        idx = np.arange(2 * n)
        assert np.all(a[idx, (idx + 1) % (2 * n)] >= 1)


def test_adjacency_injective_for_n3():
    mats = {build_adjacency(brute.gluing(p)).tobytes() for p in brute.all_matchings(3)}
    assert len(mats) == 15


def test_record_json_roundtrip(tmp_path):
    records = [
        EnsembleRecord(brute.gluing([3, 4, 1, 2]), genus=1, seed=7, sample_index=0),
        EnsembleRecord(brute.gluing([2, 1, 4, 3]), genus=0, seed=7, sample_index=1),
    ]
    path = tmp_path / "ens.jsonl"
    write_records(path, records)
    back = read_records(path)
    assert back == records
    assert back[0].n == 2


class _FsPath:
    """The least ``os.PathLike``: only ``__fspath__``."""

    def __init__(self, path):
        self.path = str(path)

    def __fspath__(self):
        return self.path


def test_write_records_takes_any_path_like(tmp_path, tmpdir):
    records = [EnsembleRecord(brute.gluing(p), genus=genus(brute.gluing(p)), seed=7, sample_index=i)
               for i, p in enumerate([[2, 1], [3, 4, 1, 2], [2, 1, 4, 3]])]
    # a py.path.local has a write method of its own, so it is not an open file either
    for path in (_FsPath(tmp_path / "fspath.jsonl"), tmpdir / "pypath.jsonl"):
        write_records(path, records)
        assert read_records(path) == records


@pytest.mark.parametrize(
    "field, value, fault",
    [
        ("gluing", (2, 1), "gluing must be a Gluing, got tuple"),
        ("genus", np.int64(0), "genus must be an int, got "),
        ("seed", True, "seed must be an int, got True"),
        ("sample_index", 0.5, "sample_index must be an int, got 0.5"),
        ("genus", 5, "genus is 5, its gluing has genus 0"),
        ("seed", -1, "need 0 <= seed <= 18446744073709551615, got -1"),
        ("seed", 2**64, "need 0 <= seed <= 18446744073709551615, got 18446744073709551616"),
        ("sample_index", -1, "need sample_index >= 0, got -1"),
    ],
    ids=["gluing-tuple", "genus-numpy", "seed-bool", "index-float", "genus-wrong", "seed-negative",
         "seed-big", "index-negative"],
)
def test_record_fields_checked_at_construction(field, value, fault):
    fields = {"gluing": brute.gluing([2, 1]), "genus": 0, "seed": 0, "sample_index": 0}
    with pytest.raises(ValueError, match=re.escape(fault)):
        EnsembleRecord(**{**fields, field: value})


@_ROUND_TRIPS
def test_record_round_trip_checks_its_fields(round_trip):
    rec = EnsembleRecord(sample_ncpp(300, RngStream(9, 3)), genus=0, seed=9, sample_index=3)
    back = round_trip(rec)
    assert back == rec
    assert all(a is b for a, b in zip(back.gluing.partner, rec.gluing.partner))
    object.__setattr__(rec, "genus", 5)  # the genus of an edited pickle
    with pytest.raises(ValueError, match="genus is 5, its gluing has genus 0"):
        round_trip(rec)


@_ROUND_TRIPS
def test_stream_round_trip_checks_its_seed(round_trip):
    stream = RngStream(2**64 - 1, 7)
    back = round_trip(stream)
    assert back == stream
    assert back.generator().integers(2**63) == stream.generator().integers(2**63)
    object.__setattr__(stream, "master_seed", -5)  # the seed of an edited pickle
    with pytest.raises(ValueError, match=r"^need 0 <= master_seed <= 18446744073709551615, got -5$"):
        round_trip(stream)


@_ROUND_TRIPS
def test_spectrum_round_trip_keeps_its_bytes_read_only_and_checks_them(round_trip):
    spectrum = eigenvalues_symmetric(build_adjacency(sample_uniform_gluing(50, RngStream(9, 4))))
    back = round_trip(spectrum)
    assert back.values.tobytes() == spectrum.values.tobytes()
    assert not back.values.flags.writeable
    object.__setattr__(spectrum, "values", np.array([3.0, np.nan]))  # the values of an edited pickle
    with pytest.raises(ValueError, match=r"^spectrum values must be finite$"):
        round_trip(spectrum)


def test_every_small_and_drawn_gluing_survives_its_records(tmp_path):
    gluings = [g for n in range(1, 6) for g in (*enumerate_all_gluings(n), *enumerate_ncpp(n))]
    for n in (1, 2, 7, 60):
        gluings += [draw(n, RngStream(3, i)) for draw in (sample_uniform_gluing, sample_ncpp)
                    for i in range(5)]
    records = [EnsembleRecord(g, genus=genus(g), seed=3, sample_index=i)
               for i, g in enumerate(gluings)]
    path = tmp_path / "ens.jsonl"
    write_records(path, records)
    assert read_records(path) == records


def test_read_back_gluing_holds_the_sampled_label_objects(tmp_path):
    g = sample_uniform_gluing(300, RngStream(4, 0))
    path = tmp_path / "ens.jsonl"
    write_records(path, [EnsembleRecord(g, genus=genus(g), seed=4, sample_index=0)])
    (back,) = read_records(path)
    assert back.gluing == g
    assert all(x is y for x, y in zip(back.gluing.partner, g.partner))


def test_held_large_gluings_cost_a_slot_per_label():
    sample_uniform_gluing(300, RngStream(4, 1))  # the shared table exists from here on
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [sample_uniform_gluing(300, RngStream(4, i)) for i in range(100)]
        per_gluing = (tracemalloc.get_traced_memory()[0] - before) / len(held)
    finally:
        tracemalloc.stop()
    # about 4.9 KB each: 600 tuple slots of 8 bytes; a fresh int per label
    # brings it to about 16 KB
    assert per_gluing < 8000


def test_label_table_holds_only_the_largest_gluing_built(monkeypatch, tmp_path):
    monkeypatch.setattr(mapcore, "_LABELS", ())  # as in a process that built no gluing yet
    largest = 0
    for n in (1, 7, 300, 50):
        gluings = [sample_uniform_gluing(n, RngStream(5, 0)), sample_ncpp(n, RngStream(5, 1))]
        if n <= 7:
            gluings += enumerate_ncpp(n)
        path = tmp_path / f"ens{n}.jsonl"
        write_records(path, [EnsembleRecord(g, genus=genus(g), seed=5, sample_index=i)
                             for i, g in enumerate(gluings)])
        gluings += [rec.gluing for rec in read_records(path)]
        gluings += [dataclasses.replace(g, partner=tuple(_fresh_labels(g))) for g in gluings[:2]]
        gluings += [pickle.loads(pickle.dumps(g)) for g in gluings[:2]]
        largest = max(largest, 2 * n)
        # grown to the largest 2n built, and never past it
        assert mapcore._LABELS == tuple(range(largest + 1))
        assert all(p is mapcore._LABELS[p] for g in gluings for p in g.partner)


def test_record_parse_error(tmp_path):
    path = tmp_path / "ens.jsonl"
    path.write_text('{"n": 2, "partner": [3, 4, 1]}\n')
    with pytest.raises(ValueError) as info:
        read_records(path)
    assert str(info.value) == (
        "record on line 1: bad ensemble record: partner table must have length 2n = 4, got 3"
    )
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="^record on line 1: bad ensemble record: Expecting value"):
        read_records(path)


def _write_lines(path, *objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))


def test_read_records_rejects_wrong_stored_genus(tmp_path):
    path = tmp_path / "ens.jsonl"
    good = {"n": 2, "partner": [2, 1, 4, 3], "genus": 0, "seed": 7, "sample_index": 0}
    torus = {"n": 2, "partner": [3, 4, 1, 2], "genus": 0, "seed": 7, "sample_index": 1}
    _write_lines(path, good, torus)
    with pytest.raises(ValueError) as info:
        read_records(path)
    assert str(info.value) == (
        "record on line 2: bad ensemble record: genus is 0, its gluing has genus 1"
    )
    _write_lines(path, good, {**torus, "genus": 1})
    assert [r.genus for r in read_records(path)] == [0, 1]


def test_read_records_rejects_invalid_gluings(tmp_path):
    path = tmp_path / "ens.jsonl"
    for partner, n, fault in (
        ([1, 2], 1, "label 1 is glued to itself"),
        ([2, 3, 1, 4], 2, r"partner\[2\] = 3 but partner\[1\] = 2"),
    ):
        _write_lines(path, {"n": n, "partner": partner, "genus": 0, "seed": 0, "sample_index": 0})
        with pytest.raises(ValueError, match=f"line 1: bad ensemble record: {fault}"):
            read_records(path)


GOOD_RECORD = {"n": 2, "partner": [2, 1, 4, 3], "genus": 0, "seed": 7, "sample_index": 0}


def test_declared_size_mismatch_rejected(tmp_path):
    # a record is the one place where a size arrives beside its partner table
    path = tmp_path / "ens.jsonl"
    for n in (3, 1, 0, -2):
        _write_lines(path, GOOD_RECORD, {**GOOD_RECORD, "n": n})
        fault = f"line 2: bad ensemble record: partner table must have length 2n = {2 * n}, got 4"
        with pytest.raises(ValueError, match=fault):
            read_records(path)


def test_read_records_names_the_line_that_does_not_parse(tmp_path):
    path = tmp_path / "ens.jsonl"
    _write_lines(path, GOOD_RECORD)
    with path.open("a") as fh:
        fh.write("not json\n")
    with pytest.raises(ValueError, match="line 2: bad ensemble record: Expecting value"):
        read_records(path)


def test_read_records_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "ens.jsonl"
    path.write_bytes(json.dumps(GOOD_RECORD).encode() + b"\n\xff\xfe{}\n")
    with pytest.raises(ValueError) as info:
        read_records(path)
    assert str(info.value) == (
        "record on line 2: bad ensemble record: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    )


def test_lf_crlf_and_cr_files_read_the_same_records(tmp_path):
    path = tmp_path / "ens.jsonl"
    second = {**GOOD_RECORD, "sample_index": 1}
    lines = [json.dumps(GOOD_RECORD), "", "  ", json.dumps(second), ""]
    records = []
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(end.join(lines).encode())
        records.append(read_records(path))
    assert records[0] == records[1] == records[2]
    assert [r.sample_index for r in records[0]] == [0, 1]
    path.write_bytes("\r\n".join([*lines[:3], "not json"]).encode())
    with pytest.raises(ValueError, match="^record on line 4: bad ensemble record: Expecting value"):
        read_records(path)


@pytest.mark.parametrize(
    "field, value, fault",
    [
        pytest.param("partner", "2143", 'partner must be a JSON list, got "2143"', id="partner-2143"),
        pytest.param("partner", [2.9, 1.5, 4.2, 3.99], "partner of 1 must be an int, got 2.9",
                     id="partner-value1"),
        pytest.param("seed", True, "seed must be an int, got True", id="seed-True"),
        pytest.param("sample_index", 0.7, "sample_index must be an int, got 0.7",
                     id="sample_index-0.7"),
        pytest.param("n", 2.0, "n must be an int, got 2.0", id="n-2.0"),
        pytest.param("genus", False, "genus must be an int, got False", id="genus-False"),
    ],
)
def test_read_records_rejects_fields_that_are_not_json_integers(tmp_path, field, value, fault):
    path = tmp_path / "ens.jsonl"
    _write_lines(path, GOOD_RECORD, {**GOOD_RECORD, field: value})
    with pytest.raises(ValueError) as info:
        read_records(path)
    assert str(info.value) == f"record on line 2: bad ensemble record: {fault}"


@pytest.mark.parametrize(
    "line, fault",
    [
        ("[1, 2]", "a record must be a JSON object, got list"),
        ("null", "a record must be a JSON object, got NoneType"),
        ('"2143"', "a record must be a JSON object, got str"),
        ('{"n": 2, "partner": [2, 1, 4, 3], "genus": 0, "seed": 7}', "missing key 'sample_index'"),
        ('{"n": 2, "genus": 0, "seed": 7, "sample_index": 0}', "missing key 'partner'"),
    ],
    ids=["list", "null", "string", "no-sample-index", "no-partner"],
)
def test_read_records_rejects_lines_that_are_not_records(tmp_path, line, fault):
    path = tmp_path / "ens.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + line + "\n")
    with pytest.raises(ValueError) as info:
        read_records(path)
    assert str(info.value) == f"record on line 2: bad ensemble record: {fault}"
