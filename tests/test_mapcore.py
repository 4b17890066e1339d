import dataclasses
import itertools
import json
import math
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
    read_records,
    sample_uniform_gluing,
    vertex_cycles,
    write_records,
)
from onefacemaps.mapcore import _conjugate, _orbit_counts


def test_smallest_gluing_is_valid():
    assert Gluing.from_partner([2, 1]).partner == (2, 1)


def test_identity_partner_has_fixed_point():
    with pytest.raises(ValueError, match="label 1 is glued to itself"):
        Gluing.from_partner([1, 2])


def test_odd_length_rejected():
    with pytest.raises(ValueError, match="must have length 2n = 2, got 3"):
        Gluing(n=1, partner=(2, 3, 1))


def test_declared_size_mismatch_rejected():
    with pytest.raises(ValueError, match="must have length 2n = 6, got 4"):
        Gluing(n=3, partner=(2, 1, 4, 3))


def test_non_involution_rejected():
    with pytest.raises(ValueError, match=r"partner\[2\] = 3 but partner\[1\] = 2"):
        Gluing.from_partner([2, 3, 4, 1])


def test_out_of_range_label_rejected():
    with pytest.raises(ValueError, match=r"partner of 1 is 5, outside 1\.\.4"):
        Gluing.from_partner([5, 1, 4, 3])


def test_empty_partner_rejected():
    with pytest.raises(ValueError, match="must have length 2n = 0, got 0"):
        Gluing.from_partner([])


def test_replace_with_invalid_partner_rejected():
    g = Gluing.from_partner([2, 1, 4, 3])
    with pytest.raises(ValueError, match=r"partner\[2\] = 3 but partner\[1\] = 2"):
        dataclasses.replace(g, partner=(2, 3, 4, 1))
    with pytest.raises(ValueError, match="must have length 2n = 6, got 4"):
        dataclasses.replace(g, n=3)


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
    assert Gluing.from_partner(partner).partner == brute.gluing_by_conjugation(perm)


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
        assert counts.tolist() == [len(vertex_cycles(Gluing.from_partner(p))) for p in partners]
    gen = RngStream(300).generator()
    draws = [sample_uniform_gluing(300, gen) for _ in range(200)]
    counts = _orbit_counts(np.array([g.partner for g in draws]) - 1)
    assert counts.tolist() == [len(vertex_cycles(g)) for g in draws]


def test_adjacency_k4():
    a = build_adjacency(Gluing.from_partner([3, 4, 1, 2]))
    assert a.tolist() == [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]


def test_adjacency_matching_on_cycle_edges_doubles_them():
    a = build_adjacency(Gluing.from_partner([2, 1, 4, 3]))
    assert a[0, 1] == a[1, 0] == 2
    assert a[2, 3] == a[3, 2] == 2
    assert a[1, 2] == a[3, 0] == 1
    assert a[0, 2] == a[1, 3] == 0


def test_adjacency_degenerate_two_gon():
    a = build_adjacency(Gluing.from_partner([2, 1]))
    assert a.tolist() == [[0, 3], [3, 0]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjacency_rows_sum_three_symmetric_zero_diagonal(n):
    for partner in brute.all_matchings(n):
        a = build_adjacency(Gluing.from_partner(partner))
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert np.all(a.sum(axis=0) == 3)
        # cycle subgraph present
        idx = np.arange(2 * n)
        assert np.all(a[idx, (idx + 1) % (2 * n)] >= 1)


def test_adjacency_injective_for_n3():
    mats = {build_adjacency(Gluing.from_partner(p)).tobytes() for p in brute.all_matchings(3)}
    assert len(mats) == 15


def test_record_json_roundtrip(tmp_path):
    records = [
        EnsembleRecord(Gluing.from_partner([3, 4, 1, 2]), genus=1, seed=7, sample_index=0),
        EnsembleRecord(Gluing.from_partner([2, 1, 4, 3]), genus=0, seed=7, sample_index=1),
    ]
    path = tmp_path / "ens.jsonl"
    write_records(path, records)
    back = read_records(path)
    assert back == records
    assert back[0].n == 2


def test_record_parse_error():
    with pytest.raises(ValueError, match="bad ensemble record: partner table must have length"):
        EnsembleRecord.from_json('{"n": 2, "partner": [3, 4, 1]}')
    with pytest.raises(ValueError, match="bad ensemble record: Expecting value"):
        EnsembleRecord.from_json("not json")


def _write_lines(path, *objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))


def test_read_records_rejects_wrong_stored_genus(tmp_path):
    path = tmp_path / "ens.jsonl"
    good = {"n": 2, "partner": [2, 1, 4, 3], "genus": 0, "seed": 7, "sample_index": 0}
    torus = {"n": 2, "partner": [3, 4, 1, 2], "genus": 0, "seed": 7, "sample_index": 1}
    _write_lines(path, good, torus)
    with pytest.raises(ValueError, match="line 2 stores genus 0, its gluing has genus 1"):
        read_records(path)
    _write_lines(path, good, {**torus, "genus": 1})
    assert [r.genus for r in read_records(path)] == [0, 1]


def test_read_records_rejects_invalid_gluings(tmp_path):
    path = tmp_path / "ens.jsonl"
    for partner, n, fault in (
        ([2, 1, 4, 3], 3, "partner table must have length 2n = 6, got 4"),
        ([1, 2], 1, "label 1 is glued to itself"),
        ([2, 3, 1, 4], 2, r"partner\[2\] = 3 but partner\[1\] = 2"),
    ):
        _write_lines(path, {"n": n, "partner": partner, "genus": 0, "seed": 0, "sample_index": 0})
        with pytest.raises(ValueError, match=f"line 1: bad ensemble record: {fault}"):
            read_records(path)


GOOD_RECORD = {"n": 2, "partner": [2, 1, 4, 3], "genus": 0, "seed": 7, "sample_index": 0}


def test_read_records_names_the_line_that_does_not_parse(tmp_path):
    path = tmp_path / "ens.jsonl"
    _write_lines(path, GOOD_RECORD)
    with path.open("a") as fh:
        fh.write("not json\n")
    with pytest.raises(ValueError, match="line 2: bad ensemble record: Expecting value"):
        read_records(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("partner", "2143"),
        ("partner", [2.9, 1.5, 4.2, 3.99]),
        ("seed", True),
        ("sample_index", 0.7),
        ("n", 2.0),
        ("genus", False),
    ],
)
def test_read_records_rejects_fields_that_are_not_json_integers(tmp_path, field, value):
    path = tmp_path / "ens.jsonl"
    _write_lines(path, GOOD_RECORD, {**GOOD_RECORD, field: value})
    with pytest.raises(ValueError, match=f"line 2: bad ensemble record: {field}( entry)? must be a JSON"):
        read_records(path)
