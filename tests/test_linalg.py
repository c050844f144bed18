import random

import pytest
from hypothesis import given, strategies as st

from tgoppa.linalg import (
    nullspace_modp,
    pack_gf2_row,
    rank_gf2,
    rank_modp,
    rref_modp,
)


def test_pack_gf2_row():
    assert pack_gf2_row([1, 0, 1, 1]) == 0b1101
    assert pack_gf2_row([]) == 0


def test_pack_gf2_row_long_row_matches_sum_oracle():
    rng = random.Random(20_000)
    row = [rng.randrange(2) for _ in range(20_000)]
    assert pack_gf2_row(row) == sum(bit << j for j, bit in enumerate(row))
    assert pack_gf2_row(tuple(row)) == pack_gf2_row(iter(row))


def test_rank_trivial():
    assert rank_gf2([]) == 0
    assert rank_gf2([0, 0, 0]) == 0
    assert rank_gf2([0b1, 0b10, 0b100]) == 3
    assert rank_modp([[0, 0], [0, 0]], 3) == 0
    assert rank_modp([[1, 0], [0, 2]], 3) == 2
    for p in (2, 3, 5, 7, 11, 13, 17):  # entries p - 1, p + 1 and -1 reduce mod p
        assert rank_modp([[1, p - 1], [1, p - 1], [p + 1, -1]], p) == 1


def test_rank_stops_reading_at_its_bound():
    vectors = iter([0b11, 0b11, 0b01, 0b100, 0b1000])
    assert rank_gf2(vectors, 2) == 2
    assert list(vectors) == [0b100, 0b1000]  # the vectors past the second pivot stay unread
    columns = iter([bytes([1, 2]), bytes([2, 1]), bytes([0, 1]), bytes([1, 1])])
    assert rank_modp(columns, 3, 1) == 1
    assert next(columns) == bytes([2, 1])
    for p in (17, 257):  # every prime stops at its bound
        columns = iter([(1, 2, 3), (2, 4, 6), (0, p - 1, 5), (0, 0, 1), (1, 1, 1)])
        assert rank_modp(columns, p, 2) == 2
        assert list(columns) == [(0, 0, 1), (1, 1, 1)]
    assert rank_gf2([0b11, 0b11], 2) == rank_modp([[1, 1], [1, 1]], 3, 2) == 1  # never reached


def test_ragged_vectors_are_rejected():
    """A vector whose length differs from the first one's raises ValueError, whether it
    is shorter or longer, and whether the first one is zero or empty."""
    for ragged in ([[0, 0, 1], [0, 1]], [[0, 0], [0, 1, 1]], [[1, 2], [0, 0], []], [(), (0,)]):
        for reduce in (lambda: rank_modp(ragged, 3), lambda: rref_modp(ragged, 3),
                       lambda: nullspace_modp(ragged, 3, 3)):
            with pytest.raises(ValueError, match="vector of length"):
                reduce()


def test_rank_worked_example():
    # GF(2) expansion of the GF(4) twisted example: rows 1100,1100,1100,1111
    rows = [[1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]]
    assert rank_gf2([pack_gf2_row(r) for r in rows]) == 2
    assert rank_modp(rows, 2) == 2


def test_packed_and_generic_paths_agree():
    rng = random.Random(77)
    for _ in range(60):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(1, 12)
        rows = [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
        assert rank_gf2([pack_gf2_row(r) for r in rows]) == rank_modp(rows, 2)


def test_nullspace_properties():
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(30):
            nrows = rng.randrange(1, 7)
            ncols = rng.randrange(1, 9)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            basis = nullspace_modp(rows, p, ncols)
            assert len(basis) == ncols - rank_modp(rows, p)
            for v in basis:
                for row in rows:
                    assert sum(r * x for r, x in zip(row, v)) % p == 0
            # vectors are independent: each owns one free column
            _, pivots = rref_modp(rows, p)
            frees = [j for j in range(ncols) if j not in set(pivots)]
            assert len(frees) == len(basis)
            for v, f in zip(basis, frees):
                assert v[f] == 1
                assert all(v[f2] == 0 for f2 in frees if f2 != f)


def test_nullspace_no_constraints():
    basis = nullspace_modp([], 2, 3)
    assert len(basis) == 3


def test_rref_pivots_sorted():
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randrange(3) for _ in range(6)] for _ in range(4)]
        _, pivots = rref_modp(rows, 3)
        assert pivots == sorted(pivots)


@given(st.data())
def test_rank_modp_matches_rref_oracle(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 257)))
    nrows = data.draw(st.integers(0, 9), label="nrows")
    ncols = data.draw(st.integers(0, 40), label="ncols")  # empty, wide and tall
    entries = st.integers(-3 * p, 3 * p)  # negative and >= p entries
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    basis = data.draw(st.lists(row, max_size=nrows), label="basis")
    # Rows combine at most len(basis) rows, so the matrix is rank-deficient
    # (or zero) whenever the basis is shorter than the row count.
    rows = []
    for _ in range(nrows):
        coef = data.draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
        rows.append([sum(c * b[j] for c, b in zip(coef, basis)) for j in range(ncols)])
    rank = len(rref_modp(rows, p)[1])
    assert rank_modp(rows, p) == rank
    bound = data.draw(st.integers(1, 10), label="bound")
    assert rank_modp(rows, p, bound) == min(bound, rank)
