import random
from fractions import Fraction

import pytest

from bettikit.linalg import SparseMatrix, rref


def dense_rank(rows, ncols):
    # straightforward Fraction elimination, the slow oracle
    matrix = []
    for row in rows:
        matrix.append([Fraction(row.get(j, 0)) for j in range(ncols)])
    rank = 0
    pivot_row = 0
    for col in range(ncols):
        found = None
        for i in range(pivot_row, len(matrix)):
            if matrix[i][col] != 0:
                found = i
                break
        if found is None:
            continue
        matrix[pivot_row], matrix[found] = matrix[found], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        for i in range(pivot_row + 1, len(matrix)):
            factor = matrix[i][col] / lead
            if factor:
                for j in range(col, ncols):
                    matrix[i][j] -= factor * matrix[pivot_row][j]
        pivot_row += 1
        rank += 1
    return rank


def random_rows(rng, nrows, ncols, rational=False):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.35:
                if rational:
                    row[j] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                else:
                    row[j] = rng.randint(-5, 5)
        rows.append({j: v for j, v in row.items() if v != 0})
    return rows


def test_rank_matches_dense_oracle_rational():
    rng = random.Random(42)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_rows(rng, nrows, ncols, rational=True)
        got = SparseMatrix(nrows, ncols, [dict(r) for r in rows]).rank(None)
        assert got == dense_rank(rows, ncols)


def test_rank_matches_dense_oracle_mod_p():
    # integer matrices with entries in [-5, 5]: rank over GF(32003) equals
    # rank over the rationals since every minor is far below the modulus
    rng = random.Random(43)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_rows(rng, nrows, ncols)
        got = SparseMatrix(nrows, ncols, [dict(r) for r in rows]).rank(32003)
        assert got == dense_rank(rows, ncols)


def test_rank_handles_duplicate_and_zero_rows():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {}, {0: Fraction(1, 2), 1: 1}]
    assert SparseMatrix(4, 2, rows).rank(None) == 1


def test_rref_normal_form_property():
    # every input row must reduce to zero against the returned pivots, and
    # pivot tails must avoid pivot columns
    rng = random.Random(44)
    for char_p in (None, 101):
        for _ in range(30):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_rows(rng, nrows, ncols, rational=char_p is None)
            pivots = rref([dict(r) for r in rows], char_p)
            for lead, row in pivots.items():
                assert row[lead] == 1
                assert all(col not in pivots for col in row if col != lead)
            for row in rows:
                residue = {j: Fraction(v) if char_p is None else v % char_p
                           for j, v in row.items()}
                while residue:
                    lead = min(residue)
                    assert lead in pivots, "row does not reduce to zero"
                    factor = residue.pop(lead)
                    for col, v in pivots[lead].items():
                        if col == lead:
                            continue
                        w = residue.get(col, 0) - factor * v
                        if char_p is not None:
                            w %= char_p
                        if w == 0:
                            residue.pop(col, None)
                        else:
                            residue[col] = w


def test_compose_and_zero():
    a = SparseMatrix(2, 3, [{0: 1, 2: 2}, {1: 3}])
    b = SparseMatrix(3, 2, [{0: 1}, {1: 1}, {0: -1}])
    product = a.compose(b)
    assert product.rows == [{0: -1}, {1: 3}]
    assert not product.is_zero()
    cancel = SparseMatrix(1, 2, [{0: 1, 1: 1}]).compose(
        SparseMatrix(2, 1, [{0: 1}, {0: -1}]))
    assert cancel.is_zero()


def test_row_count_mismatch_raises():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [{}])
