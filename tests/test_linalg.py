import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bettikit.linalg import SparseMatrix
from oracles import dense_rref, rref


@st.composite
def sparse_matrices(draw):
    # rational entries over QQ, integers up to 10^12 mod p; then scaled
    # copies of drawn rows, so duplicate and zero rows (explicit zeros too)
    char_p = draw(st.sampled_from((None, 32003, 5)))
    ncols = draw(st.integers(1, 7))
    if char_p is None:
        entry = (st.fractions(min_value=-40, max_value=40, max_denominator=12)
                 | st.integers(-10**12, 10**12))
    else:
        entry = st.integers(-40, 40) | st.integers(-10**12, 10**12)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
                         max_size=7))
    if rows:
        for i, factor in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                                 st.integers(-3, 3)), max_size=3)):
            rows.append({j: factor * v for j, v in rows[i].items()})
    return char_p, ncols, rows


# Hilbert and Vandermonde matrices: entries that grow under elimination
HILBERT = [{j: Fraction(1, i + j + 1) for j in range(6)} for i in range(6)]
VANDERMONDE = [{j: (i + 2) ** j for j in range(7)} for i in range(7)]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrix=sparse_matrices())
@example(matrix=(None, 6, HILBERT))
@example(matrix=(None, 7, VANDERMONDE))
@example(matrix=(32003, 7, VANDERMONDE))
@example(matrix=(5, 7, VANDERMONDE))
@example(matrix=(None, 3, [{}, {0: 0, 2: Fraction(0)}, {}]))
@example(matrix=(5, 3, [{0: 5, 1: 10}, {0: 1, 2: 2}, {0: 6, 2: 12}]))
def test_rref_matches_dense_oracle(matrix):
    char_p, ncols, rows = matrix
    got = rref([dict(row) for row in rows], char_p)
    expected = dense_rref(rows, ncols, char_p)
    assert got == expected
    if char_p is None:
        assert all(isinstance(v, Fraction) for row in got.values() for v in row.values())
    else:
        assert all(type(v) is int and 0 < v < char_p for row in got.values() for v in row.values())


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrix=sparse_matrices())
@example(matrix=(None, 6, HILBERT))
@example(matrix=(5, 7, VANDERMONDE))
def test_rank_matches_dense_oracle(matrix):
    char_p, ncols, rows = matrix
    got = SparseMatrix(len(rows), ncols, [dict(row) for row in rows]).rank(char_p)
    assert got == len(dense_rref(rows, ncols, char_p))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrix=sparse_matrices(), data=st.data())
def test_rank_and_rref_do_not_depend_on_row_order(matrix, data):
    # the elimination takes rows shortest first; any order gives the same answer
    char_p, ncols, rows = matrix
    shuffled = data.draw(st.permutations(rows))
    assert (SparseMatrix(len(rows), ncols, [dict(row) for row in shuffled]).rank(char_p)
            == SparseMatrix(len(rows), ncols, [dict(row) for row in rows]).rank(char_p))
    assert rref([dict(row) for row in shuffled], char_p) == rref([dict(row) for row in rows],
                                                                 char_p)


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
        assert got == len(dense_rref(rows, ncols, None))


def test_rank_matches_dense_oracle_mod_p():
    # integer matrices with entries in [-5, 5]: rank over GF(32003) equals
    # rank over the rationals since every minor is far below the modulus
    rng = random.Random(43)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_rows(rng, nrows, ncols)
        got = SparseMatrix(nrows, ncols, [dict(r) for r in rows]).rank(32003)
        assert got == len(dense_rref(rows, ncols, None))


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


def test_compose_inner_dimension_mismatch_raises():
    # a real check, kept under python -O
    with pytest.raises(ValueError, match="inner dimensions"):
        SparseMatrix(2, 3).compose(SparseMatrix(2, 2))


def test_row_count_mismatch_raises():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [{}])


def test_rational_entries_are_mapped_into_gf():
    # 1/2 = 3 mod 5, so the row 1/2*x0 + x1 is 3*x0 + x1, monic x0 + 2*x1
    assert rref([{0: Fraction(1, 2), 1: 1}], 5) == {0: {0: 1, 1: 2}}
    assert SparseMatrix(2, 2, [{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}]).rank(5) == 1
    with pytest.raises(ValueError, match="denominator divisible by the characteristic 5"):
        rref([{0: Fraction(1, 5)}], 5)


NON_MONIC_PIVOT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from bettikit.koszul import betti_table
from bettikit.linalg import PrimeField
from bettikit.polyring import parse_ideal

PrimeField.pivot = lambda self, row, lead: row
ideal = parse_ideal("vars 4\\n2*x0^2 + 3*x1*x2 + x3^2\\n5*x0*x1 + 7*x2^2\\nx1^2 + 2*x2*x3\\n")
try:
    betti_table(ideal, 3)
except RuntimeError as exc:
    print(exc)
"""


def test_a_non_monic_pivot_raises_instead_of_looping():
    # a pivot row stored with a lead other than 1 mod p is never cancelled, so
    # without the check after each elimination step `_echelon` loops for ever;
    # it runs in a subprocess with a deadline and a 1 GiB cap
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    child = subprocess.run([sys.executable, "-c", NON_MONIC_PIVOT], env=env,
                           capture_output=True, text=True, timeout=10)
    assert (child.returncode, child.stdout, child.stderr) == (
        0, "elimination left column 4 in the row\n", "")
