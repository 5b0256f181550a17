"""Exact sparse linear algebra over the rationals and over prime fields.

Matrices are stored row-sparse: a list of {column: coefficient} dicts plus an
explicit column count.  Coefficients are Fractions when the characteristic is
None and plain integers in [0, p) when working mod a prime p.

One forward elimination (`_echelon`) serves both `SparseMatrix.rank`, which
is the number of echelon rows, and `rref`, which back-substitutes the echelon.
It builds the echelon incrementally, reducing each new row against the pivot
rows found so far; the leading column of a row is its smallest column index.
Over the rationals it is fraction-free: every row is a primitive integer
vector, eliminated by cross-multiplication and divided by its gcd content, so
no Fraction appears until `rref` normalizes its output.  Mod p, pivot rows
are kept monic and eliminated by ordinary modular arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Union

Coeff = Union[Fraction, int]
Row = dict[int, Coeff]


@dataclass
class SparseMatrix:
    """Row-sparse matrix; rows[i][j] is the (i, j) entry, absent means zero."""

    nrows: int
    ncols: int
    rows: list[Row] = field(default_factory=list)

    def __post_init__(self):
        if not self.rows:
            self.rows = [{} for _ in range(self.nrows)]
        if len(self.rows) != self.nrows:
            raise ValueError(f"{len(self.rows)} rows given for a matrix with {self.nrows}")

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def compose(self, other: "SparseMatrix", char_p: int | None = None) -> "SparseMatrix":
        """Matrix of `self` followed by `other` (rows map domain -> codomain)."""
        if self.ncols != other.nrows:
            raise ValueError(f"inner dimensions differ: {self.ncols} columns "
                             f"against {other.nrows} rows")
        out: list[Row] = []
        for row in self.rows:
            acc: Row = {}
            for j, a in row.items():
                for k, b in other.rows[j].items():
                    acc[k] = acc.get(k, 0) + a * b
            if char_p is None:
                acc = {k: v for k, v in acc.items() if v != 0}
            else:
                acc = {k: v % char_p for k, v in acc.items() if v % char_p != 0}
            out.append(acc)
        return SparseMatrix(self.nrows, other.ncols, out)

    def rank(self, char_p: int | None = None) -> int:
        return len(_echelon(self.rows, char_p))


def integer_row(row: dict) -> dict:
    """A rational row scaled by the lcm of its denominators, divided by its content.

    The result is the primitive integer vector spanning the same line; zero
    entries are dropped.  Keys are kept, whatever they are.
    """
    scale = lcm(*[v.denominator for v in row.values()])
    ints = {j: v.numerator * (scale // v.denominator) for j, v in row.items() if v}
    content = gcd(*ints.values())
    if content > 1:
        ints = {j: v // content for j, v in ints.items()}
    return ints


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int,
               char_p: int | None) -> dict[int, int]:
    """`row` with its entry in column `col` cleared by `pivot`.

    Over the rationals both are primitive integer vectors and the result is
    the primitive multiple of pivot[col] * row - row[col] * pivot.  Mod p the
    pivot is monic and the result is row - row[col] * pivot.
    """
    if char_p is None:
        g = gcd(pivot[col], row[col])
        ra, rb = pivot[col] // g, row[col] // g
        out = {j: ra * v for j, v in row.items()} if ra != 1 else dict(row)
        for j, v in pivot.items():
            w = out.get(j, 0) - rb * v
            if w:
                out[j] = w
            else:
                del out[j]
        content = gcd(*out.values())
        if content > 1:
            out = {j: v // content for j, v in out.items()}
        return out
    factor = row[col]
    out = dict(row)
    for j, v in pivot.items():
        w = (out.get(j, 0) - factor * v) % char_p
        if w:
            out[j] = w
        else:
            del out[j]
    return out


def _echelon(rows: list[Row], char_p: int | None) -> dict[int, dict[int, int]]:
    """Forward elimination: {leading column: its row}, one row per pivot.

    Rows are integer vectors, primitive over the rationals and monic mod p.
    """
    pivots: dict[int, dict[int, int]] = {}
    for original in rows:
        if char_p is None:
            row = integer_row(original)
        else:
            row = {j: v % char_p for j, v in original.items() if v % char_p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is not None:
                row = _eliminate(row, pivot, lead, char_p)
            elif char_p is None:
                pivots[lead] = row
                break
            else:
                inv = pow(row[lead], char_p - 2, char_p)
                pivots[lead] = {j: v * inv % char_p for j, v in row.items()}
                break
    return pivots


def rref(rows: list[Row], char_p: int | None = None) -> dict[int, Row]:
    """Fully reduced row echelon form, returned as {pivot column: its row}.

    Pivot rows are normalized to leading coefficient 1 and their tails are
    supported only on non-pivot columns, so a single substitution pass reduces
    any vector to normal form.  The leading column of a row is its smallest
    column index.
    """
    pivots = _echelon(rows, char_p)
    # Back-substitute, highest pivot first, so every tail is supported on
    # non-pivot columns only; a pivot row already reduced brings in none.
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [j for j in row if j != lead and j in pivots]:
            row = _eliminate(row, pivots[col], col, char_p)
        pivots[lead] = row
    if char_p is not None:
        return pivots
    return {lead: {j: Fraction(v, row[lead]) for j, v in row.items()}
            for lead, row in pivots.items()}
