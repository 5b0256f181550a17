"""Exact sparse linear algebra over the rationals and over prime fields.

Matrices are stored row-sparse: a list of {column: coefficient} dicts plus an
explicit column count.  Coefficients are Fractions when the characteristic is
None and plain integers in [0, p) when working mod a prime p.

Rank over the rationals is computed fraction-free: rows are scaled to integer
vectors, eliminated by cross-multiplication, and renormalized by their gcd, so
no Fraction ever appears mid-elimination.  Rank mod p uses ordinary modular
elimination.  Both build the echelon incrementally, reducing each new row
against the pivot rows found so far.
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
        assert self.ncols == other.nrows, "inner dimensions must agree"
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
        if char_p is None:
            return _rank_fraction_free(self.rows)
        return _rank_mod_p(self.rows, char_p)


def _integer_row(row: Row) -> dict[int, int]:
    """Scale a rational row to integers and divide out the content."""
    row = {j: v for j, v in row.items() if v != 0}
    if not row:
        return {}
    scale = lcm(*(Fraction(v).denominator for v in row.values()))
    ints = {j: int(v * scale) if isinstance(v, Fraction) else v * scale
            for j, v in row.items()}
    content = gcd(*ints.values())
    if content > 1:
        ints = {j: v // content for j, v in ints.items()}
    return ints


def _rank_fraction_free(rows: list[Row]) -> int:
    pivots: dict[int, dict[int, int]] = {}
    for original in rows:
        row = _integer_row(original)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            g = gcd(a, b)
            ra, rb = a // g, b // g
            merged: dict[int, int] = {}
            for j, v in row.items():
                merged[j] = ra * v
            for j, v in pivot.items():
                merged[j] = merged.get(j, 0) - rb * v
            row = {j: v for j, v in merged.items() if v != 0}
            if row:
                content = gcd(*row.values())
                if content > 1:
                    row = {j: v // content for j, v in row.items()}
    return len(pivots)


def _rank_mod_p(rows: list[Row], p: int) -> int:
    pivots: dict[int, dict[int, int]] = {}
    for original in rows:
        row = {j: v % p for j, v in original.items() if v % p != 0}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {j: (v * inv) % p for j, v in row.items()}
                break
            factor = row[lead]
            merged = dict(row)
            for j, v in pivot.items():
                merged[j] = (merged.get(j, 0) - factor * v) % p
            row = {j: v for j, v in merged.items() if v != 0}
    return len(pivots)


def rref(rows: list[Row], char_p: int | None = None) -> dict[int, Row]:
    """Fully reduced row echelon form, returned as {pivot column: its row}.

    Pivot rows are normalized to leading coefficient 1 and their tails are
    supported only on non-pivot columns, so a single substitution pass reduces
    any vector to normal form.  The leading column of a row is its smallest
    column index.
    """
    if char_p is None:
        def normalize(row: Row, lead: int) -> Row:
            inv = Fraction(1) / Fraction(row[lead])
            return {j: Fraction(v) * inv for j, v in row.items()}

        def eliminate(row: Row, pivot: Row, lead: int) -> Row:
            factor = Fraction(row[lead])
            out = dict(row)
            for j, v in pivot.items():
                w = out.get(j, Fraction(0)) - factor * v
                if w == 0:
                    out.pop(j, None)
                else:
                    out[j] = w
            return out
    else:
        def normalize(row: Row, lead: int) -> Row:
            inv = pow(row[lead] % char_p, char_p - 2, char_p)
            return {j: (v * inv) % char_p for j, v in row.items() if v % char_p != 0}

        def eliminate(row: Row, pivot: Row, lead: int) -> Row:
            factor = row[lead]
            out = dict(row)
            for j, v in pivot.items():
                w = (out.get(j, 0) - factor * v) % char_p
                if w == 0:
                    out.pop(j, None)
                else:
                    out[j] = w
            return out

    pivots: dict[int, Row] = {}
    for original in rows:
        if char_p is not None:
            row: Row = {j: v % char_p for j, v in original.items() if v % char_p != 0}
        else:
            row = {j: Fraction(v) for j, v in original.items() if v != 0}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = normalize(row, lead)
                break
            row = eliminate(row, pivot, lead)

    # Back-substitute so every tail is supported on non-pivot columns only.
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [j for j in row if j != lead and j in pivots]:
            factor = row.pop(col)
            for j, v in pivots[col].items():
                if j == col:
                    continue
                w = row.get(j, 0) - factor * v
                if char_p is not None:
                    w %= char_p
                if w == 0:
                    row.pop(j, None)
                else:
                    row[j] = w
    return pivots
