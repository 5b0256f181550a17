"""Exact sparse linear algebra over the rationals and over prime fields.

Matrices are stored row-sparse: a list of {column: coefficient} dicts plus an
explicit column count.  Coefficients are Fractions over the rationals and
plain integers in [0, p) mod a prime p.  All that differs between the two is
the field object `field(char_p)`: its coefficient map, row normalization,
elimination step, and the forms of a stored pivot row and of an output row.

One forward elimination (`_echelon`) serves `SparseMatrix.rank`, the number
of echelon rows, and `reduced_echelon`, which back-substitutes the echelon.
It reduces each new row against the pivot rows found so far; the leading
column of a row is its smallest index.  Rows enter it normalized, each once:
`rank` normalizes its input, and `koszul._next_piece` hands over rows it has
normalized itself.  Over the rationals elimination is
fraction-free: rows are primitive integer vectors, eliminated by
cross-multiplication and divided by their gcd content, and a Fraction appears
only in an output row.  Mod p, pivot rows are monic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Coeff = Union[Fraction, int]
Row = dict[int, Coeff]


class Rationals:
    """QQ: rows are eliminated as primitive integer vectors, output as Fractions."""

    one = Fraction(1)

    def coeff(self, value: Coeff) -> Coeff:
        return value

    def row(self, row: dict) -> dict:
        """The primitive integer vector spanning the line of `row`; zeros dropped."""
        scale = lcm(*[v.denominator for v in row.values()])
        ints = {j: v.numerator * (scale // v.denominator) for j, v in row.items() if v}
        content = gcd(*ints.values())
        if content > 1:
            ints = {j: v // content for j, v in ints.items()}
        return ints

    def eliminate(self, row: dict, pivot: dict, col) -> dict:
        """The primitive multiple of pivot[col] * row - row[col] * pivot."""
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

    def pivot(self, row: dict, lead) -> dict:
        return row

    def output(self, row: dict, lead) -> Row:
        return {j: Fraction(v, row[lead]) for j, v in row.items()}


class PrimeField:
    """GF(p): rows of residues in [0, p), pivot rows monic."""

    one = 1

    def __init__(self, char_p: int):
        self.char_p = char_p

    def coeff(self, value: Coeff) -> int:
        """The image of a rational in GF(p)."""
        p = self.char_p
        if value.denominator == 1:
            return value.numerator % p
        den = value.denominator % p
        if den == 0:
            raise ValueError(
                f"coefficient {value} has denominator divisible by the characteristic {p}")
        return value.numerator * pow(den, -1, p) % p

    def row(self, row: dict) -> dict:
        p, coeff = self.char_p, self.coeff
        return {j: c for j, v in row.items() if (c := v % p if type(v) is int else coeff(v))}

    def eliminate(self, row: dict, pivot: dict, col) -> dict:
        """row - row[col] * pivot, for a monic pivot."""
        p, factor = self.char_p, row[col]
        out = dict(row)
        for j, v in pivot.items():
            w = (out.get(j, 0) - factor * v) % p
            if w:
                out[j] = w
            else:
                del out[j]
        return out

    def pivot(self, row: dict, lead) -> dict:
        p = self.char_p
        inv = pow(row[lead], -1, p)
        return {j: v * inv % p for j, v in row.items()}

    def output(self, row: dict, lead) -> Row:
        return row


RATIONALS = Rationals()


def field(char_p: int | None) -> Rationals | PrimeField:
    """The rationals for char_p None, else GF(char_p)."""
    return RATIONALS if char_p is None else PrimeField(char_p)


@dataclass
class SparseMatrix:
    """Row-sparse matrix; rows[i][j] is the (i, j) entry, absent means zero."""

    nrows: int
    ncols: int
    rows: list[Row] = dataclass_field(default_factory=list)

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
        coeff = field(char_p).coeff
        out: list[Row] = []
        for row in self.rows:
            acc: Row = {}
            for j, a in row.items():
                for k, b in other.rows[j].items():
                    acc[k] = acc.get(k, 0) + a * b
            out.append({k: c for k, v in acc.items() if (c := coeff(v))})
        return SparseMatrix(self.nrows, other.ncols, out)

    def rank(self, char_p: int | None = None) -> int:
        F = field(char_p)
        return len(_echelon(map(F.row, self.rows), F))


def _echelon(rows: Iterable[dict], F: Rationals | PrimeField) -> dict[int, dict]:
    """Forward elimination of rows normalized by `F.row`: {leading column: its row}."""
    pivots: dict[int, dict] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = F.pivot(row, lead)
                break
            row = F.eliminate(row, pivot, lead)
    return pivots


def reduced_echelon(rows: Iterable[dict], F: Rationals | PrimeField) -> dict[int, Row]:
    """Fully reduced row echelon form of rows normalized by `F.row`.

    Returned as {pivot column: its row}.  Pivot rows are normalized to leading
    coefficient 1 and their tails are supported only on non-pivot columns, so
    a single substitution pass reduces any vector to normal form.
    """
    pivots = _echelon(rows, F)
    # Back-substitute, highest pivot first, so every tail is supported on
    # non-pivot columns only; a pivot row already reduced brings in none.
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [j for j in row if j != lead and j in pivots]:
            row = F.eliminate(row, pivots[col], col)
        pivots[lead] = row
    return {lead: F.output(row, lead) for lead, row in pivots.items()}
