"""Exact sparse linear algebra over the rationals and over prime fields.

Matrices are stored row-sparse: a list of {column: coefficient} dicts plus an
explicit column count.  Coefficients are Fractions over the rationals and
plain integers in [0, p) mod a prime p.  All that differs between the two is
the field object `field(char_p)`: its coefficient map, row normalization,
elimination step, the form of a stored pivot row, the rule a kept row gives,
and the one step that lays rules out as a normalized row.

One forward elimination (`_echelon`) serves `SparseMatrix.rank`, the number
of echelon rows, `leads`, their leading columns, and `reduced_echelon`.  It
takes the rows shortest first, Markowitz's rule (Management Sci. 3, 1957)
for limiting fill-in, and reduces each against the pivot rows found so far;
the leading column of a row is its smallest index.  The order is free: the
rank does not depend on it, and neither does the fully reduced echelon,
which is unique for a fixed span in a fixed column order.  So the pass may
also continue from the forward echelon of other rows, as `koszul` does to
count the pivots a second batch of rows adds to the span of a first.  One
substitution pass (`substitute`) eliminates from a row every other column
that leads a pivot row: `reduced_echelon` back-substitutes the echelon with
it, and `koszul` reduces rows against a kept echelon with it.  The two are
the only callers of the field's elimination step,
`F.eliminate(row, pivots, cols)`, which clears each column c of `cols` from
`row` in place by pivots[c]: `substitute` clears all of a row's pivot
columns in one call, and `_echelon` the lead of its row, one call per step.
Each copies a row once, the first time it eliminates from it, so no row
either is given, and no row of the pivots it is given, ever changes.  Rows
enter normalized, each once: `SparseMatrix.rank` normalizes its rows, and
`leads` and `reduced_echelon` take rows already in the field's form, which
`koszul` builds in that form from the start.  Over the rationals
elimination is fraction-free: rows are primitive integer vectors, and one
call scales the row once, by the one factor that makes each entry it clears
a multiple of its pivot's lead, subtracts the multiples and divides out the
gcd content once.  Mod p, pivot rows are monic, and a row monic already is
stored as it is.  `reduced_echelon` returns its rows in that form, which
`koszul` keeps.  A kept row gives its rule, the normal form of its lead, as
one denominator over integer numerators in the row's own columns
(`F.rule`), and `F.combine` lays such rules side by side, signed, as one
normalized row; a Fraction appears only where a caller reads a value out.
No column is renamed here: a row keeps the columns its caller gave it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Coeff = Union[Fraction, int]
Row = dict[int, Coeff]
# A rule in the field's form: (denominator, {column: integer numerator}).
Rule = tuple[int, dict[int, int]]


class Rationals:
    """QQ: rows are eliminated as primitive integer vectors, read out as Fractions."""

    def coeff(self, value: Coeff) -> Coeff:
        return value

    def row(self, row: dict) -> dict:
        """The primitive integer vector spanning the line of `row`; zeros dropped."""
        scale = lcm(*[v.denominator for v in row.values()])
        return _primitive({j: v.numerator * (scale // v.denominator) for j, v in row.items() if v})

    def eliminate(self, row: dict, pivots: dict, cols) -> None:
        """Clear each column c of `cols` from `row` by pivots[c], in place, and make it primitive.

        The tails of these pivots avoid `cols`, so row[c] is the same when c
        is reached as at the start.  One scale s makes each s * row[c] a
        multiple of its pivot's lead a: the lcm of the a / gcd(a, row[c]),
        with the sign of the product of the leads.  The row is scaled once,
        only if s != 1, each (s * row[c] / a) * pivots[c] is subtracted, and
        the gcd content is divided out once.  The result is what clearing the
        columns one at a time would give, each step the primitive multiple of
        a * row - row[c] * pivots[c], sign included.
        """
        s = 1
        for c in cols:
            a = pivots[c][c]
            r = a // gcd(a, row[c])
            s = s * r // gcd(s, r)
        if s != 1:
            for j in row:
                row[j] *= s
        for c in cols:
            pivot = pivots[c]
            factor = row[c] // pivot[c]
            for j, v in pivot.items():
                w = row.get(j, 0) - factor * v
                if w:
                    row[j] = w
                else:
                    del row[j]
        content = gcd(*row.values())
        if content > 1:
            for j in row:
                row[j] //= content

    def pivot(self, row: dict, lead) -> dict:
        return row

    def rule(self, row: dict, lead) -> Rule:
        """-tail / lead of a kept row as (|lead|, -+tail), in the row's own columns."""
        a = row[lead]
        return abs(a), {j: -v if a > 0 else v for j, v in row.items() if j != lead}

    def combine(self, places, rules) -> dict:
        """The primitive integer row of the rules at their (base, odd), over one denominator.

        Each rule's numerators are shifted by its base, scaled to the lcm of
        the denominators and negated where odd; no two rules share a column.
        """
        scale = lcm(*[den for den, _ in rules])
        return _primitive({base + j: (-v if odd else v) * (scale // den)
                           for (base, odd), (den, nums) in zip(places, rules)
                           for j, v in nums.items()})


class PrimeField:
    """GF(p): rows of residues in [0, p), pivot rows monic."""

    def __init__(self, char_p: int):
        self.char_p = char_p

    def coeff(self, value: Coeff) -> int:
        """The image of a rational in GF(p)."""
        p = self.char_p
        den = value.denominator % p
        if den == 0:
            raise ValueError(
                f"coefficient {value} has denominator divisible by the characteristic {p}")
        return value.numerator * pow(den, -1, p) % p

    def row(self, row: dict) -> dict:
        coeff = self.coeff
        return {j: c for j, v in row.items() if (c := coeff(v))}

    def eliminate(self, row: dict, pivots: dict, cols) -> None:
        """row - row[c] * pivots[c] for each column c of `cols`, in place, for monic pivots.

        The tails of these pivots avoid `cols`, so each factor row[c] is read
        when c is reached.  Each entry is reduced mod p as it changes, and a
        zero is deleted at once.
        """
        p = self.char_p
        for c in cols:
            factor = row[c]
            for j, v in pivots[c].items():
                w = (row.get(j, 0) - factor * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]

    def pivot(self, row: dict, lead) -> dict:
        """The row made monic; a row already monic is kept as it is.

        No caller changes a stored row: a row is copied before it is eliminated in place.
        """
        p, a = self.char_p, row[lead]
        if a == 1:
            return row
        inv = pow(a, -1, p)
        return {j: v * inv % p for j, v in row.items()}

    def rule(self, row: dict, lead) -> Rule:
        """-tail of a kept (monic) row over denominator 1, in the row's own columns."""
        p = self.char_p
        return 1, {j: p - v for j, v in row.items() if j != lead}

    def combine(self, places, rules) -> dict:
        """The row of the rules at their (base, odd), shifted by base and negated where odd."""
        p = self.char_p
        return {base + j: p - v if odd else v
                for (base, odd), (_, nums) in zip(places, rules) for j, v in nums.items()}


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    content = gcd(*row.values())
    return {j: v // content for j, v in row.items()} if content > 1 else row


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


def leads(rows: Iterable[dict], F: Rationals | PrimeField) -> set[int]:
    """The leading columns of the forward echelon of rows in the field's form.

    The set depends only on the rows' span: it is the set of least columns
    of the span's nonzero elements, since an element's least column is the
    least lead among the echelon rows it combines.
    """
    return set(_echelon(rows, F))


def _echelon(rows: Iterable[dict], F: Rationals | PrimeField,
             pivots: dict[int, dict] | None = None) -> dict[int, dict]:
    """Forward elimination of rows in the field's form: {leading column: its row}.

    Rows are taken shortest first, so the pivot rows stay sparse.  Which
    pivots are found does not depend on the order, only their rows do.
    Given `pivots`, a forward echelon of other rows in the field's form, the
    pass continues from it: the rows are reduced against it, and the pivots
    they add join it in place, so the result is the forward echelon of both
    spans together.  Each turn of the inner loop ends the row or cancels its
    lead, and a pivot row has no column below its lead, so the lead strictly
    rises: a row turns at most once per distinct column of it and of the
    pivot rows.  A row is copied the first time it meets a pivot, and each
    step then clears its lead in place (`F.eliminate(row, pivots, (lead,))`),
    so the rows given, and those of `pivots`, keep their values.  A step
    that leaves the lead in the row, which a faulty `F.pivot` or
    `F.eliminate` would, raises RuntimeError naming the column, so the bound
    is checked rather than trusted.
    """
    pivots = {} if pivots is None else pivots
    for row in sorted(rows, key=len):
        copied = False
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = F.pivot(row, lead)
                break
            if not copied:
                row, copied = dict(row), True
            F.eliminate(row, pivots, (lead,))
            if lead in row:
                raise RuntimeError(f"elimination left column {lead} in the row")
    return pivots


def reduced_echelon(rows: Iterable[dict], F: Rationals | PrimeField,
                    pivots: dict[int, dict] | None = None) -> dict[int, dict]:
    """Fully reduced row echelon form of rows in the field's form.

    Returned as {pivot column: its row}, each row in the field's own form: a
    primitive integer vector over the rationals, monic residues mod p.  Tails
    are supported only on non-pivot columns, so a single substitution pass
    reduces any vector to normal form.  Given `pivots`, a forward echelon of
    other rows (`_echelon`), the forward pass continues from it in place, and
    the result is the fully reduced echelon of both spans together.
    """
    pivots = _echelon(rows, F, pivots)
    # Back-substitute, highest pivot first, so every tail is supported on
    # non-pivot columns only; a pivot row already reduced brings in none.
    for lead in sorted(pivots, reverse=True):
        pivots[lead] = substitute(pivots[lead], lead, pivots, F)
    return pivots


def substitute(row: dict, lead, pivots: dict[int, dict], F: Rationals | PrimeField) -> dict:
    """`row` with each column but `lead` that leads a row of `pivots` eliminated, in one pass.

    The columns are read off `row` as it comes in; a row that has none is
    returned as it is, and any other is copied once and cleared of all of
    them by one `F.eliminate` call, so `row` itself never changes.  One pass
    suffices when the tails of the pivot rows it uses avoid the leads of
    `pivots`, since then clearing a column changes no other column the pass
    clears: every row of a fully reduced echelon does, and in
    `reduced_echelon`'s back-substitution, highest pivot first, every row a
    pass uses has been reduced already.
    """
    cols = [j for j in row if j != lead and j in pivots]
    if cols:
        row = dict(row)
        F.eliminate(row, pivots, cols)
    return row
