"""Greedy decomposition of a betti table into pure diagrams.

Every table in the cone spanned by pure diagrams is a unique positive
rational combination of diagrams along a chain of degree sequences.  The
peeling loop below recovers it exactly: read off the top strand (the minimal
degree sequence d with d_p = p + min row of column p), subtract the largest
multiple of pi(d) that keeps all cells nonnegative, and repeat.  pi(d) lives
on exactly the strand cells and the multiple is the minimum over them of
table / diagram, so each pass zeroes at least one cell and creates none: a
table with n nonzero cells is peeled in at most n passes.  The loop ends by
construction, not only by this argument: a pass whose least ratio is not
positive, or that zeroes no cell, raises RuntimeError naming the pass, an
internal error the mathematics rules out, so a faulty ratio or update fails
at once instead of peeling for ever.

A pass touches only the strand.  Each column keeps its rows sorted least
last, so the strand is read off the column ends and a cell that reaches zero
is popped; each cell is its own reduced integer fraction, and only the strand
cells are updated.  A pass on a strand of length l thus costs O(l) integer
operations whatever the size of the table, besides building pi(d), which is
O(l^2) and done once per term (`DegreeSequence.integer_diagram`).

A table outside the cone raises NotInConeError while its top strand is read,
naming the first empty column before the last one or the first position where
the strand fails to increase strictly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .pure import multiplicity
from .tables import BettiTable, Cell, DegreeSequence


class NotInConeError(ValueError):
    """The table is not a positive rational combination of pure diagrams."""


@dataclass(frozen=True)
class Decomposition:
    """Ordered terms (coefficient, degree sequence), in peeling order."""

    terms: tuple[tuple[Fraction, DegreeSequence], ...]

    def __post_init__(self):
        seen = set()
        for coefficient, d in self.terms:
            if coefficient <= 0:
                raise ValueError(f"coefficient {coefficient} for {d} is not positive")
            if d.degrees in seen:
                raise ValueError(f"duplicate degree sequence {d}")
            seen.add(d.degrees)

    def sorted_terms(self) -> list[tuple[Fraction, DegreeSequence]]:
        """Display order: by length, then lexicographically by degrees."""
        return sorted(self.terms, key=lambda term: (term[1].length, term[1].degrees))

    def reconstruct(self) -> BettiTable:
        """Sum of c * pi(d) over the terms, in integers over one common denominator."""
        parts = [(c, *d.integer_diagram) for c, d in self.terms]
        common = lcm(*(c.denominator * den for c, _, den in parts))
        total: dict[Cell, int] = {}
        for c, cells, den in parts:
            factor = c.numerator * (common // (c.denominator * den))
            for cell, n in cells.items():
                total[cell] = total.get(cell, 0) + factor * n
        return BettiTable({cell: Fraction(v, common) for cell, v in total.items()})


def _strand_degrees(columns: list[list[tuple[int, int, int]]]) -> tuple[int, ...]:
    """d_p = p + the least row of column p, for every column up to the last one.

    `columns[p]` holds the cells of column p as (row, num, den), least row last.
    NotInConeError when a column before the last is empty or d fails to increase.
    """
    if not all(columns):
        raise NotInConeError(f"table is outside the cone: column {columns.index([])} has no "
                             "entries but the table extends past it")
    degrees = tuple(p + column[-1][0] for p, column in enumerate(columns))
    for p in range(1, len(degrees)):
        if degrees[p] <= degrees[p - 1]:
            raise NotInConeError("table is outside the cone: top strand is not strictly "
                                 f"increasing at position {p}")
    return degrees


def bs_decompose(table: BettiTable) -> Decomposition:
    """Peel a table into its positive combination of pure diagrams.

    `columns[p]` holds the remaining cells of column p as (row, num, den), the
    entry num / den a reduced fraction, sorted once with the least row last, so
    the strand cell of column p is `columns[p][-1]`.  A pass finds a / b, the
    least entry / n over the strand cells of pi(d) = n / n_0, by
    cross-multiplication; c = a * n_0 / b, and each strand cell becomes
    entry - a * n / b, reduced by its own gcd, or is popped at 0.  A pass thus
    costs O(l) on a strand of length l, plus pi(d) once per term; the sort costs
    O(n log n) on n cells.  NotInConeError when the table leaves the cone (a gap
    in a column or a non-increasing strand).  Each pass checks, once, that its
    least ratio is positive and that it popped a cell, and raises RuntimeError
    naming the pass otherwise, so there are at most as many passes as cells.
    """
    if table.is_zero():
        raise ValueError("cannot decompose an empty table")
    columns: list[list[tuple[int, int, int]]] = [
        [] for _ in range(table.projective_dimension() + 1)]
    for (p, q), v in sorted(table.entries.items(), reverse=True):
        columns[p].append((q, v.numerator, v.denominator))
    terms: list[tuple[Fraction, DegreeSequence]] = []
    while columns:
        d = DegreeSequence(_strand_degrees(columns))
        diagram, n0 = d.integer_diagram
        a, b = 1, 0  # the ratio 1/0 exceeds every cell's
        for column, n in zip(columns, diagram.values()):
            _, num, den = column[-1]
            if num * b < a * n * den:
                a, b = num, n * den
        if a <= 0:
            raise RuntimeError(f"peel pass {len(terms) + 1}: the least ratio {a}/{b} is not positive")
        g = gcd(a, b)
        a, b = a // g, b // g
        terms.append((Fraction(a * n0, b), d))
        popped = False
        for column, n in zip(columns, diagram.values()):
            q, num, den = column[-1]
            num = num * b - a * n * den
            if num:
                den *= b
                g = gcd(num, den)
                column[-1] = (q, num // g, den // g)
            else:
                column.pop()
                popped = True
        if not popped:
            raise RuntimeError(f"peel pass {len(terms)} zeroed no cell")
        # each turn pops one column, so it turns len(columns) times at most
        while columns and not columns[-1]:
            columns.pop()
    return Decomposition(tuple(terms))


def multiplicity_from_decomposition(decomposition: Decomposition, codim_length: int) -> Fraction:
    """Sum of x_i * e(d^i) over the terms whose sequence has the minimal length.

    `codim_length` is that minimal permitted length (the codimension for a
    coordinate ring); terms of other lengths do not contribute.
    """
    if codim_length < 0:
        raise ValueError(f"codim length must be nonnegative, got {codim_length}")
    total = Fraction(0)
    for coefficient, d in decomposition.terms:
        if d.length == codim_length:
            total += coefficient * multiplicity(d)
    return total

