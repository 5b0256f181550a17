"""Greedy decomposition of a betti table into pure diagrams.

Every table in the cone spanned by pure diagrams is a unique positive
rational combination of diagrams along a chain of degree sequences.  The
peeling loop below recovers it in integers: clear the table once, read off the
top strand (the minimal degree sequence d with d_p = p + min row of column p),
subtract the largest multiple of pi(d), as integers over one denominator,
that keeps all cells nonnegative, and repeat; a pass builds one Fraction, its
coefficient.  pi(d) lives on exactly the strand cells and the multiple is the
minimum over them of table / diagram, so each pass zeroes at least one cell
and creates none: a table with n nonzero cells is peeled in at most n passes.

A table outside the cone raises NotInConeError while its top strand is read,
naming the first empty column before the last one or the first position where
the strand fails to increase strictly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .pure import _integer_diagram, multiplicity
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
        parts = [(c, *_integer_diagram(d.degrees)) for c, d in self.terms]
        common = lcm(*(c.denominator * den for c, _, den in parts))
        total: dict[Cell, int] = {}
        for c, cells, den in parts:
            factor = c.numerator * (common // (c.denominator * den))
            for cell, n in cells.items():
                total[cell] = total.get(cell, 0) + factor * n
        return BettiTable({cell: Fraction(v, common) for cell, v in total.items()})


def _strand_degrees(cells: Iterable[Cell]) -> tuple[int, ...]:
    """d_p = p + min{q : (p, q) in cells} for every column up to the last one.

    NotInConeError when a column before the last is empty or d fails to increase.
    """
    min_row: dict[int, int] = {}
    for p, q in cells:
        row = min_row.get(p)
        if row is None or q < row:
            min_row[p] = q
    degrees = []
    for p in range(max(min_row) + 1):
        if p not in min_row:
            raise NotInConeError(f"table is outside the cone: column {p} has no entries "
                                 "but the table extends past it")
        degrees.append(p + min_row[p])
    for p in range(1, len(degrees)):
        if degrees[p] <= degrees[p - 1]:
            raise NotInConeError("table is outside the cone: top strand is not strictly "
                                 f"increasing at position {p}")
    return tuple(degrees)


def bs_decompose(table: BettiTable) -> Decomposition:
    """Peel a table into its positive combination of pure diagrams.

    `work` holds the remaining cells as integers over `scale`.  A pass finds
    a / b, the least work / n over the strand cells of pi(d) = n / den, by
    cross-multiplication; work becomes b * work - a * n over scale * b, both
    divided by their content; c = a * den / (scale * b).  NotInConeError when
    the table leaves the cone (a gap in a column or a non-increasing strand).
    """
    if table.is_zero():
        raise ValueError("cannot decompose an empty table")
    scale = lcm(*(v.denominator for v in table.entries.values()))
    work = {cell: v.numerator * (scale // v.denominator) for cell, v in table.entries.items()}
    terms: list[tuple[Fraction, DegreeSequence]] = []
    while work:
        degrees = _strand_degrees(work)
        diagram, den = _integer_diagram(degrees)
        a, b = 1, 0  # the ratio 1/0 exceeds every cell's
        for cell, n in diagram.items():
            if work[cell] * b < a * n:
                a, b = work[cell], n
        g = gcd(a, b)
        a, b = a // g, b // g
        terms.append((Fraction(a * den, scale * b), DegreeSequence(degrees)))
        if b != 1:
            work = {cell: b * w for cell, w in work.items()}
            scale *= b
        for cell, n in diagram.items():
            work[cell] -= a * n
        content = gcd(scale, *work.values())
        scale //= content
        work = {cell: w // content for cell, w in work.items() if w}
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

