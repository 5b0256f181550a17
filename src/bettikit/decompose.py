"""Greedy decomposition of a betti table into pure diagrams.

Every table in the cone spanned by pure diagrams is a unique positive
rational combination of diagrams along a chain of degree sequences.  The
peeling loop below recovers it: read off the top strand (the minimal degree
sequence d with d_p = p + min row of column p), subtract the largest multiple
of pi(d) that keeps all cells nonnegative, repeat.  pi(d) lives on exactly
the strand cells, and the subtracted multiple is the minimum over those cells
of table / diagram, so each pass zeroes at least one cell and creates none:
a table with n nonzero cells is peeled in at most n passes.

Tables outside the cone surface as NotInConeError, in one of two ways while
reading the top strand: a column gap or a non-increasing strand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .pure import multiplicity, pure_cells
from .tables import BettiTable, Cell, DegreeSequence


class NoColumnError(ValueError):
    """Column p is empty although a later column is not."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"column {p} has no entries but the table extends past it")


class StrandNotIncreasingError(ValueError):
    """The top strand fails to increase strictly at position p."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"top strand is not strictly increasing at position {p}")


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

    def __iter__(self):
        return iter(self.terms)

    def sorted_terms(self) -> list[tuple[Fraction, DegreeSequence]]:
        """Display order: by length, then lexicographically by degrees."""
        return sorted(self.terms, key=lambda term: (term[1].length, term[1].degrees))

    def reconstruct(self) -> BettiTable:
        total: dict[Cell, Fraction] = {}
        for coefficient, d in self.terms:
            for cell, value in pure_cells(d.degrees).items():
                total[cell] = total.get(cell, 0) + coefficient * value
        return BettiTable(total)


def _strand_degrees(cells: Iterable[Cell]) -> tuple[int, ...]:
    """d_p = p + min{q : (p, q) in cells} for every column up to the last one."""
    min_row: dict[int, int] = {}
    for p, q in cells:
        row = min_row.get(p)
        if row is None or q < row:
            min_row[p] = q
    degrees = []
    for p in range(max(min_row) + 1):
        if p not in min_row:
            raise NoColumnError(p)
        degrees.append(p + min_row[p])
    for p in range(1, len(degrees)):
        if degrees[p] <= degrees[p - 1]:
            raise StrandNotIncreasingError(p)
    return tuple(degrees)


def top_strand(table: BettiTable) -> DegreeSequence:
    """Minimal degree sequence of a table: d_p = p + min{q : (p, q) nonzero}."""
    if table.is_zero():
        raise ValueError("top strand of an empty table is undefined")
    return DegreeSequence(_strand_degrees(table.entries))


def bs_decompose(table: BettiTable) -> Decomposition:
    """Peel a table into its positive combination of pure diagrams.

    Each pass subtracts c * pi(d) from a dict of the remaining cells, on the
    l+1 strand cells only, with c the minimal ratio cell / pi(d)[cell]: no
    cell goes negative, the argmin cell reaches zero and is deleted, and none
    is created, so there are at most nnz(table) passes.  Raises NotInConeError
    when the table leaves the cone (a gap in a column or a non-increasing strand).
    """
    if table.is_zero():
        raise ValueError("cannot decompose an empty table")
    work = dict(table.entries)
    terms: list[tuple[Fraction, DegreeSequence]] = []
    while work:
        try:
            degrees = _strand_degrees(work)
        except (NoColumnError, StrandNotIncreasingError) as exc:
            raise NotInConeError(f"table is outside the cone: {exc}") from exc
        diagram = pure_cells(degrees)
        coefficient = min(work[cell] / value for cell, value in diagram.items())
        for cell, value in diagram.items():
            rest = work[cell] - coefficient * value
            if rest:
                work[cell] = rest
            else:
                del work[cell]
        terms.append((coefficient, DegreeSequence(degrees)))
    return Decomposition(tuple(terms))


def multiplicity_from_decomposition(decomposition: Decomposition, codim_length: int) -> Fraction:
    """Sum of x_i * e(d^i) over the terms whose sequence has the minimal length.

    `codim_length` is that minimal permitted length (the codimension for a
    coordinate ring); terms of other lengths do not contribute.
    """
    if codim_length < 0:
        raise ValueError(f"codim length must be nonnegative, got {codim_length}")
    total = Fraction(0)
    for coefficient, d in decomposition:
        if d.length == codim_length:
            total += coefficient * multiplicity(d)
    return total

