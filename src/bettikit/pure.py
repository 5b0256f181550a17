"""Pure diagrams from degree sequences.

A strictly increasing degree sequence d = (d_0, ..., d_l) determines, up to
scale, the betti numbers of a pure resolution.  The normalized diagram pi(d)
puts 1 in column 0 (at row d_0) and

    kappa_p = prod over k >= 1, k != p of (d_k - d_0) / |d_k - d_p|

in column p at row d_p - p.  Its multiplicity is

    e(d) = (1 / l!) * prod over k >= 1 of (d_k - d_0).

`hk_diagram` returns pi(d) as a BettiTable of Fractions, which the bound
checks read, and `multiplicity` returns e(d).  The peel and
`Decomposition.reconstruct` read pi(d) as integers over one denominator from
`_integer_diagram`, the integers `hk_diagram` divides into Fractions.  Also
here: the extremal families behind the first-strand bounds and the
closed-form bound values they realize.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod

from .tables import BettiTable, Cell, DegreeSequence


def multiplicity(d: DegreeSequence) -> Fraction:
    """e(d) = (1/l!) * prod(d_k - d_0) over k >= 1."""
    return Fraction(prod(dk - d[0] for dk in d.degrees[1:]), factorial(d.length))


def _integer_diagram(degrees: tuple[int, ...]) -> tuple[dict[Cell, int], int]:
    """pi(d) as coprime integers {(p, d_p - p): n_p} over den = n_0, for d strictly increasing.

    n_p = L / D_p for D_p the product of |d_k - d_p| over k != p, L their lcm.  Unchecked.
    """
    spans = []
    for dp in degrees:
        span = 1
        for dk in degrees:
            span *= dk - dp or 1  # the factor k = p is left out
        spans.append(abs(span))
    top = lcm(*spans)
    return {(p, dp - p): top // spans[p] for p, dp in enumerate(degrees)}, top // spans[0]


def hk_diagram(d: DegreeSequence) -> BettiTable:
    """The normalized pure diagram pi(d): 1 at (0, d_0), kappa_p at (p, d_p - p).

    ValueError when d_0 < 0 would put column 0 in a negative row.
    """
    if d[0] < 0:
        raise ValueError(
            f"degree sequence {d} would place column 0 in negative row {d[0]}")
    cells, den = _integer_diagram(d.degrees)
    return BettiTable({cell: Fraction(n, den) for cell, n in cells.items()})


def family_deq(e: int, q: int) -> DegreeSequence:
    """The length-e sequence (0, q+1, q+2, ..., q+e) saturating the first-strand bounds."""
    if e < 1 or q < 1:
        raise ValueError(f"need e >= 1 and q >= 1, got e={e}, q={q}")
    return DegreeSequence((0,) + tuple(range(q + 1, q + e + 1)))


def family_tilde(e: int, q: int) -> DegreeSequence:
    """The length-e sequence (0, q+1, ..., q+e-1, 2q+e) behind the next-to-maximal bound."""
    if e < 2:
        raise ValueError(f"need e >= 2 for a split tail, got e={e}")
    if q < 1:
        raise ValueError(f"need q >= 1, got q={q}")
    return DegreeSequence((0,) + tuple(range(q + 1, q + e)) + (2 * q + e,))


def kappa_max(p: int, q: int, e: int) -> int:
    """Upper bound C(p+q-1, q) * C(e+q, p+q) for a first-strand entry at (p, q).

    Vanishes for p > e (the bound's vanishing range) and for p = 0 when q >= 1.
    """
    if e < 1 or q < 1 or p < 0:
        raise ValueError(f"need e >= 1, q >= 1, p >= 0, got p={p}, q={q}, e={e}")
    return comb(p + q - 1, q) * comb(e + q, p + q)


def kappa_next_max(p: int, e: int) -> int:
    """Next-to-maximal bound p * C(e+1, p+1) - C(e, p-1) for row 1; zero for p >= e."""
    if e < 2 or p < 1:
        raise ValueError(f"need e >= 2 and p >= 1, got p={p}, e={e}")
    if p >= e:
        return 0
    return p * comb(e + 1, p + 1) - comb(e, p - 1)
