"""Verdicts on betti tables against the first-strand upper bounds.

Each check reads its bound off one extremal pure diagram pi(d): d is
`family_deq(e, q)` = (0, q+1, ..., q+e) for the Han-Kwak bound on row q, and
`family_tilde(e, 1)` = (0, 2, ..., e, e+2) for the Ahn-Han-Kwak
next-to-maximal bound on row 1.  Column p's bound is pi(d)'s entry at (p, q),
0 where it has none; pi(d)'s cells in row q are the columns that must attain
it; the predicted degree is e(d); and the pure resolution shape holds when
the table equals pi(d) away from (0, 0).  Neither d is built: both have
length e, and the cells and degrees are read from closed forms, which
`bettikit selftest` proves equal to these diagrams (`sweep_deq_closed_forms`,
`sweep_tilde_closed_forms`): `kappa_max(p, q, e)` in row q of
pi(family_deq(e, q)), of degree C(e+q, q), and `kappa_next_max(p, e)` in
row 1 of pi(family_tilde(e, 1)), plus 1 at (e, 2), of degree e + 2.  Each
cell is a product of binomials, so a check costs about e binomials, where
multiplying out pi(d) costs about e^2 products of e-digit integers.

Geometric hypotheses (the vanishing-on-sections property behind the main
bound, linearly general position behind the next-to-maximal bound, and the
codimension itself) cannot be certified from a table; they enter as caller
assertions and are echoed in the report.  A Violation verdict with an
asserted hypothesis therefore means the assertion is false for the data, not
that the check malfunctioned: the projected Veronese surface is exactly such
a table.

`check_strand` is the one path from a table to its report, taken by `bettikit
check` and the fixture runner: it reads the first nontrivial strand and picks
the check.  Both checks refuse, after their own validation and before any
bound is built, a codimension whose largest bound has more digits than
Python will print (`_reject_unprintable`), so no call computes bounds for
ever.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .decompose import NotInConeError, bs_decompose, multiplicity_from_decomposition
from .pure import kappa_max, kappa_next_max
from .tables import BettiTable, Cell

VERDICT_ALL_MAX = "AllMax"
VERDICT_NONE_MAX = "NoneMax"
VERDICT_VIOLATION = "Violation"
VERDICT_MIXED = "MixedMaxInconsistent"


@dataclass(frozen=True)
class Assumptions:
    """Caller-asserted geometric hypotheses: unverifiable here, only echoed."""

    codim_e: int
    nd_q: bool = False
    lgp: bool = False

    def __post_init__(self):
        if self.codim_e < 1:
            raise ValueError(f"codimension must be >= 1, got {self.codim_e}")


@dataclass(frozen=True)
class ColumnComparison:
    p: int
    observed: Fraction
    bound: int
    attains_max: bool


@dataclass(frozen=True)
class StrandReport:
    q_strand: int
    per_p: tuple[ColumnComparison, ...]
    verdict: str
    verdict_p: int | None
    degree_predicted: int | None
    shape_ok: bool | None
    notes: tuple[str, ...]

    def has_violation(self) -> bool:
        return self.verdict == VERDICT_VIOLATION

    def to_json_dict(self) -> dict:
        return {
            "q_strand": self.q_strand,
            "per_p": [
                {"p": c.p, "observed": str(c.observed), "bound": c.bound,
                 "attains_max": c.attains_max}
                for c in self.per_p
            ],
            "verdict": self.verdict,
            "verdict_p": self.verdict_p,
            "degree_predicted": (None if self.degree_predicted is None
                                 else str(self.degree_predicted)),
            "shape_ok": self.shape_ok,
            "notes": list(self.notes),
        }


def first_nontrivial_strand(table: BettiTable) -> int | None:
    """Smallest q >= 1 with an entry at (1, q); None when column 1 is empty.

    Requires a well-formed column 0, a single entry 1 at (0, 0), and no entry
    at (1, 0).  Such an entry is a linear generator, a strand q = 0 that no
    bound covers, so the table is rejected rather than checked.
    """
    if table.entry(0, 0) != 1 or any(p == 0 and q != 0 for p, q in table.entries):
        raise ValueError("malformed column 0: expected exactly one entry, 1 at (0, 0)")
    if table.entry(1, 0):
        raise ValueError("entry at cell (p=1, q=0): the ideal has a linear generator, "
                         "and the strand bounds start at q = 1")
    return min((q for p, q in table.entries if p == 1), default=None)


def _against_diagram(table: BettiTable, q: int, diagram: dict[Cell, int], degree: int,
                     complete: bool) -> StrandReport:
    """Row q of the table against pi(d), read as the module docstring says; no notes.

    pi(d) is given by what the check reads of it: `diagram`, its cells but
    (0, 0), each an integer, and its degree e(d), both read off the family's
    closed forms; no `BettiTable` is built.  Its length e is its largest
    column, which both families reach: at (e, q) on row q, at (e, 2) for
    the next-to-maximal diagram.  A shape that holds is stated only for a
    `complete` table, and is None otherwise, since missing rows may hold
    entries; a failing shape stands.
    """
    per_p = []
    e = max(p for p, _ in diagram)
    for p in range(1, max(e, table.projective_dimension()) + 1):
        observed, bound = table.entry(p, q), diagram.get((p, q))
        per_p.append(ColumnComparison(p=p, observed=observed, bound=bound or 0,
                                      attains_max=observed == bound))
    exceeded = [c.p for c in per_p if c.observed > c.bound]
    attained = [c.p for c in per_p if c.attains_max]
    verdict_p = degree_predicted = shape_ok = None
    if exceeded:
        verdict, verdict_p = VERDICT_VIOLATION, exceeded[0]
    elif len(attained) == sum(row == q for _, row in diagram):
        verdict = VERDICT_ALL_MAX
        degree_predicted = degree
        shape_ok = ({cell: v for cell, v in table.entries.items() if cell != (0, 0)} == diagram
                    and (complete or None))
    elif attained:
        verdict, verdict_p = VERDICT_MIXED, attained[0]
    else:
        verdict = VERDICT_NONE_MAX
    return StrandReport(q_strand=q, per_p=tuple(per_p), verdict=verdict, verdict_p=verdict_p,
                        degree_predicted=degree_predicted, shape_ok=shape_ok, notes=())


def check_first_strand(table: BettiTable, assumptions: Assumptions, q: int,
                       complete: bool = True) -> StrandReport:
    """Compare row q against pi(family_deq(e, q)): the bound C(p+q-1, q) * C(e+q, p+q).

    Columns beyond the codimension must vanish; when every column attains the
    bound, the predicted degree C(e+q, q) and the pure-resolution shape test
    are reported as well.  Violations are verdicts, never exceptions.  A
    table width below e is noted, and a shape that holds is stated, only for
    a `complete` table, since missing rows can widen it or add entries.  An
    e whose bounds on row q cannot be printed is refused before any is built.
    """
    e = assumptions.codim_e
    if q < 1:
        raise ValueError(f"strand index must be >= 1, got {q}")
    _reject_unprintable(e, q, False)
    diagram = {(p, q): kappa_max(p, q, e) for p in range(1, e + 1)}
    report = _against_diagram(table, q, diagram, degree_bounds(e, q), complete)
    notes = []
    if report.shape_ok is False:
        notes.append("entries outside rows 0 and q prevent the pure resolution shape")
    if report.verdict == VERDICT_VIOLATION and assumptions.nd_q:
        notes.append("bound exceeded although the vanishing hypothesis was asserted; "
                     "the assertion is false for this table")
    if report.verdict == VERDICT_MIXED and assumptions.nd_q:
        notes.append("some but not all columns attain the maximum, which cannot "
                     "happen under the asserted hypothesis")
    width = table.projective_dimension()
    if width > e or complete and width != e:
        notes.append(f"table width {width} differs from asserted "
                     f"codimension {e} (width is the unverified suggestion for ACM input)")
    return replace(report, notes=tuple(notes))


def check_strand(table: BettiTable, assumptions: Assumptions, next_to_max: bool = False,
                 complete: bool = True) -> StrandReport | None:
    """The next-to-maximal report, or the first-strand report on the table's strand.

    The strand is read first, so a malformed column 0 or a linear generator
    is rejected before either check looks at the codimension.  None when
    column 1 is empty and the first-strand check is asked for: there is no
    row to check.  `check_next_to_max` rejects such a table itself.
    """
    strand = first_nontrivial_strand(table)
    if next_to_max:
        return check_next_to_max(table, assumptions, complete)
    return None if strand is None else check_first_strand(table, assumptions, strand, complete)


def _reject_unprintable(e: int, q: int, next_to_max: bool) -> None:
    """Raise a ValueError when the largest bound of the row checked must exceed the digit limit.

    Such a report cannot be printed, as text or as JSON, since Python refuses
    to convert an integer of more than L = sys.get_int_max_str_digits()
    digits (no limit when L is 0).  The test is sufficient, not necessary,
    and builds no big number.  C(N, N // 2) is the largest of the N + 1
    binomials C(N, k), which sum to 2^N, so it is at least 2^N / (N + 1) >=
    2^(N - b), for b the bit length of N + 1.  The row holds an entry of at
    least C(N, N // 2):
    - row q of the first strand, for e >= q + 2 and N = e + q: at
      p = N // 2 - q, which lies in 1..e, kappa_max(p, q, e) =
      C(p+q-1, q) * C(e+q, p+q) >= C(N, N // 2);
    - row 1 of the next-to-maximal bound, for e >= 4 and N = e: at
      p = e // 2, which lies in 2..e-1, C(e, p-1) <= C(e, p) and
      C(e+1, p+1) >= C(e, p), so kappa_next_max(p, e) >= (p - 1) * C(e, p)
      >= C(e, e // 2).
    When N - b >= B, the bit length of 10^L, that entry is at least
    2^B > 10^L, so it has more than L digits.  B exceeds 3L, so an N of at
    most 3L passes without building 10^L, as every check of a printable
    report does.
    """
    limit = sys.get_int_max_str_digits()
    n, smallest = (e, 4) if next_to_max else (e + q, q + 2)
    if (limit and e >= smallest and n > 3 * limit
            and n - (n + 1).bit_length() >= (10 ** limit).bit_length()):
        raise ValueError(f"codimension {e} is too large to report: the largest bound on row {q} "
                         f"has more than {limit} digits, Python's limit for printing an integer")


def check_Ndm(table: BettiTable, d: int, m: int) -> bool:
    """True iff the table has no entry at (p, q) with 0 <= p <= m and q >= d."""
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    return not any(p <= m and q >= d for p, q in table.entries)


def degree_bounds(e: int, q: int) -> int:
    """The degree bound C(e+q, q).  It is a lower bound when the caller asserts
    the vanishing hypothesis and an upper bound under the N_{q+1,e} vanishing
    pattern."""
    return comb(e + q, q)


def check_next_to_max(table: BettiTable, assumptions: Assumptions,
                      complete: bool = True) -> StrandReport:
    """Compare row 1 against pi(family_tilde(e, 1)): the bound p*C(e+1, p+1) - C(e, p-1).

    Applies to tables whose first nontrivial strand is q = 1, with asserted
    codimension e >= 2; columns from e on must vanish in row 1.  When every
    column attains the bound, the almost-minimal degree e + 2 and the shape
    with a single extra generator at (e, 2) are reported.  The degree of the
    decomposition is compared with e + 2, and a shape that holds is stated,
    only for a `complete` table, since missing rows change both.  An e whose
    bounds cannot be printed is refused once the strand is found to be 1.
    """
    e = assumptions.codim_e
    if e < 2:
        raise ValueError(f"next-to-maximal bound needs codimension >= 2, got {e}")
    strand = first_nontrivial_strand(table)
    if strand is None:
        raise ValueError("the table has no nontrivial strand, the bound needs q = 1")
    if strand != 1:
        raise ValueError(f"first nontrivial strand is {strand}, the bound needs q = 1")
    _reject_unprintable(e, 1, True)
    diagram = {(p, 1): kappa_next_max(p, e) for p in range(1, e)}
    diagram[e, 2] = 1
    report = _against_diagram(table, 1, diagram, e + 2, complete)
    notes = []
    if report.shape_ok is False:
        notes.append("shape with a single extra generator at (e, 2) does not hold")
    if not assumptions.lgp:
        notes.append("linearly-general-position was not asserted; "
                     "the bound need not apply to this table")
    almost_minimal = e + 2
    observed_degree = _degree_from_table(table, e) if complete else None
    if observed_degree is not None:
        if observed_degree < almost_minimal:
            notes.append(f"decomposition gives degree {observed_degree} < {almost_minimal}, "
                         "so the almost-minimal-degree hypothesis fails")
    if report.verdict == VERDICT_VIOLATION and assumptions.lgp and (
            observed_degree is None or observed_degree >= almost_minimal):
        notes.append("bound exceeded although linearly-general-position was asserted; "
                     "the assertion is false for this table")
    return replace(report, notes=tuple(notes))


def _degree_from_table(table: BettiTable, e: int) -> Fraction | None:
    """Multiplicity of the length-e part of the decomposition, if it exists."""
    try:
        decomposition = bs_decompose(table)
    except NotInConeError:
        return None
    return multiplicity_from_decomposition(decomposition, e)
