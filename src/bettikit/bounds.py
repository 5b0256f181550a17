"""Verdicts on betti tables against the first-strand upper bounds.

Geometric hypotheses (the vanishing-on-sections property behind the main
bound, linearly general position behind the next-to-maximal bound, and the
codimension itself) cannot be certified from a table; they enter as caller
assertions and are echoed in the report.  A Violation verdict with an
asserted hypothesis therefore means the assertion is false for the data, not
that the check malfunctioned: the projected Veronese surface is exactly such
a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .decompose import NotInConeError, bs_decompose, multiplicity_from_decomposition
from .pure import kappa_max, kappa_next_max
from .tables import BettiTable

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
    degree_predicted: Fraction | None
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

    Requires a well-formed column 0: a single entry 1 at (0, 0).
    """
    if table.entry(0, 0) != 1 or any(p == 0 and q != 0 for p, q in table.entries):
        raise ValueError("malformed column 0: expected exactly one entry, 1 at (0, 0)")
    rows = [q for p, q in table.entries if p == 1]
    return min(rows) if rows else None


def _verdict(per_p: tuple[ColumnComparison, ...], attain_range: range) -> tuple[str, int | None]:
    for c in per_p:
        if c.observed > c.bound:
            return VERDICT_VIOLATION, c.p
    attained = [c.p for c in per_p if c.p in attain_range and c.attains_max]
    if len(attained) == len(attain_range):
        return VERDICT_ALL_MAX, None
    if not attained:
        return VERDICT_NONE_MAX, None
    return VERDICT_MIXED, attained[0]


def check_first_strand(table: BettiTable, assumptions: Assumptions, q: int) -> StrandReport:
    """Compare row q against the bound C(p+q-1, q) * C(e+q, p+q).

    Columns beyond the codimension must vanish; when every column attains the
    bound, the predicted degree C(e+q, q) and the pure-resolution shape test
    are reported as well.  Violations are verdicts, never exceptions.
    """
    e = assumptions.codim_e
    if q < 1:
        raise ValueError(f"strand index must be >= 1, got {q}")
    width = max(e, table.projective_dimension())
    per_p = tuple(
        ColumnComparison(
            p=p,
            observed=table.entry(p, q),
            bound=kappa_max(p, q, e),
            attains_max=(1 <= p <= e and table.entry(p, q) == kappa_max(p, q, e)),
        )
        for p in range(1, width + 1))
    verdict, verdict_p = _verdict(per_p, range(1, e + 1))
    notes = []
    degree_predicted = None
    shape_ok = None
    if verdict == VERDICT_ALL_MAX:
        degree_predicted = Fraction(comb(e + q, q))
        shape_ok = all(cell == (0, 0) or (1 <= cell[0] <= e and cell[1] == q)
                       for cell in table.entries)
        if not shape_ok:
            notes.append("entries outside rows 0 and q prevent the pure resolution shape")
    if verdict == VERDICT_VIOLATION and assumptions.nd_q:
        notes.append("bound exceeded although the vanishing hypothesis was asserted; "
                     "the assertion is false for this table")
    if verdict == VERDICT_MIXED and assumptions.nd_q:
        notes.append("some but not all columns attain the maximum, which cannot "
                     "happen under the asserted hypothesis")
    if table.projective_dimension() != e:
        notes.append(f"table width {table.projective_dimension()} differs from asserted "
                     f"codimension {e} (width is the unverified suggestion for ACM input)")
    return StrandReport(q_strand=q, per_p=per_p, verdict=verdict, verdict_p=verdict_p,
                        degree_predicted=degree_predicted, shape_ok=shape_ok,
                        notes=tuple(notes))


def check_Ndm(table: BettiTable, d: int, m: int) -> bool:
    """True iff the table has no entry at (p, q) with 0 <= p <= m and q >= d."""
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    return not any(p <= m and q >= d for p, q in table.entries)


def degree_bounds(e: int, q: int) -> int:
    """The degree bound C(e+q, q).  It is a lower bound when the caller asserts
    the vanishing hypothesis and an upper bound under the N_{q+1,e} vanishing
    pattern."""
    if e < 1 or q < 1:
        raise ValueError(f"need e >= 1 and q >= 1, got e={e}, q={q}")
    return comb(e + q, q)


def check_next_to_max(table: BettiTable, assumptions: Assumptions) -> StrandReport:
    """Compare row 1 against the next-to-maximal bound p*C(e+1, p+1) - C(e, p-1).

    Applies to tables whose first nontrivial strand is q = 1, with asserted
    codimension e >= 2; columns from e on must vanish in row 1.  When every
    column attains the bound, the almost-minimal degree e + 2 and the shape
    with a single extra generator at (e, 2) are reported.
    """
    e = assumptions.codim_e
    if e < 2:
        raise ValueError(f"next-to-maximal bound needs codimension >= 2, got {e}")
    strand = first_nontrivial_strand(table)
    if strand != 1:
        raise ValueError(f"first nontrivial strand is {strand}, the bound needs q = 1")
    width = max(e, table.projective_dimension())
    per_p = tuple(
        ColumnComparison(
            p=p,
            observed=table.entry(p, 1),
            bound=kappa_next_max(p, e),
            attains_max=(1 <= p <= e - 1 and table.entry(p, 1) == kappa_next_max(p, e)),
        )
        for p in range(1, width + 1))
    verdict, verdict_p = _verdict(per_p, range(1, e))
    notes = []
    degree_predicted = None
    shape_ok = None
    if verdict == VERDICT_ALL_MAX:
        degree_predicted = Fraction(e + 2)
        shape_ok = (table.entry(e, 2) == 1
                    and all(cell == (0, 0) or cell == (e, 2)
                            or (1 <= cell[0] <= e - 1 and cell[1] == 1)
                            for cell in table.entries))
        if not shape_ok:
            notes.append("shape with a single extra generator at (e, 2) does not hold")
    if not assumptions.lgp:
        notes.append("linearly-general-position was not asserted; "
                     "the bound need not apply to this table")
    observed_degree = _degree_from_table(table, e)
    if observed_degree is not None:
        if observed_degree < e + 2:
            notes.append(f"decomposition gives degree {observed_degree} < {e + 2}, "
                         "so the almost-minimal-degree hypothesis fails")
    if verdict == VERDICT_VIOLATION and assumptions.lgp and (
            observed_degree is None or observed_degree >= e + 2):
        notes.append("bound exceeded although linearly-general-position was asserted; "
                     "the assertion is false for this table")
    return StrandReport(q_strand=1, per_p=per_p, verdict=verdict, verdict_p=verdict_p,
                        degree_predicted=degree_predicted, shape_ok=shape_ok,
                        notes=tuple(notes))


def _degree_from_table(table: BettiTable, e: int) -> Fraction | None:
    """Multiplicity of the length-e part of the decomposition, if it exists."""
    try:
        decomposition = bs_decompose(table)
    except NotInConeError:
        return None
    return multiplicity_from_decomposition(decomposition, e)
