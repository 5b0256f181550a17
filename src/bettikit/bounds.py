"""Verdicts on betti tables against the first-strand upper bounds.

Each check reads its bound off one extremal pure diagram pi(d): d is
`family_deq(e, q)` = (0, q+1, ..., q+e) for the Han-Kwak bound on row q, and
`family_tilde(e, 1)` = (0, 2, ..., e, e+2) for the Ahn-Han-Kwak
next-to-maximal bound on row 1.  Column p's bound is pi(d)'s entry at (p, q),
0 where it has none; pi(d)'s cells in row q are the columns that must attain
it; the predicted degree is e(d); and the pure resolution shape holds when
the table equals pi(d) away from (0, 0).  `bettikit selftest` checks the
closed forms `kappa_max` and `kappa_next_max` in `pure` against these diagrams.

Geometric hypotheses (the vanishing-on-sections property behind the main
bound, linearly general position behind the next-to-maximal bound, and the
codimension itself) cannot be certified from a table; they enter as caller
assertions and are echoed in the report.  A Violation verdict with an
asserted hypothesis therefore means the assertion is false for the data, not
that the check malfunctioned: the projected Veronese surface is exactly such
a table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .decompose import NotInConeError, bs_decompose, multiplicity_from_decomposition
from .pure import family_deq, family_tilde, hk_diagram, multiplicity
from .tables import BettiTable, DegreeSequence

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

    Requires a well-formed column 0, a single entry 1 at (0, 0), and no entry
    at (1, 0).  Such an entry is a linear generator, a strand q = 0 that no
    bound covers, so the table is rejected rather than checked.
    """
    if table.entry(0, 0) != 1 or any(p == 0 and q != 0 for p, q in table.entries):
        raise ValueError("malformed column 0: expected exactly one entry, 1 at (0, 0)")
    if table.entry(1, 0):
        raise ValueError("entry at cell (p=1, q=0): the ideal has a linear generator, "
                         "and the strand bounds start at q = 1")
    rows = [q for p, q in table.entries if p == 1]
    return min(rows) if rows else None


def _against_diagram(table: BettiTable, q: int, d: DegreeSequence) -> StrandReport:
    """Row q of the table against pi(d), read as the module docstring says; no notes."""
    diagram = {cell: v for cell, v in hk_diagram(d).entries.items() if cell != (0, 0)}
    per_p = []
    for p in range(1, max(d.length, table.projective_dimension()) + 1):
        observed, bound = table.entry(p, q), diagram.get((p, q))
        per_p.append(ColumnComparison(p=p, observed=observed, bound=int(bound or 0),
                                      attains_max=observed == bound))
    exceeded = [c.p for c in per_p if c.observed > c.bound]
    attained = [c.p for c in per_p if c.attains_max]
    verdict_p = degree_predicted = shape_ok = None
    if exceeded:
        verdict, verdict_p = VERDICT_VIOLATION, exceeded[0]
    elif len(attained) == sum(row == q for _, row in diagram):
        verdict = VERDICT_ALL_MAX
        degree_predicted = multiplicity(d)
        shape_ok = {cell: v for cell, v in table.entries.items() if cell != (0, 0)} == diagram
    elif attained:
        verdict, verdict_p = VERDICT_MIXED, attained[0]
    else:
        verdict = VERDICT_NONE_MAX
    return StrandReport(q_strand=q, per_p=tuple(per_p), verdict=verdict, verdict_p=verdict_p,
                        degree_predicted=degree_predicted, shape_ok=shape_ok, notes=())


def check_first_strand(table: BettiTable, assumptions: Assumptions, q: int) -> StrandReport:
    """Compare row q against pi(family_deq(e, q)): the bound C(p+q-1, q) * C(e+q, p+q).

    Columns beyond the codimension must vanish; when every column attains the
    bound, the predicted degree C(e+q, q) and the pure-resolution shape test
    are reported as well.  Violations are verdicts, never exceptions.
    """
    e = assumptions.codim_e
    if q < 1:
        raise ValueError(f"strand index must be >= 1, got {q}")
    report = _against_diagram(table, q, family_deq(e, q))
    notes = []
    if report.shape_ok is False:
        notes.append("entries outside rows 0 and q prevent the pure resolution shape")
    if report.verdict == VERDICT_VIOLATION and assumptions.nd_q:
        notes.append("bound exceeded although the vanishing hypothesis was asserted; "
                     "the assertion is false for this table")
    if report.verdict == VERDICT_MIXED and assumptions.nd_q:
        notes.append("some but not all columns attain the maximum, which cannot "
                     "happen under the asserted hypothesis")
    if table.projective_dimension() != e:
        notes.append(f"table width {table.projective_dimension()} differs from asserted "
                     f"codimension {e} (width is the unverified suggestion for ACM input)")
    return replace(report, notes=tuple(notes))


def check_Ndm(table: BettiTable, d: int, m: int) -> bool:
    """True iff the table has no entry at (p, q) with 0 <= p <= m and q >= d."""
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    return not any(p <= m and q >= d for p, q in table.entries)


def degree_bounds(e: int, q: int) -> int:
    """The degree bound C(e+q, q).  It is a lower bound when the caller asserts
    the vanishing hypothesis and an upper bound under the N_{q+1,e} vanishing
    pattern."""
    return int(multiplicity(family_deq(e, q)))


def check_next_to_max(table: BettiTable, assumptions: Assumptions) -> StrandReport:
    """Compare row 1 against pi(family_tilde(e, 1)): the bound p*C(e+1, p+1) - C(e, p-1).

    Applies to tables whose first nontrivial strand is q = 1, with asserted
    codimension e >= 2; columns from e on must vanish in row 1.  When every
    column attains the bound, the almost-minimal degree e + 2 and the shape
    with a single extra generator at (e, 2) are reported.
    """
    e = assumptions.codim_e
    if e < 2:
        raise ValueError(f"next-to-maximal bound needs codimension >= 2, got {e}")
    strand = first_nontrivial_strand(table)
    if strand is None:
        raise ValueError("the table has no nontrivial strand, the bound needs q = 1")
    if strand != 1:
        raise ValueError(f"first nontrivial strand is {strand}, the bound needs q = 1")
    d = family_tilde(e, 1)
    report = _against_diagram(table, 1, d)
    notes = []
    if report.shape_ok is False:
        notes.append("shape with a single extra generator at (e, 2) does not hold")
    if not assumptions.lgp:
        notes.append("linearly-general-position was not asserted; "
                     "the bound need not apply to this table")
    almost_minimal = multiplicity(d)
    observed_degree = _degree_from_table(table, e)
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
