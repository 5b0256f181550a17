"""The strand checks against a hand-built, column-by-column reference.

`check_first_strand_closed_form` and `check_next_to_max_closed_form` write
out each column's bound and attained flag, the verdict, the predicted degree
and the shape test by hand, from `kappa_max`, `kappa_next_max`, `C(e+q, q)`
and `e + 2`; the shape test names each allowed cell instead of comparing
with a diagram.  `bounds.check_first_strand` and `bounds.check_next_to_max`
must match them report for report.
"""

import random
from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from bettikit.bounds import (Assumptions, ColumnComparison, StrandReport, check_first_strand,
                             check_next_to_max, first_nontrivial_strand)
from bettikit.decompose import NotInConeError, bs_decompose, multiplicity_from_decomposition
from bettikit.pure import family_deq, family_tilde, hk_diagram, kappa_max, kappa_next_max
from bettikit.selftest import random_chain_table
from bettikit.tables import BettiTable


def _verdict(per_p, attain_range):
    for c in per_p:
        if c.observed > c.bound:
            return "Violation", c.p
    attained = [c.p for c in per_p if c.p in attain_range and c.attains_max]
    if len(attained) == len(attain_range):
        return "AllMax", None
    if not attained:
        return "NoneMax", None
    return "MixedMaxInconsistent", attained[0]


def check_first_strand_closed_form(table, assumptions, q):
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
    if verdict == "AllMax":
        degree_predicted = Fraction(comb(e + q, q))
        shape_ok = all(cell == (0, 0) or (1 <= cell[0] <= e and cell[1] == q)
                       for cell in table.entries)
        if not shape_ok:
            notes.append("entries outside rows 0 and q prevent the pure resolution shape")
    if verdict == "Violation" and assumptions.nd_q:
        notes.append("bound exceeded although the vanishing hypothesis was asserted; "
                     "the assertion is false for this table")
    if verdict == "MixedMaxInconsistent" and assumptions.nd_q:
        notes.append("some but not all columns attain the maximum, which cannot "
                     "happen under the asserted hypothesis")
    if table.projective_dimension() != e:
        notes.append(f"table width {table.projective_dimension()} differs from asserted "
                     f"codimension {e} (width is the unverified suggestion for ACM input)")
    return StrandReport(q_strand=q, per_p=per_p, verdict=verdict, verdict_p=verdict_p,
                        degree_predicted=degree_predicted, shape_ok=shape_ok,
                        notes=tuple(notes))


def check_next_to_max_closed_form(table, assumptions):
    e = assumptions.codim_e
    if e < 2:
        raise ValueError(f"next-to-maximal bound needs codimension >= 2, got {e}")
    strand = first_nontrivial_strand(table)
    if strand is None:
        raise ValueError("the table has no nontrivial strand, the bound needs q = 1")
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
    if verdict == "AllMax":
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
    try:
        observed_degree = multiplicity_from_decomposition(bs_decompose(table), e)
    except NotInConeError:
        observed_degree = None
    if observed_degree is not None:
        if observed_degree < e + 2:
            notes.append(f"decomposition gives degree {observed_degree} < {e + 2}, "
                         "so the almost-minimal-degree hypothesis fails")
    if verdict == "Violation" and assumptions.lgp and (
            observed_degree is None or observed_degree >= e + 2):
        notes.append("bound exceeded although linearly-general-position was asserted; "
                     "the assertion is false for this table")
    return StrandReport(q_strand=1, per_p=per_p, verdict=verdict, verdict_p=verdict_p,
                        degree_predicted=degree_predicted, shape_ok=shape_ok,
                        notes=tuple(notes))


def outcome(check, *args):
    """The report as JSON, or the ValueError's message."""
    try:
        return check(*args).to_json_dict()
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def chain_tables(draw):
    """A chain table, normalized to (0, 0) = 1 unless the draw keeps its raw scale."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    table, _ = random_chain_table(rng, max_terms=4, max_length=7, max_entry=30)
    if draw(st.booleans()):
        table = BettiTable({cell: v / table.entry(0, 0) for cell, v in table.entries.items()})
    return table


@st.composite
def perturbed_diagrams(draw):
    """pi(family_deq(e, q)) or pi(family_tilde(e, 1)) with up to two cells changed.

    Half the changed cells are cells of the diagram itself, so the draw often
    keeps the support and changes a value, such as the corner (e, 2) of the
    next-to-maximal diagram.
    """
    e = draw(st.integers(1, 7))
    if e >= 2 and draw(st.booleans()):
        d = family_tilde(e, 1)
    else:
        d = family_deq(e, draw(st.integers(1, 4)))
    cells = dict(hk_diagram(d).entries)
    support = sorted(cells)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            cell = draw(st.sampled_from(support))
        else:
            cell = (draw(st.integers(0, e + 1)), draw(st.integers(0, d[-1])))
        old = cells.get(cell, Fraction(0))
        cells[cell] = max(Fraction(0), draw(st.sampled_from(
            [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), old + 1, old - 1, old * 2])))
    return BettiTable(cells)


def assert_checks_match(table, e, q, nd_q, lgp):
    assumptions = Assumptions(codim_e=e, nd_q=nd_q, lgp=lgp)
    assert (outcome(check_first_strand, table, assumptions, q)
            == outcome(check_first_strand_closed_form, table, assumptions, q))
    assert (outcome(check_next_to_max, table, assumptions)
            == outcome(check_next_to_max_closed_form, table, assumptions))


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(table=st.one_of(chain_tables(), perturbed_diagrams()),
       e=st.integers(1, 7), q=st.integers(1, 4), nd_q=st.booleans(), lgp=st.booleans())
def test_checks_match_closed_forms(table, e, q, nd_q, lgp):
    assert_checks_match(table, e, q, nd_q, lgp)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(table=perturbed_diagrams(), nd_q=st.booleans(), lgp=st.booleans())
def test_checks_match_closed_forms_at_the_diagrams_own_codimension(table, nd_q, lgp):
    # the table's own width and first row, where AllMax and both shape
    # outcomes are common
    e = max(table.projective_dimension(), 1)
    q = min((q for p, q in table.entries if p >= 1), default=1)
    assert_checks_match(table, e, q, nd_q, lgp)
