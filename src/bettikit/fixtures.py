"""Bundled fixture corpus: inputs with their exactly-known outputs.

Table fixtures carry an expected decomposition; ideal fixtures carry the
expected betti table, are computed over both fields (any disagreement is
reported verbatim, never reconciled), and are fed through the decomposition
to confirm cone membership.  The FIXTURES_DIR environment variable points the
loader at an alternative directory of the same file names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

from .bounds import Assumptions, check_strand
from .decompose import NotInConeError, bs_decompose, multiplicity_from_decomposition
from .koszul import _betti, _hilbert_matches
from .polyring import DEFAULT_PRIME, parse_ideal
from .tables import BettiTable, load

ENV_DIR = "FIXTURES_DIR"

Term = tuple[Fraction, tuple[int, ...]]


@dataclass(frozen=True)
class FixtureEntry:
    name: str
    filename: str
    qmax: int | None = None
    expected_table: tuple[tuple[tuple[int, int], int], ...] | None = None  # (cell, value) pairs
    expected_terms: tuple[Term, ...] | None = None
    codim: int | None = None
    expected_multiplicity: Fraction | None = None
    expected_verdict: str | None = None
    next_to_max: bool = False

    def is_ideal(self) -> bool:
        return self.filename.endswith(".ideal")


def _first_strand(*kappas: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The cells of the table with 1 at (0, 0) and kappas[p - 1] at (p, 1)."""
    return ((0, 0), 1), *(((p, 1), kappa) for p, kappa in enumerate(kappas, 1))


FIXTURES: tuple[FixtureEntry, ...] = (
    # the second row exceeds the strand bound at every column
    FixtureEntry(
        name="veronese-projection",
        filename="veronese_projection.table",
        expected_terms=(
            (Fraction(1, 10), (0, 3, 4, 5, 6)),
            (Fraction(7, 30), (0, 3, 4, 5)),
            (Fraction(2, 3), (0, 3, 4)),
        ),
        codim=2,
        expected_multiplicity=Fraction(4),
        expected_verdict="Violation",
    ),
    # the next-to-maximal bound fails at p = 2 without general position
    FixtureEntry(
        name="cubic-conic-union",
        filename="cubic_conic_union.table",
        expected_terms=(
            (Fraction(2, 3), (0, 2, 3, 4)),
            (Fraction(2, 15), (0, 2, 3, 5)),
            (Fraction(1, 10), (0, 2, 4, 5)),
            (Fraction(1, 10), (0, 3, 4, 5)),
        ),
        codim=3,
        expected_multiplicity=Fraction(5),
        expected_verdict="Violation",
        next_to_max=True,
    ),
    FixtureEntry(
        name="twisted-cubic",
        filename="twisted_cubic.ideal",
        qmax=3,
        expected_table=_first_strand(3, 2),
        codim=2,
        expected_verdict="AllMax",
    ),
    FixtureEntry(
        name="veronese-p2",
        filename="veronese_p2.ideal",
        qmax=3,
        expected_table=_first_strand(6, 8, 3),
        codim=3,
        expected_verdict="AllMax",
    ),
    FixtureEntry(
        name="rnc-conic",
        filename="rnc_e1.ideal",
        qmax=3,
        expected_table=_first_strand(1),
        codim=1,
        expected_verdict="AllMax",
    ),
    FixtureEntry(
        name="rnc-quartic",
        filename="rnc_e3.ideal",
        qmax=3,
        expected_table=_first_strand(6, 8, 3),
        codim=3,
        expected_verdict="AllMax",
    ),
    FixtureEntry(
        name="rnc-quintic",
        filename="rnc_e4.ideal",
        qmax=3,
        expected_table=_first_strand(10, 20, 15, 4),
        codim=4,
        expected_verdict="AllMax",
    ),
    FixtureEntry(
        name="rnc-sextic",
        filename="rnc_e5.ideal",
        qmax=3,
        expected_table=_first_strand(15, 40, 45, 24, 5),
        codim=5,
        expected_verdict="AllMax",
    ),
    FixtureEntry(
        name="ci-two-quadrics",
        filename="ci_two_quadrics.ideal",
        qmax=4,
        expected_table=(((0, 0), 1), ((1, 1), 2), ((2, 2), 1)),
        codim=2,
    ),
    FixtureEntry(
        name="ci-quadric-cubic",
        filename="ci_quadric_cubic.ideal",
        qmax=5,
        expected_table=(((0, 0), 1), ((1, 1), 1), ((1, 2), 1), ((2, 3), 1)),
        codim=2,
    ),
    FixtureEntry(
        name="hypersurface-cubic",
        filename="hypersurface_cubic.ideal",
        qmax=4,
        expected_table=(((0, 0), 1), ((1, 2), 1)),
        codim=1,
    ),
)


def fixture_path(filename: str) -> str:
    override = os.environ.get(ENV_DIR)
    if override:
        return os.path.join(override, filename)
    return str(resources.files(__package__) / "fixtures" / filename)


def load_text(filename: str) -> str:
    return load(fixture_path(filename), str)


def run_fixture(entry: FixtureEntry) -> list[str]:
    """Run one fixture through the pipeline; returns discrepancy strings.

    A malformed fixture file raises a ParseError naming the file.  A table
    the strand check rejects, or one without a strand to check, gets verdict
    none, with the reason, as a discrepancy of its fixture.  The Hilbert
    function is checked on the ring of S/I the table's walk stepped, so each
    field steps S/I once.
    """
    problems: list[str] = []
    if entry.is_ideal():
        ideal = load(fixture_path(entry.filename), parse_ideal)
        table, complete, ring = _betti(ideal, entry.qmax)
        expected = BettiTable(dict(entry.expected_table))
        if table != expected:
            problems.append(f"table mismatch: got {table!r}, expected {expected!r}")
        if not _hilbert_matches(ring, table, entry.qmax):
            problems.append("hilbert consistency failed")
        other = replace(ideal, char_p=None if ideal.char_p else DEFAULT_PRIME)
        other_table, other_complete, _ = _betti(other, entry.qmax)
        if other_table != table:
            problems.append(
                f"field disagreement: {ideal.field_label()} gives {table!r}, "
                f"{other.field_label()} gives {other_table!r}")
        for label, certified in ((ideal.field_label(), complete),
                                 (other.field_label(), other_complete)):
            if not certified:
                problems.append(f"table over {label} not certified complete")
    else:
        table = load(fixture_path(entry.filename), BettiTable.from_text)
    try:
        decomposition = bs_decompose(table)
    except NotInConeError as exc:
        problems.append(f"table not in cone: {exc}")
        return problems
    if entry.expected_terms is not None:
        got = {d.degrees: c for c, d in decomposition.terms}
        expected_terms = {degrees: c for c, degrees in entry.expected_terms}
        if got != expected_terms:
            problems.append(f"decomposition mismatch: got {sorted(got.items())}")
    if decomposition.reconstruct() != table:
        problems.append("decomposition does not reconstruct the table")
    if entry.codim is not None and entry.expected_multiplicity is not None:
        got_mult = multiplicity_from_decomposition(decomposition, entry.codim)
        if got_mult != entry.expected_multiplicity:
            problems.append(f"multiplicity {got_mult}, expected {entry.expected_multiplicity}")
    if entry.expected_verdict is not None and entry.codim is not None:
        try:
            report = check_strand(table, Assumptions(codim_e=entry.codim), entry.next_to_max)
            verdict = "none (no nontrivial strand)" if report is None else report.verdict
        except ValueError as exc:
            verdict = f"none ({exc})"
        if verdict != entry.expected_verdict:
            problems.append(f"verdict {verdict}, expected {entry.expected_verdict}")
    return problems


def run_all() -> list[tuple[FixtureEntry, list[str]]]:
    return [(entry, run_fixture(entry)) for entry in FIXTURES]
