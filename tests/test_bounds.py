import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bettikit import bounds
from bettikit.bounds import (Assumptions, check_first_strand, check_Ndm, check_next_to_max,
                             check_strand, degree_bounds, first_nontrivial_strand)
from bettikit.decompose import NotInConeError, bs_decompose
from bettikit.pure import family_deq, hk_diagram
from bettikit.selftest import random_chain_table
from bettikit.tables import BettiTable, DegreeSequence
from oracles import CUBIC_CONIC, PROJECTED_VERONESE, TWISTED_CUBIC_TABLE

VERONESE_P2 = BettiTable({(0, 0): 1, (1, 1): 6, (2, 1): 8, (3, 1): 3})


def test_first_nontrivial_strand_examples():
    assert first_nontrivial_strand(PROJECTED_VERONESE) == 2
    assert first_nontrivial_strand(CUBIC_CONIC) == 1
    assert first_nontrivial_strand(BettiTable({(0, 0): 1})) is None


def test_first_nontrivial_strand_rejects_a_linear_generator():
    linear = BettiTable({(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1})
    for check in (first_nontrivial_strand,
                  lambda table: check_next_to_max(table, Assumptions(codim_e=2))):
        with pytest.raises(ValueError, match=r"cell \(p=1, q=0\): the ideal has a linear"):
            check(linear)


def test_first_nontrivial_strand_malformed_column():
    with pytest.raises(ValueError):
        first_nontrivial_strand(BettiTable({(0, 0): 2}))
    with pytest.raises(ValueError):
        first_nontrivial_strand(BettiTable({(0, 0): 1, (0, 2): 1}))


def test_check_first_strand_projected_veronese_violation():
    report = check_first_strand(PROJECTED_VERONESE, Assumptions(codim_e=2, nd_q=True), 2)
    assert report.verdict == "Violation"
    assert report.verdict_p == 1
    # every nonzero column of row 2 strictly exceeds its bound
    for comparison in report.per_p:
        assert comparison.observed > comparison.bound
    assert any("assertion is false" in note for note in report.notes)


def test_check_first_strand_twisted_cubic_all_max():
    report = check_first_strand(TWISTED_CUBIC_TABLE, Assumptions(codim_e=2), 1)
    assert report.verdict == "AllMax"
    assert report.degree_predicted == 3
    assert report.shape_ok is True


def test_check_first_strand_veronese_all_max():
    report = check_first_strand(VERONESE_P2, Assumptions(codim_e=3), 1)
    assert report.verdict == "AllMax"
    assert report.degree_predicted == 4
    assert [c.bound for c in report.per_p] == [6, 8, 3]


def test_check_first_strand_none_and_mixed():
    below = BettiTable({(0, 0): 1, (1, 1): 2, (2, 1): 1})
    report = check_first_strand(below, Assumptions(codim_e=2), 1)
    assert report.verdict == "NoneMax"
    mixed = BettiTable({(0, 0): 1, (1, 1): 3, (2, 1): 1})
    report = check_first_strand(mixed, Assumptions(codim_e=2, nd_q=True), 1)
    assert report.verdict == "MixedMaxInconsistent"
    assert report.verdict_p == 1
    assert any("cannot happen" in note for note in report.notes)


def test_check_first_strand_shape_breaks_with_extra_row():
    table = BettiTable({**hk_diagram(family_deq(2, 1)).entries, (1, 3): 1})
    report = check_first_strand(table, Assumptions(codim_e=2), 1)
    assert report.verdict == "AllMax"
    assert report.shape_ok is False


def test_check_first_strand_width_note_on_an_incomplete_table():
    # rows 0..1 of (x0^2, x1^3): the missing row 2 holds the cell that makes the width 2
    rows = BettiTable({(0, 0): 1, (1, 1): 1})
    width_notes = [note for note in check_first_strand(rows, Assumptions(codim_e=2), 1).notes
                   if note.startswith("table width")]
    assert width_notes == ["table width 1 differs from asserted codimension 2 "
                           "(width is the unverified suggestion for ACM input)"]
    assert check_first_strand(rows, Assumptions(codim_e=2), 1, complete=False).notes == ()
    # missing rows only widen a table, so a width above e is noted either way
    wide = check_first_strand(PROJECTED_VERONESE, Assumptions(codim_e=2), 2, complete=False)
    assert wide.notes == check_first_strand(PROJECTED_VERONESE, Assumptions(codim_e=2), 2).notes
    assert any(note.startswith("table width 4") for note in wide.notes)


def test_strand_checks_state_no_holding_shape_for_an_incomplete_table():
    # missing rows may hold entries outside pi(d), so a shape that holds is
    # not stated; one that fails already fails in the rows given
    tilde = hk_diagram(DegreeSequence((0, 2, 3, 5)))
    cases = [
        (lambda table, complete: check_first_strand(table, Assumptions(codim_e=2), 1, complete),
         TWISTED_CUBIC_TABLE, BettiTable({**TWISTED_CUBIC_TABLE.entries, (1, 3): 1})),
        (lambda table, complete: check_next_to_max(table, Assumptions(codim_e=3), complete),
         tilde, BettiTable({**tilde.entries, (2, 3): 1})),
    ]
    for check, holds, fails in cases:
        assert check(holds, True).shape_ok is True
        assert check(holds, False).shape_ok is None
        for complete in (True, False):
            report = check(fails, complete)
            assert report.verdict == "AllMax"
            assert report.shape_ok is False
            assert report.notes[0].endswith(("pure resolution shape", "does not hold"))


def test_check_first_strand_on_pure_family():
    for e in range(1, 5):
        for q in range(1, 4):
            table = hk_diagram(family_deq(e, q))
            report = check_first_strand(table, Assumptions(codim_e=e), q)
            assert report.verdict == "AllMax"
            assert report.degree_predicted == degree_bounds(e, q)
            assert report.shape_ok is True


STRAND_CHECK_TABLES = [hk_diagram(family_deq(e, q)) for e in range(1, 6) for q in range(1, 4)]
STRAND_CHECK_TABLES += [PROJECTED_VERONESE, CUBIC_CONIC, TWISTED_CUBIC_TABLE, VERONESE_P2]


def run_strand_checks():
    # a complete next-to-max check also decomposes the table, which builds
    # tables and degree sequences, so it is run as incomplete here
    for table in STRAND_CHECK_TABLES:
        for e in range(1, 6):
            for q in range(1, 4):
                check_first_strand(table, Assumptions(codim_e=e), q)
            if e >= 2 and first_nontrivial_strand(table) == 1:
                check_next_to_max(table, Assumptions(codim_e=e), complete=False)


def test_strand_checks_build_no_table(monkeypatch):
    # each check reads pi(d) as integers over their denominator, not as a
    # BettiTable
    built = []
    init = BettiTable.__init__

    def counting_init(self, entries):
        built.append(entries)
        init(self, entries)

    monkeypatch.setattr(BettiTable, "__init__", counting_init)
    run_strand_checks()
    assert built == []


def test_strand_checks_build_no_degree_sequence(monkeypatch):
    # each check reads the length and the degree of its extremal sequence
    # off e and q, so no DegreeSequence is built
    built = []
    post_init = DegreeSequence.__post_init__

    def counting_post_init(self):
        built.append(self.degrees)
        post_init(self)

    monkeypatch.setattr(DegreeSequence, "__post_init__", counting_post_init)
    run_strand_checks()
    assert built == []


def test_checks_at_codimension_2000():
    # Bounds and verdicts read off the closed forms at a codimension where
    # multiplying out pi(d) took seconds; C(2002, 3) = 1335334000 and
    # 1999 * C(2001, 2000) - C(2000, 1998) = 2000999.
    e = 2000
    veronese = check_first_strand(PROJECTED_VERONESE, Assumptions(codim_e=e), 2)
    assert [c.p for c in veronese.per_p] == list(range(1, e + 1))
    assert [c.bound for c in veronese.per_p[:2]] == [1335334000, 3 * 2002 * 2001 * 2000 * 1999 // 24]
    assert veronese.per_p[-1].bound == 2001 * 2000 // 2
    assert not any(c.attains_max for c in veronese.per_p)
    assert (veronese.verdict, veronese.verdict_p, veronese.degree_predicted,
            veronese.shape_ok) == ("NoneMax", None, None, None)
    assert veronese.notes == ("table width 4 differs from asserted codimension 2000 "
                              "(width is the unverified suggestion for ACM input)",)
    tilde = check_next_to_max(CUBIC_CONIC, Assumptions(codim_e=e, lgp=True))
    assert [c.bound for c in tilde.per_p[:2]] == [2001 * 2000 // 2 - 1, 2 * 2001 * 2000 * 1999 // 6 - 2000]
    assert [c.bound for c in tilde.per_p[-2:]] == [2000999, 0]
    assert (tilde.verdict, tilde.verdict_p, tilde.shape_ok) == ("NoneMax", None, None)
    assert tilde.notes == ("decomposition gives degree 0 < 2002, so the almost-minimal-degree "
                           "hypothesis fails",)


def test_check_ndm_examples():
    assert check_Ndm(PROJECTED_VERONESE, 3, 4) is True
    assert check_Ndm(CUBIC_CONIC, 2, 3) is False
    assert check_Ndm(BettiTable({(0, 0): 1}), 1, 7) is True
    with pytest.raises(ValueError):
        check_Ndm(CUBIC_CONIC, 0, 1)


def test_degree_bounds():
    assert degree_bounds(2, 2) == 6
    assert degree_bounds(3, 1) == 4
    assert degree_bounds(1, 5) == 6


def test_check_next_to_max_cubic_conic():
    report = check_next_to_max(CUBIC_CONIC, Assumptions(codim_e=3))
    assert report.verdict == "Violation"
    assert report.verdict_p == 2
    observed = {c.p: c.observed for c in report.per_p}
    assert observed[2] == 6
    assert report.per_p[1].bound == 5


def test_check_next_to_max_tilde_diagram():
    table = hk_diagram(DegreeSequence((0, 2, 3, 5)))
    report = check_next_to_max(table, Assumptions(codim_e=3, lgp=True))
    assert report.verdict == "AllMax"
    assert report.degree_predicted == 5
    assert report.shape_ok is True


def test_check_next_to_max_twisted_cubic_degree_note():
    report = check_next_to_max(TWISTED_CUBIC_TABLE, Assumptions(codim_e=2))
    assert report.verdict == "Violation"
    assert report.verdict_p == 1
    assert any("degree 3 < 4" in note for note in report.notes)


def test_check_next_to_max_requires_strand_one():
    with pytest.raises(ValueError):
        check_next_to_max(PROJECTED_VERONESE, Assumptions(codim_e=2))
    with pytest.raises(ValueError):
        check_next_to_max(CUBIC_CONIC, Assumptions(codim_e=1))


def test_strand_reports_serialize():
    report = check_first_strand(VERONESE_P2, Assumptions(codim_e=3), 1)
    payload = report.to_json_dict()
    assert payload["verdict"] == "AllMax"
    assert payload["degree_predicted"] == "4"
    assert payload["per_p"][0] == {"p": 1, "observed": "6", "bound": 6, "attains_max": True}


def test_no_mixed_verdict_inside_cone():
    # convex combinations (the (0,0) entry normalized to 1) of diagrams with a
    # fixed length never read as "some but not all columns attain the bound",
    # and never violate the bound either
    rng = random.Random(3)
    produced = 0
    while produced < 60:
        table, terms = random_chain_table(rng, max_terms=3, max_length=4)
        lengths = {d.length for _, d in terms}
        if len(lengths) != 1:
            continue
        e = lengths.pop()
        if e < 1:
            continue
        table = BettiTable({cell: v / table.entry(0, 0) for cell, v in table.entries.items()})
        q_strand = min((q for p, q in table.entries if p == 1), default=None)
        if q_strand is None or q_strand < 1:
            continue
        produced += 1
        report = check_first_strand(table, Assumptions(codim_e=e), q_strand)
        assert report.verdict != "MixedMaxInconsistent"
        assert report.verdict != "Violation"


def test_assumptions_validation():
    with pytest.raises(ValueError):
        Assumptions(codim_e=0)


def test_check_next_to_max_outside_cone_has_no_degree_note():
    # column 2 is empty, so the table has no decomposition into pure diagrams
    table = BettiTable({(0, 0): 1, (1, 1): 6, (3, 1): 1})
    with pytest.raises(NotInConeError):
        bs_decompose(table)
    report = check_next_to_max(table, Assumptions(codim_e=3, lgp=True))
    assert report.verdict == "Violation"
    assert not any("decomposition gives degree" in note for note in report.notes)
    assert any("bound exceeded" in note for note in report.notes)


@pytest.mark.parametrize("fault", (RuntimeError, ValueError))
def test_check_next_to_max_propagates_decomposition_faults(monkeypatch, fault):
    def broken(table):
        raise fault("internal fault")

    monkeypatch.setattr(bounds, "bs_decompose", broken)
    with pytest.raises(fault, match="internal fault"):
        check_next_to_max(TWISTED_CUBIC_TABLE, Assumptions(codim_e=2))


@pytest.mark.parametrize("table, next_to_max", [
    (PROJECTED_VERONESE, False), (CUBIC_CONIC, False), (CUBIC_CONIC, True)])
@pytest.mark.parametrize("complete", [True, False])
def test_check_strand_is_the_check_for_the_table_strand(table, next_to_max, complete):
    assumptions = Assumptions(codim_e=3)
    expected = (check_next_to_max(table, assumptions, complete) if next_to_max
                else check_first_strand(table, assumptions, first_nontrivial_strand(table),
                                        complete))
    assert check_strand(table, assumptions, next_to_max, complete) == expected


def test_check_strand_without_a_strand():
    strandless = BettiTable({(0, 0): 1})
    assert check_strand(strandless, Assumptions(codim_e=2)) is None
    with pytest.raises(ValueError, match="^the table has no nontrivial strand, the bound needs"):
        check_strand(strandless, Assumptions(codim_e=2), next_to_max=True)
    with pytest.raises(ValueError, match="^first nontrivial strand is 2, the bound needs q = 1$"):
        check_strand(PROJECTED_VERONESE, Assumptions(codim_e=3), next_to_max=True)


def test_check_strand_reads_the_strand_before_the_codimension():
    linear = BettiTable({(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1})
    with pytest.raises(ValueError, match=r"cell \(p=1, q=0\): the ideal has a linear"):
        check_strand(linear, Assumptions(codim_e=1), next_to_max=True)


@pytest.mark.parametrize("call", ["check_first_strand(TABLE, E, 1)",
                                  "check_next_to_max(TABLE, E)"])
def test_library_checks_refuse_an_unprintable_codimension_fast(call):
    # without the cap inside the checks, the bounds at e = 10**10 are computed for ever
    program = ("from bettikit.bounds import Assumptions, check_first_strand, check_next_to_max\n"
               "from bettikit.tables import BettiTable\n"
               "TABLE = BettiTable({(0, 0): 1, (1, 1): 3, (2, 1): 2})\n"
               "E = Assumptions(codim_e=10 ** 10)\n"
               f"{call}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               PYTHONINTMAXSTRDIGITS="4300")
    result = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                            text=True, timeout=10)
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == (
        "ValueError: codimension 10000000000 is too large to report: the largest bound on row 1 "
        "has more than 4300 digits, Python's limit for printing an integer")


@pytest.mark.parametrize("q, next_to_max", [(1, True), (1, False), (2, False)])
def test_codimension_cap_starts_where_its_proof_does(monkeypatch, q, next_to_max):
    # the cheap n > 3L pre-test moves no threshold: the first e refused is the
    # first whose N = e (next-to-max) or e + q meets N - bitlen(N + 1) >= bitlen(10^L)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    target = (10 ** 4300).bit_length()
    n = next(n for n in range(3 * 4300, 5 * 4300) if n - (n + 1).bit_length() >= target)
    e = n if next_to_max else n - q
    assert bounds._reject_unprintable(e - 1, q, next_to_max) is None
    with pytest.raises(ValueError, match=f"^codimension {e} is too large to report"):
        bounds._reject_unprintable(e, q, next_to_max)
