import random

import pytest

from bettikit import bounds
from bettikit.bounds import (Assumptions, check_first_strand, check_Ndm,
                             check_next_to_max, degree_bounds, first_nontrivial_strand)
from bettikit.decompose import NotInConeError, bs_decompose
from bettikit.pure import family_deq, hk_diagram
from bettikit.selftest import random_chain_table
from bettikit.tables import BettiTable, DegreeSequence

PROJECTED_VERONESE = BettiTable(
    {(0, 0): 1, (1, 2): 7, (2, 2): 10, (3, 2): 5, (4, 2): 1})
CUBIC_CONIC = BettiTable(
    {(0, 0): 1, (1, 1): 5, (2, 1): 6, (3, 1): 2, (1, 2): 1, (2, 2): 2, (3, 2): 1})
TWISTED_CUBIC = BettiTable({(0, 0): 1, (1, 1): 3, (2, 1): 2})
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
    report = check_first_strand(TWISTED_CUBIC, Assumptions(codim_e=2), 1)
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


def test_check_first_strand_on_pure_family():
    for e in range(1, 5):
        for q in range(1, 4):
            table = hk_diagram(family_deq(e, q))
            report = check_first_strand(table, Assumptions(codim_e=e), q)
            assert report.verdict == "AllMax"
            assert report.degree_predicted == degree_bounds(e, q)
            assert report.shape_ok is True


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
    report = check_next_to_max(TWISTED_CUBIC, Assumptions(codim_e=2))
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
        check_next_to_max(TWISTED_CUBIC, Assumptions(codim_e=2))
