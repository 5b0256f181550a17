from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bettikit.pure import (_integer_diagram, family_deq, family_tilde, hk_diagram, kappa_max,
                           kappa_next_max, multiplicity)
from bettikit.selftest import (sweep_deq_closed_forms, sweep_dual_multiplicity,
                               sweep_hilbert_divisibility, sweep_strand_bound_lemma,
                               sweep_tilde_closed_forms)
from bettikit.tables import BettiTable, DegreeSequence


def test_hk_diagram_0345():
    d = DegreeSequence((0, 3, 4, 5))
    assert hk_diagram(d) == BettiTable({(0, 0): 1, (1, 2): 10, (2, 2): 15, (3, 2): 6})
    assert multiplicity(d) == 10


def test_hk_diagram_0235():
    d = DegreeSequence((0, 2, 3, 5))
    assert hk_diagram(d) == BettiTable({(0, 0): 1, (1, 1): 5, (2, 1): 5, (3, 2): 1})
    assert multiplicity(d) == 5


def test_hk_diagram_0245():
    d = DegreeSequence((0, 2, 4, 5))
    assert hk_diagram(d) == BettiTable(
        {(0, 0): 1, (1, 1): Fraction(10, 3), (2, 2): 5, (3, 2): Fraction(8, 3)})
    assert multiplicity(d) == Fraction(20, 3)


def test_hk_diagram_shifted_start():
    d = DegreeSequence((1, 3))
    assert hk_diagram(d) == BettiTable({(0, 1): 1, (1, 2): 1})
    assert multiplicity(d) == 2


def test_hk_diagram_free_module():
    d = DegreeSequence((0,))
    assert hk_diagram(d) == BettiTable({(0, 0): 1})
    assert multiplicity(d) == 1


def test_hk_diagram_rejects_bad_input():
    with pytest.raises(ValueError):
        hk_diagram(DegreeSequence((0, 2, 2)))
    with pytest.raises(ValueError):
        hk_diagram(DegreeSequence((-1, 2)))


def test_one_entry_per_column():
    for degrees in [(0, 2, 3, 7), (0, 1, 5), (2, 4, 6, 9, 11)]:
        diagram = hk_diagram(DegreeSequence(degrees))
        columns = sorted(p for p, _ in diagram.entries)
        assert columns == list(range(len(degrees)))
        for p, d_p in enumerate(degrees):
            assert diagram.entry(p, d_p - p) > 0
        assert diagram.entry(0, degrees[0]) == 1


def test_integer_cleared():
    table, scale = hk_diagram(DegreeSequence((0, 2, 4, 5))).cleared()
    assert scale == 3
    assert table == BettiTable({(0, 0): 3, (1, 1): 10, (2, 2): 15, (3, 2): 8})


def test_family_deq():
    assert family_deq(2, 2) == DegreeSequence((0, 3, 4))
    assert family_deq(3, 1) == DegreeSequence((0, 2, 3, 4))
    assert family_deq(1, 1) == DegreeSequence((0, 2))
    with pytest.raises(ValueError):
        family_deq(0, 1)


def test_family_tilde():
    assert family_tilde(3, 1) == DegreeSequence((0, 2, 3, 5))
    assert family_tilde(3, 2) == DegreeSequence((0, 3, 4, 7))
    assert family_tilde(2, 1) == DegreeSequence((0, 2, 4))
    with pytest.raises(ValueError):
        family_tilde(1, 1)
    with pytest.raises(ValueError, match="need q >= 1"):
        family_tilde(3, 0)


def test_kappa_max_values():
    assert kappa_max(1, 2, 2) == 4
    assert kappa_max(2, 2, 4) == 45
    assert kappa_max(3, 1, 3) == 3
    # vanishing ranges
    assert kappa_max(3, 2, 2) == 0
    assert kappa_max(0, 2, 2) == 0
    with pytest.raises(ValueError, match="need e >= 1, q >= 1, p >= 0"):
        kappa_max(1, 0, 1)


def test_kappa_max_cross_checks_diagram():
    assert hk_diagram(family_deq(2, 2)).entry(1, 2) == kappa_max(1, 2, 2)
    assert hk_diagram(family_deq(4, 2)).entry(2, 2) == kappa_max(2, 2, 4)
    assert hk_diagram(family_deq(3, 1)).entry(3, 1) == kappa_max(3, 1, 3)


def test_kappa_next_max_values():
    assert kappa_next_max(1, 3) == 5
    assert kappa_next_max(2, 3) == 5
    assert kappa_next_max(1, 2) == 2
    assert kappa_next_max(3, 3) == 0
    assert kappa_next_max(5, 3) == 0
    assert hk_diagram(family_tilde(3, 1)).entry(1, 1) == kappa_next_max(1, 3)
    with pytest.raises(ValueError, match="need e >= 2 and p >= 1"):
        kappa_next_max(1, 1)


def test_multiplicity_function():
    assert multiplicity(DegreeSequence((0, 2, 3))) == 3
    assert multiplicity(DegreeSequence((0, 3, 4))) == 6
    assert multiplicity(DegreeSequence((0,))) == 1


def test_deq_closed_forms_sweep():
    cases, failures = sweep_deq_closed_forms(e_max=10, q_max=10)
    assert cases == 100
    assert failures == []


def test_tilde_closed_forms_sweep():
    cases, failures = sweep_tilde_closed_forms(e_max=10)
    assert cases == 9
    assert failures == []


def test_strand_bound_lemma_sweep():
    cases, failures = sweep_strand_bound_lemma(e_max=4, q_max=3, slack=4)
    assert failures == []
    assert cases > 0


def test_dual_multiplicity_sweep():
    _, failures = sweep_dual_multiplicity(e_max=5, q_max=4)
    assert failures == []


def test_hilbert_divisibility_sweep():
    _, failures = sweep_hilbert_divisibility(e_max=5, q_max=3, slack=2)
    assert failures == []


def test_pure_diagram_is_frozen():
    diagram = hk_diagram(DegreeSequence((0, 2)))
    assert isinstance(diagram, BettiTable)
    with pytest.raises(AttributeError):
        diagram.entries = {}
    with pytest.raises(TypeError):
        diagram.entries[(0, 0)] = Fraction(2)
    assert diagram == BettiTable({(0, 0): 1, (1, 1): 1})


def test_deq_multiplicity_closed_form_spot():
    for e, q in [(2, 2), (5, 3), (7, 1)]:
        assert multiplicity(family_deq(e, q)) == comb(e + q, q)


def textbook_diagram(degrees):
    """beta_p = prod over k != p of 1 / |d_k - d_p| at row d_p - p, scaled to beta_0 = 1."""
    beta = []
    for p, d_p in enumerate(degrees):
        value = Fraction(1)
        for k, d_k in enumerate(degrees):
            if k != p:
                value /= abs(d_k - d_p)
        beta.append(value)
    return BettiTable({(p, d_p - p): beta[p] / beta[0] for p, d_p in enumerate(degrees)})


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(start=st.integers(0, 8), gaps=st.lists(st.integers(1, 6), max_size=12))
@example(start=0, gaps=[1] * 12)
@example(start=5, gaps=[6, 1, 5, 2, 4, 3, 3, 4, 2, 5, 1, 6])
def test_hk_diagram_matches_textbook_formula(start, gaps):
    degrees = tuple(accumulate(gaps, initial=start))
    assert hk_diagram(DegreeSequence(degrees)) == textbook_diagram(degrees)


def test_integer_diagram_is_coprime_over_its_column_0_entry():
    # every strictly increasing d with d_0 in {0, 2}, length <= 6 and d_l - d_0 <= 12
    sequences = [(start,) + tuple(start + t for t in tail) for start in (0, 2)
                 for length in range(7) for tail in combinations(range(1, 13), length)]
    assert len(sequences) == 5020
    for degrees in sequences:
        cells, den = _integer_diagram(degrees)
        assert gcd(*cells.values()) == 1, degrees
        assert den == cells[(0, degrees[0])], degrees
        assert hk_diagram(DegreeSequence(degrees)).cleared() == (BettiTable(cells), den), degrees
