"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact (integer or rational equality, zero tolerance).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is expected to finish in well under five minutes.
"""

import random
from dataclasses import replace
from fractions import Fraction
from math import comb

from bettikit.bounds import Assumptions, check_first_strand, check_next_to_max
from bettikit.decompose import NotInConeError, bs_decompose, multiplicity_from_decomposition
from bettikit.fixtures import load_text
from bettikit.koszul import _Ring, betti_table, hilbert_consistency, koszul_differential
from bettikit.polyring import parse_ideal
from bettikit.pure import family_deq, hk_diagram, kappa_max, multiplicity
from bettikit.selftest import (random_chain_table, random_ideal,
                               sweep_strand_bound_lemma, tally)
from bettikit.tables import BettiTable, DegreeSequence
from oracles import CUBIC_CONIC, PROJECTED_VERONESE


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_projected_veronese_decomposition():
    decomposition = bs_decompose(PROJECTED_VERONESE)
    got = {d.degrees: c for c, d in decomposition.terms}
    assert got == {
        (0, 3, 4): Fraction(2, 3),
        (0, 3, 4, 5): Fraction(7, 30),
        (0, 3, 4, 5, 6): Fraction(1, 10),
    }
    assert decomposition.reconstruct() == PROJECTED_VERONESE
    report(1, "projected Veronese decomposes into 2/3, 7/30, 1/10 exactly")


def test_criterion_2_cubic_conic_decomposition_and_multiplicity():
    decomposition = bs_decompose(CUBIC_CONIC)
    got = {d.degrees: c for c, d in decomposition.terms}
    assert got == {
        (0, 2, 3, 4): Fraction(2, 3),
        (0, 2, 3, 5): Fraction(2, 15),
        (0, 2, 4, 5): Fraction(1, 10),
        (0, 3, 4, 5): Fraction(1, 10),
    }
    assert multiplicity_from_decomposition(decomposition, 3) == 5
    assert decomposition.reconstruct() == CUBIC_CONIC
    report(2, "cubic-conic union decomposes exactly with degree 5")


def test_criterion_3_extremal_family_closed_forms():
    cases = 0
    for e in range(1, 11):
        for q in range(1, 11):
            cases += 1
            d = family_deq(e, q)
            diagram = hk_diagram(d)
            for p in range(1, e + 1):
                assert diagram.entry(p, q) == comb(p + q - 1, q) * comb(e + q, p + q)
            assert multiplicity(d) == comb(e + q, q)
    assert cases == 100
    report(3, f"{cases} extremal diagrams match their closed forms exactly")


def test_criterion_4_next_to_maximal_family():
    for e in range(2, 11):
        d = DegreeSequence((0,) + tuple(range(2, e + 1)) + (e + 2,))
        diagram = hk_diagram(d)
        for p in range(1, e):
            assert diagram.entry(p, 1) == p * comb(e + 1, p + 1) - comb(e, p - 1)
        assert diagram.entry(e, 2) == 1
        assert multiplicity(d) == e + 2
    report(4, "next-to-maximal diagrams for e = 2..10 match exactly")


def test_criterion_5_bound_lemma_exhaustive():
    cases, failures = tally(sweep_strand_bound_lemma(e_max=5, q_max=4, slack=3))
    assert failures == []
    report(5, f"{cases} degree sequences, zero counterexamples")


def test_criterion_6_koszul_engine_fixtures():
    jobs = [
        ("rnc_e1.ideal", 1), ("twisted_cubic.ideal", 2), ("rnc_e3.ideal", 3),
        ("rnc_e4.ideal", 4), ("veronese_p2.ideal", 3),
    ]
    for filename, e in jobs:
        ideal = parse_ideal(load_text(filename))
        expected = hk_diagram(family_deq(e, 1))
        modular, complete = betti_table(ideal, 3)
        assert modular == expected, filename
        assert complete, filename
        assert hilbert_consistency(ideal, modular, 3), filename
        rational, _ = betti_table(replace(ideal, char_p=None), 3)
        assert rational == modular, filename
        for p in range(1, e + 1):
            assert modular.entry(p, 1) == kappa_max(p, 1, e)
    report(6, "curves of degree <= 5 and the Veronese surface attain the maxima, "
              "both fields agree")


def test_criterion_7_negative_controls():
    strand_report = check_first_strand(PROJECTED_VERONESE,
                                       Assumptions(codim_e=2, nd_q=True), 2)
    assert strand_report.verdict == "Violation"
    for comparison in strand_report.per_p:
        assert comparison.observed > comparison.bound
    next_report = check_next_to_max(CUBIC_CONIC, Assumptions(codim_e=3))
    assert next_report.verdict == "Violation"
    assert next_report.verdict_p == 2
    observed = {c.p: (c.observed, c.bound) for c in next_report.per_p}
    assert observed[2] == (6, 5)
    report(7, "projected Veronese and cubic-conic union flagged as violations")


def test_criterion_8_property_suite():
    rng = random.Random(2024)
    for _ in range(200):
        table, terms = random_chain_table(rng)
        decomposition = bs_decompose(table)
        assert {d.degrees: c for c, d in decomposition.terms} == \
               {d.degrees: c for c, d in terms}
        assert decomposition.reconstruct() == table

    for trial in range(50):
        ideal = random_ideal(rng)
        pieces = _Ring(ideal)
        for p in range(1, ideal.num_vars + 2):
            for q in range(3):
                outer = koszul_differential(ideal, p, q, pieces)
                inner = koszul_differential(ideal, p - 1, q + 1, pieces)
                assert outer.compose(inner, ideal.char_p).is_zero()

    for _ in range(40):
        table, _ = random_chain_table(rng)
        assert BettiTable.from_text(table.to_text()) == table
        assert BettiTable.from_json(table.to_json()) == table

    rejected = 0
    for k in range(20):
        if k % 2 == 0:
            bad = BettiTable({(0, 0): 1, (2, 1): k + 1})          # column gap
        else:
            bad = BettiTable({(0, 0): 1, (1, k + 2): 1, (2, 1): 1})  # strand dips
        try:
            bs_decompose(bad)
        except NotInConeError:
            rejected += 1
    assert rejected == 20
    report(8, "200 reconstructions, 50 square-zero ideals, round trips, "
              "20 off-cone rejections")
