"""Exhaustive small-range sweeps of the package's key identities.

Each sweep returns (cases_checked, failures); an empty failure list means the
sweep passed.  The CLI selftest command runs them all and prints one line per
sweep; the test suite asserts on them directly.  Everything here is exact
integer or rational arithmetic over bounded ranges, so a sweep either proves
the identity on its range or names a concrete counterexample.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

from .decompose import Decomposition, bs_decompose
from .koszul import _betti_entries, _Ring, betti_table, koszul_differential
from .polyring import Ideal, monomials_of_degree
from .pure import family_deq, family_tilde, hk_diagram, kappa_max, kappa_next_max, multiplicity
from .tables import BettiTable, DegreeSequence

Sweep = tuple[int, list[str]]


def sweep_deq_closed_forms(e_max: int = 10, q_max: int = 10) -> Sweep:
    """Product-formula diagram of (0, q+1, ..., q+e) against its closed forms."""
    cases = 0
    failures = []
    for e in range(1, e_max + 1):
        for q in range(1, q_max + 1):
            cases += 1
            d = family_deq(e, q)
            diagram = hk_diagram(d)
            for p in range(1, e + 1):
                expected = kappa_max(p, q, e)
                got = diagram.entry(p, q)
                if got != expected:
                    failures.append(f"e={e} q={q} p={p}: entry {got} != {expected}")
            if multiplicity(d) != comb(e + q, q):
                failures.append(f"e={e} q={q}: multiplicity {multiplicity(d)} != C(e+q,q)")
    return cases, failures


def sweep_tilde_closed_forms(e_max: int = 10) -> Sweep:
    """Diagram of (0, 2, ..., e, e+2) against the next-to-maximal closed forms."""
    cases = 0
    failures = []
    for e in range(2, e_max + 1):
        cases += 1
        d = family_tilde(e, 1)
        diagram = hk_diagram(d)
        for p in range(1, e):
            expected = kappa_next_max(p, e)
            got = diagram.entry(p, 1)
            if got != expected:
                failures.append(f"e={e} p={p}: entry {got} != {expected}")
        if diagram.entry(e, 2) != 1:
            failures.append(f"e={e}: corner entry {diagram.entry(e, 2)} != 1")
        if multiplicity(d) != e + 2:
            failures.append(f"e={e}: multiplicity {multiplicity(d)} != {e + 2}")
    return cases, failures


def _sequences(e: int, low: int, high: int):
    for tail in combinations(range(low, high + 1), e):
        yield DegreeSequence((0,) + tail)


def sweep_strand_bound_lemma(e_max: int = 5, q_max: int = 4, slack: int = 3) -> Sweep:
    """The bound lemma over every d = (0, d_1, ..., d_e), q+1 <= d_1, d_e <= q+e+slack.

    Checks the entry bound, the multiplicity bound, and that each of the four
    equality conditions holds exactly for the extremal sequence.
    """
    cases = 0
    failures = []
    for e in range(1, e_max + 1):
        for q in range(1, q_max + 1):
            extremal = family_deq(e, q)
            bound_multiplicity = comb(e + q, q)
            for d in _sequences(e, q + 1, q + e + slack):
                cases += 1
                diagram = hk_diagram(d)
                degree = multiplicity(d)
                is_extremal = d.degrees == extremal.degrees
                attained = []
                for p in range(1, e + 1):
                    entry = diagram.entry(p, q)
                    bound = kappa_max(p, q, e)
                    if entry > bound:
                        failures.append(f"d={d}: entry at p={p} is {entry} > {bound}")
                    attained.append(entry == bound)
                if degree < bound_multiplicity:
                    failures.append(f"d={d}: multiplicity {degree} < {bound_multiplicity}")
                if all(attained) != is_extremal:
                    failures.append(f"d={d}: all-columns equality mismatch")
                if any(attained) != is_extremal:
                    failures.append(f"d={d}: some-column equality mismatch")
                if (degree == bound_multiplicity) != is_extremal:
                    failures.append(f"d={d}: multiplicity equality mismatch")
    return cases, failures


def sweep_dual_multiplicity(e_max: int = 5, q_max: int = 4) -> Sweep:
    """e(d) <= C(e+q, q) whenever d_k <= q+k for every k (with d_0 = 0)."""
    cases = 0
    failures = []
    for e in range(1, e_max + 1):
        for q in range(1, q_max + 1):
            bound = comb(e + q, q)
            # a strictly increasing tail drawn from 1..q+e has tail[k] <= q+k+1, so the
            # range gives exactly the sequences with d_k <= q+k
            for tail in combinations(range(1, q + e + 1), e):
                cases += 1
                d = DegreeSequence((0,) + tail)
                if multiplicity(d) > bound:
                    failures.append(f"d={d}: multiplicity {multiplicity(d)} > {bound}")
    return cases, failures


def sweep_bound_comparison(e_max: int = 8, q_max: int = 6) -> Sweep:
    """Next-to-maximal values sit strictly below the maximal ones."""
    cases = 0
    failures = []
    for e in range(2, e_max + 1):
        for p in range(1, e):
            cases += 1
            if not kappa_next_max(p, e) < kappa_max(p, 1, e):
                failures.append(f"e={e} p={p}: next-to-max not below max")
    for q in range(1, q_max + 1):
        for e in range(1, e_max + 1):
            for p in range(1, e + 1):
                cases += 1
                if kappa_max(p, q, e) < 1:
                    failures.append(f"e={e} q={q} p={p}: bound not positive")
    return cases, failures


def sweep_hilbert_divisibility(e_max: int = 5, q_max: int = 3, slack: int = 2) -> Sweep:
    """Integer-cleared pure diagrams have numerators divisible by (1-t)^length."""
    cases = 0
    failures = []
    for e in range(1, e_max + 1):
        for q in range(1, q_max + 1):
            for d in _sequences(e, q + 1, q + e + slack):
                cases += 1
                cleared, _ = hk_diagram(d).cleared()
                coeffs = cleared.hilbert_numerator()
                for _ in range(d.length):
                    coeffs = _divide_by_one_minus_t(coeffs)
                    if coeffs is None:
                        failures.append(f"d={d}: numerator not divisible by (1-t)^length")
                        break
    return cases, failures


def _divide_by_one_minus_t(coeffs: list[int]) -> list[int] | None:
    """Exact quotient by (1 - t), or None when the remainder is nonzero."""
    if not coeffs:
        return []
    quotient = []
    carry = 0
    for c in coeffs[:-1]:
        carry += c
        quotient.append(carry)
    if carry + coeffs[-1] != 0:
        return None
    while quotient and quotient[-1] == 0:
        quotient.pop()
    return quotient


def random_ideal(rng: random.Random, max_vars: int = 4, max_generators: int = 3,
                 max_degree: int = 3) -> Ideal:
    """Small random homogeneous ideal over the rationals."""
    num_vars = rng.randint(2, max_vars)
    generators = []
    for _ in range(rng.randint(1, max_generators)):
        degree = rng.randint(1, max_degree)
        monos = monomials_of_degree(num_vars, degree)
        support = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
        poly = {m: Fraction(rng.choice([-2, -1, 1, 2, 3])) for m in support}
        generators.append(poly)
    return Ideal(num_vars=num_vars, generators=tuple(generators), char_p=None)


def sweep_square_zero(trials: int = 10, seed: int = 20240, q_max: int = 4) -> Sweep:
    """delta compose delta vanishes on random small ideals, every (p, q) in range."""
    rng = random.Random(seed)
    cases = 0
    failures = []
    for _ in range(trials):
        ideal = random_ideal(rng)
        pieces = _Ring(ideal)
        for q in range(q_max + 1):
            for p in range(1, ideal.num_vars + 2):
                cases += 1
                outer = koszul_differential(ideal, p, q, pieces)
                inner = koszul_differential(ideal, p - 1, q + 1, pieces)
                if not outer.compose(inner, ideal.char_p).is_zero():
                    failures.append(f"ideal on {ideal.num_vars} vars: "
                                    f"delta^2 != 0 at (p={p}, q={q})")
    return cases, failures


def uncut_table(ideal: Ideal, q_max: int) -> BettiTable:
    """Rows 0..q_max computed in all of the ideal's variables, with no cut."""
    return _betti_entries(ideal, _Ring(ideal), q_max)


def sweep_cut_agrees_with_uncut(trials: int = 100, seed: int = 31, q_max: int = 3) -> Sweep:
    """betti_table, which cuts certified regular variables, against the uncut table.

    When betti_table certifies its table complete, the uncut table three rows
    further must have no row past q_max.
    """
    rng = random.Random(seed)
    cases = 0
    failures = []
    for _ in range(trials):
        ideal = random_ideal(rng)
        for char_p in (None, 32003):
            cases += 1
            field_ideal = replace(ideal, char_p=char_p)
            table, certified = betti_table(field_ideal, q_max)
            expected = uncut_table(field_ideal, q_max)
            if table != expected:
                failures.append(f"{field_ideal}: cut table {table} != uncut {expected}")
            elif certified:
                row = uncut_table(field_ideal, q_max + 3).regularity()
                if row > q_max:
                    failures.append(f"{field_ideal}: certified at q_max {q_max}, "
                                    f"but the uncut table has row {row}")
    return cases, failures


def random_chain_table(rng: random.Random, max_terms: int = 4, max_length: int = 5,
                       max_entry: int = 20, max_denominator: int = 30,
                       ) -> tuple[BettiTable, list[tuple[Fraction, DegreeSequence]]]:
    """A random positive combination along a chain of degree sequences.

    Consecutive sequences grow termwise (or shrink in length), which is
    exactly the shape the peeling loop recovers; returns the summed table and
    the generating terms so a round trip can be compared term for term.
    """
    length = rng.randint(1, max_length)
    current = [0]
    value = 0
    for _ in range(length):
        value = rng.randint(value + 1, value + 3)
        current.append(value)
    current[-1] = min(current[-1], max_entry)
    if current[-1] <= current[-2]:
        current[-1] = current[-2] + 1
    terms = []
    seen = set()
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(current)
        if key not in seen:
            seen.add(key)
            coefficient = Fraction(rng.randint(1, max_entry),
                                   rng.randint(1, max_denominator))
            terms.append((coefficient, DegreeSequence(key)))
        # move up the chain: bump some entries or drop the last one
        if len(current) > 1 and rng.random() < 0.4:
            current = current[:-1]
        else:
            bumped = list(current)
            for i in range(1, len(bumped)):
                if rng.random() < 0.5:
                    bumped[i] += rng.randint(1, 2)
            for i in range(1, len(bumped)):
                if bumped[i] <= bumped[i - 1]:
                    bumped[i] = bumped[i - 1] + 1
            current = bumped
    return Decomposition(tuple(terms)).reconstruct(), terms


def sweep_cone_round_trip(trials: int = 50, seed: int = 77) -> Sweep:
    """Peeling recovers the generating terms of random chain combinations exactly."""
    rng = random.Random(seed)
    cases = 0
    failures = []
    for _ in range(trials):
        cases += 1
        table, terms = random_chain_table(rng)
        recovered = bs_decompose(table)
        expected = {d.degrees: c for c, d in terms}
        got = {d.degrees: c for c, d in recovered.terms}
        if expected != got:
            failures.append(f"terms {sorted(expected)} came back as {sorted(got)}")
        elif recovered.reconstruct() != table:
            failures.append(f"reconstruction mismatch for terms {sorted(expected)}")
    return cases, failures


ALL_SWEEPS = [
    ("degree-family closed forms", sweep_deq_closed_forms),
    ("next-to-maximal family closed forms", sweep_tilde_closed_forms),
    ("strand bound lemma (exhaustive)", sweep_strand_bound_lemma),
    ("dual multiplicity inequality", sweep_dual_multiplicity),
    ("bound comparison", sweep_bound_comparison),
    ("hilbert numerator divisibility", sweep_hilbert_divisibility),
    ("koszul differential squares to zero", sweep_square_zero),
    ("certified cut agrees with the uncut table", sweep_cut_agrees_with_uncut),
    ("cone decomposition round trip", sweep_cone_round_trip),
]


def run_all() -> list[tuple[str, int, list[str]]]:
    return [(name, *sweep()) for name, sweep in ALL_SWEEPS]
