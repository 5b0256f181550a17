"""Exhaustive small-range sweeps of the package's key identities.

Each sweep is a generator: a bare `yield` marks one case checked and
`yield "..."` reports one failure.  `tally` counts them into
(cases_checked, failures); an empty failure list means the sweep passed.  The
CLI selftest command runs them all and prints one line per sweep; the test
suite tallies them directly.  Everything here is exact integer or rational
arithmetic over bounded ranges, so a sweep either proves the identity on its
range or names a concrete counterexample.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb

from .decompose import Decomposition, bs_decompose
from .koszul import (_betti_entries, _cut_regular_variables, _delta2_rank, _Ring, betti_table,
                     koszul_differential)
from .polyring import Ideal, monomials_of_degree
from .pure import family_deq, family_tilde, hk_diagram, kappa_max, kappa_next_max, multiplicity
from .tables import BettiTable, DegreeSequence

Sweep = Iterator[str | None]


def tally(outcomes: Iterable[str | None]) -> tuple[int, list[str]]:
    """(cases, failures) of a sweep: each None is one case, each string one failure."""
    outcomes = list(outcomes)
    failures = [outcome for outcome in outcomes if outcome is not None]
    return len(outcomes) - len(failures), failures


def sweep_deq_closed_forms(e_max: int = 10, q_max: int = 10) -> Sweep:
    """Product-formula diagram of (0, q+1, ..., q+e) against its closed forms."""
    for e in range(1, e_max + 1):
        for q in range(1, q_max + 1):
            yield
            d = family_deq(e, q)
            diagram = hk_diagram(d)
            for p in range(1, e + 1):
                expected = kappa_max(p, q, e)
                got = diagram.entry(p, q)
                if got != expected:
                    yield f"e={e} q={q} p={p}: entry {got} != {expected}"
            if multiplicity(d) != comb(e + q, q):
                yield f"e={e} q={q}: multiplicity {multiplicity(d)} != C(e+q,q)"


def sweep_tilde_closed_forms(e_max: int = 10) -> Sweep:
    """Diagram of (0, 2, ..., e, e+2) against the next-to-maximal closed forms."""
    for e in range(2, e_max + 1):
        yield
        d = family_tilde(e, 1)
        diagram = hk_diagram(d)
        for p in range(1, e):
            expected = kappa_next_max(p, e)
            got = diagram.entry(p, 1)
            if got != expected:
                yield f"e={e} p={p}: entry {got} != {expected}"
        if diagram.entry(e, 2) != 1:
            yield f"e={e}: corner entry {diagram.entry(e, 2)} != 1"
        if multiplicity(d) != e + 2:
            yield f"e={e}: multiplicity {multiplicity(d)} != {e + 2}"


def _sequences(e: int, low: int, high: int):
    for tail in combinations(range(low, high + 1), e):
        yield DegreeSequence((0,) + tail)


def sweep_strand_bound_lemma(e_max: int = 5, q_max: int = 4, slack: int = 3) -> Sweep:
    """The bound lemma over every d = (0, d_1, ..., d_e), q+1 <= d_1, d_e <= q+e+slack.

    Checks the entry bound, the multiplicity bound, and that each of the four
    equality conditions holds exactly for the extremal sequence.
    """
    for e in range(1, e_max + 1):
        for q in range(1, q_max + 1):
            extremal = family_deq(e, q)
            bound_multiplicity = comb(e + q, q)
            for d in _sequences(e, q + 1, q + e + slack):
                yield
                diagram = hk_diagram(d)
                degree = multiplicity(d)
                is_extremal = d.degrees == extremal.degrees
                attained = []
                for p in range(1, e + 1):
                    entry = diagram.entry(p, q)
                    bound = kappa_max(p, q, e)
                    if entry > bound:
                        yield f"d={d}: entry at p={p} is {entry} > {bound}"
                    attained.append(entry == bound)
                if degree < bound_multiplicity:
                    yield f"d={d}: multiplicity {degree} < {bound_multiplicity}"
                if all(attained) != is_extremal:
                    yield f"d={d}: all-columns equality mismatch"
                if any(attained) != is_extremal:
                    yield f"d={d}: some-column equality mismatch"
                if (degree == bound_multiplicity) != is_extremal:
                    yield f"d={d}: multiplicity equality mismatch"


def sweep_dual_multiplicity(e_max: int = 5, q_max: int = 4) -> Sweep:
    """e(d) <= C(e+q, q) whenever d_k <= q+k for every k (with d_0 = 0)."""
    for e in range(1, e_max + 1):
        for q in range(1, q_max + 1):
            bound = comb(e + q, q)
            # a strictly increasing tail drawn from 1..q+e has tail[k] <= q+k+1, so the
            # range gives exactly the sequences with d_k <= q+k
            for d in _sequences(e, 1, q + e):
                yield
                if multiplicity(d) > bound:
                    yield f"d={d}: multiplicity {multiplicity(d)} > {bound}"


def sweep_bound_comparison(e_max: int = 8, q_max: int = 6) -> Sweep:
    """Next-to-maximal values sit strictly below the maximal ones."""
    for e in range(2, e_max + 1):
        for p in range(1, e):
            yield
            if not kappa_next_max(p, e) < kappa_max(p, 1, e):
                yield f"e={e} p={p}: next-to-max not below max"
    for q in range(1, q_max + 1):
        for e in range(1, e_max + 1):
            for p in range(1, e + 1):
                yield
                if kappa_max(p, q, e) < 1:
                    yield f"e={e} q={q} p={p}: bound not positive"


def sweep_hilbert_divisibility(e_max: int = 5, q_max: int = 3, slack: int = 2) -> Sweep:
    """Integer-cleared pure diagrams have numerators divisible by (1-t)^length."""
    for e in range(1, e_max + 1):
        for q in range(1, q_max + 1):
            for d in _sequences(e, q + 1, q + e + slack):
                yield
                cleared, _ = hk_diagram(d).cleared()
                coeffs = cleared.hilbert_numerator()
                for _ in range(d.length):
                    coeffs = _divide_by_one_minus_t(coeffs)
                    if coeffs is None:
                        yield f"d={d}: numerator not divisible by (1-t)^length"
                        break


def _divide_by_one_minus_t(coeffs: list[int]) -> list[int] | None:
    """Exact quotient by (1 - t), or None when the remainder is nonzero."""
    if sum(coeffs):
        return None
    quotient = list(accumulate(coeffs[:-1]))
    # each turn pops one coefficient, so it turns len(quotient) times at most
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
    for _ in range(trials):
        ideal = random_ideal(rng)
        pieces = _Ring(ideal)
        for q in range(q_max + 1):
            for p in range(1, ideal.num_vars + 2):
                yield
                outer = koszul_differential(ideal, p, q, pieces)
                inner = koszul_differential(ideal, p - 1, q + 1, pieces)
                if not outer.compose(inner, ideal.char_p).is_zero():
                    yield f"ideal on {ideal.num_vars} vars: delta^2 != 0 at (p={p}, q={q})"


def sweep_row_zero_rank(trials: int = 40, seed: int = 53) -> Sweep:
    """rank(delta_p: wedge^p V (x) M_0 -> wedge^{p-1} V (x) M_1) = C(n, p) - C(dim I_1, p).

    `_betti_entries` reads row 0 off this closed form and builds no
    differential at q = 0; here each one is built and ranked, over the
    rationals, GF(32003) and GF(2).
    """
    rng = random.Random(seed)
    for _ in range(trials):
        ideal = random_ideal(rng, max_generators=4)
        for char_p in (None, 32003, 2):
            field_ideal = replace(ideal, char_p=char_p)
            ring = _Ring(field_ideal)
            n, linear = ideal.num_vars, ideal.num_vars - ring[1].dim
            for p in range(n + 1):
                yield
                got = koszul_differential(field_ideal, p, 0, ring).rank(char_p)
                if got != comb(n, p) - comb(linear, p):
                    yield f"{field_ideal}: rank {got} at p={p}, not C({n},{p}) - C({linear},{p})"


def sweep_delta2_rank(trials: int = 40, seed: int = 59, q_max: int = 3) -> Sweep:
    """rank delta_{2,q} = n * dim M_{q+1} - dim M_{q+2} - beta_{1,q+2}, against the built matrix.

    `_betti_entries` reads the rank of delta_2 off the pieces and the
    minimal generator counts (`_delta2_rank`) and builds no delta_2; here
    each is built and ranked, over the rationals, GF(32003) and GF(2), on
    the ring of S/I in rows 0..q_max and on `betti_table`'s cut ring in the
    rows 0..m - 1 it computes.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        ideal = random_ideal(rng, max_generators=4)
        for char_p in (None, 32003, 2):
            field_ideal = replace(ideal, char_p=char_p)
            _, cut, m, _ = _cut_regular_variables(field_ideal, q_max)
            for name, ring, rows in (("uncut", _Ring(field_ideal), q_max + 1), ("cut", cut, m)):
                for q in range(rows):
                    yield
                    read = _delta2_rank(ring, q)
                    built = koszul_differential(ring, 2, q, ring).rank(char_p)
                    if read != built:
                        yield f"{field_ideal}: {name} rank {read} read at q={q}, but {built} built"


def uncut_table(ideal: Ideal, q_max: int) -> BettiTable:
    """Rows 0..q_max computed in all of the ideal's variables, with no cut."""
    return _betti_entries(_Ring(ideal), q_max)


def sweep_cut_agrees_with_uncut(trials: int = 100, seed: int = 31, q_max: int = 3) -> Sweep:
    """betti_table, which cuts certified regular variables, against the uncut table.

    When betti_table certifies its table complete, the uncut table three rows
    further must have no row past q_max.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        ideal = random_ideal(rng)
        for char_p in (None, 32003):
            yield
            field_ideal = replace(ideal, char_p=char_p)
            table, certified = betti_table(field_ideal, q_max)
            expected = uncut_table(field_ideal, q_max)
            if table != expected:
                yield f"{field_ideal}: cut table {table} != uncut {expected}"
            elif certified:
                row = uncut_table(field_ideal, q_max + 3).regularity()
                if row > q_max:
                    yield (f"{field_ideal}: certified at q_max {q_max}, "
                           f"but the uncut table has row {row}")


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
    for _ in range(trials):
        yield
        table, terms = random_chain_table(rng)
        recovered = bs_decompose(table)
        expected = {d.degrees: c for c, d in terms}
        got = {d.degrees: c for c, d in recovered.terms}
        if expected != got:
            yield f"terms {sorted(expected)} came back as {sorted(got)}"
        elif recovered.reconstruct() != table:
            yield f"reconstruction mismatch for terms {sorted(expected)}"


ALL_SWEEPS = [
    ("degree-family closed forms", sweep_deq_closed_forms),
    ("next-to-maximal family closed forms", sweep_tilde_closed_forms),
    ("strand bound lemma (exhaustive)", sweep_strand_bound_lemma),
    ("dual multiplicity inequality", sweep_dual_multiplicity),
    ("bound comparison", sweep_bound_comparison),
    ("hilbert numerator divisibility", sweep_hilbert_divisibility),
    ("koszul differential squares to zero", sweep_square_zero),
    ("row 0 ranks read off dim M_1", sweep_row_zero_rank),
    ("delta_2 ranks read off the generator counts", sweep_delta2_rank),
    ("certified cut agrees with the uncut table", sweep_cut_agrees_with_uncut),
    ("cone decomposition round trip", sweep_cone_round_trip),
]


def run_all() -> list[tuple[str, int, list[str]]]:
    return [(name, *tally(sweep())) for name, sweep in ALL_SWEEPS]
