import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bettikit.decompose import (Decomposition, NotInConeError, bs_decompose,
                                multiplicity_from_decomposition)
from bettikit.pure import hk_diagram
from bettikit.selftest import random_chain_table, sweep_cone_round_trip, tally
from bettikit.tables import BettiTable, DegreeSequence
from oracles import (CUBIC_CONIC, PROJECTED_VERONESE, TWISTED_CUBIC_TABLE, chain_check,
                     reconstruct)


def test_top_strand_examples():
    # the first term peeled is the table's top strand
    assert bs_decompose(PROJECTED_VERONESE).terms[0][1] == DegreeSequence((0, 3, 4, 5, 6))
    assert bs_decompose(CUBIC_CONIC).terms[0][1] == DegreeSequence((0, 2, 3, 4))
    assert bs_decompose(BettiTable({(0, 0): 1})).terms[0][1] == DegreeSequence((0,))


def test_top_strand_column_gap():
    with pytest.raises(NotInConeError) as info:
        bs_decompose(BettiTable({(0, 0): 1, (2, 1): 4}))
    assert str(info.value) == (
        "table is outside the cone: column 1 has no entries but the table extends past it")


def test_top_strand_not_increasing():
    with pytest.raises(NotInConeError) as info:
        bs_decompose(BettiTable({(0, 0): 1, (1, 2): 1, (2, 0): 1}))
    assert str(info.value) == (
        "table is outside the cone: top strand is not strictly increasing at position 2")


def test_top_strand_empty_table():
    with pytest.raises(ValueError, match="cannot decompose an empty table"):
        bs_decompose(BettiTable({}))


def test_decompose_projected_veronese():
    decomposition = bs_decompose(PROJECTED_VERONESE)
    assert [(c, d.degrees) for c, d in decomposition.terms] == [
        (Fraction(1, 10), (0, 3, 4, 5, 6)),
        (Fraction(7, 30), (0, 3, 4, 5)),
        (Fraction(2, 3), (0, 3, 4)),
    ]
    assert decomposition.reconstruct() == PROJECTED_VERONESE


def test_decompose_cubic_conic_union():
    decomposition = bs_decompose(CUBIC_CONIC)
    assert {d.degrees: c for c, d in decomposition.terms} == {
        (0, 2, 3, 4): Fraction(2, 3),
        (0, 2, 3, 5): Fraction(2, 15),
        (0, 2, 4, 5): Fraction(1, 10),
        (0, 3, 4, 5): Fraction(1, 10),
    }
    assert decomposition.reconstruct() == CUBIC_CONIC


def test_decompose_twisted_cubic_single_term():
    decomposition = bs_decompose(TWISTED_CUBIC_TABLE)
    assert [(c, d.degrees) for c, d in decomposition.terms] == [(Fraction(1), (0, 2, 3))]


def test_decompose_free_module():
    decomposition = bs_decompose(BettiTable({(0, 0): Fraction(5, 2)}))
    assert [(c, d.degrees) for c, d in decomposition.terms] == [(Fraction(5, 2), (0,))]


def test_pure_diagram_fixpoint():
    rng = random.Random(11)
    for degrees in [(0, 2), (0, 1, 3), (0, 3, 4, 5, 6), (1, 2, 5)]:
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        diagram = hk_diagram(DegreeSequence(degrees))
        table = BettiTable({cell: c * v for cell, v in diagram.entries.items()})
        decomposition = bs_decompose(table)
        assert [(cc, d.degrees) for cc, d in decomposition.terms] == [(c, degrees)]


def test_decompose_empty_rejected():
    with pytest.raises(ValueError):
        bs_decompose(BettiTable({}))


def test_not_in_cone_strand_gap():
    bad = BettiTable({(0, 0): 1, (2, 1): 4})
    with pytest.raises(NotInConeError):
        bs_decompose(bad)


def test_not_in_cone_after_peeling():
    # first peel exhausts column 1 while column 2 still has weight left
    bad = BettiTable({(0, 0): 3, (1, 0): 1, (2, 0): 3})
    with pytest.raises(NotInConeError):
        bs_decompose(bad)


def test_not_in_cone_decreasing_strand():
    bad = BettiTable({(0, 0): 1, (1, 2): 1, (2, 0): 1})
    with pytest.raises(NotInConeError):
        bs_decompose(bad)


def test_decomposition_validation():
    with pytest.raises(ValueError):
        Decomposition(((Fraction(0), DegreeSequence((0, 1))),))
    with pytest.raises(ValueError):
        Decomposition((
            (Fraction(1), DegreeSequence((0, 1))),
            (Fraction(2), DegreeSequence((0, 1))),
        ))


def test_multiplicity_from_decomposition_known_degrees():
    assert multiplicity_from_decomposition(bs_decompose(CUBIC_CONIC), 3) == 5
    assert multiplicity_from_decomposition(bs_decompose(PROJECTED_VERONESE), 2) == 4
    assert multiplicity_from_decomposition(bs_decompose(TWISTED_CUBIC_TABLE), 2) == 3


def test_multiplicity_empty_length_part():
    assert multiplicity_from_decomposition(bs_decompose(TWISTED_CUBIC_TABLE), 5) == 0


def test_chain_check_examples():
    assert chain_check(bs_decompose(PROJECTED_VERONESE))
    assert chain_check(bs_decompose(CUBIC_CONIC))
    assert chain_check(bs_decompose(TWISTED_CUBIC_TABLE))


def test_chain_check_rejects_non_chain():
    bad = Decomposition((
        (Fraction(1), DegreeSequence((0, 2, 5))),
        (Fraction(1), DegreeSequence((0, 3, 4))),
    ))
    assert not chain_check(bad)
    grew = Decomposition((
        (Fraction(1), DegreeSequence((0, 2))),
        (Fraction(1), DegreeSequence((0, 2, 4))),
    ))
    assert not chain_check(grew)


def test_sorted_terms_matches_display_order():
    decomposition = bs_decompose(PROJECTED_VERONESE)
    ordered = [d.degrees for _, d in decomposition.sorted_terms()]
    assert ordered == [(0, 3, 4), (0, 3, 4, 5), (0, 3, 4, 5, 6)]


def test_determinism():
    first = bs_decompose(CUBIC_CONIC)
    second = bs_decompose(CUBIC_CONIC)
    assert first == second


def test_random_cone_round_trip():
    cases, failures = tally(sweep_cone_round_trip(trials=60, seed=99))
    assert cases == 60
    assert failures == []


def test_random_chains_pass_chain_check():
    rng = random.Random(13)
    for _ in range(40):
        table, _ = random_chain_table(rng)
        assert chain_check(bs_decompose(table))


def peel_oracle(table):
    """Reference peeling in Fractions on a plain dict, checking every cell in every pass."""
    terms = []
    work = dict(table.entries)
    while work:
        min_row = {}
        for p, q in work:
            min_row[p] = min(q, min_row.get(p, q))
        gaps = sorted(set(range(max(min_row))) - set(min_row))
        if gaps:
            raise NotInConeError(f"table is outside the cone: column {gaps[0]} has no entries "
                                 "but the table extends past it")
        d = [p + min_row[p] for p in range(len(min_row))]
        falls = [p for p in range(1, len(d)) if d[p] <= d[p - 1]]
        if falls:
            raise NotInConeError("table is outside the cone: top strand is not strictly "
                                 f"increasing at position {falls[0]}")
        d = DegreeSequence(tuple(d))
        diagram = hk_diagram(d).entries
        coefficient = min(work[cell] / value for cell, value in diagram.items())
        for cell, value in diagram.items():
            rest = work[cell] - coefficient * value
            if rest < 0:
                raise NotInConeError(f"left the cone while peeling {d}")
            if rest:
                work[cell] = rest
            else:
                del work[cell]
        terms.append((coefficient, d))
    return Decomposition(tuple(terms))


def peel_outcome(peel, table):
    """The terms of `peel(table)`, or the message of its NotInConeError."""
    try:
        return [(c, d.degrees) for c, d in peel(table).terms]
    except NotInConeError as exc:
        return str(exc)


positive_entries = st.fractions(min_value=Fraction(1, 12), max_value=30, max_denominator=12)


@st.composite
def sparse_tables(draw):
    """Chain tables as drawn, chain tables with one cell rescaled or added, and
    arbitrary cells in a 6 x 4 box; the last two mostly fall outside the cone."""
    kind = draw(st.sampled_from(("chain", "perturbed", "arbitrary")))
    if kind == "arbitrary":
        cells = st.tuples(st.integers(0, 5), st.integers(0, 3))
        return BettiTable(draw(st.dictionaries(cells, positive_entries, min_size=1, max_size=10)))
    table, _ = random_chain_table(random.Random(draw(st.integers(0, 2**32 - 1))))
    if kind == "chain":
        return table
    entries = dict(table.entries)
    cell = draw(st.sampled_from(sorted(entries)) | st.tuples(st.integers(0, 6), st.integers(0, 6)))
    entries[cell] = entries.get(cell, 1) * draw(positive_entries)
    return BettiTable(entries)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(table=sparse_tables())
@example(table=PROJECTED_VERONESE)
@example(table=CUBIC_CONIC)
@example(table=BettiTable({(0, 0): 3, (1, 0): 1, (2, 0): 3}))
@example(table=BettiTable({(0, 0): 1, (2, 1): 4}))
@example(table=BettiTable({(0, 0): 1, (1, 2): 1, (2, 0): 1}))
def test_peeling_matches_table_oracle(table):
    expected = peel_outcome(peel_oracle, table)
    assert peel_outcome(bs_decompose, table) == expected
    if isinstance(expected, list):
        assert len(expected) <= len(table.entries)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), max_terms=st.integers(1, 16),
       max_length=st.integers(1, 10))
def test_chain_table_round_trip(seed, max_terms, max_length):
    table, terms = random_chain_table(random.Random(seed), max_terms=max_terms,
                                      max_length=max_length)
    decomposition = bs_decompose(table)
    assert decomposition.terms == tuple(terms)
    assert decomposition.reconstruct() == table
    # each pass zeroes at least one cell and creates none
    assert len(decomposition.terms) <= len(table.entries)


def primes_above(n, count):
    """The first `count` primes greater than n, by trial division."""
    found = []
    while len(found) < count:
        n += 1
        if all(n % k for k in range(2, int(n ** 0.5) + 1)):
            found.append(n)
    return found


@st.composite
def large_integer_tables(draw):
    """(table, distinct): a long chain table with denominators up to 10**6, or
    one with each cell divided by its own prime above 10**6, so that all its
    cells have pairwise distinct denominators; the peel's running scale grows."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    max_denominator = draw(st.sampled_from((10**3, 10**6)))
    table, _ = random_chain_table(rng, max_terms=16, max_length=10, max_entry=60,
                                  max_denominator=max_denominator)
    if draw(st.booleans()):
        return table, False
    cells = sorted(table.entries)
    primes = primes_above(10**6, len(cells))
    return BettiTable({cell: table.entry(*cell) / prime
                       for cell, prime in zip(cells, primes)}), True


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=large_integer_tables())
def test_peeling_matches_table_oracle_on_large_integers(case):
    table, distinct = case
    if distinct:
        denominators = [value.denominator for value in table.entries.values()]
        assert len(set(denominators)) == len(denominators)
    assert peel_outcome(bs_decompose, table) == peel_outcome(peel_oracle, table)


def test_long_chains_with_large_denominators_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        table, terms = random_chain_table(rng, max_terms=16, max_length=10, max_entry=60,
                                          max_denominator=10**6)
        assert bs_decompose(table).terms == tuple(terms)


def bumped_chain(rng, count, length, max_denominator):
    """`count` terms along a chain of sequences of one length, each raising one entry
    of the last by 1; the peel recovers them in this order."""
    degrees = list(range(length + 1))
    terms = []
    for _ in range(count):
        coefficient = Fraction(rng.randint(1, 60), rng.randint(1, max_denominator))
        terms.append((coefficient, DegreeSequence(tuple(degrees))))
        p = rng.choice([p for p in range(1, length + 1)
                        if p == length or degrees[p] + 1 < degrees[p + 1]])
        degrees[p] += 1
    return terms


@pytest.mark.parametrize("seed", [1, 2])
def test_long_bumped_chain_round_trips(seed):
    # each pass zeroes the least row of one column that still holds many rows; the
    # coefficients' denominators reach 10**6
    terms = tuple(bumped_chain(random.Random(seed), 400, 6, 10**6))
    table = Decomposition(terms).reconstruct()
    assert len(table.entries) == 406
    decomposition = bs_decompose(table)
    assert decomposition.terms == terms
    assert decomposition == peel_oracle(table)


def test_peel_and_reconstruct_build_each_diagram_once(monkeypatch):
    table, _ = random_chain_table(random.Random(3), max_terms=16, max_length=10)
    built = []
    build = DegreeSequence.integer_diagram.func

    def counted(d):
        built.append(d.degrees)
        return build(d)

    diagram = cached_property(counted)
    diagram.__set_name__(DegreeSequence, "integer_diagram")
    monkeypatch.setattr(DegreeSequence, "integer_diagram", diagram)
    decomposition = bs_decompose(table)
    assert decomposition.reconstruct() == table
    assert len(decomposition.terms) > 1
    assert built == [d.degrees for _, d in decomposition.terms]


SKEWED_PEEL = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from bettikit.decompose import bs_decompose
from bettikit.tables import BettiTable, DegreeSequence

build, parity = DegreeSequence.integer_diagram.func, int(sys.argv[1])


class Skewed(dict):
    # a pass reads the diagram's values twice, for the least ratio and then
    # for the update; the reads of the given parity see every entry doubled
    reads = 0

    def values(self):
        Skewed.reads += 1
        return [2 * n if Skewed.reads % 2 == parity else n for n in super().values()]


def skewed(d):
    cells, n0 = build(d)
    return Skewed(cells), n0


DegreeSequence.integer_diagram = property(skewed)
table = BettiTable({(p, q): int(v) for p, q, v in zip(*[map(int, sys.argv[2:])] * 3)})
try:
    bs_decompose(table)
except RuntimeError as exc:
    print(exc)
"""


@pytest.mark.parametrize("parity, cells, message", [
    # the least ratio halved: both cells stay positive
    (1, {(0, 0): 1, (1, 1): 2}, "peel pass 1 zeroed no cell"),
    # the update doubled, so the ratio is in effect too large: both cells of
    # pi(0, 2) go negative, or the least one does while the other reaches 0
    (0, {(0, 0): 1, (1, 1): 1}, "peel pass 1 zeroed no cell"),
    (0, {(0, 0): 1, (1, 1): 2}, "peel pass 2: the least ratio -1/1 is not positive"),
])
def test_a_faulty_peel_raises_instead_of_running_on(parity, cells, message):
    # the checks make the peel end by construction; without them each fault
    # peels for ever, so it runs in a subprocess with a deadline and a 1 GiB cap
    argv = [str(parity)] + [str(x) for (p, q), v in cells.items() for x in (p, q, v)]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    child = subprocess.run([sys.executable, "-c", SKEWED_PEEL, *argv], env=env,
                           capture_output=True, text=True, timeout=10)
    assert (child.returncode, child.stdout, child.stderr) == (0, message + "\n", "")


@st.composite
def term_lists(draw):
    """Decompositions of chain terms as drawn, peeled from `sparse_tables` (empty
    when outside the cone), and of arbitrary distinct degree sequences (no
    chain) with positive coefficients."""
    kind = draw(st.sampled_from(("chain", "peeled", "arbitrary")))
    if kind == "chain":
        _, terms = random_chain_table(random.Random(draw(st.integers(0, 2**32 - 1))),
                                      max_terms=16, max_length=10)
        return Decomposition(tuple(terms))
    if kind == "peeled":
        table = draw(sparse_tables())
        try:
            return bs_decompose(table)
        except NotInConeError:
            return Decomposition(())
    starts_and_gaps = st.tuples(st.integers(0, 3), st.lists(st.integers(1, 4), max_size=8))
    sequences = starts_and_gaps.map(
        lambda drawn: DegreeSequence(tuple(accumulate(drawn[1], initial=drawn[0]))))
    terms = draw(st.dictionaries(sequences, positive_entries, max_size=6))
    return Decomposition(tuple((c, d) for d, c in terms.items()))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(decomposition=term_lists())
def test_reconstruct_matches_oracle(decomposition):
    assert decomposition.reconstruct() == reconstruct(decomposition)
