import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettikit import koszul
from bettikit.decompose import bs_decompose
from bettikit.fixtures import FIXTURES, load_text
from bettikit.koszul import (betti_table, graded_piece, graded_pieces, hilbert_consistency,
                             koszul_differential)
from bettikit.linalg import SparseMatrix
from bettikit.polyring import Ideal, mono_times_var, parse_ideal, parse_polynomial
from bettikit.pure import family_deq, hk_diagram
from bettikit.selftest import random_ideal, sweep_square_zero, uncut_table
from bettikit.tables import BettiTable
from oracles import normal_form


def ideal_from(num_vars, lines, char_p=None):
    gens = tuple(parse_polynomial(line, num_vars) for line in lines)
    return Ideal(num_vars=num_vars, generators=gens, char_p=char_p)


TWISTED_CUBIC = ideal_from(4, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"])
TWO_QUADRICS = ideal_from(2, ["x0^2", "x1^2"])


def test_graded_piece_two_quadrics():
    assert graded_piece(TWO_QUADRICS, 2).dim == 1
    assert graded_piece(TWO_QUADRICS, 3).dim == 0
    assert graded_piece(TWO_QUADRICS, 2).standard == ((1, 1),)
    assert set(graded_piece(TWO_QUADRICS, 2).rewrite) == {(2, 0), (0, 2)}


def test_graded_piece_twisted_cubic():
    piece = graded_piece(TWISTED_CUBIC, 2)
    assert piece.dim + piece.ideal_dim == 10
    assert piece.ideal_dim == 3
    assert piece.dim == 7


def test_graded_piece_dimensions_match_parametrization():
    # coordinate ring of the twisted cubic has dim M_q = 3q + 1
    for q in range(5):
        assert graded_piece(TWISTED_CUBIC, q).dim == 3 * q + 1


def test_normal_form_lands_on_standard_monomials():
    piece = graded_piece(TWISTED_CUBIC, 2)
    standard = set(piece.standard)
    for mono in piece.rewrite:
        reduced = normal_form(piece, {mono: Fraction(1)}, None)
        assert set(reduced) <= standard


def test_differential_on_linear_forms():
    # with no linear forms in the ideal, V (x) M_0 -> M_1 is the inclusion of V
    no_linear = ideal_from(3, ["x0^2 + x1*x2"])
    matrix = koszul_differential(no_linear, 1, 0, list(islice(graded_pieces(no_linear), 2)))
    assert matrix.nrows == 3
    assert matrix.rank(None) == 3


def test_full_koszul_complex_exact():
    # zero ideal: the complex is exact except at (0, 0)
    free = Ideal(num_vars=3, generators=(), char_p=None)
    table, complete = betti_table(free, 2)
    assert table == BettiTable({(0, 0): 1})
    assert complete


def test_square_zero_on_fixture():
    pieces = list(islice(graded_pieces(TWISTED_CUBIC), 5))
    for p in range(1, 5):
        for q in range(0, 3):
            outer = koszul_differential(TWISTED_CUBIC, p, q, pieces)
            inner = koszul_differential(TWISTED_CUBIC, p - 1, q + 1, pieces)
            assert outer.compose(inner, TWISTED_CUBIC.char_p).is_zero()


def test_koszul_differential_does_not_write_pieces():
    chain = list(islice(graded_pieces(TWISTED_CUBIC), 3))
    full = dict(enumerate(chain))
    expected = koszul_differential(TWISTED_CUBIC, 2, 1, full)
    for held in (full, chain):
        keys = list(range(len(held)))
        before = [held[q] for q in keys]
        assert koszul_differential(TWISTED_CUBIC, 2, 1, held) == expected
        assert len(held) == len(before)
        assert all(held[q] is before[q] for q in keys)
    assert full.keys() == {0, 1, 2}


def oracle_differential(ideal, p, q, pieces):
    """The differential as built from `oracles.normal_form`, summing with +=."""
    n = ideal.num_vars
    source, target = pieces[q], pieces[q + 1]
    domain_wedges = list(combinations(range(n), p))
    codomain_wedges = list(combinations(range(n), p - 1)) if p >= 1 else []
    nrows = len(domain_wedges) * source.dim
    ncols = len(codomain_wedges) * target.dim
    if nrows == 0 or ncols == 0:
        return SparseMatrix(nrows, ncols)
    wedge_index = {w: i for i, w in enumerate(codomain_wedges)}
    target_index = {m: i for i, m in enumerate(target.standard)}
    rows = []
    for wedge in domain_wedges:
        for mono in source.standard:
            row = {}
            for j, var in enumerate(wedge):
                sign = 1 if j % 2 == 0 else -1
                base = wedge_index[wedge[:j] + wedge[j + 1:]] * target.dim
                image = normal_form(target, {mono_times_var(mono, var): Fraction(1)},
                                    ideal.char_p)
                for m2, value in image.items():
                    col = base + target_index[m2]
                    row[col] = row.get(col, 0) + sign * value
            if ideal.char_p is None:
                row = {c: v for c, v in row.items() if v != 0}
            else:
                row = {c: v % ideal.char_p for c, v in row.items() if v % ideal.char_p != 0}
            rows.append(row)
    return SparseMatrix(nrows, ncols, rows)


def assert_differentials_match_oracle(ideal, q_max):
    pieces = {q: graded_piece(ideal, q) for q in range(q_max + 2)}
    value_type = Fraction if ideal.char_p is None else int
    for q in range(q_max + 1):
        for p in range(ideal.num_vars + 2):
            got = koszul_differential(ideal, p, q, pieces)
            expected = oracle_differential(ideal, p, q, pieces)
            assert (got.nrows, got.ncols) == (expected.nrows, expected.ncols)
            assert got.rows == expected.rows, (ideal, p, q)
            for row in got.rows:
                for value in row.values():
                    assert type(value) is value_type
                    assert ideal.char_p is None or 0 < value < ideal.char_p


@pytest.mark.parametrize("char_p", (None, 32003))
def test_differential_matches_normal_form_oracle_on_fixtures(char_p):
    for entry in FIXTURES:
        if entry.is_ideal():
            ideal = replace(parse_ideal(load_text(entry.filename)), char_p=char_p)
            assert_differentials_match_oracle(ideal, entry.qmax)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 10**6), char_p=st.sampled_from((None, 32003, 5)),
       q_max=st.integers(1, 3))
def test_differential_matches_normal_form_oracle_on_random_ideals(seed, char_p, q_max):
    ideal = replace(random_ideal(random.Random(seed)), char_p=char_p)
    assert_differentials_match_oracle(ideal, q_max)


def test_square_zero_random_sweep():
    cases, failures = sweep_square_zero(trials=6, seed=7)
    assert failures == []
    assert cases > 0


def test_betti_numbers_principal_linear():
    ideal = ideal_from(2, ["x0"])
    assert uncut_table(ideal, 0).entry(0, 0) == 1
    assert uncut_table(ideal, 0).entry(1, 0) == 1
    for p, q in [(0, 1), (1, 1), (2, 0), (2, 1), (1, 2)]:
        assert uncut_table(ideal, q).entry(p, q) == 0


def test_betti_numbers_twisted_cubic():
    assert uncut_table(TWISTED_CUBIC, 1).entry(1, 1) == 3
    assert uncut_table(TWISTED_CUBIC, 1).entry(2, 1) == 2
    assert uncut_table(TWISTED_CUBIC, 0).entry(0, 0) == 1
    for p, q in [(1, 2), (2, 2), (3, 1), (3, 2), (4, 1)]:
        assert uncut_table(TWISTED_CUBIC, q).entry(p, q) == 0


def test_betti_numbers_complete_intersection():
    assert uncut_table(TWO_QUADRICS, 0).entry(0, 0) == 1
    assert uncut_table(TWO_QUADRICS, 1).entry(1, 1) == 2
    assert uncut_table(TWO_QUADRICS, 2).entry(2, 2) == 1
    assert uncut_table(TWO_QUADRICS, 2).entry(1, 2) == 0


def test_each_differential_is_built_once(monkeypatch):
    built = []

    def counting(ideal, p, q, pieces):
        built.append((ideal.num_vars, p, q))
        return koszul_differential(ideal, p, q, pieces)

    monkeypatch.setattr(koszul, "koszul_differential", counting)
    betti_table(TWISTED_CUBIC, 3)
    # the cut ring of the twisted cubic has 2 variables, and the certificate
    # fires at m = 2, so only rows 0..1 are computed
    assert len(built) == len(set(built)) == (2 + 1) * (1 + 1)
    built.clear()
    uncut_table(TWISTED_CUBIC, 3)
    assert len(built) == len(set(built)) == (4 + 1) * (3 + 1)


def test_betti_table_twisted_cubic():
    table, complete = betti_table(TWISTED_CUBIC, 3)
    assert table == BettiTable({(0, 0): 1, (1, 1): 3, (2, 1): 2})
    assert complete


def test_betti_table_incomplete_flag():
    # the twisted cubic certifies at m = 2 even at q_max 1
    table, complete = betti_table(TWISTED_CUBIC, 1)
    assert table == BettiTable({(0, 0): 1, (1, 1): 3, (2, 1): 2})
    assert complete
    # (x0^2, x1^5) is 6-regular: rows 2 and 3 are empty, but q_max 3 cannot certify it
    gap = ideal_from(2, ["x0^2", "x1^5"])
    table, complete = betti_table(gap, 3)
    assert table == BettiTable({(0, 0): 1, (1, 1): 1})
    assert not complete
    table, complete = betti_table(gap, 6)
    assert table == BettiTable({(0, 0): 1, (1, 1): 1, (1, 4): 1, (2, 5): 1})
    assert complete


def test_betti_table_veronese():
    ideal = ideal_from(6, [
        "x0*x3 - x1^2", "x0*x4 - x1*x2", "x1*x4 - x2*x3",
        "x0*x5 - x2^2", "x1*x5 - x2*x4", "x3*x5 - x4^2"])
    table, complete = betti_table(ideal, 3)
    assert table == BettiTable({(0, 0): 1, (1, 1): 6, (2, 1): 8, (3, 1): 3})
    assert complete
    # minimal-degree surface attains the strand maxima
    assert table == hk_diagram(family_deq(3, 1))


def test_hilbert_consistency_fixtures():
    table, _ = betti_table(TWISTED_CUBIC, 3)
    assert hilbert_consistency(TWISTED_CUBIC, table, 3)
    linear = ideal_from(2, ["x0"])
    t2, _ = betti_table(linear, 2)
    assert hilbert_consistency(linear, t2, 2)


def test_hilbert_consistency_detects_corruption():
    table, _ = betti_table(TWISTED_CUBIC, 3)
    corrupted = BettiTable({**table.entries, (1, 1): table.entry(1, 1) + 1})
    assert not hilbert_consistency(TWISTED_CUBIC, corrupted, 3)


def test_hilbert_consistency_needs_integers_only_through_q_max():
    table, _ = betti_table(TWISTED_CUBIC, 3)
    assert (2, 2) not in table.entries and (1, 2) not in table.entries
    # (2, 2) lies in degree 4 > q_max, so its entry is never read
    past = BettiTable({**table.entries, (2, 2): Fraction(1, 2)})
    assert hilbert_consistency(TWISTED_CUBIC, past, 3)
    within = BettiTable({**table.entries, (1, 2): Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"non-integer entry 1/2 at \(p=1, q=2\)"):
        hilbert_consistency(TWISTED_CUBIC, within, 3)


def test_field_independence_on_fixtures():
    for ideal in (TWISTED_CUBIC, TWO_QUADRICS):
        rational, _ = betti_table(ideal, 3)
        modular, _ = betti_table(replace(ideal, char_p=32003), 3)
        assert rational == modular


def test_kappa_0q_vanishes_and_kappa_00_is_one():
    # quotient rings are generated in degree 0, so column 0 is always a lone 1
    rng = random.Random(21)
    for _ in range(8):
        ideal = random_ideal(rng)
        table, _ = betti_table(ideal, 3)
        assert table.entry(0, 0) == 1
        assert all(p != 0 or q == 0 for p, q in table.entries)


def test_first_column_counts_new_generators():
    # kappa_{1,q-1} = number of degree-q minimal generators
    ideal = ideal_from(2, ["x0^2", "x1^3"])
    table, _ = betti_table(ideal, 4)
    assert table.entry(1, 1) == 1   # one quadric
    assert table.entry(1, 2) == 1   # one cubic
    piece2 = graded_piece(ideal, 2)
    assert table.entry(1, 1) == piece2.ideal_dim


def test_betti_tables_lie_in_cone():
    for ideal, qmax in [(TWISTED_CUBIC, 3), (TWO_QUADRICS, 4)]:
        table, _ = betti_table(ideal, qmax)
        decomposition = bs_decompose(table)
        assert decomposition.reconstruct() == table


def test_betti_table_rejects_bad_qmax():
    with pytest.raises(ValueError):
        betti_table(TWISTED_CUBIC, 0)


def test_negative_degrees_are_rejected():
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        graded_piece(TWISTED_CUBIC, -1)
    with pytest.raises(ValueError, match="need p >= 0 and q >= 0, got p=-1, q=0"):
        koszul_differential(TWISTED_CUBIC, -1, 0, [])


def test_gf_denominator_collision():
    ideal = ideal_from(2, ["1/7*x0^2"], char_p=7)
    with pytest.raises(ValueError):
        graded_piece(ideal, 2)


def test_gf_denominator_collision_raises_at_any_qmax():
    # the generator's degree exceeds every graded piece built at q_max = 1
    ideal = ideal_from(2, ["1/7*x0^5", "x1^2"], char_p=7)
    for q_max in (1, 6):
        with pytest.raises(ValueError, match="denominator"):
            betti_table(ideal, q_max)


def test_coefficients_vanishing_mod_p_drop_their_terms():
    ideal = ideal_from(2, ["7*x0^2 + x1^2", "14*x0*x1"], char_p=7)
    assert betti_table(ideal, 3)[0] == betti_table(ideal_from(2, ["x1^2"], char_p=7), 3)[0]


def test_generator_vanishing_in_the_field_does_not_delay_the_certificate():
    # 5*x0^4 is zero in GF(5), so it neither adds a row nor raises the top
    # generator degree from 2 to 4, which would leave the certificate unknown at q_max 2
    ideal = replace(TWISTED_CUBIC, char_p=5,
                    generators=TWISTED_CUBIC.generators + (parse_polynomial("5*x0^4", 4),))
    assert betti_table(ideal, 2) == (BettiTable({(0, 0): 1, (1, 1): 3, (2, 1): 2}), True)


def test_negative_kappa_raises(monkeypatch):
    # a rank larger than the domain can only come from a faulty rank
    monkeypatch.setattr(SparseMatrix, "rank", lambda self, char_p=None: 100)
    with pytest.raises(RuntimeError, match="negative"):
        uncut_table(TWISTED_CUBIC, 1)


def test_ideal_validation():
    with pytest.raises(ValueError):
        ideal_from(2, ["x0 + x1^2"])   # inhomogeneous
    with pytest.raises(ValueError):
        Ideal(num_vars=2, generators=({},), char_p=None)
    with pytest.raises(ValueError):
        Ideal(num_vars=0, generators=(), char_p=None)


def test_parse_ideal_round_trip():
    text = "vars 4\nfield rational\nx0*x2 - x1^2\nx0*x3 - x1*x2\nx1*x3 - x2^2\n"
    ideal = parse_ideal(text)
    assert ideal.num_vars == 4
    assert ideal.char_p is None
    assert len(ideal.generators) == 3
    table, _ = betti_table(ideal, 3)
    assert table == BettiTable({(0, 0): 1, (1, 1): 3, (2, 1): 2})
