import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bettikit import koszul
from bettikit.decompose import bs_decompose
from bettikit.fixtures import FIXTURES, load_text
from bettikit.koszul import (_betti, _betti_entries, _cut_regular_variables, _hilbert_matches,
                             _Ring, betti_table, graded_piece, hilbert_consistency,
                             koszul_differential)
from bettikit.linalg import SparseMatrix
from bettikit.polyring import Ideal, index_maps, mono_times_var, parse_ideal, parse_polynomial
from bettikit.pure import family_deq, hk_diagram, kappa_max
from bettikit.selftest import (random_ideal, sweep_delta2_rank, sweep_row_zero_rank,
                               sweep_square_zero, tally, uncut_table)
from bettikit.tables import BettiTable
from oracles import (TWISTED_CUBIC_TABLE, hochster_table, ideal_from, minimal_generators,
                     normal_form)


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


def test_graded_piece_equality_and_repr():
    piece, again = graded_piece(TWISTED_CUBIC, 2), graded_piece(TWISTED_CUBIC, 2)
    assert piece.__eq__("piece") is NotImplemented and piece != "piece"
    assert piece == again and repr(piece) == repr(again)
    assert repr(piece) == (f"GradedPiece(q=2, standard={piece.standard!r}, "
                           f"rewrite={piece.rewrite!r})")


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
    matrix = koszul_differential(no_linear, 1, 0, _Ring(no_linear))
    assert matrix.nrows == 3
    assert matrix.rank(None) == 3


def test_full_koszul_complex_exact():
    # zero ideal: the complex is exact except at (0, 0)
    free = Ideal(num_vars=3, generators=(), char_p=None)
    table, complete = betti_table(free, 2)
    assert table == BettiTable({(0, 0): 1})
    assert complete


def test_square_zero_on_fixture():
    pieces = _Ring(TWISTED_CUBIC)
    for p in range(1, 5):
        for q in range(0, 3):
            outer = koszul_differential(TWISTED_CUBIC, p, q, pieces)
            inner = koszul_differential(TWISTED_CUBIC, p - 1, q + 1, pieces)
            assert outer.compose(inner, TWISTED_CUBIC.char_p).is_zero()


def test_koszul_differential_does_not_write_pieces():
    ring = _Ring(TWISTED_CUBIC)
    chain = [ring[q] for q in range(3)]
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
    cases, failures = tally(sweep_square_zero(trials=6, seed=7))
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
    differential = koszul._differential

    def counting(ring, p, q, skip):
        built.append((ring.num_vars, p, q))
        return differential(ring, p, q, skip)

    monkeypatch.setattr(koszul, "_differential", counting)
    betti_table(TWISTED_CUBIC, 3)
    # the cut ring of the twisted cubic has 2 variables, and the certificate
    # fires at m = 2, so only rows 0..1 are computed; delta_1 is never built,
    # its rank is read as dim M_{q+1}, nor is delta_0, since column 0 above
    # row 0 is 0, nor any differential at q = 0, whose rank is read off dim M_1,
    # nor delta_2, whose rank is read off the pieces and the generator counts
    assert built == []
    uncut_table(TWISTED_CUBIC, 3)
    assert len(built) == len(set(built))
    assert set(built) == {(4, p, q) for p in (3, 4) for q in range(1, 4)}


def products(ring, var, q):
    """The columns x_var sends the standard monomials of ring[q] to, in the order of the image."""
    image = index_maps(ring.num_vars, q)[var]
    return [image[col] for col in ring[q].free]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 10**6), char_p=st.sampled_from((None, 32003, 2)))
def test_images_equal_the_rules_of_every_lead(seed, char_p):
    # each image row is the rule a read of every lead of M_{q+1} gives for
    # its column, or the free column itself, on S/I and on the walk's cut
    # ring; images and echelons are keyed by the free columns of S_q
    ideal = replace(random_ideal(random.Random(seed)), char_p=char_p)
    for ring in (_Ring(ideal), _cut_regular_variables(ideal, 3)[1]):
        for q in range(4):
            target = ring[q + 1]
            rules = {lead: ring.F.rule(row, lead) for lead, row in target.rows.items()}
            free, below = set(target.free), set(ring[q].free)
            for var in range(ring.num_vars):
                image = ring.image(var, q)
                assert image == [rules[t] if t in rules else (1, {t: 1})
                                 for t in products(ring, var, q)], (var, q)
                assert all(col in free for _, nums in image for col in nums), (var, q)
                assert all(lead in below and row.keys() <= below
                           for lead, row in ring.echelon(var, q).items()), (var, q)


@pytest.mark.parametrize("char_p", (None, 32003))
def test_an_image_makes_rules_only_for_the_leads_it_reads(char_p, monkeypatch):
    ring, made = _Ring(replace(TWISTED_CUBIC, char_p=char_p)), []
    rule = type(ring.F).rule
    monkeypatch.setattr(type(ring.F), "rule",
                        lambda F, row, lead: made.append(lead) or rule(F, row, lead))
    fewer = False
    for q in range(4):
        ring[q + 1]
        for var in range(ring.num_vars):
            made.clear()
            ring.image(var, q)
            assert made == [t for t in products(ring, var, q) if t in ring[q + 1].rows], (var, q)
            fewer |= len(made) < ring[q + 1].ideal_dim
    assert fewer


def engine_differentials(ideal, q_max):
    """[ring, p, q, rows handed, rank] for each differential `betti_table` and `uncut_table` rank."""
    calls, differential, leads = [], koszul._differential, koszul.leads

    def recording_differential(ring, p, q, skip):
        rows = differential(ring, p, q, skip)
        calls.append([ring, p, q, len(rows)])
        return rows

    def recording_leads(rows, F):
        found = leads(rows, F)
        calls[-1].append(len(found))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(koszul, "_differential", recording_differential)
        patch.setattr(koszul, "leads", recording_leads)
        betti_table(ideal, q_max)
        uncut_table(ideal, q_max)
    return calls


def assert_kept_rows_rank_the_full_differential(ideal, q_max):
    # each rank equals the full matrix's, built on every row by
    # `koszul_differential`, and for q >= 2 the rows handed are all but the
    # r_{p+1,q-1} that the image of delta_{p+1,q-1} leads
    skipped = 0
    for ring, p, q, handed, found in engine_differentials(ideal, q_max):
        assert found == koszul_differential(ring, p, q, ring).rank(ideal.char_p), (p, q)
        domain = comb(ring.num_vars, p) * ring[q].dim
        below = koszul_differential(ring, p + 1, q - 1, ring).rank(ideal.char_p) if q >= 2 else 0
        assert handed == (domain - below if ring[q + 1].dim else 0), (p, q)
        skipped += domain - handed if ring[q + 1].dim else 0
    return skipped


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 10**6), char_p=st.sampled_from((None, 32003, 2)),
       q_max=st.integers(1, 3))
def test_ranks_on_kept_rows_equal_the_full_ranks(seed, char_p, q_max):
    ideal = replace(random_ideal(random.Random(seed)), char_p=char_p)
    assert_kept_rows_rank_the_full_differential(ideal, q_max)


@pytest.mark.parametrize("char_p", (None, 32003, 2))
def test_boundary_rows_are_not_built(char_p):
    # the uncut twisted cubic's rows 2 and 3 have boundaries to skip
    assert assert_kept_rows_rank_the_full_differential(replace(TWISTED_CUBIC, char_p=char_p), 3) > 0


def scroll(parts, char_p):
    """The rational normal scroll S(parts): the 2 x 2 minors of its 2 x sum(parts) matrix."""
    top, bottom, var = [], [], 0
    for a in parts:
        top += [f"x{var + i}" for i in range(a)]
        bottom += [f"x{var + i + 1}" for i in range(a)]
        var += a + 1
    return ideal_from(var, [f"{top[i]}*{bottom[j]} - {top[j]}*{bottom[i]}"
                            for i, j in combinations(range(len(top)), 2)], char_p)


@pytest.mark.parametrize("parts", ((2, 2), (2, 3)))
@pytest.mark.parametrize("char_p", (None, 32003))
def test_scrolls_attain_the_first_strand_maxima(parts, char_p):
    # S(a_1..a_k) has codimension e = sum(a_i) - 1 and the Eagon-Northcott
    # table, row 1 kappa_max(p, 1, e) and nothing above; no variable is
    # regular on a scroll, so the walk cuts nothing and stops unknown
    e, q_max = sum(parts) - 1, 3
    table, complete = betti_table(scroll(parts, char_p), q_max)
    assert not complete
    assert table == BettiTable({(0, 0): 1, **{(p, 1): kappa_max(p, 1, e) for p in range(1, e + 1)}})


@pytest.mark.parametrize("char_p", (None, 32003))
def test_generators_are_listed_only_in_degrees_a_piece_reaches(char_p, monkeypatch):
    # x4^120 has a degree of C(125, 5) monomials, and rows 0..2 step pieces
    # through degree 4 only; listing a larger degree raises at once here,
    # where calling through would exhaust memory
    listed = koszul.monomials_of_degree

    def bounded(num_vars, degree):
        if degree > 4:
            raise AssertionError(f"monomials of degree {degree} listed")
        return listed(num_vars, degree)

    monkeypatch.setattr(koszul, "monomials_of_degree", bounded)
    ideal = ideal_from(6, ["x0*x1 - x2*x3", "x4^120"], char_p)
    assert betti_table(ideal, 2) == (BettiTable({(0, 0): 1, (1, 1): 1}), False)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 10**6), char_p=st.sampled_from((None, 32003, 2)))
def test_delta_1_is_onto(seed, char_p):
    # the identity `_betti_entries` reads instead of building delta_1:
    # S_1 * M_q = M_{q+1}, so rank delta_1 = dim M_{q+1}
    ideal = replace(random_ideal(random.Random(seed), max_generators=4), char_p=char_p)
    ring = koszul._Ring(ideal)
    for q in range(4):
        assert koszul_differential(ideal, 1, q, ring).rank(char_p) == ring[q + 1].dim


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 10**6))
@example(seed=35)        # 4 variables, dim I_1 = 3 over GF(2)
@example(seed=17)        # 4 variables, dim I_1 = 2 over the rationals
def test_row_zero_ranks_are_read_off_dim_m1(seed):
    # the identity `_betti_entries` reads instead of building any delta_p at
    # q = 0: its kernel is wedge^p I_1, so rank delta_p = C(n, p) - C(dim I_1, p);
    # the sweep draws the seed's ideal and checks it over all three fields
    assert tally(sweep_row_zero_rank(trials=1, seed=seed))[1] == []


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 10**6), char_p=st.sampled_from((None, 32003, 2)),
       q_max=st.integers(1, 3))
def test_delta_2_ranks_are_read_off_the_generator_counts(seed, char_p, q_max):
    # the identity `_betti_entries` reads instead of building delta_2:
    # rank delta_{2,q} = n * dim M_{q+1} - dim M_{q+2} - beta_{1,q+2}, on the
    # ring of S/I in every row and on `betti_table`'s cut ring in its rows
    # 0..m - 1, where the cut ring reads the counts of the ring of S/I; the
    # sweep draws the seed's ideal and checks it over all three fields
    assert tally(sweep_delta2_rank(trials=1, seed=seed, q_max=q_max))[1] == []
    ideal = replace(random_ideal(random.Random(seed), max_generators=4), char_p=char_p)
    uncut = _Ring(ideal)
    uncut[q_max + 2]    # steps M_0..M_{q_max+2}, recording minimal[q] at each
    _, cut, _, _ = _cut_regular_variables(ideal, q_max)
    root = cut
    while root.var is not None:
        root = root.source
    assert cut.minimal is root.minimal
    for ring in (uncut, root):
        assert ring.minimal == {q: minimal_generators(ideal, q) for q in range(len(ring.pieces))}


REDUNDANT = ideal_from(3, ["x0^2", "x1^2", "x0^2*x2", "x2^3"])    # x0^2*x2 lies in S_1 * I_2
DUPLICATED = ideal_from(4, ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2", "x0*x3 - x1*x2"])


@pytest.mark.parametrize("char_p", (None, 32003, 2))
@pytest.mark.parametrize("ideal, counts, expected", [
    # x0^2*x2 adds no pivot to S_1 * I_2, and x2^3 adds one
    (REDUNDANT, {2: 2, 3: 1}, hochster_table(3, [(2, 0, 0), (0, 2, 0), (0, 0, 3)], None, 5)),
    # the repeated quadric adds no pivot
    (DUPLICATED, {2: 3}, TWISTED_CUBIC_TABLE),
])
def test_redundant_generators_add_no_pivot(ideal, counts, expected, char_p):
    ideal = replace(ideal, char_p=char_p)
    ring = _Ring(ideal)
    uncut = _betti_entries(ring, 5)
    assert {q: c for q, c in ring.minimal.items() if c} == counts
    assert uncut == expected
    assert betti_table(ideal, 5)[0] == uncut


@pytest.mark.parametrize("char_p", (2, 3))
def test_a_generator_vanishing_mod_p_adds_no_pivot(char_p):
    # 6*x0^3 + 6*x1*x2^2 is 0 in GF(2) and GF(3), and a minimal cubic over the rationals
    lines = ["x0^2 - x1*x2", "x1^2"]
    ideal = ideal_from(3, lines + ["6*x0^3 + 6*x1*x2^2"], char_p)
    ring = _Ring(ideal)
    uncut = _betti_entries(ring, 4)
    assert ring.minimal == {q: minimal_generators(ideal, q) for q in range(len(ring.pieces))}
    assert ring.minimal[3] == 0 < minimal_generators(replace(ideal, char_p=None), 3)
    assert uncut == _betti_entries(_Ring(ideal_from(3, lines, char_p)), 4)
    assert betti_table(ideal, 4)[0] == uncut


def test_delta_2_steps_no_piece_past_a_zero_one():
    # (x0^2, x1^2) has M_3 = 0, so row 2 reads rank delta_{2,2} as 0 and
    # steps no piece past M_3
    ring = _Ring(TWO_QUADRICS)
    assert _betti_entries(ring, 2) == BettiTable({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    assert len(ring.pieces) == 4


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


@pytest.mark.parametrize("char_p", (None, 32003))
def test_hilbert_check_on_the_walks_ring_equals_a_fresh_ring(char_p):
    # the ring `_betti` returns holds pieces the walk stepped; past them it
    # steps on, and it reads the dimensions a fresh ring of S/I reads
    for entry in filter(lambda entry: entry.is_ideal(), FIXTURES):
        ideal = replace(parse_ideal(load_text(entry.filename)), char_p=char_p)
        table, _, ring = _betti(ideal, entry.qmax)
        assert ring.var is None and ring.root is ring
        q_max = len(ring.pieces) + 2
        assert _hilbert_matches(ring, table, q_max) == hilbert_consistency(ideal, table, q_max)
        assert _hilbert_matches(ring, table, entry.qmax)
        (p, q), value = max(table.entries.items())
        changed = BettiTable({**table.entries, (p, q): value + 1})
        assert not _hilbert_matches(ring, changed, max(entry.qmax, p + q)), entry.name


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
    monkeypatch.setattr(koszul, "leads", lambda rows, F: set(range(100)))
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
