"""betti_table's cut by certified regular variables against the uncut computation."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bettikit import koszul, linalg
from bettikit.fixtures import FIXTURES, load_text
from bettikit.koszul import (_betti_entries, _cut_regular_variables, _Ring, betti_table,
                             graded_piece, hilbert_consistency)
from bettikit.linalg import PrimeField, Rationals, SparseMatrix, field
from bettikit.polyring import Ideal, mono_times_var, monomials_of_degree, parse_ideal
from bettikit.pure import kappa_max
from bettikit.selftest import sweep_cut_agrees_with_uncut, tally, uncut_table
from bettikit.tables import BettiTable
from oracles import cut_ideal, ideal_from, linear, normal_form, power

FIELDS = (None, 32003)


def multiplication_has_full_rank(ideal, source, target, var):
    """Whether multiplication by x_var, M_{j-1} -> M_j, has full rank dim M_{j-1}."""
    index = {mono: i for i, mono in enumerate(target.standard)}
    rows = []
    for mono in source.standard:
        image = normal_form(target, {mono_times_var(mono, var): Fraction(1)}, ideal.char_p)
        rows.append({index[m]: value for m, value in image.items()})
    return SparseMatrix(source.dim, target.dim, rows).rank(ideal.char_p) == source.dim


def rank_certified_cut(ideal, q_max):
    """Cut, round by round, the first variable of full rank in every degree 1..q_max+2."""
    top = q_max + 2
    while ideal.num_vars > 1:
        pieces = [graded_piece(ideal, j) for j in range(top + 1)]
        regular = [v for v in range(ideal.num_vars)
                   if all(multiplication_has_full_rank(ideal, pieces[j - 1], pieces[j], v)
                          for j in range(1, top + 1))]
        if not regular:
            break
        ideal = cut_ideal(ideal, regular[0])
    return ideal


def cut_chain(ideal, q_max):
    """The cut ideal, rebuilt by the oracle from the cut path, its pieces M'_0 .. M'_m, the flag."""
    path, ring, m, certified = _cut_regular_variables(ideal, q_max)
    cut = cut_ideal(ideal, *path)
    assert ring.num_vars == cut.num_vars
    return cut, ring.pieces[:m + 1], certified


def fixture_ideals():
    return [(entry, parse_ideal(load_text(entry.filename)))
            for entry in FIXTURES if entry.is_ideal()]


# x2 is injective on S/I from degree 0 to 3 but not from 3 to 4.
COUNTEREXAMPLE = ideal_from(3, ["x0^2", "x1*x2^2 - x0*x1^2"])

# x0 is injective on S/I through degree 3 but not from 3 to 4.  At q_max = 3
# the chain cuts x0 at m = 2, drops it at m = 3 and cuts x3 instead, and
# certifies at m = 4 on three variables.
DROPPED_CUT = ideal_from(4, ["-x0*x1 - x0*x2 - x1^2", "-2*x0^2 + 3*x0*x2 - x2*x3",
                             "-x0^2 - 2*x1*x3 - 2*x2^2"])


def test_cut_needs_injectivity_through_qmax_plus_two():
    # At q_max = 1 the certificate degree m stops at q_max + 1 = 2, the cut
    # is checked through degree m + 1 = 3, so x2 is cut and rows 0..1 still agree.
    cut, _, certified = cut_chain(COUNTEREXAMPLE, 1)
    assert cut.num_vars == 2
    assert not certified
    assert betti_table(COUNTEREXAMPLE, 1)[0] == uncut_table(COUNTEREXAMPLE, 1)
    # At q_max = 2, cutting x2 after checking only through q_max+1 = 3
    # would add a wrong cell in row q_max.
    expected = BettiTable({(0, 0): 1, (1, 1): 1, (1, 2): 1})
    assert uncut_table(COUNTEREXAMPLE, 2) == expected
    assert (uncut_table(cut_ideal(COUNTEREXAMPLE, 2), 2)
            == BettiTable({**expected.entries, (2, 2): 1}))
    cut, _, _ = cut_chain(COUNTEREXAMPLE, 2)
    assert cut.num_vars == 3
    assert betti_table(COUNTEREXAMPLE, 2)[0] == expected


def test_cut_that_fails_a_degree_up_is_replaced():
    ideal = DROPPED_CUT
    assert cut_chain(ideal, 1)[0] == cut_ideal(ideal, 0)
    cut, pieces, certified = cut_chain(ideal, 3)
    assert (cut, len(pieces) - 1, certified) == (cut_ideal(ideal, 3), 4, True)


@pytest.mark.parametrize("char_p", FIELDS)
def test_cut_matches_uncut_on_fixtures(char_p):
    for entry, ideal in fixture_ideals():
        ideal = replace(ideal, char_p=char_p)
        assert betti_table(ideal, entry.qmax)[0] == uncut_table(ideal, entry.qmax), entry.name


# (variables, variables after the cut, degree m where the certificate fires)
VARIABLES_AFTER_CUT = {
    "twisted-cubic": (4, 2, 2),
    "veronese-p2": (6, 3, 2),
    "rnc-conic": (3, 1, 2),
    "rnc-quartic": (5, 3, 2),
    "rnc-quintic": (6, 4, 2),
    "rnc-sextic": (7, 5, 2),
    "ci-two-quadrics": (2, 2, 3),
    "ci-quadric-cubic": (2, 2, 4),
    "hypersurface-cubic": (3, 1, 3),
}


@pytest.mark.parametrize("char_p", FIELDS)
def test_variables_cut_per_fixture(char_p):
    got = {}
    for entry, ideal in fixture_ideals():
        cut, pieces, certified = cut_chain(replace(ideal, char_p=char_p), entry.qmax)
        assert certified, entry.name
        m = len(pieces) - 1
        got[entry.name] = (ideal.num_vars, cut.num_vars, m)
        # the pieces M'_0 .. M'_m are all the table reads
        assert all(pieces[q] == graded_piece(cut, q) for q in range(m + 1))
        assert pieces[m].dim == 0 or cut.num_vars == 1
    assert got == VARIABLES_AFTER_CUT


@pytest.mark.parametrize("char_p", (None, 32003, 5, 2))
def test_cut_ring_pieces_match_the_cut_ideal(char_p):
    # A cut ring reads M'_q = M_q / x_v * M_{q-1} off the ring below; its
    # pieces equal, value for value, those of the cut ideal's own chain.  Each
    # variable injective through degree 3 is cut, the first, a middle and the
    # last among them, and each cut ring is cut once more by its first variable.
    positions = set()
    for entry, ideal in fixture_ideals():
        ideal = replace(ideal, char_p=char_p)
        ring, n = _Ring(ideal), ideal.num_vars
        for var in range(n):
            if not all(len(ring.echelon(var, j)) == ring[j - 1].dim for j in range(1, 4)):
                continue
            positions.add("first" if var == 0 else "last" if var == n - 1 else "middle")
            cut = _Ring(ring, var)
            assert all(cut[q] == graded_piece(cut_ideal(ideal, var), q) for q in range(5)), \
                (entry.name, var)
            if cut.num_vars > 1:
                twice = _Ring(cut, 0)
                assert all(twice[q] == graded_piece(cut_ideal(ideal, var, 0), q)
                           for q in range(4)), (entry.name, var)
    assert positions == {"first", "middle", "last"}


@pytest.mark.parametrize("char_p", FIELDS)
def test_reading_s_mod_i_leaves_its_kept_rows_as_they_were(char_p):
    # a cut ring's pieces reduce the kept rows of S/I against E in place on
    # a copy (`linalg.substitute`), and `_betti_entries` makes images from
    # them; neither changes a kept row of S/I
    for entry, ideal in fixture_ideals():
        ring = _Ring(replace(ideal, char_p=char_p))
        pieces = [ring[q] for q in range(6)]
        snapshot = [{lead: dict(row) for lead, row in piece.rows.items()} for piece in pieces]
        for var in range(ideal.num_vars):
            cut = _Ring(ring, var)
            _betti_entries(cut, 3)
        _betti_entries(ring, 3)
        assert [piece.rows for piece in pieces] == snapshot, entry.name


@pytest.mark.parametrize("char_p", FIELDS)
def test_cut_pieces_are_iterated_differences(char_p):
    # Each cut variable is injective through m + 1, and by Bayer-Stillman in
    # every degree, so each cut takes one backward difference of the Hilbert
    # function, checked here through q_max + 2: dim M'_j = Δ^k dim M_j.
    for entry, ideal in fixture_ideals():
        ideal = replace(ideal, char_p=char_p)
        top = entry.qmax + 2
        cut, pieces, _ = cut_chain(ideal, entry.qmax)
        dims = [graded_piece(ideal, j).dim for j in range(top + 1)]
        for _ in range(ideal.num_vars - cut.num_vars):
            dims = [dim - (dims[j - 1] if j else 0) for j, dim in enumerate(dims)]
        cut_dims = [(pieces[j] if j < len(pieces) else graded_piece(cut, j)).dim
                    for j in range(top + 1)]
        assert cut_dims == dims, entry.name


@st.composite
def homogeneous_ideals(draw):
    num_vars = draw(st.integers(2, 5))
    generators = []
    if draw(st.booleans()):
        # a power of every variable: the quotient is Artinian
        for i in range(num_vars):
            degree = draw(st.integers(1, 3))
            generators.append({tuple(degree if k == i else 0 for k in range(num_vars)):
                               Fraction(1)})
    for _ in range(draw(st.integers(0, 3))):
        monos = monomials_of_degree(num_vars, draw(st.integers(1, 3)))
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(support), max_size=len(support)))
        generators.append({m: Fraction(c) for m, c in zip(support, coeffs)})
    char_p = draw(st.sampled_from((None, 32003, 5)))
    return Ideal(num_vars=num_vars, generators=tuple(generators), char_p=char_p)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(ideal=homogeneous_ideals(), q_max=st.integers(1, 4))
@example(ideal=ideal_from(3, ["x0^2", "x1^2", "x2^2"], char_p=5), q_max=3)     # Artinian
@example(ideal=ideal_from(2, ["x0^2", "x0*x1"]), q_max=3)                      # depth 0
@example(ideal=ideal_from(3, ["x0*x1", "x0*x2", "x1*x2"]), q_max=3)            # no regular variable
@example(ideal=ideal_from(3, ["x0*x1"], char_p=32003), q_max=2)                # cuts x2, then stops
@example(ideal=COUNTEREXAMPLE, q_max=2)                                         # stops at q_max+2
@example(ideal=ideal_from(2, ["x0^2", "x1^5"], char_p=5), q_max=5)             # certifies at m = 6
@example(ideal=ideal_from(4, []), q_max=1)                                     # zero ideal
@example(ideal=DROPPED_CUT, q_max=3)                                            # drops a cut
def test_cut_matches_uncut_on_random_ideals(ideal, q_max):
    table, certified = betti_table(ideal, q_max)
    assert table == uncut_table(ideal, q_max)
    assert hilbert_consistency(ideal, table, q_max)
    if certified:
        # the certificate proves that no row past q_max exists
        assert uncut_table(ideal, q_max + 3).regularity() <= q_max
    cut, pieces, _ = cut_chain(ideal, q_max)
    assert 2 <= len(pieces) <= q_max + 2
    assert all(pieces[q] == graded_piece(cut, q) for q in range(len(pieces)))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(ideal=homogeneous_ideals(), q_max=st.integers(1, 3))
@example(ideal=ideal_from(2, ["x0^2", "x0*x1"]), q_max=2)                      # depth 0
@example(ideal=ideal_from(3, ["x0*x1", "x0*x2", "x1*x2"]), q_max=2)            # no regular variable
@example(ideal=ideal_from(3, ["x0*x1"], char_p=5), q_max=2)                    # cuts x2 only
@example(ideal=COUNTEREXAMPLE, q_max=2)                                         # fails at q_max+2
def test_dimension_certificate_matches_rank_oracle(ideal, q_max):
    top = q_max + 2
    pieces = [graded_piece(ideal, j) for j in range(top + 1)]
    ring = _Ring(ideal)
    for var in range(ideal.num_vars):
        cut = cut_ideal(ideal, var)
        for j in range(1, top + 1):
            identity = graded_piece(cut, j).dim == pieces[j].dim - pieces[j - 1].dim
            oracle = multiplication_has_full_rank(ideal, pieces[j - 1], pieces[j], var)
            assert identity == oracle == (len(ring.echelon(var, j)) == pieces[j - 1].dim)
    assert cut_chain(ideal, q_max)[0] == rank_certified_cut(ideal, q_max)


def rational_normal_curve(e, char_p):
    """The 2x2 minors of the Hankel matrix [x0 .. x_e; x1 .. x_{e+1}], of codimension e."""
    return ideal_from(e + 2, [f"x{i}*x{j + 1} - x{i + 1}*x{j}"
                              for i, j in combinations(range(e + 1), 2)], char_p)


@pytest.mark.parametrize("char_p", FIELDS)
@pytest.mark.parametrize("e", (4, 7))
def test_rejected_variables_build_no_ring(e, char_p, monkeypatch):
    # Every variable but the last fails on S/I; its rank test builds no ring,
    # so only the two rings of the chain are cut.  A cut ring is read off the
    # ring below, so no Ideal is built either.
    ideal, cuts, ideals = rational_normal_curve(e, char_p), [], []

    class CountedRing(_Ring):
        def __init__(self, source, var=None):
            if var is not None:
                cuts.append(var)
            super().__init__(source, var)

    monkeypatch.setattr(koszul, "_Ring", CountedRing)
    monkeypatch.setattr(Ideal, "__post_init__", lambda self: ideals.append(self))
    table, certified = betti_table(ideal, 3)
    assert len(cuts) == 2
    assert ideals == []
    assert certified
    assert table == BettiTable({(0, 0): 1, **{(p, 1): kappa_max(p, 1, e) for p in range(1, e + 1)}})


@pytest.mark.parametrize("char_p", FIELDS)
@pytest.mark.parametrize("e", (4, 7))
def test_walk_eliminates_each_multiplication_once(e, char_p, monkeypatch):
    # The injectivity test and the cut ring's pieces read one echelon of
    # x_v: M_{j-1} -> M_j, so its rows are built once per (ring, var, degree):
    # a ring's piece j is one object, so (piece j, var) names the triple.
    built = []
    multiplication = koszul._multiplication

    def recording(source, target, var):
        built.append((target, var))
        return multiplication(source, target, var)

    monkeypatch.setattr(koszul, "_multiplication", recording)
    path, _, _, certified = _cut_regular_variables(rational_normal_curve(e, char_p), 3)
    assert len(path) == 2 and certified
    assert len({(id(target), var) for target, var in built}) == len(built)


def complete_intersection_345(char_p):
    """Powers of the rows of a unimodular matrix: a complete intersection in every field."""
    return Ideal(num_vars=3, char_p=char_p, generators=(
        power(linear(1, 1, 1), 3), power(linear(1, 2, 2), 4), power(linear(1, 2, 3), 5)))


@pytest.mark.parametrize("char_p", FIELDS)
@pytest.mark.parametrize("case", ("rnc4", "rnc7", "ci345"))
def test_each_image_is_built_once(case, char_p, monkeypatch):
    # The walk's echelons and every differential of the table read one set of
    # images of x_v: M_q -> M_{q+1} per ring: no (ring, var, q) is built
    # twice, though the n - 1 differentials with p >= 2 at q all need them.
    if case == "ci345":
        ideal = complete_intersection_345(char_p)
        # the Koszul complex: kappa_{p,q} counts the p-subsets of (3, 4, 5) of sum p + q
        expected = {}
        for p in range(4):
            for subset in combinations((3, 4, 5), p):
                expected[p, sum(subset) - p] = expected.get((p, sum(subset) - p), 0) + 1
    else:
        e = int(case[3:])
        ideal = rational_normal_curve(e, char_p)
        expected = {(0, 0): 1, **{(p, 1): kappa_max(p, 1, e) for p in range(1, e + 1)}}
    built = []
    multiplication = koszul._multiplication

    def recording(source, target, var):
        built.append((source, var))
        return multiplication(source, target, var)

    monkeypatch.setattr(koszul, "_multiplication", recording)
    table, certified = betti_table(ideal, 9)
    assert certified and table == BettiTable(expected)
    # a ring's piece q is one object, so (piece q, var) names (ring, var, q)
    assert built and len({(id(source), var) for source, var in built}) == len(built)


@pytest.mark.parametrize("char_p", FIELDS)
@pytest.mark.parametrize("e", (4, 7))
def test_each_table_makes_one_field(e, char_p, monkeypatch):
    # The generator read, both piece steps, every echelon, image and
    # differential, and every rank use the field the ring of S/I made: its
    # two cuts share it, so the table's three rings make one field.
    rings, made = [], []

    class CountedRing(_Ring):
        def __init__(self, source, var=None):
            rings.append(var)
            super().__init__(source, var)

    def counting_field(char_p):
        made.append(char_p)
        return field(char_p)

    monkeypatch.setattr(koszul, "_Ring", CountedRing)
    monkeypatch.setattr(koszul, "field", counting_field)
    monkeypatch.setattr(linalg, "field", counting_field)
    table, certified = betti_table(rational_normal_curve(e, char_p), 3)
    assert certified
    assert table == BettiTable({(0, 0): 1, **{(p, 1): kappa_max(p, 1, e) for p in range(1, e + 1)}})
    assert len(rings) == 3
    assert made == [char_p]


@pytest.mark.parametrize("char_p", (None, 32003, 5, 2))
def test_each_generator_is_read_into_the_field_once(char_p, monkeypatch):
    # betti_table makes one ring of S/I, which reads each generator once,
    # for its pieces and for the top generator degree alike
    read = []

    def recording(plain):
        def row(self, values):
            read.append(values)
            return plain(self, values)
        return row

    for cls in (Rationals, PrimeField):
        monkeypatch.setattr(cls, "row", recording(cls.row))
    for entry, ideal in fixture_ideals():
        ideal = replace(ideal, char_p=char_p)
        read.clear()
        betti_table(ideal, entry.qmax)
        assert [sum(row is g for row in read) for g in ideal.generators] == \
            [1] * len(ideal.generators), entry.name


@pytest.mark.parametrize("char_p", (None, 5, 32003))
@pytest.mark.parametrize("num_vars", (1, 2, 4))
def test_zero_ideal_is_certified(num_vars, char_p):
    # every variable is regular; the last one cut leaves the field k, whose piece m is 0
    zero = Ideal(num_vars=num_vars, generators=(), char_p=char_p)
    for q_max in (1, 3):
        assert betti_table(zero, q_max) == (BettiTable({(0, 0): 1}), True)


def test_certificate_needs_every_generator_degree():
    # x2 is injective through degree 4 and cutting it leaves k[x0,x1]/(x0^2, x1^2),
    # whose piece 3 is zero; but x2^5 puts a cell in row 4, so with m <= 3
    # the certificate must not fire.  It fires once m reaches 7, past the socle.
    ideal = ideal_from(3, ["x0^2", "x1^2", "x2^5"])
    assert betti_table(ideal, 2) == (uncut_table(ideal, 2), False)
    assert betti_table(ideal, 6) == (uncut_table(ideal, 6), True)
    assert uncut_table(ideal, 6).regularity() == 6


@pytest.mark.parametrize("char_p", FIELDS)
def test_lefschetz_cut_is_certified_one_degree_up(char_p):
    # On this complete intersection of degrees (3, 4, 5), dims 1 3 6 9 11 11 9 6 3 1,
    # x1 is injective through degree 5 but not into degree 6.  Certifying only
    # through m = 5, the cut and the gate dim M_{j-1} <= dim M_j alike, would
    # cut x1, find the cut ring's piece 5 zero, and drop rows 5..9; through
    # m + 1 = 6 the gate stops every trial and nothing is lost.
    ideal = Ideal(num_vars=3, char_p=char_p, generators=(
        power(linear(1, 1, 1), 3), power(linear(1, 2, 2), 4), power(linear(1, 2, 3), 5)))
    table, certified = betti_table(ideal, 11)
    assert table == BettiTable({(0, 0): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1,
                                (2, 5): 1, (2, 6): 1, (2, 7): 1, (3, 9): 1})
    assert certified
    cut, pieces, _ = cut_chain(ideal, 11)
    assert cut.num_vars == 3 and len(pieces) - 1 == 10


def test_cut_sweep():
    cases, failures = tally(sweep_cut_agrees_with_uncut(trials=6, seed=11))
    assert cases == 12
    assert failures == []
