"""Graded pieces built degree by degree against the Macaulay-matrix construction."""

from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bettikit import koszul
from bettikit.fixtures import FIXTURES, load_text
from bettikit.koszul import GradedPiece, _next_piece, graded_piece, graded_pieces
from bettikit.linalg import field, reduced_echelon
from bettikit.polyring import Ideal, monomials_of_degree, parse_ideal, parse_polynomial
from oracles import linear, mono_mul, power, rref

FIELDS = (None, 32003)


def ideal_from(num_vars, lines, char_p=None):
    gens = tuple(parse_polynomial(line, num_vars) for line in lines)
    return Ideal(num_vars=num_vars, generators=gens, char_p=char_p)


def with_constant(num_vars, lines, constant, char_p=None):
    """The ideal of `lines` plus a constant generator, so I = S in every degree.

    `Ideal` rejects generators of degree 0; the engine needs no special case
    for them, so this builds the ideal without that check.
    """
    ideal = ideal_from(num_vars, lines, char_p)
    object.__setattr__(ideal, "generators",
                       ideal.generators + ({(0,) * num_vars: Fraction(constant)},))
    return ideal


def macaulay_piece(ideal, q):
    """Reference piece: row-reduce every m * g of degree q at once (the Macaulay matrix)."""
    basis = monomials_of_degree(ideal.num_vars, q)
    index = {mono: i for i, mono in enumerate(basis)}
    coeff = field(ideal.char_p).coeff
    rows = []
    for g in ideal.generators:
        dg = sum(next(iter(g)))  # generators are homogeneous
        if dg > q:
            continue
        for multiplier in monomials_of_degree(ideal.num_vars, q - dg):
            rows.append({index[mono_mul(multiplier, mono)]: coeff(value)
                         for mono, value in g.items()})
    pivots = rref(rows, ideal.char_p)
    standard = tuple(m for i, m in enumerate(basis) if i not in pivots)
    rewrite = {}
    for lead, row in pivots.items():
        rewrite[basis[lead]] = {
            basis[col]: (-value) if ideal.char_p is None else (-value) % ideal.char_p
            for col, value in row.items() if col != lead}
    return GradedPiece(q=q, standard=standard, rewrite=rewrite)


@st.composite
def homogeneous_ideals(draw):
    num_vars = draw(st.integers(1, 4))
    generators = []
    for _ in range(draw(st.integers(0, 4))):
        monos = monomials_of_degree(num_vars, draw(st.integers(1, 4)))
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        # numerators +-5 and +-10 vanish mod 5; denominators are units in every field used
        coeffs = draw(st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=3)
                               .filter(bool), min_size=len(support), max_size=len(support)))
        generators.append(dict(zip(support, coeffs)))
    char_p = draw(st.sampled_from((None, 32003, 5)))
    return Ideal(num_vars=num_vars, generators=tuple(generators), char_p=char_p)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(ideal=homogeneous_ideals(), q=st.integers(0, 6))
@example(ideal=with_constant(2, [], 3), q=0)                                     # I = S
@example(ideal=with_constant(3, ["x0^2 + x1*x2"], 2, char_p=5), q=4)             # I = S
@example(ideal=ideal_from(3, ["x0", "x1", "x2"], char_p=32003), q=3)             # I_q = S_q, q > 0
@example(ideal=Ideal(num_vars=3, generators=(), char_p=None), q=5)               # zero ideal
@example(ideal=ideal_from(3, ["x0^5", "x1*x2^4 - x0^5"]), q=4)                   # all above q
@example(ideal=ideal_from(2, ["x0^2 - x1^2", "x1^6"], char_p=32003), q=5)        # one above q
@example(ideal=ideal_from(2, ["5*x0^2 + x1^2", "10*x0*x1"], char_p=5), q=4)      # terms vanish
@example(ideal=ideal_from(3, ["5*x0^2 - 10*x1^2", "x2^3"], char_p=5), q=3)       # one vanishes
@example(ideal=ideal_from(1, ["x0^3"], char_p=5), q=6)
def test_graded_piece_matches_macaulay_matrix(ideal, q):
    oracle = macaulay_piece(ideal, q)
    assert graded_piece(ideal, q) == oracle
    # with no leads below, this step keeps every product
    assert _next_piece(ideal, oracle, frozenset()) == graded_piece(ideal, q + 1)


@pytest.mark.parametrize("char_p", FIELDS)
def test_next_piece_skips_products_explained_below(char_p, monkeypatch):
    entry = next(e for e in FIXTURES if e.name == "rnc-quintic")
    ideal = replace(parse_ideal(load_text(entry.filename)), char_p=char_p)
    q = entry.qmax + 1
    below = graded_piece(ideal, q)
    leads_below = frozenset(graded_piece(ideal, q - 1).rewrite)
    given = []

    def counting_echelon(rows, *rest):
        given.append(len(rows))
        return reduced_echelon(rows, *rest)

    monkeypatch.setattr(koszul, "reduced_echelon", counting_echelon)
    piece = _next_piece(ideal, below, leads_below)
    assert given[0] < ideal.num_vars * below.ideal_dim
    assert piece == macaulay_piece(ideal, q + 1)


@pytest.mark.parametrize("char_p", FIELDS)
def test_graded_pieces_chain_skips_products_explained_below(char_p, monkeypatch):
    # the chain itself hands each step the leads below, not only a direct call
    entry = next(e for e in FIXTURES if e.name == "rnc-quintic")
    ideal = replace(parse_ideal(load_text(entry.filename)), char_p=char_p)
    given = []

    def counting_echelon(rows, *rest):
        given.append(len(rows))
        return reduced_echelon(rows, *rest)

    monkeypatch.setattr(koszul, "reduced_echelon", counting_echelon)
    pieces = list(islice(graded_pieces(ideal), entry.qmax + 3))
    assert len(given) == entry.qmax + 3
    assert given[-1] < ideal.num_vars * pieces[-2].ideal_dim
    assert pieces[-1] == macaulay_piece(ideal, entry.qmax + 2)


@pytest.mark.parametrize("char_p", FIELDS)
def test_complete_intersection_345_pieces(char_p):
    # powers of the rows of a unimodular matrix: a complete intersection in every field
    ideal = Ideal(num_vars=3, char_p=char_p, generators=(
        power(linear(1, 1, 1), 3), power(linear(1, 2, 2), 4), power(linear(1, 2, 3), 5)))
    pieces = list(islice(graded_pieces(ideal), 14))
    assert [piece.q for piece in pieces] == list(range(14))
    assert [piece.dim for piece in pieces[:10]] == [1, 3, 6, 9, 11, 11, 9, 6, 3, 1]
    for piece in pieces[10:]:
        assert piece.standard == ()
        assert set(piece.rewrite) == set(monomials_of_degree(3, piece.q))
        assert all(rule == {} for rule in piece.rewrite.values())
    assert pieces[13] == graded_piece(ideal, 13) == macaulay_piece(ideal, 13)
