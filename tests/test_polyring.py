import random
from fractions import Fraction

import pytest

from bettikit.koszul import betti_table, graded_piece
from bettikit.linalg import SparseMatrix
from bettikit.polyring import (PRIME_LIMIT, Ideal, is_prime, mono_times_var,
                               monomials_of_degree, parse_ideal, parse_polynomial, poly_to_str)
from bettikit.selftest import random_ideal
from bettikit.tables import ParseError
from oracles import ideal_to_str


def test_monomial_enumeration_order():
    assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials_of_degree(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(monomials_of_degree(4, 3)) == 20  # C(6, 3)


def test_parse_polynomial_basics():
    poly = parse_polynomial("x0*x2 - x1^2", 3)
    assert poly == {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)}
    poly = parse_polynomial("2*x0^2 + 1/2*x1*x2", 3)
    assert poly == {(2, 0, 0): Fraction(2), (0, 1, 1): Fraction(1, 2)}


def test_parse_polynomial_cancellation():
    assert parse_polynomial("x0 - x0 + x1", 2) == {(0, 1): Fraction(1)}


def test_parse_polynomial_unknown_variable():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x0*x7", 3, line=4)
    assert info.value.line == 4
    assert "x7" in str(info.value)


def test_parse_polynomial_bad_tokens():
    for text in ("x0 +", "* x0", "^2", "x0^", "x0^-2", "x0 2", "y0"):
        with pytest.raises(ParseError):
            parse_polynomial(text, 2)


# each of parse_polynomial's own messages, with the column it reports on line 5
PARSE_ERRORS = [
    ("x0 + y", "unexpected token 'y'", 6),
    ("x0^x1", "bad exponent 'x1'", 4),
    ("x0^-2", "bad exponent '-'", 4),
    ("x0^1/2", "bad exponent '1/2'", 4),
    ("x0^0", "exponent must be positive, got '0'", 4),
    ("* x0", "misplaced '*'", 1),
    ("x1 + * x0", "misplaced '*'", 6),
    ("^2", "'^' must follow a variable", 1),
    ("2^2", "'^' must follow a variable", 2),
    ("x0^2^3", "'^' must follow a variable", 5),
    ("x0*^2", "'^' must follow a variable", 4),
    ("x0*x7", "unknown variable 'x7' (only x0..x1 declared)", 4),
    ("x0 2", "coefficient '2' must precede variables", 4),
    ("x0^", "exponent expected after '^'", 3),
    ("x0 +", "polynomial ends with a dangling sign or is empty", 4),
    ("x0 - -  ", "polynomial ends with a dangling sign or is empty", 8),
    ("", "polynomial ends with a dangling sign or is empty", 0),
]


@pytest.mark.parametrize("text, message, column", PARSE_ERRORS)
def test_parse_polynomial_error_messages(text, message, column):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, 2, line=5)
    assert (info.value.message, info.value.line, info.value.column) == (message, 5, column)


# spellings the grammar accepts, with their parsed terms in insertion order
PARSED = [
    ("x0*", [((1, 0), 1)]),
    ("x0 * * x1", [((1, 1), 1)]),
    ("x0*x1^2", [((1, 2), 1)]),
    ("2x0", [((1, 0), 2)]),
    ("x0 x1", [((1, 1), 1)]),
    ("x0^2x1", [((2, 1), 1)]),
    ("- - x0", [((1, 0), 1)]),
    ("-x1 + 3/6", [((0, 1), -1), ((0, 0), Fraction(1, 2))]),
    ("x1 + x0 - x1 + x1", [((1, 0), 1), ((0, 1), 1)]),
    ("  x0^10 - 2*x1^10  ", [((10, 0), 1), ((0, 10), -2)]),
]


@pytest.mark.parametrize("text, terms", PARSED)
def test_parse_polynomial_accepted_spellings(text, terms):
    poly = parse_polynomial(text, 2)
    assert list(poly.items()) == terms
    assert all(type(value) is Fraction for value in poly.values())


def test_parse_polynomial_zero_denominator():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x0*x1 + 1/0*x0^2", 2, line=3)
    assert (info.value.line, info.value.column) == (3, 9)
    assert "zero denominator" in info.value.message


def test_parse_ideal_header_and_field():
    ideal = parse_ideal("vars 2\nfield gf 101\nx0^2\n")
    assert ideal.num_vars == 2
    assert ideal.char_p == 101
    default = parse_ideal("vars 2\nx0^2\n")
    assert default.char_p == 32003
    rational = parse_ideal("vars 2\nfield rational\nx0^2\n")
    assert rational.char_p is None


def test_parse_ideal_errors():
    with pytest.raises(ParseError):
        parse_ideal("x0^2\n")                      # missing header
    with pytest.raises(ParseError):
        parse_ideal("vars 2\nfield gf x\nx0^2\n")  # bad field
    with pytest.raises(ParseError):
        parse_ideal("vars 2\nx0 + x1^2\n")         # inhomogeneous
    with pytest.raises(ParseError) as info:
        parse_ideal("vars 2\nx0 - x0\n")           # zero generator
    assert info.value.line == 2


def test_ideal_rejects_arity_mismatch_and_degree_zero():
    with pytest.raises(ValueError, match="arity"):
        Ideal(num_vars=2, generators=({(1, 0, 0): Fraction(1)},))
    with pytest.raises(ValueError, match="degree >= 1"):
        Ideal(num_vars=2, generators=({(0, 0): Fraction(1)},))


@pytest.mark.parametrize("text, generator", [
    ("vars 2\n  1\n", {(0, 0): Fraction(1)}),
    ("vars 2\nx0 + x1^2\n", {(1, 0): Fraction(1), (0, 2): Fraction(1)}),
    ("vars 2\nx0 - x0\n", {}),
], ids=["constant", "inhomogeneous", "zero"])
def test_parse_ideal_reports_the_ideal_check_at_its_line(text, generator):
    # one copy of each check: the file reports at its line what `Ideal` reports
    with pytest.raises(ParseError) as parsed:
        parse_ideal(text)
    with pytest.raises(ParseError) as built:
        Ideal(num_vars=2, generators=(generator,))
    assert (parsed.value.line, parsed.value.message) == (2, built.value.message)
    assert built.value.line is None


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(5000) if is_prime(n)] == [n for n in range(5000) if trial(n)]
    # strong pseudoprimes to the smallest bases, and the largest prime below 2^64
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**64 - 59)
    assert is_prime(2**64 + 13)
    # the limit is itself a strong pseudoprime to all twelve bases
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(PRIME_LIMIT)


# 2**89 - 1 is a prime above the limit, PRIME_LIMIT = 399165290221 * 798330580441
@pytest.mark.parametrize("char_p", [0, 1, 4, 9, 32001, PRIME_LIMIT, 2**89 - 1])
def test_ideal_rejects_non_prime_characteristic(char_p):
    with pytest.raises(ValueError, match="prime"):
        Ideal(num_vars=2, generators=(), char_p=char_p)
    with pytest.raises(ValueError, match="prime"):
        parse_ideal(f"vars 2\nfield gf {char_p}\nx0^2\n")


def test_ideal_accepts_prime_above_two_to_the_64():
    ideal = parse_ideal(f"vars 2\nfield gf {2**64 + 13}\nx0^2\nx1^2\n")
    assert ideal.char_p == 2**64 + 13
    table, _ = betti_table(ideal, 2)
    assert dict(table.entries) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_poly_to_str_canonical():
    poly = parse_polynomial("- x1^2 + x0*x2", 3)
    assert poly_to_str(poly) == "x0*x2 - x1^2"
    assert parse_polynomial(poly_to_str(poly), 3) == poly


def test_ideal_round_trip_random():
    rng = random.Random(31)
    for _ in range(40):
        ideal = random_ideal(rng)
        back = parse_ideal(ideal_to_str(ideal))
        assert back.num_vars == ideal.num_vars
        assert back.char_p == ideal.char_p
        assert back.generators == ideal.generators


def test_first_strand_counts_minimal_generators():
    # kappa_{1,q-1} = dim I_q - dim S_1 * I_{q-1}, the new generators in degree q
    text = "vars 3\nfield rational\nx0^2 - x1*x2\nx1^3\n"
    ideal = parse_ideal(text)
    table, _ = betti_table(ideal, 4)
    for q in range(1, 5):
        dim_iq = graded_piece(ideal, q).ideal_dim
        prev = graded_piece(ideal, q - 1)
        basis_index = {m: i for i, m in enumerate(monomials_of_degree(3, q))}
        rows = []
        for pivot, rule in prev.rewrite.items():
            # pivot - normal_form(pivot) spans I_{q-1}; multiply by each variable
            for var in range(3):
                row = {basis_index[mono_times_var(pivot, var)]: Fraction(1)}
                for mono, coeff in rule.items():
                    col = basis_index[mono_times_var(mono, var)]
                    row[col] = row.get(col, Fraction(0)) - coeff
                rows.append({c: v for c, v in row.items() if v != 0})
        grown = SparseMatrix(len(rows), len(basis_index), rows).rank(None)
        assert table.entry(1, q - 1) == dim_iq - grown
