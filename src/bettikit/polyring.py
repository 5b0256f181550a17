"""Multivariate polynomials over the rationals and homogeneous ideals.

A monomial is an exponent tuple (one entry per variable x0, ..., xr) and a
polynomial is a sparse dict {monomial: Fraction}, zero coefficients never
stored.  Monomials of a fixed degree are ordered graded-lex with
x0 > x1 > ... > xr, which here means lexicographically descending exponent
tuples; this fixed order makes every serialized matrix reproducible.

An ideal records its generators with rational coefficients regardless of the
working field; the characteristic (None for exact rationals, a prime p for
GF(p)) tells the Koszul engine how to interpret them.

Ideal file format::

    vars 4
    field gf 32003        # optional; any field `parse_field` reads
    x0*x2 - x1^2
    x0*x3 - x1*x2
    x1*x3 - x2^2
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .tables import DIGITS, ParseError, integer, rational

Monomial = tuple[int, ...]
Poly = dict[Monomial, Fraction]

DEFAULT_PRIME = 32003

# Miller-Rabin with the first 12 primes as bases is exact for every n below
# PRIME_LIMIT, the least strong pseudoprime to all of them (about 3.18e23).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 318665857834031151167461


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of the given total degree, lexicographically descending."""
    if num_vars < 1 or degree < 0:
        raise ValueError(f"need num_vars >= 1 and degree >= 0, got {num_vars}, {degree}")
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


def mono_degree(mono: Monomial) -> int:
    return sum(mono)


def mono_times_var(mono: Monomial, var: int) -> Monomial:
    return mono[:var] + (mono[var] + 1,) + mono[var + 1:]


def is_homogeneous(poly: Poly) -> bool:
    degrees = {mono_degree(m) for m in poly}
    return len(degrees) <= 1


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < PRIME_LIMIT (deterministic Miller-Rabin)."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {PRIME_LIMIT}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Ideal:
    """Homogeneous ideal in k[x0, ..., x_{num_vars-1}].

    char_p is None for exact rational arithmetic or a prime below
    PRIME_LIMIT (about 3.18e23) for GF(p); anything else is rejected, since
    elimination mod a composite need not terminate.
    Generators are kept with rational coefficients; reduction happens in the
    engine.  The ideal is used exactly as given: no saturation, no Groebner
    preprocessing.  Each rule has one check below, which `parse_ideal` and
    `parse_field` also run, at the line they read.
    """

    num_vars: int
    generators: tuple[Poly, ...]
    char_p: int | None = None

    def __post_init__(self):
        _check_vars(self.num_vars)
        _check_field(self.char_p)
        for g in self.generators:
            _check_generator(g, self.num_vars)

    def field_label(self) -> str:
        return "rational" if self.char_p is None else f"gf {self.char_p}"


def _check_vars(num_vars: int, line: int | None = None) -> None:
    if num_vars < 1:
        raise ParseError("need at least one variable", line)


def _check_field(char_p: int | None, line: int | None = None) -> None:
    if char_p is not None and not (char_p < PRIME_LIMIT and is_prime(char_p)):
        raise ParseError(f"characteristic must be a prime below {PRIME_LIMIT}, got {char_p}", line)


def _check_generator(g: Poly, num_vars: int, line: int | None = None) -> None:
    if not g:
        raise ParseError("generator reduces to zero", line)
    if any(len(m) != num_vars for m in g):
        raise ParseError("generator arity does not match num_vars", line)
    if not is_homogeneous(g):
        raise ParseError(f"generator {poly_to_str(g)} is not homogeneous", line)
    if mono_degree(next(iter(g))) < 1:
        raise ParseError("generators must have degree >= 1", line)


_FIELD_RE = re.compile(rf"rational|gf\s*({DIGITS})")


def parse_field(text: str, line: int | None = None) -> int | None:
    """The characteristic a field name gives: None for 'rational', p for 'gf p' or 'gfp'."""
    match = _FIELD_RE.fullmatch(text)
    if match is None:
        raise ParseError(f"bad field {text!r}, expected 'rational', 'gf P' or 'gfP'", line)
    char_p = None if match[1] is None else integer(match[1], "characteristic", line)
    _check_field(char_p, line)
    return char_p


_TOKEN_RE = re.compile(rf"\s*(?:(?P<sign>[+-])|(?P<coeff>{DIGITS}(?:/{DIGITS})?)"
                       rf"|(?P<var>x{DIGITS})|(?P<pow>\^)|(?P<mul>\*)|(?P<junk>\S))")


def parse_polynomial(text: str, num_vars: int, line: int = 1) -> Poly:
    """Parse one polynomial in ASCII form, e.g. ``x0*x2 - 2*x1^2 + 1/2*x3^2``."""
    poly: Poly = {}
    # the open term (open once its coefficient or a variable is read), and its sign
    sign, coeff, exponents = 1, None, None
    last_var = None   # variable a following '^' applies to
    expect_exponent = False

    def flush():
        mono = (0,) * num_vars if exponents is None else tuple(exponents)
        new = poly.get(mono, 0) + (Fraction(1) if coeff is None else coeff) * sign
        if new:
            poly[mono] = new
        else:
            poly.pop(mono, None)

    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        token, column = match[kind], match.start(kind) + 1
        term_open = coeff is not None or exponents is not None
        if kind == "junk":
            raise ParseError(f"unexpected token {token!r}", line, column)
        elif expect_exponent:
            if kind != "coeff" or "/" in token:
                raise ParseError(f"bad exponent {token!r}", line, column)
            value = integer(token, "exponent", line, column)
            if value < 1:
                raise ParseError(f"exponent must be positive, got {token!r}", line, column)
            exponents[last_var] += value - 1
            last_var, expect_exponent = None, False
        elif kind == "sign":
            if term_open:
                flush()
                sign, coeff, exponents, last_var = 1, None, None, None
            if token == "-":
                sign = -sign
        elif kind == "mul":
            if not term_open:
                raise ParseError("misplaced '*'", line, column)
            last_var = None
        elif kind == "pow":
            if last_var is None:
                raise ParseError("'^' must follow a variable", line, column)
            expect_exponent = True
        elif kind == "var":
            index = integer(token[1:], "variable index", line, column)
            if index >= num_vars:
                raise ParseError(
                    f"unknown variable {token!r} (only x0..x{num_vars - 1} declared)",
                    line, column)
            if exponents is None:
                exponents = [0] * num_vars
            exponents[index] += 1
            last_var = index
        elif term_open:  # a bare number is a coefficient and must open the term
            raise ParseError(f"coefficient {token!r} must precede variables", line, column)
        else:
            coeff = rational(token, "coefficient", line, column)

    if expect_exponent:
        raise ParseError("exponent expected after '^'", line, len(text))
    if coeff is None and exponents is None:
        raise ParseError("polynomial ends with a dangling sign or is empty", line, len(text))
    flush()
    return poly


def parse_ideal(text: str) -> Ideal:
    """Parse an ideal file: a vars header, optional field line, one generator per line."""
    num_vars: int | None = None
    char_p: int | None = DEFAULT_PRIME
    field_seen = False
    generators: list[Poly] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # generator columns count from the start of the line
        body = raw.split("#", 1)[0].rstrip()
        line = body.lstrip()
        if not line:
            continue
        if num_vars is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "vars":
                raise ParseError(f"expected 'vars N' header, got {line!r}", lineno)
            num_vars = integer(parts[1], "variable count", lineno)
            _check_vars(num_vars, lineno)
            continue
        if line.split()[0] == "field" and not generators and not field_seen:
            char_p = parse_field(line[len("field"):].strip(), lineno)
            field_seen = True
            continue
        poly = parse_polynomial(body, num_vars, line=lineno)
        _check_generator(poly, num_vars, lineno)
        generators.append(poly)
    if num_vars is None:
        raise ParseError("missing 'vars N' header", 1)
    return Ideal(num_vars=num_vars, generators=tuple(generators), char_p=char_p)


def poly_to_str(poly: Poly) -> str:
    """Canonical ASCII form: terms in descending monomial order."""
    if not poly:
        return "0"
    pieces = []
    for mono in sorted(poly, key=lambda m: (mono_degree(m), m), reverse=True):
        coeff = poly[mono]
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = str(magnitude) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)
