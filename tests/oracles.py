"""Reference helpers that only the tests use, kept apart from the library.

pytest collects only `test_*.py`, so nothing here runs as a test by itself.
"""

from fractions import Fraction

from bettikit.linalg import field, reduced_echelon
from bettikit.polyring import Ideal, poly_to_str
from bettikit.pure import hk_diagram
from bettikit.tables import BettiTable


def normal_form(piece, poly, char_p):
    """Reduce a degree-q polynomial modulo I_q, in the standard monomials of `piece`."""
    F = field(char_p)
    out = {}
    for mono, raw in poly.items():
        coeff = F.coeff(Fraction(raw))
        for target, factor in piece.rewrite.get(mono, {mono: F.one}).items():
            out[target] = out.get(target, 0) + coeff * factor
    return {m: c for m, v in out.items() if (c := F.coeff(v))}


def cut_ideal(ideal, *path):
    """I + (x_v) / (x_v) as an ideal of the ring without x_v, for each v of `path` in turn.

    Each v is indexed in the ring it is cut from, as in a cut path of
    `koszul._cut_regular_variables`.
    """
    for var in path:
        generators = []
        for g in ideal.generators:
            cut = {mono[:var] + mono[var + 1:]: coeff for mono, coeff in g.items()
                   if not mono[var]}
            if cut:
                generators.append(cut)
        ideal = Ideal(ideal.num_vars - 1, tuple(generators), ideal.char_p)
    return ideal


def rref(rows, char_p=None):
    """`reduced_echelon` of any rows over the rationals or GF(char_p)."""
    F = field(char_p)
    return reduced_echelon(map(F.row, rows), F)


def chain_check(decomposition):
    """True iff consecutive terms have non-increasing length and compare termwise."""
    terms = decomposition.terms
    for (_, a), (_, b) in zip(terms, terms[1:]):
        if a.length < b.length:
            return False
        if any(a[k] > b[k] for k in range(len(b))):
            return False
    return True


def reconstruct(decomposition):
    """Sum of c * pi(d) over the terms, cell by cell in Fractions on a plain dict."""
    total = {}
    for coefficient, d in decomposition.terms:
        for cell, value in hk_diagram(d).entries.items():
            total[cell] = total.get(cell, 0) + coefficient * value
    return BettiTable(total)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def power(poly, exponent):
    """poly ** exponent, for a polynomial in three variables."""
    out = {(0, 0, 0): 1}
    for _ in range(exponent):
        product = {}
        for ma, ca in out.items():
            for mb, cb in poly.items():
                mono = mono_mul(ma, mb)
                product[mono] = product.get(mono, 0) + ca * cb
        out = product
    return {m: Fraction(c) for m, c in out.items() if c}


def linear(a, b, c):
    return {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}


def ideal_to_str(ideal):
    """The ideal in the file format `parse_ideal` reads."""
    lines = [f"vars {ideal.num_vars}", f"field {ideal.field_label()}"]
    lines.extend(poly_to_str(g) for g in ideal.generators)
    return "\n".join(lines) + "\n"
